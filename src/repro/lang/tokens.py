"""Token kinds and the token object for the Kernel-C# lexer."""

from __future__ import annotations

from typing import NamedTuple

# token kinds
EOF = "eof"
IDENT = "ident"
KEYWORD = "keyword"
INT_LIT = "int"
LONG_LIT = "long"
FLOAT_LIT = "float"
DOUBLE_LIT = "double"
STRING_LIT = "string"
CHAR_LIT = "char"
PUNCT = "punct"

KEYWORDS = frozenset(
    """
    class struct new return if else while do for break continue
    static virtual override public private void int long short sbyte byte
    ushort uint ulong char float double bool object string true false null this base
    try catch finally throw lock const using namespace ref out
    """.split()
)

#: multi-character punctuation, longest first for maximal munch
PUNCTUATION = [
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
    "&=", "|=", "^=", "<<", ">>", "++", "--",
    "{", "}", "(", ")", "[", "]", ";", ",", ".", "=", "<", ">", "+", "-",
    "*", "/", "%", "!", "~", "&", "|", "^", "?", ":",
]


class Token(NamedTuple):
    """One token; a named tuple, so building one costs a single
    ``tuple.__new__`` on the lexer's hot path."""

    kind: str
    value: object
    line: int
    column: int

    @property
    def text(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"
