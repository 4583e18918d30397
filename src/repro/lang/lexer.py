"""Regular-expression lexer for Kernel-C#.

Supports: ``//`` and ``/* */`` comments, decimal and ``0x`` integer literals
with optional ``L`` suffix, floating literals with optional exponent and
``f``/``d`` suffixes, string and char literals with the common escapes.

One compiled master pattern matches every token and every run of trivia,
so the scan is one ``finditer`` over the source.  Its alternatives are
ordered as the token kinds are tried (trivia, numbers, words, literals,
punctuation longest first), and the last alternative matches any single
character, so the matches tile the whole source.  Malformed literals fall
through to that last alternative and are diagnosed there.
"""

from __future__ import annotations

import re
from typing import List

from ..errors import LexError
from .tokens import (
    CHAR_LIT,
    DOUBLE_LIT,
    EOF,
    FLOAT_LIT,
    IDENT,
    INT_LIT,
    KEYWORD,
    KEYWORDS,
    LONG_LIT,
    PUNCT,
    PUNCTUATION,
    STRING_LIT,
    Token,
)

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    "\\": "\\",
    '"': '"',
    "'": "'",
}

#: one string-literal character: anything but a quote, backslash or
#: newline, or a known escape
_STRING_BODY = r"""[^"\\\n]*(?:\\[ntr0\\"'][^"\\\n]*)*"""

_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r\n]+)"
    r"|(?P<comment>//[^\n]*|/\*.*?\*/)"
    r"|(?P<open_comment>/\*)"
    r"|(?P<hex>0[xX](?P<hex_digits>[0-9a-fA-F]*)(?P<hex_long>[lL]?))"
    r"|(?P<num>(?=\.?\d)\d*(?P<frac>\.\d+)?(?P<exp>[eE][+-]?\d+)?(?P<suffix>[fFdDlL]?))"
    r"|(?P<word>[A-Za-z_]\w*)"
    r'|(?P<string>"' + _STRING_BODY + '")'
    r"""|(?P<char>'(?:[^'\\]|\\[ntr0\\"'])')"""
    r"|(?P<punct>" + "|".join(map(re.escape, PUNCTUATION)) + ")"
    r"|(?P<uword>[^\W\d]\w*)"
    r"|(?P<other>.)",
    re.DOTALL,
)

_STRING_PREFIX_RE = re.compile('"' + _STRING_BODY)
_ESCAPE_RE = re.compile(r"\\(.)")


def _error(message: str, source: str, pos: int) -> LexError:
    """A :class:`LexError` located at offset ``pos`` of ``source``."""
    line = source.count("\n", 0, pos) + 1
    return LexError(message, line, pos - source.rfind("\n", 0, pos))


def _unescape(match) -> str:
    return _ESCAPES[match.group(1)]


def _bad_literal(source: str, start: int) -> LexError:
    """The error for a string or char literal opening at ``start`` that
    the master pattern could not match whole."""
    if source[start] == '"':
        stop = _STRING_PREFIX_RE.match(source, start).end()
        if source.startswith("\\", stop):
            return _error(f"unknown escape \\{source[stop + 1 : stop + 2]}", source, stop + 1)
        return _error("unterminated string literal", source, stop)
    c = source[start + 1 : start + 2]
    if c == "\\":
        esc = source[start + 2 : start + 3]
        if esc not in _ESCAPES:
            return _error(f"unknown escape \\{esc}", source, start + 2)
        return _error("unterminated char literal", source, start + 3)
    if c and c != "'":
        return _error("unterminated char literal", source, start + 2)
    return _error("empty char literal", source, start + 1)


def tokenize(source: str) -> List[Token]:
    """Tokenize Kernel-C# ``source``, raising :class:`LexError` on failure."""
    out: List[Token] = []
    append = out.append
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(source):
        group = m.lastgroup
        start = m.start()
        if group == "ws" or group == "comment":
            text = m.group()
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
            continue
        column = start - line_start + 1
        if group == "word":
            word = m.group()
            append(Token(KEYWORD if word in KEYWORDS else IDENT, word, line, column))
        elif group == "punct":
            append(Token(PUNCT, m.group(), line, column))
        elif group == "num":
            text = m.group()
            suffix = m.group("suffix")
            if suffix:
                text = text[:-1]
            is_float = m.group("frac") is not None or m.group("exp") is not None
            if suffix in ("f", "F"):
                append(Token(FLOAT_LIT, float(text), line, column))
            elif suffix in ("d", "D"):
                append(Token(DOUBLE_LIT, float(text), line, column))
            elif suffix:
                if is_float:
                    raise _error("L suffix on floating literal", source, m.end() - 1)
                append(Token(LONG_LIT, int(text), line, column))
            elif is_float:
                append(Token(DOUBLE_LIT, float(text), line, column))
            else:
                append(Token(INT_LIT, int(text), line, column))
        elif group == "hex":
            digits = m.group("hex_digits")
            if not digits:
                raise _error("malformed hex literal", source, start + 2)
            kind = LONG_LIT if m.group("hex_long") else INT_LIT
            append(Token(kind, int(digits, 16), line, column))
        elif group == "string":
            body = m.group()[1:-1]
            if "\\" in body:
                body = _ESCAPE_RE.sub(_unescape, body)
            append(Token(STRING_LIT, body, line, column))
        elif group == "char":
            text = m.group()
            value = text[1] if len(text) == 3 else _ESCAPES[text[2]]
            append(Token(CHAR_LIT, ord(value), line, column))
            if text[1] == "\n":  # a raw newline between the quotes
                line += 1
                line_start = start + 2
        elif group == "open_comment":
            raise _error("unterminated block comment", source, len(source))
        elif group == "uword" and m.group()[0].isalpha():
            append(Token(IDENT, m.group(), line, column))
        elif group == "other" and m.group() in "\"'":
            raise _bad_literal(source, start)
        else:
            raise _error(f"unexpected character {m.group()[0]!r}", source, start)
    append(Token(EOF, None, line, len(source) - line_start + 1))
    return out
