"""Unit tests for the Kernel-C# lexer and parser."""

import pytest

from repro.errors import LexError, ParseError
from repro.lang import parse, tokenize
from repro.lang import ast_nodes as ast
from repro.lang.tokens import (
    CHAR_LIT,
    DOUBLE_LIT,
    EOF,
    FLOAT_LIT,
    IDENT,
    INT_LIT,
    KEYWORD,
    LONG_LIT,
    PUNCT,
    STRING_LIT,
)


class TestLexer:
    def kinds(self, src):
        return [t.kind for t in tokenize(src)]

    def test_empty(self):
        assert self.kinds("") == [EOF]

    def test_ints_and_suffixes(self):
        toks = tokenize("42 0x1F 7L 0xFFL")
        assert [(t.kind, t.value) for t in toks[:-1]] == [
            (INT_LIT, 42),
            (INT_LIT, 31),
            (LONG_LIT, 7),
            (LONG_LIT, 255),
        ]

    def test_floats(self):
        toks = tokenize("1.5 2.0e3 3f 4.5F 1e-6 7d")
        assert [(t.kind, t.value) for t in toks[:-1]] == [
            (DOUBLE_LIT, 1.5),
            (DOUBLE_LIT, 2000.0),
            (FLOAT_LIT, 3.0),
            (FLOAT_LIT, 4.5),
            (DOUBLE_LIT, 1e-6),
            (DOUBLE_LIT, 7.0),
        ]

    def test_string_escapes(self):
        toks = tokenize(r'"a\n\t\"b"')
        assert toks[0].kind == STRING_LIT
        assert toks[0].value == 'a\n\t"b'

    def test_char_literal(self):
        toks = tokenize("'A' '\\n'")
        assert toks[0].value == 65
        assert toks[1].value == 10

    def test_comments_skipped(self):
        toks = tokenize("a // line\n /* block\nmore */ b")
        assert [t.value for t in toks[:-1]] == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError, match="unterminated block comment"):
            tokenize("/* never ends")

    def test_unterminated_string(self):
        with pytest.raises(LexError, match="unterminated string"):
            tokenize('"abc')

    def test_maximal_munch_operators(self):
        toks = tokenize("a<<=b >>= == != <= >= && || ++ --")
        values = [t.value for t in toks if t.kind == PUNCT]
        assert values == ["<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "++", "--"]

    def test_keywords_vs_idents(self):
        toks = tokenize("class classy for fortune")
        assert [t.kind for t in toks[:-1]] == [KEYWORD, IDENT, KEYWORD, IDENT]

    def test_line_column_tracking(self):
        toks = tokenize("a\n  b")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)

    def test_unexpected_character(self):
        with pytest.raises(LexError, match="unexpected character"):
            tokenize("a @ b")

    def test_hex_without_digits(self):
        with pytest.raises(LexError, match="malformed hex"):
            tokenize("0x")

    # -- literals at end of input (regressions: "" is in every string) ----

    def test_zero_at_end_of_input(self):
        toks = tokenize("x = 0")
        assert [(t.kind, t.value) for t in toks[2:]] == [(INT_LIT, 0), (EOF, None)]

    @pytest.mark.parametrize("source, kind", [
        ("x = 0x10", INT_LIT), ("x = 0x10;", INT_LIT), ("x = 0x10L", LONG_LIT),
    ])
    def test_hex_at_end_of_input(self, source, kind):
        literal = tokenize(source)[2]
        assert (literal.kind, literal.value) == (kind, 16)

    def test_decimal_at_end_of_input(self):
        assert [t.kind for t in tokenize("1.5")] == [DOUBLE_LIT, EOF]
        assert [t.kind for t in tokenize("7")] == [INT_LIT, EOF]

    # -- positions ---------------------------------------------------------

    def test_position_after_multiline_block_comment(self):
        toks = tokenize("a /* one\n two\n  three */ b\n c")
        assert [(t.value, t.line, t.column) for t in toks] == [
            ("a", 1, 1), ("b", 3, 12), ("c", 4, 2), (None, 4, 3),
        ]

    def test_position_after_line_comment_at_end_of_input(self):
        toks = tokenize("a\n  b // trailing")
        assert [(t.kind, t.line, t.column) for t in toks] == [
            (IDENT, 1, 1), (IDENT, 2, 3), (EOF, 2, 16),
        ]

    def test_position_after_raw_newline_char_literal(self):
        toks = tokenize("'\n' x")
        assert (toks[0].kind, toks[0].value) == (CHAR_LIT, 10)
        assert (toks[1].line, toks[1].column) == (2, 3)

    # -- number literals -----------------------------------------------------

    @pytest.mark.parametrize("text, kind, value", [
        (".5", DOUBLE_LIT, 0.5),
        ("1e5", DOUBLE_LIT, 1e5),
        ("1e+5", DOUBLE_LIT, 1e5),
        ("2.5e-3", DOUBLE_LIT, 2.5e-3),
        ("1.5f", FLOAT_LIT, 1.5),
        ("2d", DOUBLE_LIT, 2.0),
        ("10L", LONG_LIT, 10),
        ("0xFFL", LONG_LIT, 255),
        ("0XaB", INT_LIT, 171),
        ("007", INT_LIT, 7),
    ])
    def test_number_literal(self, text, kind, value):
        toks = tokenize(text)
        assert [(t.kind, t.value) for t in toks] == [(kind, value), (EOF, None)]
        assert type(toks[0].value) is type(value)

    def test_l_suffix_on_floating_literal(self):
        with pytest.raises(LexError, match=r"^1:4: L suffix on floating literal$"):
            tokenize("1.0L")
        with pytest.raises(LexError, match=r"^1:4: L suffix on floating literal$"):
            tokenize("1e5L")

    def test_exponent_needs_digits(self):
        toks = tokenize("1e x")
        assert [(t.kind, t.value) for t in toks[:-1]] == [(INT_LIT, 1), (IDENT, "e"), (IDENT, "x")]

    def test_member_access_versus_fraction(self):
        toks = tokenize("x.Length 1.5 a.5")
        assert [(t.kind, t.value) for t in toks[:-1]] == [
            (IDENT, "x"), (PUNCT, "."), (IDENT, "Length"),
            (DOUBLE_LIT, 1.5),
            (IDENT, "a"), (DOUBLE_LIT, 0.5),
        ]

    def test_integer_then_member(self):
        toks = tokenize("1.ToString")
        assert [(t.kind, t.value) for t in toks[:-1]] == [
            (INT_LIT, 1), (PUNCT, "."), (IDENT, "ToString"),
        ]

    @pytest.mark.parametrize("op", ["<<=", ">>="])
    def test_maximal_munch_shift_assign(self, op):
        toks = tokenize(f"a{op}b")
        assert [(t.kind, t.value, t.column) for t in toks[:-1]] == [
            (IDENT, "a", 1), (PUNCT, op, 2), (IDENT, "b", 5),
        ]

    # -- errors carry line:column --------------------------------------------

    @pytest.mark.parametrize("source, message", [
        ("a\n  /* never\n ends", "3:6: unterminated block comment"),
        ("/*/", "1:4: unterminated block comment"),
        ('x = "abc', "1:9: unterminated string literal"),
        ('x\n "ab\ncd"', "2:5: unterminated string literal"),
        ('"a\\q"', "1:4: unknown escape \\q"),
        ("''", "1:2: empty char literal"),
        ("'ab'", "1:3: unterminated char literal"),
        ("x\n  'a", "2:5: unterminated char literal"),
        ("'\\n", "1:4: unterminated char literal"),
        ("'\\z'", "1:3: unknown escape \\z"),
        ("a @ b", "1:3: unexpected character '@'"),
        ("0x;", "1:3: malformed hex literal"),
    ])
    def test_error_position(self, source, message):
        with pytest.raises(LexError) as err:
            tokenize(source)
        assert str(err.value) == message

    def test_unicode_identifier(self):
        toks = tokenize("caf\u00e9 \u00e9t\u00e9")
        assert [(t.kind, t.value) for t in toks[:-1]] == [(IDENT, "caf\u00e9"), (IDENT, "\u00e9t\u00e9")]


class TestParser:
    def first_class(self, src):
        return parse(src).classes[0]

    def test_class_with_base(self):
        cls = self.first_class("class A : B { }")
        assert cls.name == "A" and cls.base_name == "B"

    def test_struct(self):
        cls = self.first_class("struct P { double x; double y; }")
        assert cls.is_struct and len(cls.fields) == 2

    def test_struct_with_base_rejected(self):
        with pytest.raises(ParseError, match="structs cannot have a base"):
            parse("struct P : Q { }")

    def test_method_modifiers(self):
        cls = self.first_class(
            "class A { static int F() { return 1; } virtual void G() { } }"
        )
        assert cls.methods[0].is_static
        assert cls.methods[1].is_virtual

    def test_constructor_with_base_args(self):
        cls = self.first_class("class A : B { A(int x) : base(x) { } }")
        ctor = cls.methods[0]
        assert ctor.is_ctor and len(ctor.base_args) == 1

    def test_field_multi_declarators(self):
        cls = self.first_class("class A { int x, y = 3; }")
        assert [f.name for f in cls.fields] == ["x", "y"]
        assert cls.fields[1].init is not None

    def test_array_type_ranks(self):
        cls = self.first_class("class A { double[,] m; int[][] j; }")
        assert cls.fields[0].type_expr.ranks == [2]
        assert cls.fields[1].type_expr.ranks == [1, 1]

    def test_for_statement(self):
        cls = self.first_class(
            "class A { void F() { for (int i = 0; i < 10; i++) { } } }"
        )
        body = cls.methods[0].body.statements[0]
        assert isinstance(body, ast.For)
        assert isinstance(body.init, ast.VarDecl)
        assert len(body.update) == 1

    def test_do_while(self):
        cls = self.first_class("class A { void F() { do { } while (true); } }")
        assert isinstance(cls.methods[0].body.statements[0], ast.DoWhile)

    def test_try_catch_finally(self):
        cls = self.first_class(
            "class A { void F() { try { } catch (Exception e) { } finally { } } }"
        )
        stmt = cls.methods[0].body.statements[0]
        assert isinstance(stmt, ast.Try)
        assert stmt.catches[0].type_name == "Exception"
        assert stmt.catches[0].var_name == "e"
        assert stmt.finally_body is not None

    def test_try_requires_handler(self):
        with pytest.raises(ParseError, match="try requires"):
            parse("class A { void F() { try { } } }")

    def test_lock_statement(self):
        cls = self.first_class("class A { void F(object o) { lock (o) { } } }")
        assert isinstance(cls.methods[0].body.statements[0], ast.Lock)

    def test_new_object_and_arrays(self):
        cls = self.first_class(
            "class A { void F() { object o = new A(); int[] a = new int[5]; "
            "double[,] m = new double[2, 3]; int[][] j = new int[4][]; } }"
        )
        stmts = cls.methods[0].body.statements
        assert isinstance(stmts[0].inits[0], ast.NewObject)
        assert isinstance(stmts[1].inits[0], ast.NewArray)
        assert len(stmts[2].inits[0].dims) == 2
        assert stmts[3].inits[0].extra_ranks == [1]

    def test_cast_vs_parenthesized(self):
        cls = self.first_class(
            "class A { int F(double d, int x) { int a = (int)d; int b = (x) + 1; return a + b; } }"
        )
        stmts = cls.methods[0].body.statements
        assert isinstance(stmts[0].inits[0], ast.Cast)
        assert isinstance(stmts[1].inits[0], ast.Binary)

    def test_class_type_cast(self):
        cls = self.first_class("class A { object F(object o) { return (A)o; } }")
        ret = cls.methods[0].body.statements[0]
        assert isinstance(ret.value, ast.Cast)

    def test_precedence(self):
        cls = self.first_class("class A { int F() { return 1 + 2 * 3; } }")
        value = cls.methods[0].body.statements[0].value
        assert value.op == "+"
        assert value.right.op == "*"

    def expr(self, text):
        return self.first_class(f"class A {{ void F() {{ x = {text}; }} }}").methods[0].body.statements[0].expr.value

    def test_full_binary_ladder(self):
        ops = ["|", "^", "&", "==", "<", "<<", "+", "*"]  # loosest first
        names = [ast.Name(line=1, ident=c) for c in "abcdefghi"]

        # loosest first: each operator's right operand is the rest
        expected = names[-1]
        for op, left in reversed(list(zip(ops, names))):
            expected = ast.Binary(line=1, op=op, left=left, right=expected)
        assert self.expr("a | b ^ c & d == e < f << g + h * i") == expected
        assert expected.right.right.right.right.right.right.right.op == "*"

        # tightest first: each operator's left operand is the tree so far
        expected = names[0]
        for op, right in zip(reversed(ops), names[1:]):
            expected = ast.Binary(line=1, op=op, left=expected, right=right)
        assert self.expr("a * b + c << d < e == f & g ^ h | i") == expected
        assert expected.left.left.left.left.left.left.left.op == "*"

    @pytest.mark.parametrize("op", ["-", "/", "<<", "<", "==", "&&", "||"])
    def test_left_associative(self, op):
        value = self.expr(f"a {op} b {op} c")
        assert value.op == op and value.right == ast.Name(line=1, ident="c")
        assert value.left.op == op
        assert (value.left.left.ident, value.left.right.ident) == ("a", "b")

    def test_logical_operators_build_logical_nodes(self):
        value = self.expr("a || b && c | d")
        assert isinstance(value, ast.Logical) and value.op == "||"
        assert isinstance(value.right, ast.Logical) and value.right.op == "&&"
        assert isinstance(value.right.right, ast.Binary) and value.right.right.op == "|"

    def test_binary_binds_tighter_than_conditional_and_assignment(self):
        value = self.expr("c ? a + 1 : b - 2")
        assert isinstance(value, ast.Conditional)
        assert (value.then.op, value.other.op) == ("+", "-")

    def test_binary_operand_line_is_operator_line(self):
        value = self.expr("a\n +\n b")
        assert value.line == 2

    def test_ternary(self):
        cls = self.first_class("class A { int F(bool b) { return b ? 1 : 2; } }")
        assert isinstance(cls.methods[0].body.statements[0].value, ast.Conditional)

    def test_compound_assign(self):
        cls = self.first_class("class A { void F() { int x = 0; x += 2; x <<= 1; } }")
        stmts = cls.methods[0].body.statements
        assert stmts[1].expr.op == "+"
        assert stmts[2].expr.op == "<<"

    def test_md_index(self):
        cls = self.first_class("class A { double F(double[,] m) { return m[1, 2]; } }")
        idx = cls.methods[0].body.statements[0].value
        assert isinstance(idx, ast.Index) and len(idx.indices) == 2

    def test_member_chain(self):
        cls = self.first_class("class A { int F(int[] a) { return a.Length; } }")
        assert isinstance(cls.methods[0].body.statements[0].value, ast.Member)

    def test_namespace_and_using_tolerated(self):
        program = parse(
            "using System; namespace Foo { class A { } class B { } } class C { }"
        )
        assert [c.name for c in program.classes] == ["A", "B", "C"]

    def test_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse("class A { void F() { int 5; } }")
        assert "expected identifier" in str(err.value)
