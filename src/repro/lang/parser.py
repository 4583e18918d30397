"""Recursive-descent parser for Kernel-C#.

The grammar is the C# 1.0 subset the benchmark suite needs (see DESIGN.md
section 3.2): classes/structs with fields, constructors, static/instance/
virtual methods; the full statement set including try/catch/finally and
``lock``; and the complete C# expression precedence ladder from assignment
down to primary, including casts, ``new`` array/object creation and
pre/post increment.  The binary operators share one precedence table and
one precedence-climbing loop.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ParseError
from . import ast_nodes as ast
from .lexer import tokenize
from .tokens import (
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
    Token,
)

#: keywords that can begin a type expression
TYPE_KEYWORDS = frozenset(
    "void int long short sbyte byte ushort char float double bool object string".split()
)

_ASSIGN_OPS = frozenset(["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="])

#: binary operator -> precedence, loosest first; ``||`` and ``&&`` build
#: short-circuit :class:`~repro.lang.ast_nodes.Logical` nodes
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}
_LOGICAL_AND = _BINARY_PRECEDENCE["&&"]


class Parser:
    def __init__(self, source: str, filename: str = "<source>") -> None:
        self.tokens = tokenize(source)
        self.pos = 0
        self.filename = filename

    # -- token plumbing ------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        tokens = self.tokens
        i = self.pos + offset
        return tokens[i] if i < len(tokens) else tokens[-1]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.column)

    def at_punct(self, text: str, offset: int = 0) -> bool:
        tok = self.peek(offset) if offset else self.tokens[self.pos]
        return tok.value == text and tok.kind == PUNCT

    def at_keyword(self, word: str, offset: int = 0) -> bool:
        tok = self.peek(offset) if offset else self.tokens[self.pos]
        return tok.value == word and tok.kind == KEYWORD

    def eat_punct(self, text: str) -> Token:
        if not self.at_punct(text):
            raise self.error(f"expected {text!r}, found {self.peek().text!r}")
        return self.next()

    def eat_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise self.error(f"expected {word!r}, found {self.peek().text!r}")
        return self.next()

    def eat_ident(self) -> str:
        tok = self.peek()
        if tok.kind != IDENT:
            raise self.error(f"expected identifier, found {tok.text!r}")
        self.next()
        return str(tok.value)

    def accept_punct(self, text: str) -> bool:
        if self.at_punct(text):
            self.next()
            return True
        return False

    # -- program structure ----------------------------------------------------

    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while not self.peek().kind == EOF:
            if self.at_keyword("using") or self.at_keyword("namespace"):
                # tolerated and ignored: benchmarks ported from C# keep them
                self._skip_using_or_namespace(program)
                continue
            program.classes.append(self.parse_class())
        return program

    def _skip_using_or_namespace(self, program: ast.Program) -> None:
        if self.at_keyword("using"):
            self.next()
            while not self.at_punct(";"):
                if self.peek().kind == EOF:
                    raise self.error("unterminated using directive")
                self.next()
            self.next()
        else:  # namespace X { classes }
            self.next()
            self.eat_ident()
            while self.at_punct("."):
                self.next()
                self.eat_ident()
            self.eat_punct("{")
            while not self.at_punct("}"):
                program.classes.append(self.parse_class())
            self.eat_punct("}")

    def parse_class(self) -> ast.ClassDecl:
        # access modifiers tolerated and ignored
        while self.at_keyword("public") or self.at_keyword("private"):
            self.next()
        is_struct = self.at_keyword("struct")
        if not is_struct and not self.at_keyword("class"):
            raise self.error(f"expected class or struct, found {self.peek().text!r}")
        tok = self.next()
        decl = ast.ClassDecl(line=tok.line, is_struct=is_struct)
        decl.name = self.eat_ident()
        if self.accept_punct(":"):
            if is_struct:
                raise self.error("structs cannot have a base type")
            decl.base_name = self.eat_ident()
        self.eat_punct("{")
        while not self.at_punct("}"):
            self.parse_member(decl)
        self.eat_punct("}")
        return decl

    def parse_member(self, decl: ast.ClassDecl) -> None:
        start = self.peek()
        is_static = False
        is_virtual = False
        is_override = False
        while True:
            if self.at_keyword("public") or self.at_keyword("private"):
                self.next()
            elif self.at_keyword("static"):
                self.next()
                is_static = True
            elif self.at_keyword("virtual"):
                self.next()
                is_virtual = True
            elif self.at_keyword("override"):
                self.next()
                is_override = True
            elif self.at_keyword("const"):
                self.next()
                is_static = True  # const fields behave as readonly statics
            else:
                break

        # constructor: Name (
        if (
            self.peek().kind == IDENT
            and self.peek().value == decl.name
            and self.at_punct("(", 1)
        ):
            method = ast.MethodDecl(line=start.line, is_ctor=True, name=".ctor")
            method.is_static = False
            self.next()  # class name
            method.params = self.parse_params()
            if self.accept_punct(":"):
                self.eat_keyword("base")
                method.base_args = self.parse_args()
            method.body = self.parse_block()
            decl.methods.append(method)
            return

        type_expr = self.parse_type()
        name_tok = self.peek()
        name = self.eat_ident()
        if self.at_punct("("):
            method = ast.MethodDecl(
                line=start.line,
                name=name,
                return_type=type_expr,
                is_static=is_static,
                is_virtual=is_virtual,
                is_override=is_override,
            )
            method.params = self.parse_params()
            method.body = self.parse_block()
            decl.methods.append(method)
        else:
            if is_virtual or is_override:
                raise self.error("fields cannot be virtual", name_tok)
            while True:
                f = ast.FieldDecl(
                    line=name_tok.line,
                    type_expr=type_expr,
                    name=name,
                    is_static=is_static,
                )
                if self.accept_punct("="):
                    f.init = self.parse_expression()
                decl.fields.append(f)
                if self.accept_punct(","):
                    name_tok = self.peek()
                    name = self.eat_ident()
                    continue
                break
            self.eat_punct(";")

    def parse_params(self) -> List[ast.Param]:
        self.eat_punct("(")
        params: List[ast.Param] = []
        if not self.at_punct(")"):
            while True:
                tok = self.peek()
                type_expr = self.parse_type()
                name = self.eat_ident()
                params.append(ast.Param(type_expr=type_expr, name=name, line=tok.line))
                if not self.accept_punct(","):
                    break
        self.eat_punct(")")
        return params

    # -- types ------------------------------------------------------------------

    def parse_type(self) -> ast.TypeExpr:
        tok = self.peek()
        if tok.kind == KEYWORD and tok.value in TYPE_KEYWORDS:
            self.next()
            name = str(tok.value)
        elif tok.kind == IDENT:
            self.next()
            name = str(tok.value)
        else:
            raise self.error(f"expected type, found {tok.text!r}")
        t = ast.TypeExpr(name=name, line=tok.line)
        while self.at_punct("["):
            # distinguish rank brackets from indexing at call sites; here,
            # consume only bracket groups containing just commas
            rank = 1
            offset = 1
            while self.at_punct(",", offset):
                rank += 1
                offset += 1
            if not self.at_punct("]", offset):
                break
            self.next()  # [
            for _ in range(rank - 1):
                self.next()  # ,
            self.next()  # ]
            t.ranks.append(rank)
        return t

    # -- statements ----------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        tok = self.eat_punct("{")
        block = ast.Block(line=tok.line)
        while not self.at_punct("}"):
            if self.peek().kind == EOF:
                raise self.error("unterminated block")
            block.statements.append(self.parse_statement())
        self.eat_punct("}")
        return block

    def parse_statement(self) -> ast.Stmt:
        tok = self.peek()
        if tok.kind == PUNCT and tok.value == "{":
            return self.parse_block()
        if tok.kind == PUNCT and tok.value == ";":
            self.next()
            return ast.Block(line=tok.line)
        if tok.kind == KEYWORD:
            word = tok.value
            if word == "if":
                return self.parse_if()
            if word == "while":
                return self.parse_while()
            if word == "do":
                return self.parse_do_while()
            if word == "for":
                return self.parse_for()
            if word == "return":
                self.next()
                stmt = ast.Return(line=tok.line)
                if not self.at_punct(";"):
                    stmt.value = self.parse_expression()
                self.eat_punct(";")
                return stmt
            if word == "break":
                self.next()
                self.eat_punct(";")
                return ast.Break(line=tok.line)
            if word == "continue":
                self.next()
                self.eat_punct(";")
                return ast.Continue(line=tok.line)
            if word == "throw":
                self.next()
                stmt = ast.Throw(line=tok.line)
                if not self.at_punct(";"):
                    stmt.value = self.parse_expression()
                self.eat_punct(";")
                return stmt
            if word == "try":
                return self.parse_try()
            if word == "lock":
                self.next()
                self.eat_punct("(")
                target = self.parse_expression()
                self.eat_punct(")")
                body = self.parse_statement()
                return ast.Lock(line=tok.line, target=target, body=body)
            if word in TYPE_KEYWORDS:
                return self.parse_var_decl()
        # IDENT could start a declaration (`Foo x = ...`, `int[] a`, `Foo[] a`)
        if self._looks_like_declaration():
            return self.parse_var_decl()
        expr = self.parse_expression()
        self.eat_punct(";")
        return ast.ExprStmt(line=tok.line, expr=expr)

    def _looks_like_declaration(self) -> bool:
        """IDENT (rank-brackets)* IDENT (';' | '=' | ',') => declaration."""
        if self.peek().kind != IDENT:
            return False
        offset = 1
        # skip rank bracket groups: '[' ','* ']'
        while self.at_punct("[", offset):
            inner = offset + 1
            while self.at_punct(",", inner):
                inner += 1
            if not self.at_punct("]", inner):
                return False
            offset = inner + 1
        if self.peek(offset).kind != IDENT:
            return False
        after = self.peek(offset + 1)
        return after.kind == PUNCT and after.value in (";", "=", ",")

    def parse_var_decl(self) -> ast.VarDecl:
        tok = self.peek()
        type_expr = self.parse_type()
        decl = ast.VarDecl(line=tok.line, type_expr=type_expr)
        while True:
            decl.names.append(self.eat_ident())
            if self.accept_punct("="):
                decl.inits.append(self.parse_expression())
            else:
                decl.inits.append(None)
            if not self.accept_punct(","):
                break
        self.eat_punct(";")
        return decl

    def parse_if(self) -> ast.If:
        tok = self.eat_keyword("if")
        self.eat_punct("(")
        cond = self.parse_expression()
        self.eat_punct(")")
        then = self.parse_statement()
        other = None
        if self.at_keyword("else"):
            self.next()
            other = self.parse_statement()
        return ast.If(line=tok.line, cond=cond, then=then, other=other)

    def parse_while(self) -> ast.While:
        tok = self.eat_keyword("while")
        self.eat_punct("(")
        cond = self.parse_expression()
        self.eat_punct(")")
        body = self.parse_statement()
        return ast.While(line=tok.line, cond=cond, body=body)

    def parse_do_while(self) -> ast.DoWhile:
        tok = self.eat_keyword("do")
        body = self.parse_statement()
        self.eat_keyword("while")
        self.eat_punct("(")
        cond = self.parse_expression()
        self.eat_punct(")")
        self.eat_punct(";")
        return ast.DoWhile(line=tok.line, body=body, cond=cond)

    def parse_for(self) -> ast.For:
        tok = self.eat_keyword("for")
        self.eat_punct("(")
        stmt = ast.For(line=tok.line)
        if not self.at_punct(";"):
            if (self.peek().kind == KEYWORD and self.peek().value in TYPE_KEYWORDS) or self._looks_like_declaration():
                # declaration consumes its own ';'
                stmt.init = self._parse_for_init_decl()
            else:
                stmt.init = ast.ExprStmt(line=self.peek().line, expr=self.parse_expression())
                self.eat_punct(";")
        else:
            self.next()
        if not self.at_punct(";"):
            stmt.cond = self.parse_expression()
        self.eat_punct(";")
        if not self.at_punct(")"):
            while True:
                stmt.update.append(self.parse_expression())
                if not self.accept_punct(","):
                    break
        self.eat_punct(")")
        stmt.body = self.parse_statement()
        return stmt

    def _parse_for_init_decl(self) -> ast.VarDecl:
        tok = self.peek()
        type_expr = self.parse_type()
        decl = ast.VarDecl(line=tok.line, type_expr=type_expr)
        while True:
            decl.names.append(self.eat_ident())
            if self.accept_punct("="):
                decl.inits.append(self.parse_expression())
            else:
                decl.inits.append(None)
            if not self.accept_punct(","):
                break
        self.eat_punct(";")
        return decl

    def parse_try(self) -> ast.Try:
        tok = self.eat_keyword("try")
        stmt = ast.Try(line=tok.line)
        stmt.body = self.parse_block()
        while self.at_keyword("catch"):
            ctok = self.next()
            clause = ast.CatchClause(line=ctok.line)
            if self.accept_punct("("):
                clause.type_name = self.eat_ident()
                if self.peek().kind == IDENT:
                    clause.var_name = self.eat_ident()
                self.eat_punct(")")
            else:
                clause.type_name = "Exception"
            clause.body = self.parse_block()
            stmt.catches.append(clause)
        if self.at_keyword("finally"):
            self.next()
            stmt.finally_body = self.parse_block()
        if not stmt.catches and stmt.finally_body is None:
            raise self.error("try requires catch or finally", tok)
        return stmt

    # -- expressions -----------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self.parse_assignment()

    def parse_assignment(self) -> ast.Expr:
        left = self.parse_conditional()
        tok = self.peek()
        if tok.kind == PUNCT and tok.value in _ASSIGN_OPS:
            self.next()
            value = self.parse_assignment()
            op = "" if tok.value == "=" else str(tok.value)[:-1]
            return ast.Assign(line=tok.line, target=left, op=op, value=value)
        return left

    def parse_conditional(self) -> ast.Expr:
        cond = self.parse_binary()
        if self.at_punct("?"):
            tok = self.next()
            then = self.parse_expression()
            self.eat_punct(":")
            other = self.parse_conditional()
            return ast.Conditional(line=tok.line, cond=cond, then=then, other=other)
        return cond

    def parse_binary(self, min_precedence: int = 1) -> ast.Expr:
        """Precedence climbing over :data:`_BINARY_PRECEDENCE`: every
        binary operator is left-associative, so the right operand only
        takes operators that bind tighter than the one just read."""
        left = self.parse_unary()
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            precedence = _BINARY_PRECEDENCE.get(tok.value) if tok.kind == PUNCT else None
            if precedence is None or precedence < min_precedence:
                return left
            self.pos += 1
            right = self.parse_binary(precedence + 1)
            node = ast.Logical if precedence <= _LOGICAL_AND else ast.Binary
            left = node(line=tok.line, op=tok.value, left=left, right=right)

    def _looks_like_cast(self) -> bool:
        """``(type) unary-expr`` — types are keywords or ``Ident[ranks]``
        followed by something that can start a unary expression."""
        if not self.at_punct("("):
            return False
        tok1 = self.peek(1)
        if tok1.kind == KEYWORD and tok1.value in TYPE_KEYWORDS:
            return True
        if tok1.kind != IDENT:
            return False
        # (Ident) X where X starts an operand => cast to a class type
        offset = 2
        while self.at_punct("[", offset):
            inner = offset + 1
            while self.at_punct(",", inner):
                inner += 1
            if not self.at_punct("]", inner):
                return False
            offset = inner + 1
        if not self.at_punct(")", offset):
            return False
        after = self.peek(offset + 1)
        if after.kind in (IDENT, INT_LIT, LONG_LIT, FLOAT_LIT, DOUBLE_LIT, STRING_LIT, CHAR_LIT):
            return True
        if after.kind == KEYWORD and after.value in ("new", "this", "true", "false", "null", "base"):
            return True
        if after.kind == PUNCT and after.value == "(":
            return True
        return False

    def parse_unary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == PUNCT:
            if tok.value in ("-", "!", "~"):
                self.next()
                operand = self.parse_unary()
                return ast.Unary(line=tok.line, op=str(tok.value), operand=operand)
            if tok.value == "+":
                self.next()
                return self.parse_unary()
            if tok.value in ("++", "--"):
                self.next()
                target = self.parse_unary()
                return ast.IncDec(line=tok.line, target=target, op=str(tok.value), prefix=True)
            if self._looks_like_cast():
                self.next()  # (
                type_expr = self.parse_type()
                self.eat_punct(")")
                operand = self.parse_unary()
                return ast.Cast(line=tok.line, type_expr=type_expr, operand=operand)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            tok = self.tokens[self.pos]
            if tok.kind != PUNCT:
                return expr
            value = tok.value
            if value == ".":
                self.next()
                name = self.eat_ident()
                if self.at_punct("("):
                    args = self.parse_args()
                    call = ast.Call(
                        line=tok.line,
                        callee=ast.Member(line=tok.line, target=expr, name=name),
                        args=args,
                    )
                    if isinstance(expr, ast.Name) and expr.ident == "base":
                        call.is_base_call = True
                    expr = call
                else:
                    expr = ast.Member(line=tok.line, target=expr, name=name)
            elif value == "[":
                self.next()
                indices = [self.parse_expression()]
                while self.accept_punct(","):
                    indices.append(self.parse_expression())
                self.eat_punct("]")
                expr = ast.Index(line=tok.line, target=expr, indices=indices)
            elif value == "(":
                args = self.parse_args()
                expr = ast.Call(line=tok.line, callee=expr, args=args)
            elif value == "++" or value == "--":
                self.next()
                expr = ast.IncDec(line=tok.line, target=expr, op=value, prefix=False)
            else:
                return expr

    def parse_args(self) -> List[ast.Expr]:
        self.eat_punct("(")
        args: List[ast.Expr] = []
        if not self.at_punct(")"):
            while True:
                args.append(self.parse_expression())
                if not self.accept_punct(","):
                    break
        self.eat_punct(")")
        return args

    def parse_primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == INT_LIT:
            self.next()
            return ast.IntLit(line=tok.line, value=int(tok.value))
        if tok.kind == LONG_LIT:
            self.next()
            return ast.IntLit(line=tok.line, value=int(tok.value), is_long=True)
        if tok.kind == DOUBLE_LIT:
            self.next()
            return ast.FloatLit(line=tok.line, value=float(tok.value))
        if tok.kind == FLOAT_LIT:
            self.next()
            return ast.FloatLit(line=tok.line, value=float(tok.value), is_single=True)
        if tok.kind == STRING_LIT:
            self.next()
            return ast.StringLit(line=tok.line, value=str(tok.value))
        if tok.kind == CHAR_LIT:
            self.next()
            return ast.CharLit(line=tok.line, value=int(tok.value))
        if tok.kind == KEYWORD:
            if tok.value == "true":
                self.next()
                return ast.BoolLit(line=tok.line, value=True)
            if tok.value == "false":
                self.next()
                return ast.BoolLit(line=tok.line, value=False)
            if tok.value == "null":
                self.next()
                return ast.NullLit(line=tok.line)
            if tok.value == "this":
                self.next()
                return ast.ThisExpr(line=tok.line)
            if tok.value == "base":
                self.next()
                return ast.Name(line=tok.line, ident="base")
            if tok.value == "new":
                return self.parse_new()
            if tok.value in TYPE_KEYWORDS:
                # e.g. int.MaxValue / double.NaN
                self.next()
                return ast.Name(line=tok.line, ident=str(tok.value))
        if tok.kind == IDENT:
            self.next()
            return ast.Name(line=tok.line, ident=str(tok.value))
        if self.at_punct("("):
            self.next()
            expr = self.parse_expression()
            self.eat_punct(")")
            return expr
        raise self.error(f"unexpected token {tok.text!r}")

    def parse_new(self) -> ast.Expr:
        tok = self.eat_keyword("new")
        # type name (no rank suffix parsing here; handled explicitly)
        ttok = self.peek()
        if ttok.kind == KEYWORD and ttok.value in TYPE_KEYWORDS:
            self.next()
            name = str(ttok.value)
        elif ttok.kind == IDENT:
            self.next()
            name = str(ttok.value)
        else:
            raise self.error(f"expected type after new, found {ttok.text!r}")

        if self.at_punct("("):
            args = self.parse_args()
            return ast.NewObject(line=tok.line, type_name=name, args=args)

        if not self.at_punct("["):
            raise self.error("expected '(' or '[' after new T")
        self.next()
        dims = [self.parse_expression()]
        while self.accept_punct(","):
            dims.append(self.parse_expression())
        self.eat_punct("]")
        node = ast.NewArray(line=tok.line, dims=dims)
        node.element = ast.TypeExpr(name=name, line=tok.line)
        # jagged suffixes: new int[n][] or new int[n][][]
        while self.at_punct("["):
            rank = 1
            offset = 1
            while self.at_punct(",", offset):
                rank += 1
                offset += 1
            if not self.at_punct("]", offset):
                raise self.error("jagged allocation suffix must be empty brackets")
            self.next()
            for _ in range(rank - 1):
                self.next()
            self.next()
            node.extra_ranks.append(rank)
        return node


def parse(source: str, filename: str = "<source>") -> ast.Program:
    """Parse Kernel-C# source into a :class:`~repro.lang.ast_nodes.Program`."""
    return Parser(source, filename).parse_program()
