"""Type checker / semantic analyzer for Kernel-C#.

Annotates the AST in place (every expression gets ``.ctype``; names, calls,
members get resolution records the code generator consumes) and builds the
:class:`~repro.lang.symbols.ClassInfo` table.

Conversion rules follow C# 1.0: implicit numeric widening
(``int -> long -> float -> double``), boxing of value types to ``object``,
``null`` to any reference type, derived-to-base reference conversion; all
narrowing requires an explicit cast.  Conditions must be ``bool`` — there is
no int-truthiness, exactly as in C#.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..cil import cts
from ..cil.cts import CType
from ..cil.instructions import MethodRef
from ..errors import TypeCheckError
from . import ast_nodes as ast
from .builtins import (
    INTRINSIC_ALIASES,
    INTRINSIC_CONSTANTS,
    INTRINSIC_METHODS,
    find_intrinsic,
)
from .symbols import ClassInfo, FieldInfo, MethodInfo, VarSymbol

# numeric widening ranks
_RANK = {
    cts.INT8: 1,
    cts.UINT8: 1,
    cts.INT16: 2,
    cts.UINT16: 2,
    cts.CHAR: 2,
    cts.INT32: 3,
    cts.INT64: 4,
    cts.FLOAT32: 5,
    cts.FLOAT64: 6,
}


def implicit_convertible(src: CType, dst: CType) -> bool:
    """C#-style implicit conversion (excluding user conversions)."""
    if src is dst:
        return True
    if src in _RANK and dst in _RANK:
        return _RANK[src] < _RANK[dst] or (
            _RANK[src] == _RANK[dst] and cts.stack_type(src) is cts.stack_type(dst)
        )
    if src is cts.BOOL or dst is cts.BOOL:
        return False
    if src is cts.NULL and dst.is_reference:
        return True
    if dst is cts.OBJECT:
        return True  # reference conversion or boxing
    if src is cts.STRING and dst is cts.STRING:
        return True
    return False


def promote(a: CType, b: CType) -> Optional[CType]:
    """Usual arithmetic conversions for binary numeric operators.

    ``bool`` never participates (C# has no bool<->int conversions), even
    though it widens to int32 on the evaluation stack."""
    if a is cts.BOOL or b is cts.BOOL:
        return None
    a, b = cts.stack_type(a), cts.stack_type(b)
    if a not in (cts.INT32, cts.INT64, cts.FLOAT32, cts.FLOAT64):
        return None
    if b not in (cts.INT32, cts.INT64, cts.FLOAT32, cts.FLOAT64):
        return None
    if cts.FLOAT64 in (a, b):
        return cts.FLOAT64
    if cts.FLOAT32 in (a, b):
        return cts.FLOAT32
    if cts.INT64 in (a, b):
        return cts.INT64
    return cts.INT32


class Checker:
    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.classes: Dict[str, ClassInfo] = {}
        # per-method state
        self._scopes: List[Dict[str, VarSymbol]] = []
        self._method: Optional[MethodInfo] = None
        self._loop_depth = 0
        self._catch_depth = 0
        self._symbols = 0

    # ------------------------------------------------------------------ utils

    def symbol(self, name: str, ctype: CType, kind: str,
               arg_index: int = -1) -> VarSymbol:
        self._symbols += 1
        return VarSymbol(name, ctype, kind, self._symbols, arg_index)

    def error(self, message: str, node: ast.Node) -> TypeCheckError:
        return TypeCheckError(message, getattr(node, "line", 0) or 0)

    def resolve_type(self, t: ast.TypeExpr, node: Optional[ast.Node] = None) -> CType:
        base = cts.BY_NAME.get(t.name)
        if base is None:
            info = self.classes.get(t.name)
            if info is None:
                raise self.error(f"unknown type {t.name!r}", node or t)
            base = cts.named(info.name)
            base.value_type_hint = info.is_struct
        # leftmost bracket group is the outermost array dimension
        for rank in reversed(t.ranks):
            base = cts.array_of(base, rank)
        return base

    def class_of_type(self, t: CType) -> Optional[ClassInfo]:
        if isinstance(t, cts.NamedType):
            return self.classes.get(t.name)
        return None

    def is_exception_type(self, info: ClassInfo) -> bool:
        root = self.classes.get("Exception")
        return root is not None and info.is_subclass_of(root)

    # ------------------------------------------------------------- conversions

    def coerce(self, expr: ast.Expr, target: CType, node: ast.Node) -> None:
        """Record an implicit conversion of ``expr`` to ``target``."""
        src = expr.ctype
        assert src is not None
        if cts.stack_type(src) is cts.stack_type(target) and not (
            target is cts.OBJECT and not src.is_reference
        ):
            expr.coerce_to = None
            return
        if not implicit_convertible(src, target):
            # derived -> base reference conversion
            src_info = self.class_of_type(src)
            dst_info = self.class_of_type(target)
            if (
                src_info is not None
                and dst_info is not None
                and not src_info.is_struct
                and src_info.is_subclass_of(dst_info)
            ):
                expr.coerce_to = None
                return
            raise self.error(
                f"cannot implicitly convert {src.name} to {target.name}", node
            )
        if target is cts.OBJECT and not src.is_reference:
            expr.coerce_to = ("box", src)
        elif target in _RANK and src is not target:
            expr.coerce_to = ("conv", target)
        else:
            expr.coerce_to = None

    # -------------------------------------------------------------- collection

    def collect(self) -> None:
        for decl in self.program.classes:
            if decl.name in self.classes or decl.name in INTRINSIC_ALIASES:
                raise self.error(f"duplicate class name {decl.name!r}", decl)
            if decl.name in cts.BY_NAME:
                raise self.error(f"class name {decl.name!r} shadows a primitive", decl)
            self.classes[decl.name] = ClassInfo(
                name=decl.name, is_struct=decl.is_struct, decl=decl
            )
        # second pass: bases, fields, methods
        for decl in self.program.classes:
            info = self.classes[decl.name]
            if decl.base_name:
                base = self.classes.get(decl.base_name)
                if base is None:
                    raise self.error(f"unknown base class {decl.base_name!r}", decl)
                if base.is_struct:
                    raise self.error("cannot inherit from a struct", decl)
                info.base = base
            for f in decl.fields:
                ftype = self.resolve_type(f.type_expr, f)
                if ftype is cts.VOID:
                    raise self.error("field cannot be void", f)
                if info.is_struct and not f.is_static:
                    if not (ftype.is_primitive and ftype is not cts.VOID):
                        raise self.error(
                            "struct instance fields must be primitive "
                            f"(got {ftype.name})", f,
                        )
                if f.name in info.fields:
                    raise self.error(f"duplicate field {f.name!r}", f)
                info.fields[f.name] = FieldInfo(f.name, ftype, f.is_static, info)
            for m in decl.methods:
                if info.is_struct and (m.is_virtual or m.is_override):
                    raise self.error("struct methods cannot be virtual", m)
                if m.is_ctor:
                    ret = cts.VOID
                else:
                    ret = self.resolve_type(m.return_type, m)
                ptypes = [self.resolve_type(p.type_expr, p) for p in m.params]
                pnames = [p.name for p in m.params]
                if len(set(pnames)) != len(pnames):
                    raise self.error("duplicate parameter name", m)
                mi = MethodInfo(
                    name=m.name,
                    param_types=ptypes,
                    param_names=pnames,
                    return_type=ret,
                    is_static=m.is_static,
                    is_virtual=m.is_virtual,
                    is_override=m.is_override,
                    is_ctor=m.is_ctor,
                    owner=info,
                    decl=m,
                )
                bucket = info.methods.setdefault(m.name, [])
                for other in bucket:
                    if [t.name for t in other.param_types] == [t.name for t in ptypes]:
                        raise self.error(f"duplicate method {m.name!r}", m)
                bucket.append(mi)
        # loop detection in the inheritance chain
        for info in self.classes.values():
            seen = set()
            cls: Optional[ClassInfo] = info
            while cls is not None:
                if cls.name in seen:
                    raise TypeCheckError(f"inheritance cycle at {info.name}")
                seen.add(cls.name)
                cls = cls.base
        # validate overrides
        for info in self.classes.values():
            for bucket in info.methods.values():
                for m in bucket:
                    if m.is_override:
                        if info.base is None:
                            raise TypeCheckError(
                                f"{m.full_name}: override with no base class"
                            )
                        base_ms = info.base.find_methods(m.name)
                        match = [
                            bm
                            for bm in base_ms
                            if [t.name for t in bm.param_types]
                            == [t.name for t in m.param_types]
                        ]
                        if not match or not match[0].dispatches_virtually:
                            raise TypeCheckError(
                                f"{m.full_name}: no virtual base method to override"
                            )
                        if match[0].return_type is not m.return_type:
                            raise TypeCheckError(
                                f"{m.full_name}: override changes return type"
                            )

    # ----------------------------------------------------------- desugaring

    def desugar_field_inits(self) -> None:
        """Move field initializers into constructors / a synthesized
        ``.cctor``, mirroring what csc emits."""
        for decl in self.program.classes:
            static_inits: List[ast.Stmt] = []
            instance_inits: List[ast.Stmt] = []
            for f in decl.fields:
                if f.init is None:
                    continue
                if f.is_static:
                    target = ast.Member(
                        line=f.line,
                        target=ast.Name(line=f.line, ident=decl.name),
                        name=f.name,
                    )
                    static_inits.append(
                        ast.ExprStmt(
                            line=f.line,
                            expr=ast.Assign(line=f.line, target=target, value=f.init),
                        )
                    )
                else:
                    target = ast.Member(
                        line=f.line, target=ast.ThisExpr(line=f.line), name=f.name
                    )
                    instance_inits.append(
                        ast.ExprStmt(
                            line=f.line,
                            expr=ast.Assign(line=f.line, target=target, value=f.init),
                        )
                    )
                f.init = None
            if static_inits:
                cctor = ast.MethodDecl(
                    line=decl.line,
                    name=".cctor",
                    return_type=ast.TypeExpr(name="void", line=decl.line),
                    is_static=True,
                    body=ast.Block(line=decl.line, statements=static_inits),
                )
                decl.methods.append(cctor)
                info = self.classes[decl.name]
                info.methods.setdefault(".cctor", []).append(
                    MethodInfo(
                        name=".cctor",
                        param_types=[],
                        param_names=[],
                        return_type=cts.VOID,
                        is_static=True,
                        is_virtual=False,
                        is_override=False,
                        is_ctor=False,
                        owner=info,
                        decl=cctor,
                    )
                )
            ctors = [m for m in decl.methods if m.is_ctor]
            if instance_inits and not ctors and not decl.is_struct:
                default = ast.MethodDecl(
                    line=decl.line, name=".ctor", is_ctor=True,
                    body=ast.Block(line=decl.line, statements=[]),
                )
                decl.methods.append(default)
                info = self.classes[decl.name]
                info.methods.setdefault(".ctor", []).append(
                    MethodInfo(
                        name=".ctor", param_types=[], param_names=[],
                        return_type=cts.VOID, is_static=False, is_virtual=False,
                        is_override=False, is_ctor=True, owner=info, decl=default,
                    )
                )
                ctors = [default]
            for ctor in ctors:
                # fresh copies per ctor would be needed if codegen mutated the
                # nodes; annotation is idempotent per node, and each ctor body
                # gets its own list but shares init nodes only when there is a
                # single ctor — clone for safety.
                clones = instance_inits if len(ctors) == 1 else _clone_stmts(instance_inits)
                ctor.body.statements[:0] = clones

    # --------------------------------------------------------------- checking

    def check(self) -> None:
        self.collect()
        self.desugar_field_inits()
        for decl in self.program.classes:
            info = self.classes[decl.name]
            for mdecl in decl.methods:
                sig = [
                    self.resolve_type(p.type_expr, p) for p in mdecl.params
                ]
                candidates = info.methods.get(mdecl.name, [])
                mi = next(
                    m
                    for m in candidates
                    if m.decl is mdecl
                )
                self.check_method(info, mi)

    def check_method(self, info: ClassInfo, mi: MethodInfo) -> None:
        decl: ast.MethodDecl = mi.decl
        self._method = mi
        self._scopes = [{}]
        self._loop_depth = 0
        self._catch_depth = 0
        arg_base = 0 if mi.is_static else 1
        for i, (pname, ptype) in enumerate(zip(mi.param_names, mi.param_types)):
            sym = self.symbol(pname, ptype, "arg", arg_base + i)
            self._scopes[0][pname] = sym
        if decl.base_args is not None:
            if not mi.is_ctor:
                raise self.error("base initializer outside constructor", decl)
            if info.base is None:
                raise self.error("base initializer with no base class", decl)
            for a in decl.base_args:
                self.check_expr(a)
            ctor = self.resolve_ctor(info.base, decl.base_args, decl)
            decl.base_ctor = ctor  # annotation
        self.check_block(decl.body)
        if mi.return_type is not cts.VOID and not _terminates(decl.body):
            raise self.error(
                f"{mi.full_name}: not all code paths return a value", decl
            )
        self._method = None

    # scope helpers
    def push_scope(self) -> None:
        self._scopes.append({})

    def pop_scope(self) -> None:
        self._scopes.pop()

    def declare(self, name: str, ctype: CType, node: ast.Node) -> VarSymbol:
        # C# forbids shadowing any local/parameter of an enclosing scope
        for scope in self._scopes:
            if name in scope:
                raise self.error(f"duplicate variable {name!r}", node)
        sym = self.symbol(name, ctype, "local")
        self._scopes[-1][name] = sym
        return sym

    def lookup(self, name: str) -> Optional[VarSymbol]:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    # ------------------------------------------------------------- statements

    def check_block(self, block: ast.Block) -> None:
        self.push_scope()
        for stmt in block.statements:
            self.check_stmt(stmt)
        self.pop_scope()

    def check_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self.check_block(stmt)
        elif isinstance(stmt, ast.VarDecl):
            ctype = self.resolve_type(stmt.type_expr, stmt)
            if ctype is cts.VOID:
                raise self.error("variable cannot be void", stmt)
            stmt.ctype = ctype
            stmt.symbols = []
            for name, init in zip(stmt.names, stmt.inits):
                if init is not None:
                    self.check_expr(init)
                    self.coerce(init, ctype, stmt)
                sym = self.declare(name, ctype, stmt)
                stmt.symbols.append(sym)
        elif isinstance(stmt, ast.ExprStmt):
            self.check_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self.check_cond(stmt.cond)
            self.check_stmt(stmt.then)
            if stmt.other is not None:
                self.check_stmt(stmt.other)
        elif isinstance(stmt, ast.While):
            self.check_cond(stmt.cond)
            self._loop_depth += 1
            self.check_stmt(stmt.body)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.DoWhile):
            self._loop_depth += 1
            self.check_stmt(stmt.body)
            self._loop_depth -= 1
            self.check_cond(stmt.cond)
        elif isinstance(stmt, ast.For):
            self.push_scope()
            if stmt.init is not None:
                self.check_stmt(stmt.init)
            if stmt.cond is not None:
                self.check_cond(stmt.cond)
            for u in stmt.update:
                self.check_expr(u)
            self._loop_depth += 1
            self.check_stmt(stmt.body)
            self._loop_depth -= 1
            self.pop_scope()
        elif isinstance(stmt, ast.Return):
            assert self._method is not None
            want = self._method.return_type
            if stmt.value is None:
                if want is not cts.VOID:
                    raise self.error("return requires a value", stmt)
            else:
                if want is cts.VOID:
                    raise self.error("void method cannot return a value", stmt)
                self.check_expr(stmt.value)
                self.coerce(stmt.value, want, stmt)
        elif isinstance(stmt, ast.Break):
            if self._loop_depth == 0:
                raise self.error("break outside loop", stmt)
        elif isinstance(stmt, ast.Continue):
            if self._loop_depth == 0:
                raise self.error("continue outside loop", stmt)
        elif isinstance(stmt, ast.Throw):
            if stmt.value is None:
                if self._catch_depth == 0:
                    raise self.error("rethrow outside catch", stmt)
            else:
                self.check_expr(stmt.value)
                t = stmt.value.ctype
                info = self.class_of_type(t)
                if info is None or not self.is_exception_type(info):
                    raise self.error(
                        f"thrown value must derive from Exception (got {t.name})",
                        stmt,
                    )
        elif isinstance(stmt, ast.Try):
            self.check_block(stmt.body)
            for clause in stmt.catches:
                info = self.classes.get(clause.type_name)
                if info is None or not self.is_exception_type(info):
                    raise self.error(
                        f"catch type {clause.type_name!r} is not an exception class",
                        clause,
                    )
                clause.class_info = info
                self.push_scope()
                if clause.var_name:
                    ct = cts.named(info.name)
                    clause.var_symbol = self.declare(clause.var_name, ct, clause)
                else:
                    clause.var_symbol = None
                self._catch_depth += 1
                # note: catch body is a Block but the variable scope wraps it
                for s in clause.body.statements:
                    self.check_stmt(s)
                self._catch_depth -= 1
                self.pop_scope()
            if stmt.finally_body is not None:
                self.check_block(stmt.finally_body)
        elif isinstance(stmt, ast.Lock):
            self.check_expr(stmt.target)
            if not stmt.target.ctype.is_reference:
                raise self.error("lock target must be a reference type", stmt)
            self.check_stmt(stmt.body)
        else:  # pragma: no cover - defensive
            raise self.error(f"unknown statement {type(stmt).__name__}", stmt)

    def check_cond(self, expr: ast.Expr) -> None:
        self.check_expr(expr)
        if expr.ctype is not cts.BOOL:
            raise self.error(f"condition must be bool (got {expr.ctype.name})", expr)

    # ------------------------------------------------------------ expressions

    def check_expr(self, expr: ast.Expr) -> CType:
        method = getattr(self, f"_check_{type(expr).__name__}", None)
        if method is None:  # pragma: no cover - defensive
            raise self.error(f"unknown expression {type(expr).__name__}", expr)
        t = method(expr)
        expr.ctype = t
        if not hasattr(expr, "coerce_to"):
            expr.coerce_to = None
        return t

    def _check_IntLit(self, e: ast.IntLit) -> CType:
        if e.is_long:
            return cts.INT64
        if not (-(2**31) <= e.value < 2**31):
            return cts.INT64
        return cts.INT32

    def _check_FloatLit(self, e: ast.FloatLit) -> CType:
        return cts.FLOAT32 if e.is_single else cts.FLOAT64

    def _check_BoolLit(self, e: ast.BoolLit) -> CType:
        return cts.BOOL

    def _check_StringLit(self, e: ast.StringLit) -> CType:
        return cts.STRING

    def _check_CharLit(self, e: ast.CharLit) -> CType:
        return cts.CHAR

    def _check_NullLit(self, e: ast.NullLit) -> CType:
        return cts.NULL

    def _check_ThisExpr(self, e: ast.ThisExpr) -> CType:
        assert self._method is not None
        if self._method.is_static:
            raise self.error("'this' in a static method", e)
        t = cts.named(self._method.owner.name)
        t.value_type_hint = self._method.owner.is_struct
        return t

    def _check_Name(self, e: ast.Name) -> CType:
        assert self._method is not None
        sym = self.lookup(e.ident)
        if sym is not None:
            e.res = (sym.kind, sym)
            return sym.ctype
        owner = self._method.owner
        f = owner.find_field(e.ident)
        if f is not None:
            if f.is_static:
                e.res = ("sfield", f)
                return f.ctype
            if self._method.is_static:
                raise self.error(
                    f"instance field {e.ident!r} in static method", e
                )
            e.res = ("field", f)
            return f.ctype
        if e.ident in self.classes:
            e.res = ("type", self.classes[e.ident])
            return cts.VOID  # only valid as a member-access target
        if e.ident in INTRINSIC_ALIASES:
            e.res = ("builtin", INTRINSIC_ALIASES[e.ident])
            return cts.VOID
        if e.ident in cts.BY_NAME:
            e.res = ("prim", e.ident)
            return cts.VOID
        raise self.error(f"unknown name {e.ident!r}", e)

    def _check_Member(self, e: ast.Member) -> CType:
        target = e.target
        # type-qualified access: Class.static / Math.PI / int.MaxValue
        if isinstance(target, ast.Name):
            self.check_expr(target)
            res = getattr(target, "res", None)
            if res is not None and res[0] in ("type", "builtin", "prim"):
                if res[0] == "type":
                    info: ClassInfo = res[1]
                    f = info.find_field(e.name)
                    if f is not None and f.is_static:
                        e.res = ("sfield", f)
                        return f.ctype
                    raise self.error(
                        f"class {info.name} has no static field {e.name!r}", e
                    )
                if res[0] == "builtin":
                    key = (res[1], e.name)
                    if key in INTRINSIC_CONSTANTS:
                        ctype, value = INTRINSIC_CONSTANTS[key]
                        e.res = ("const", (ctype, value))
                        return ctype
                    raise self.error(
                        f"{res[1]} has no constant {e.name!r}", e
                    )
                # primitive constants: int.MaxValue ...
                key = (res[1], e.name)
                if key in INTRINSIC_CONSTANTS:
                    ctype, value = INTRINSIC_CONSTANTS[key]
                    e.res = ("const", (ctype, value))
                    return ctype
                raise self.error(f"{res[1]} has no member {e.name!r}", e)
        # instance member access
        t = self.check_expr(target)
        if t.is_array:
            if e.name == "Length":
                e.res = ("arraylen",)
                return cts.INT32
            if e.name == "Rank":
                e.res = ("const", (cts.INT32, t.rank))
                return cts.INT32
            raise self.error(f"array has no member {e.name!r}", e)
        if t is cts.STRING:
            if e.name == "Length":
                e.res = ("strlen",)
                return cts.INT32
            raise self.error(f"string has no member {e.name!r}", e)
        info = self.class_of_type(t)
        if info is None:
            raise self.error(f"{t.name} has no members", e)
        f = info.find_field(e.name)
        if f is None:
            raise self.error(f"{info.name} has no field {e.name!r}", e)
        if f.is_static:
            raise self.error(
                f"static field {e.name!r} accessed through instance", e
            )
        e.res = ("field", f)
        return f.ctype

    def _check_Index(self, e: ast.Index) -> CType:
        t = self.check_expr(e.target)
        if not t.is_array:
            raise self.error(f"cannot index {t.name}", e)
        if len(e.indices) != t.rank:
            raise self.error(
                f"array rank is {t.rank}, got {len(e.indices)} indices", e
            )
        for idx in e.indices:
            self.check_expr(idx)
            self.coerce(idx, cts.INT32, idx)
        e.elem_ctype = t.element
        e.rank = t.rank
        return t.element

    def _check_NewObject(self, e: ast.NewObject) -> CType:
        info = self.classes.get(e.type_name)
        if info is None:
            raise self.error(f"unknown class {e.type_name!r}", e)
        for a in e.args:
            self.check_expr(a)
        if not e.args and not info.methods.get(".ctor"):
            e.ctor = None  # default zero-initializing constructor
        else:
            e.ctor = self.resolve_ctor(info, e.args, e)
        e.class_info = info
        t = cts.named(info.name)
        t.value_type_hint = info.is_struct
        return t

    def resolve_ctor(
        self, info: ClassInfo, args: Sequence[ast.Expr], node: ast.Node
    ) -> MethodInfo:
        ctors = info.methods.get(".ctor", [])
        mi = self._pick_overload(ctors, args)
        if mi is None:
            raise self.error(
                f"no constructor of {info.name} takes {len(args)} such argument(s)",
                node,
            )
        for a, want in zip(args, mi.param_types):
            self.coerce(a, want, node)
        return mi

    def _check_NewArray(self, e: ast.NewArray) -> CType:
        elem = self.resolve_type(e.element, e)
        rank = len(e.dims)
        for d in e.dims:
            self.check_expr(d)
            self.coerce(d, cts.INT32, d)
        # jagged suffixes wrap the element type
        for extra in reversed(e.extra_ranks):
            elem = cts.array_of(elem, extra)
        e.elem_ctype = elem
        e.rank = rank
        return cts.array_of(elem, rank)

    def _check_Unary(self, e: ast.Unary) -> CType:
        t = self.check_expr(e.operand)
        st = cts.stack_type(t)
        if e.op == "-":
            if st not in (cts.INT32, cts.INT64, cts.FLOAT32, cts.FLOAT64):
                raise self.error(f"cannot negate {t.name}", e)
            return st
        if e.op == "!":
            if t is not cts.BOOL:
                raise self.error("! requires bool", e)
            return cts.BOOL
        if e.op == "~":
            if st not in (cts.INT32, cts.INT64):
                raise self.error("~ requires an integer", e)
            return st
        raise self.error(f"unknown unary {e.op}", e)  # pragma: no cover

    _COMPARISON = frozenset(["==", "!=", "<", ">", "<=", ">="])

    def _check_Binary(self, e: ast.Binary) -> CType:
        lt = self.check_expr(e.left)
        rt = self.check_expr(e.right)
        op = e.op
        # string concatenation via + (paper keeps support code identical
        # across C# and Java; both languages concat with +)
        if op == "+" and (lt is cts.STRING or rt is cts.STRING):
            ref = find_intrinsic("System.String", "Concat", (cts.stack_type(lt), cts.stack_type(rt)))
            if ref is None:
                raise self.error(f"cannot concatenate {lt.name} and {rt.name}", e)
            for operand, want in ((e.left, ref.param_types[0]), (e.right, ref.param_types[1])):
                self.coerce(operand, want, e)
            e.concat_ref = ref
            return cts.STRING
        if op in ("==", "!=") and (lt.is_reference or rt.is_reference):
            if lt is cts.STRING and rt is cts.STRING:
                e.string_equality = True
                return cts.BOOL
            if not (lt.is_reference or lt is cts.NULL) or not (
                rt.is_reference or rt is cts.NULL
            ):
                raise self.error(f"cannot compare {lt.name} and {rt.name}", e)
            return cts.BOOL
        if op in ("<<", ">>"):
            if cts.stack_type(lt) not in (cts.INT32, cts.INT64):
                raise self.error("shift requires an integer", e)
            self.coerce(e.right, cts.INT32, e)
            e.prom = cts.stack_type(lt)
            return e.prom
        if op in ("&", "|", "^"):
            if lt is cts.BOOL and rt is cts.BOOL:
                e.prom = cts.BOOL
                return cts.BOOL
            prom = promote(lt, rt)
            if prom is None or prom.is_float:
                raise self.error(f"cannot apply {op} to {lt.name}/{rt.name}", e)
            self.coerce(e.left, prom, e)
            self.coerce(e.right, prom, e)
            e.prom = prom
            return prom
        if op in ("==", "!=") and lt is cts.BOOL and rt is cts.BOOL:
            e.prom = cts.INT32
            return cts.BOOL
        prom = promote(lt, rt)
        if prom is None:
            raise self.error(f"cannot apply {op} to {lt.name} and {rt.name}", e)
        self.coerce(e.left, prom, e)
        self.coerce(e.right, prom, e)
        e.prom = prom
        if op in self._COMPARISON:
            return cts.BOOL
        if op in ("+", "-", "*", "/", "%"):
            return prom
        raise self.error(f"unknown operator {op}", e)  # pragma: no cover

    def _check_Logical(self, e: ast.Logical) -> CType:
        self.check_expr(e.left)
        self.check_expr(e.right)
        if e.left.ctype is not cts.BOOL or e.right.ctype is not cts.BOOL:
            raise self.error(f"{e.op} requires bool operands", e)
        return cts.BOOL

    def _check_Conditional(self, e: ast.Conditional) -> CType:
        self.check_cond(e.cond)
        lt = self.check_expr(e.then)
        rt = self.check_expr(e.other)
        if cts.stack_type(lt) is cts.stack_type(rt):
            return cts.stack_type(lt)
        prom = promote(lt, rt)
        if prom is None:
            if lt.is_reference and rt.is_reference:
                return lt if rt is cts.NULL else rt if lt is cts.NULL else cts.OBJECT
            raise self.error(
                f"incompatible conditional branches {lt.name}/{rt.name}", e
            )
        self.coerce(e.then, prom, e)
        self.coerce(e.other, prom, e)
        return prom

    def _check_Assign(self, e: ast.Assign) -> CType:
        target_type = self._check_assign_target(e.target)
        self.check_expr(e.value)
        if e.op:
            # compound: target op value, result converted back to target type
            prom = None
            if e.op in ("<<", ">>"):
                self.coerce(e.value, cts.INT32, e)
                prom = cts.stack_type(target_type)
            elif e.op == "+" and target_type is cts.STRING:
                ref = find_intrinsic(
                    "System.String", "Concat",
                    (cts.STRING, cts.stack_type(e.value.ctype)),
                )
                if ref is None:
                    raise self.error("cannot concatenate", e)
                self.coerce(e.value, ref.param_types[1], e)
                e.concat_ref = ref
                e.prom = cts.STRING
                return cts.STRING
            else:
                prom = promote(target_type, e.value.ctype)
                if prom is None or (
                    e.op in ("&", "|", "^", "%") and prom.is_float and e.op != "%"
                ):
                    raise self.error(
                        f"cannot apply {e.op}= to {target_type.name} and "
                        f"{e.value.ctype.name}", e,
                    )
                self.coerce(e.value, prom, e)
            e.prom = prom
            # implicit demotion back to the target's storage type is
            # performed by the code generator (C# compound-assignment rule)
        else:
            self.coerce(e.value, target_type, e)
        return target_type

    def _check_assign_target(self, target: ast.Expr) -> CType:
        if isinstance(target, ast.Name):
            t = self.check_expr(target)
            res = target.res
            if res[0] in ("local", "arg"):
                return res[1].ctype
            if res[0] in ("field", "sfield"):
                return res[1].ctype
            raise self.error("cannot assign to this name", target)
        if isinstance(target, ast.Member):
            t = self.check_expr(target)
            res = getattr(target, "res", None)
            if res and res[0] in ("field", "sfield"):
                return res[1].ctype
            raise self.error("cannot assign to this member", target)
        if isinstance(target, ast.Index):
            return self.check_expr(target)
        raise self.error("invalid assignment target", target)

    def _check_IncDec(self, e: ast.IncDec) -> CType:
        t = self._check_assign_target(e.target)
        if cts.stack_type(t) not in (cts.INT32, cts.INT64, cts.FLOAT32, cts.FLOAT64):
            raise self.error(f"cannot increment {t.name}", e)
        return t

    def _check_Cast(self, e: ast.Cast) -> CType:
        target = self.resolve_type(e.type_expr, e)
        src = self.check_expr(e.operand)
        e.target_ctype = target
        if target in _RANK and src is not cts.BOOL and (src in _RANK or cts.stack_type(src) in (cts.INT32, cts.INT64, cts.FLOAT32, cts.FLOAT64)) and not src.is_reference:
            e.kind = "numeric"
            return target
        if src is cts.BOOL and target is cts.BOOL:
            e.kind = "identity"
            return target
        if not src.is_reference and (target is cts.OBJECT):
            e.kind = "box"
            return target
        if src.is_reference and (target in _RANK or target is cts.BOOL):
            e.kind = "unbox"
            return target
        if src.is_reference and isinstance(target, cts.NamedType) and target.is_value_type:
            e.kind = "unbox_struct"
            return target
        if src.is_reference and target.is_reference:
            e.kind = "downcast"
            return target
        raise self.error(f"cannot cast {src.name} to {target.name}", e)

    def _check_Call(self, e: ast.Call) -> CType:
        callee = e.callee
        for a in e.args:
            self.check_expr(a)
        arg_types = [a.ctype for a in e.args]

        # bare call: method of the current class
        if isinstance(callee, ast.Name):
            assert self._method is not None
            owner = self._method.owner
            candidates = owner.find_methods(callee.ident)
            mi = self._pick_overload(candidates, e.args)
            if mi is None:
                raise self.error(
                    f"no method {callee.ident!r} on {owner.name} matches", e
                )
            if not mi.is_static and self._method.is_static:
                raise self.error(
                    f"instance method {mi.full_name} called from static context", e
                )
            self._finish_call(e, mi)
            e.call_kind = (
                "static"
                if mi.is_static
                else ("virtual" if mi.dispatches_virtually else "instance")
            )
            e.implicit_this = not mi.is_static
            return mi.return_type

        if isinstance(callee, ast.Member):
            target = callee.target
            # base.Method(...)
            if isinstance(target, ast.Name) and target.ident == "base":
                assert self._method is not None
                if self._method.owner.base is None:
                    raise self.error("base call with no base class", e)
                candidates = self._method.owner.base.find_methods(callee.name)
                mi = self._pick_overload(candidates, e.args)
                if mi is None:
                    raise self.error(f"no base method {callee.name!r} matches", e)
                self._finish_call(e, mi)
                e.call_kind = "base"
                return mi.return_type
            # static/intrinsic: Type.Method(...)
            if isinstance(target, ast.Name):
                self.check_expr(target)
                res = getattr(target, "res", None)
                if res is not None and res[0] == "builtin":
                    stack_args = tuple(cts.stack_type(t) for t in arg_types)
                    ref = find_intrinsic(res[1], callee.name, stack_args)
                    if ref is None:
                        raise self.error(
                            f"{res[1]} has no method {callee.name!r}"
                            f"({', '.join(t.name for t in stack_args)})", e,
                        )
                    for a, want in zip(e.args, ref.param_types):
                        self.coerce(a, want, e)
                    e.method_ref = ref
                    e.call_kind = "intrinsic"
                    return ref.return_type
                if res is not None and res[0] == "type":
                    info: ClassInfo = res[1]
                    candidates = [
                        m for m in info.find_methods(callee.name) if m.is_static
                    ]
                    mi = self._pick_overload(candidates, e.args)
                    if mi is None:
                        raise self.error(
                            f"no static method {info.name}.{callee.name} matches", e
                        )
                    self._finish_call(e, mi)
                    e.call_kind = "static"
                    return mi.return_type
            # instance call on an expression
            t = self.check_expr(target)
            if t.is_array and callee.name == "GetLength":
                if len(e.args) != 1:
                    raise self.error("GetLength takes one argument", e)
                self.coerce(e.args[0], cts.INT32, e)
                e.call_kind = "arraygetlength"
                e.method_ref = MethodRef(
                    "System.Array", "GetLength", (cts.OBJECT, cts.INT32), cts.INT32
                )
                return cts.INT32
            info = self.class_of_type(t)
            if info is None:
                raise self.error(f"{t.name} has no methods", e)
            candidates = [
                m for m in info.find_methods(callee.name) if not m.is_static
            ]
            mi = self._pick_overload(candidates, e.args)
            if mi is None:
                raise self.error(
                    f"no instance method {info.name}.{callee.name} matches", e
                )
            self._finish_call(e, mi)
            e.call_kind = "virtual" if mi.dispatches_virtually else "instance"
            return mi.return_type

        raise self.error("expression is not callable", e)

    def _pick_overload(
        self, candidates: Sequence[MethodInfo], args: Sequence[ast.Expr]
    ) -> Optional[MethodInfo]:
        best: Optional[Tuple[int, MethodInfo]] = None
        for m in candidates:
            if len(m.param_types) != len(args):
                continue
            score = 0
            ok = True
            for a, want in zip(args, m.param_types):
                got = a.ctype
                if cts.stack_type(got) is cts.stack_type(want):
                    continue
                src_info = self.class_of_type(got)
                dst_info = self.class_of_type(want)
                if (
                    src_info is not None
                    and dst_info is not None
                    and src_info.is_subclass_of(dst_info)
                ):
                    score += 1
                    continue
                if implicit_convertible(got, want):
                    score += 1
                else:
                    ok = False
                    break
            if ok and (best is None or score < best[0]):
                best = (score, m)
        return best[1] if best else None

    def _finish_call(self, e: ast.Call, mi: MethodInfo) -> None:
        for a, want in zip(e.args, mi.param_types):
            self.coerce(a, want, e)
        e.method = mi


# ---------------------------------------------------------------- reachability


def _terminates(stmt: ast.Stmt) -> bool:
    """True if every path through ``stmt`` returns or throws."""
    if isinstance(stmt, (ast.Return, ast.Throw)):
        return True
    if isinstance(stmt, ast.Block):
        return any(_terminates(s) for s in stmt.statements)
    if isinstance(stmt, ast.If):
        return (
            stmt.other is not None
            and _terminates(stmt.then)
            and _terminates(stmt.other)
        )
    if isinstance(stmt, ast.While):
        if isinstance(stmt.cond, ast.BoolLit) and stmt.cond.value:
            return not _contains_break(stmt.body)
        return False
    if isinstance(stmt, ast.Try):
        if stmt.finally_body is not None and _terminates(stmt.finally_body):
            return True
        return _terminates(stmt.body) and all(
            _terminates(c.body) for c in stmt.catches
        )
    if isinstance(stmt, ast.Lock):
        return _terminates(stmt.body)
    return False


def _contains_break(stmt: ast.Stmt) -> bool:
    if isinstance(stmt, ast.Break):
        return True
    if isinstance(stmt, ast.Block):
        return any(_contains_break(s) for s in stmt.statements)
    if isinstance(stmt, ast.If):
        return _contains_break(stmt.then) or (
            stmt.other is not None and _contains_break(stmt.other)
        )
    if isinstance(stmt, (ast.Try,)):
        return (
            _contains_break(stmt.body)
            or any(_contains_break(c.body) for c in stmt.catches)
            or (stmt.finally_body is not None and _contains_break(stmt.finally_body))
        )
    if isinstance(stmt, ast.Lock):
        return _contains_break(stmt.body)
    # nested loops swallow their own breaks
    return False


def _clone_stmts(stmts: List[ast.Stmt]) -> List[ast.Stmt]:
    import copy

    return [copy.deepcopy(s) for s in stmts]


def check_program(program: ast.Program) -> Checker:
    """Run semantic analysis; returns the checker (for its class table)."""
    checker = Checker(program)
    checker.check()
    return checker
