"""Symbol table structures produced by the type checker and consumed by the
code generator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cil.cts import CType
from ..cil.instructions import FieldRef


@dataclass
class VarSymbol:
    """A local variable or parameter; identity (``uid``) survives shadowing."""

    name: str
    ctype: CType
    kind: str  # 'local' | 'arg'
    #: numbered per checked program, so one source always compiles to one
    #: image whatever was compiled before it in the process
    uid: int
    #: argument index (including implicit this) for kind == 'arg'
    arg_index: int = -1

    @property
    def slot_name(self) -> str:
        """Unique local name used when declaring builder locals."""
        return f"{self.name}${self.uid}"


@dataclass
class FieldInfo:
    name: str
    ctype: CType
    is_static: bool
    owner: "ClassInfo"

    def as_ref(self) -> FieldRef:
        return FieldRef(self.owner.name, self.name, self.ctype, self.is_static)


@dataclass
class MethodInfo:
    name: str
    param_types: List[CType]
    param_names: List[str]
    return_type: CType
    is_static: bool
    is_virtual: bool
    is_override: bool
    is_ctor: bool
    owner: "ClassInfo"
    decl: object = None  # ast.MethodDecl

    @property
    def full_name(self) -> str:
        return f"{self.owner.name}::{self.name}"

    @property
    def dispatches_virtually(self) -> bool:
        return self.is_virtual or self.is_override


@dataclass
class ClassInfo:
    name: str
    base: Optional["ClassInfo"] = None
    is_struct: bool = False
    fields: Dict[str, FieldInfo] = field(default_factory=dict)
    methods: Dict[str, List[MethodInfo]] = field(default_factory=dict)
    decl: object = None  # ast.ClassDecl

    def find_field(self, name: str) -> Optional[FieldInfo]:
        cls: Optional[ClassInfo] = self
        while cls is not None:
            f = cls.fields.get(name)
            if f is not None:
                return f
            cls = cls.base
        return None

    def find_methods(self, name: str) -> List[MethodInfo]:
        """All methods named ``name`` visible on this class (nearest override
        first; base declarations shadowed by same-signature overrides)."""
        out: List[MethodInfo] = []
        seen = set()
        cls: Optional[ClassInfo] = self
        while cls is not None:
            for m in cls.methods.get(name, []):
                key = (m.name, tuple(t.name for t in m.param_types))
                if key not in seen:
                    seen.add(key)
                    out.append(m)
            cls = cls.base
        return out

    def is_subclass_of(self, other: "ClassInfo") -> bool:
        cls: Optional[ClassInfo] = self
        while cls is not None:
            if cls is other:
                return True
            cls = cls.base
        return False
