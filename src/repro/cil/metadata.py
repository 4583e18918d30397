"""Assembly-level metadata: classes, fields, methods, the assembly itself.

This mirrors the self-describing-unit design rule of the CLI: an
:class:`Assembly` carries everything a Virtual Execution System needs to
load, verify, JIT-compile and run the code, with no out-of-band information.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..errors import CilError
from .cts import CType, VOID
from .instructions import ExceptionRegion, Instruction, MethodRef

if TYPE_CHECKING:
    from .verifier import StackFacts

#: serialization format tag for :meth:`Assembly.to_bytes`; bump on any
#: layout change of the metadata classes so stale payloads are rejected
#: instead of deserializing into the wrong shape
ASSEMBLY_WIRE_FORMAT = b"repro.cil.assembly/1\n"


@dataclass
class FieldDef:
    name: str
    field_type: CType
    is_static: bool = False

    #: slot index within the object layout / static table, set by the loader
    slot: int = -1


@dataclass
class LocalVar:
    name: str
    var_type: CType


@dataclass
class MethodDef:
    """A method definition with its CIL body."""

    name: str
    param_types: List[CType]
    return_type: CType
    is_static: bool = True
    is_virtual: bool = False
    is_override: bool = False
    is_ctor: bool = False
    param_names: List[str] = field(default_factory=list)
    locals: List[LocalVar] = field(default_factory=list)
    body: List[Instruction] = field(default_factory=list)
    regions: List[ExceptionRegion] = field(default_factory=list)
    #: worst-case evaluation stack depth, set by the verifier
    max_stack: int = 0

    #: owning class name; stamped when added to a ClassDef
    declaring_class: str = ""
    #: vtable slot for virtual methods, assigned by the loader
    vtable_slot: int = -1
    #: the verifier's :class:`~repro.cil.verifier.StackFacts`; read them
    #: through :func:`~repro.cil.verifier.stack_facts`
    _stack_facts: Optional["StackFacts"] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def full_name(self) -> str:
        return f"{self.declaring_class}::{self.name}"

    @property
    def arg_count(self) -> int:
        """Number of arguments including the implicit ``this``."""
        return len(self.param_types) + (0 if self.is_static else 1)

    def as_ref(self) -> MethodRef:
        return MethodRef(
            class_name=self.declaring_class,
            name=self.name,
            param_types=tuple(self.param_types),
            return_type=self.return_type,
            is_static=self.is_static,
        )

    def signature_key(self) -> Tuple[str, Tuple[str, ...]]:
        """Name + parameter type names; used for overload resolution."""
        return (self.name, tuple(t.name for t in self.param_types))


@dataclass
class ClassDef:
    """A class or value-type (struct) definition."""

    name: str
    base_name: Optional[str] = None  # None => System.Object
    is_value_type: bool = False
    fields: List[FieldDef] = field(default_factory=list)
    methods: List[MethodDef] = field(default_factory=list)

    def add_field(self, f: FieldDef) -> FieldDef:
        if any(existing.name == f.name for existing in self.fields):
            raise CilError(f"duplicate field {self.name}::{f.name}")
        self.fields.append(f)
        return f

    def add_method(self, m: MethodDef) -> MethodDef:
        m.declaring_class = self.name
        if any(existing.signature_key() == m.signature_key() for existing in self.methods):
            raise CilError(f"duplicate method {m.full_name}({len(m.param_types)} params)")
        self.methods.append(m)
        return m

    def find_method(self, name: str, nparams: Optional[int] = None) -> Optional[MethodDef]:
        for m in self.methods:
            if m.name == name and (nparams is None or len(m.param_types) == nparams):
                return m
        return None

    def find_field(self, name: str) -> Optional[FieldDef]:
        for f in self.fields:
            if f.name == name:
                return f
        return None

    def instance_fields(self) -> List[FieldDef]:
        return [f for f in self.fields if not f.is_static]

    def static_fields(self) -> List[FieldDef]:
        return [f for f in self.fields if f.is_static]


class Assembly:
    """A self-describing unit of deployment: the set of class definitions
    plus an optional entry point."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.classes: Dict[str, ClassDef] = {}
        self.entry_point: Optional[MethodDef] = None

    def add_class(self, cls: ClassDef) -> ClassDef:
        if cls.name in self.classes:
            raise CilError(f"duplicate class {cls.name} in assembly {self.name}")
        self.classes[cls.name] = cls
        return cls

    def get_class(self, name: str) -> ClassDef:
        try:
            return self.classes[name]
        except KeyError:
            raise CilError(f"assembly {self.name} has no class {name!r}") from None

    def find_method(self, class_name: str, method_name: str) -> MethodDef:
        cls = self.get_class(class_name)
        m = cls.find_method(method_name)
        if m is None:
            raise CilError(f"class {class_name} has no method {method_name!r}")
        return m

    def set_entry_point(self, class_name: str, method_name: str = "Main") -> None:
        m = self.find_method(class_name, method_name)
        if not m.is_static:
            raise CilError("entry point must be static")
        self.entry_point = m

    def all_methods(self) -> List[MethodDef]:
        out: List[MethodDef] = []
        for cls in self.classes.values():
            out.extend(cls.methods)
        return out

    # ------------------------------------------------------------ serialization

    def to_bytes(self) -> bytes:
        """Serialize the whole image (classes, bodies, entry point) to a
        self-describing byte string; the exact inverse of :meth:`from_bytes`.

        This is the unit the persistent compile cache
        (:mod:`repro.parallel.cache`) stores and every pool worker loads: a
        round-tripped assembly must be indistinguishable from a freshly
        compiled one.  Protocol 4 is pinned so payloads written by one
        Python minor version load on another.
        """
        return ASSEMBLY_WIRE_FORMAT + pickle.dumps(self, protocol=4)

    @staticmethod
    def from_bytes(data: bytes) -> "Assembly":
        if not data.startswith(ASSEMBLY_WIRE_FORMAT):
            raise CilError(
                "not a serialized assembly (missing "
                f"{ASSEMBLY_WIRE_FORMAT!r} header)"
            )
        try:
            assembly = pickle.loads(data[len(ASSEMBLY_WIRE_FORMAT):])
        except Exception as exc:
            raise CilError(f"corrupt serialized assembly: {exc}") from exc
        if not isinstance(assembly, Assembly):
            raise CilError(
                f"serialized payload is {type(assembly).__name__}, not Assembly"
            )
        return assembly

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Assembly {self.name}: {len(self.classes)} classes>"
