"""Common Type System (CTS) subset.

ECMA-335 partition I defines a rich type system; the benchmarks in this
reproduction exercise the numeric primitives, ``bool``, ``object``/``string``
references, user classes and value types (structs), single-dimensional
("SZ") arrays, jagged arrays (SZ arrays of SZ arrays) and true
multidimensional arrays.

Types are interned: primitive types are singletons and composite types are
cached, so identity comparison (``is``) works everywhere in the compiler, the
verifier and the JIT.
"""

from __future__ import annotations

from typing import Dict, Tuple


class CType:
    """Base class for every CTS type."""

    #: short display name, e.g. ``int32`` or ``float64[,]``
    name: str = "?"

    @property
    def is_primitive(self) -> bool:
        return False

    @property
    def is_float(self) -> bool:
        return False

    @property
    def is_reference(self) -> bool:
        return False

    @property
    def is_array(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CType {self.name}>"

    def __str__(self) -> str:
        return self.name


class PrimitiveType(CType):
    """One of the built-in VES data types."""

    def __init__(self, name: str, kind: str, size: int) -> None:
        self.name = name
        #: one of ``int``, ``float``, ``bool``, ``char``, ``void``
        self.kind = kind
        #: size in bytes as laid out on the (simulated) stack/heap
        self.size = size

    @property
    def is_primitive(self) -> bool:
        return True

    @property
    def is_float(self) -> bool:
        return self.kind == "float"


# The VES evaluation-stack primitives (ECMA-335 I.12.1).  Small integer
# types (int8/int16 and unsigned flavours) exist as *storage* types; on the
# evaluation stack they widen to int32, which the Cast micro-benchmark relies
# on.
VOID = PrimitiveType("void", "void", 0)
BOOL = PrimitiveType("bool", "bool", 1)
CHAR = PrimitiveType("char", "char", 2)
INT8 = PrimitiveType("int8", "int", 1)
UINT8 = PrimitiveType("uint8", "int", 1)
INT16 = PrimitiveType("int16", "int", 2)
UINT16 = PrimitiveType("uint16", "int", 2)
INT32 = PrimitiveType("int32", "int", 4)
INT64 = PrimitiveType("int64", "int", 8)
FLOAT32 = PrimitiveType("float32", "float", 4)
FLOAT64 = PrimitiveType("float64", "float", 8)


class ObjectType(CType):
    """``System.Object`` — the root of the reference hierarchy."""

    name = "object"

    @property
    def is_reference(self) -> bool:
        return True


class StringType(CType):
    """``System.String`` (immutable, interned literals)."""

    name = "string"

    @property
    def is_reference(self) -> bool:
        return True


class NullType(CType):
    """The type of the ``null`` literal; assignable to any reference type."""

    name = "null"

    @property
    def is_reference(self) -> bool:
        return True


OBJECT = ObjectType()
STRING = StringType()
NULL = NullType()


class NamedType(CType):
    """A user-defined class or struct, referenced by its qualified name.

    Whether the name denotes a value type is a property of the *definition*
    (``ClassDef.is_value_type``); a ``NamedType`` is just a symbolic
    reference, mirroring how CIL metadata tokens work.  The front end stamps
    ``value_type_hint`` during type checking so the code generator can pick
    value/reference semantics without a loader.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.value_type_hint: bool = False

    @property
    def is_reference(self) -> bool:
        return not self.value_type_hint

    @property
    def is_value_type(self) -> bool:
        return self.value_type_hint


class ArrayType(CType):
    """An array type: rank 1 is an SZ vector, rank >= 2 is multidimensional.

    Jagged arrays are simply ``ArrayType(ArrayType(elem, 1), 1)``.
    """

    def __init__(self, element: CType, rank: int = 1) -> None:
        if rank < 1:
            raise ValueError("array rank must be >= 1")
        self.element = element
        self.rank = rank
        commas = "," * (rank - 1)
        self.name = f"{element.name}[{commas}]"

    @property
    def is_reference(self) -> bool:
        return True

    @property
    def is_array(self) -> bool:
        return True


_named_cache: Dict[str, NamedType] = {}
_array_cache: Dict[Tuple[int, int], ArrayType] = {}


# --------------------------------------------------------------- serialization
#
# Types are compared by identity throughout the verifier, JIT and engines, so
# deserializing an Assembly (persistent compile cache, process-pool workers)
# must yield the *interned* instances of this process, never fresh copies.
# Every CType therefore reduces to a re-interning constructor call.


def _restore_primitive(name: str) -> CType:
    return BY_NAME[name]


def _restore_singleton(name: str) -> CType:
    return {"object": OBJECT, "string": STRING, "null": NULL}[name]


def _restore_named(name: str, value_type_hint: bool) -> "NamedType":
    t = named(name)
    # re-stamp what the compiling process's front end knew: the hint drives
    # value/reference semantics in the engines (array element copying, box
    # behaviour), so a worker that never compiled this program needs it too
    t.value_type_hint = value_type_hint
    return t


def _primitive_reduce(self):
    return (_restore_primitive, (self.name,))


def _singleton_reduce(self):
    return (_restore_singleton, (self.name,))


PrimitiveType.__reduce__ = _primitive_reduce
ObjectType.__reduce__ = _singleton_reduce
StringType.__reduce__ = _singleton_reduce
NullType.__reduce__ = _singleton_reduce
NamedType.__reduce__ = lambda self: (_restore_named, (self.name, self.value_type_hint))
ArrayType.__reduce__ = lambda self: (array_of, (self.element, self.rank))


def named(name: str) -> NamedType:
    """Return the interned :class:`NamedType` for ``name``."""
    t = _named_cache.get(name)
    if t is None:
        t = NamedType(name)
        _named_cache[name] = t
    return t


def array_of(element: CType, rank: int = 1) -> ArrayType:
    """Return the interned :class:`ArrayType` over ``element`` with ``rank``."""
    key = (id(element), rank)
    t = _array_cache.get(key)
    if t is None:
        t = ArrayType(element, rank)
        _array_cache[key] = t
    return t


#: keyword -> type mapping used by the front end and the IL assembler
BY_NAME: Dict[str, CType] = {
    "void": VOID,
    "bool": BOOL,
    "char": CHAR,
    "int8": INT8,
    "sbyte": INT8,
    "uint8": UINT8,
    "byte": UINT8,
    "int16": INT16,
    "short": INT16,
    "uint16": UINT16,
    "ushort": UINT16,
    "int32": INT32,
    "int": INT32,
    "int64": INT64,
    "long": INT64,
    "float32": FLOAT32,
    "float": FLOAT32,
    "float64": FLOAT64,
    "double": FLOAT64,
    "object": OBJECT,
    "string": STRING,
}


def stack_type(t: CType) -> CType:
    """Widen a storage type to its evaluation-stack type (ECMA-335 I.12.1).

    Small integers, ``bool`` and ``char`` all live on the stack as int32.
    """
    if t in (BOOL, CHAR, INT8, UINT8, INT16, UINT16):
        return INT32
    return t


def is_assignable(src: CType, dst: CType) -> bool:
    """Verifier-level assignability: exact stack type match or null-to-ref.

    Class hierarchy assignability is checked at load time when definitions
    are available; at the pure-type level any named reference is compatible
    with any other (CIL verification of object types is similarly deferred
    to ``castclass`` semantics in this subset).
    """
    src = stack_type(src)
    dst = stack_type(dst)
    if src is dst:
        return True
    if src is NULL and dst.is_reference:
        return True
    if dst is OBJECT and src.is_reference:
        return True
    if src.is_reference and dst.is_reference:
        return True  # refined by the loader
    # float32 values are representable on the stack as F (float64-capable)
    if src.is_float and dst.is_float:
        return True
    return False
