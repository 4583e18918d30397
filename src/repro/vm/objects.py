"""Managed heap object representations.

Python-level encodings of the CTS value kinds:

* ``int``/``float``/``None``/``str`` — primitives, null, strings.
* :class:`ObjectInstance` — class instances (fields in a slot list).
* :class:`StructValue` — value types; copied explicitly via ``struct.copy``.
* :class:`BoxedValue` — a boxed value type on the heap.
* :class:`SZArray` — single-dimensional zero-based arrays (and jagged arrays
  as SZ arrays of SZ arrays).
* :class:`MDArray` — true multidimensional arrays (row-major flat storage),
  the Graph 12 subject.
"""

from __future__ import annotations

from typing import List, Sequence

from ..cil import cts
from ..cil.cts import CType


def zero_value(t: CType):
    """The CLI zero-init value for a storage type."""
    if t.is_reference or t is cts.NULL:
        return None
    if t.is_float:
        return 0.0
    if isinstance(t, cts.NamedType):
        return None  # struct slots are filled by the allocator
    return 0


class ObjectInstance:
    """An instance of a reference class; ``fields`` indexed by loader slots."""

    __slots__ = ("rtclass", "fields", "monitor", "gc_epoch")

    def __init__(self, rtclass, fields: List) -> None:
        self.rtclass = rtclass
        self.fields = fields
        self.monitor = None  # lazily created by Monitor.Enter
        self.gc_epoch = 0

    @property
    def class_name(self) -> str:
        return self.rtclass.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.rtclass.name} object>"


class StructValue:
    """A value-type instance; assignment copies (``struct.copy`` opcode)."""

    __slots__ = ("rtclass", "fields", "gc_epoch")

    def __init__(self, rtclass, fields: List) -> None:
        self.rtclass = rtclass
        self.fields = fields
        self.gc_epoch = 0

    def copy(self) -> "StructValue":
        return StructValue(self.rtclass, list(self.fields))

    @property
    def class_name(self) -> str:
        return self.rtclass.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.rtclass.name} struct>"


class BoxedValue:
    """A value type boxed into an ``object`` reference."""

    __slots__ = ("type_name", "value", "monitor", "gc_epoch")

    def __init__(self, type_name: str, value) -> None:
        self.type_name = type_name
        self.value = value
        self.monitor = None
        self.gc_epoch = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<boxed {self.type_name}: {self.value!r}>"


class SZArray:
    """A rank-1 zero-based array."""

    __slots__ = ("elem", "data", "monitor", "gc_epoch")

    def __init__(self, elem: CType, length: int) -> None:
        self.elem = elem
        if isinstance(elem, cts.NamedType) and elem.is_value_type:
            # struct arrays are filled by the allocator (needs rtclass)
            self.data: List = [None] * length
        else:
            self.data = [zero_value(elem)] * length
        self.monitor = None
        self.gc_epoch = 0

    @property
    def length(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.elem.name}[{len(self.data)}]>"


class MDArray:
    """A true multidimensional array: flat row-major storage plus dims."""

    __slots__ = ("elem", "dims", "data", "strides", "monitor", "gc_epoch")

    def __init__(self, elem: CType, dims: Sequence[int]) -> None:
        self.elem = elem
        self.dims = tuple(dims)
        total = 1
        for d in self.dims:
            total *= d
        self.data = [zero_value(elem)] * total
        # row-major strides
        strides = []
        acc = 1
        for d in reversed(self.dims):
            strides.append(acc)
            acc *= d
        self.strides = tuple(reversed(strides))
        self.monitor = None
        self.gc_epoch = 0

    @property
    def length(self) -> int:
        return len(self.data)

    def flat_index(self, indices: Sequence[int]) -> int:
        """Row-major flattening with per-dimension bounds checks; returns -1
        when any index is out of range."""
        flat = 0
        for i, d, s in zip(indices, self.dims, self.strides):
            if i < 0 or i >= d:
                return -1
            flat += i * s
        return flat

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        commas = "x".join(str(d) for d in self.dims)
        return f"<{self.elem.name}[{commas}]>"


class Monitor:
    """Per-object lock state (created lazily on first Enter)."""

    __slots__ = ("owner", "count", "entry_queue", "wait_queue")

    def __init__(self) -> None:
        self.owner = None  # GuestThread
        self.count = 0
        self.entry_queue: List = []
        self.wait_queue: List = []


def get_monitor(obj) -> Monitor:
    mon = obj.monitor
    if mon is None:
        mon = Monitor()
        obj.monitor = mon
    return mon
