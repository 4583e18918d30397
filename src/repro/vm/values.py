"""Primitive value semantics: two's-complement wrapping and float32 rounding.

CIL int32/int64 arithmetic wraps (no overflow checking with plain ``add``);
Python ints are unbounded, so every integer result is normalized through
:func:`i32`/:func:`i64`.  float32 results round through an actual 4-byte
representation so single-precision kernels lose precision exactly where a
real VES would.
"""

from __future__ import annotations

import struct

_I32_MASK = 0xFFFFFFFF
_I64_MASK = 0xFFFFFFFFFFFFFFFF

_pack_f = struct.pack
_unpack_f = struct.unpack


def i32(value: int) -> int:
    """Wrap to signed 32-bit."""
    value &= _I32_MASK
    return value - 0x100000000 if value >= 0x80000000 else value


def i64(value: int) -> int:
    """Wrap to signed 64-bit."""
    value &= _I64_MASK
    return value - 0x10000000000000000 if value >= 0x8000000000000000 else value


def i8(value: int) -> int:
    value &= 0xFF
    return value - 0x100 if value >= 0x80 else value


def u8(value: int) -> int:
    return value & 0xFF


def i16(value: int) -> int:
    value &= 0xFFFF
    return value - 0x10000 if value >= 0x8000 else value


def u16(value: int) -> int:
    return value & 0xFFFF


def r4(value: float) -> float:
    """Round a float through IEEE-754 single precision."""
    try:
        return _unpack_f("f", _pack_f("f", value))[0]
    except OverflowError:
        return float("inf") if value > 0 else float("-inf")


def float_to_i32(value: float) -> int:
    """CIL conv.i4 from a float: truncate toward zero; NaN/overflow give the
    x86 sentinel 0x80000000 like period runtimes did."""
    if value != value or value >= 2147483648.0 or value < -2147483648.0:
        return -0x80000000
    return int(value)


def float_to_i64(value: float) -> int:
    if value != value or value >= 9223372036854775808.0 or value < -9223372036854775808.0:
        return -0x8000000000000000
    return int(value)
