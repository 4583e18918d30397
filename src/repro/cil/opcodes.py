"""CIL opcode definitions (ECMA-335 partition III subset).

Opcodes are small integers for fast dispatch; ``OpInfo`` carries the
mnemonic and the operand kind.  Stack effects live in one place, the
verifier (:mod:`repro.cil.verifier`), which also computes ``max_stack``.

Deviations from ECMA-335, documented per DESIGN.md section 2:

* ``ldelem``/``stelem`` take the element type as an operand rather than
  having per-type encodings (matches the generic ``ldelem <token>`` form).
* Multidimensional array access uses dedicated ``newarr_md``/``ldelem_md``/
  ``stelem_md`` opcodes carrying ``(element_type, rank)`` instead of the
  pseudo-method calls (``Get``/``Set``/``.ctor``) real CIL emits; the JIT
  treats them exactly like the CLR treats those pseudo-methods.
* ``struct_copy`` makes value-type copy semantics explicit (real CIL uses a
  combination of ``ldobj``/``stobj``/``cpobj``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class OpInfo:
    code: int
    mnemonic: str
    #: operand kind: none|i4|i8|r4|r8|str|local|arg|field|method|type|target|
    #: switch|typerank
    operand: str


_ops: Dict[int, OpInfo] = {}
_by_name: Dict[str, OpInfo] = {}
_next = [0]


def _op(mnemonic: str, operand: str = "none") -> int:
    code = _next[0]
    _next[0] += 1
    info = OpInfo(code, mnemonic, operand)
    _ops[code] = info
    _by_name[mnemonic] = info
    return code


# --- constants -----------------------------------------------------------
NOP = _op("nop")
LDC_I4 = _op("ldc.i4", "i4")
LDC_I8 = _op("ldc.i8", "i8")
LDC_R4 = _op("ldc.r4", "r4")
LDC_R8 = _op("ldc.r8", "r8")
LDSTR = _op("ldstr", "str")
LDNULL = _op("ldnull")

# --- locals / arguments --------------------------------------------------
LDLOC = _op("ldloc", "local")
STLOC = _op("stloc", "local")
LDARG = _op("ldarg", "arg")
STARG = _op("starg", "arg")

# --- fields --------------------------------------------------------------
LDFLD = _op("ldfld", "field")
STFLD = _op("stfld", "field")
LDSFLD = _op("ldsfld", "field")
STSFLD = _op("stsfld", "field")

# --- arrays --------------------------------------------------------------
NEWARR = _op("newarr", "type")
LDLEN = _op("ldlen")
LDELEM = _op("ldelem", "type")
STELEM = _op("stelem", "type")
NEWARR_MD = _op("newarr.md", "typerank")
LDELEM_MD = _op("ldelem.md", "typerank")
STELEM_MD = _op("stelem.md", "typerank")

# --- arithmetic / logic --------------------------------------------------
ADD = _op("add")
SUB = _op("sub")
MUL = _op("mul")
DIV = _op("div")
REM = _op("rem")
NEG = _op("neg")
AND = _op("and")
OR = _op("or")
XOR = _op("xor")
NOT = _op("not")
SHL = _op("shl")
SHR = _op("shr")
SHR_UN = _op("shr.un")

# --- comparison ----------------------------------------------------------
CEQ = _op("ceq")
CGT = _op("cgt")
CLT = _op("clt")

# --- conversions ---------------------------------------------------------
CONV_I1 = _op("conv.i1")
CONV_U1 = _op("conv.u1")
CONV_I2 = _op("conv.i2")
CONV_U2 = _op("conv.u2")
CONV_I4 = _op("conv.i4")
CONV_I8 = _op("conv.i8")
CONV_R4 = _op("conv.r4")
CONV_R8 = _op("conv.r8")

# --- control flow --------------------------------------------------------
BR = _op("br", "target")
BRTRUE = _op("brtrue", "target")
BRFALSE = _op("brfalse", "target")
BEQ = _op("beq", "target")
BNE = _op("bne.un", "target")
BGE = _op("bge", "target")
BGT = _op("bgt", "target")
BLE = _op("ble", "target")
BLT = _op("blt", "target")
SWITCH = _op("switch", "switch")
RET = _op("ret")

# --- calls / objects -----------------------------------------------------
CALL = _op("call", "method")
CALLVIRT = _op("callvirt", "method")
NEWOBJ = _op("newobj", "method")
BOX = _op("box", "type")
UNBOX = _op("unbox", "type")
CASTCLASS = _op("castclass", "type")
ISINST = _op("isinst", "type")
DUP = _op("dup")
POP = _op("pop")
STRUCT_COPY = _op("struct.copy", "type")

# --- exceptions ----------------------------------------------------------
THROW = _op("throw")
RETHROW = _op("rethrow")
LEAVE = _op("leave", "target")
ENDFINALLY = _op("endfinally")


def info(code: int) -> OpInfo:
    """Look up :class:`OpInfo` by opcode number."""
    return _ops[code]


def by_name(mnemonic: str) -> OpInfo:
    """Look up :class:`OpInfo` by mnemonic (used by the IL assembler)."""
    return _by_name[mnemonic]


def mnemonic(code: int) -> str:
    return _ops[code].mnemonic


#: total number of defined opcodes (JIT lowering tables are sized from this)
COUNT = _next[0]

#: opcodes that unconditionally transfer control (end a basic block)
UNCONDITIONAL_FLOW = frozenset({BR, RET, THROW, RETHROW, LEAVE, ENDFINALLY, SWITCH})

#: opcodes that conditionally branch
CONDITIONAL_BRANCHES = frozenset({BRTRUE, BRFALSE, BEQ, BNE, BGE, BGT, BLE, BLT})

#: all opcodes with a branch-target operand
BRANCHES = frozenset({BR, LEAVE}) | CONDITIONAL_BRANCHES
