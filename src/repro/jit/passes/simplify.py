"""Scalar simplification passes: constant folding/propagation, copy
propagation, dead-code elimination.

All three are block-local (facts die at basic-block boundaries), matching
what period JITs actually did under their compile-time budgets.  Profiles
without these passes execute the raw stack-shuffle MIR — the paper's
"very close to the actual CIL code" observation about Mono and Rotor.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Dict, List, Optional, Set

from ...vm.values import i32, i64, r4 as round_r4
from .. import mir


#: ops after which a new basic block starts
_BLOCK_ENDS = mir.TERMINATORS | mir.COND_JUMPS


def block_starts(fn: mir.MIRFunction) -> Set[int]:
    """Indices that start a basic block (jump targets, handler entries,
    instruction after a terminator/conditional)."""
    starts: Set[int] = {0}
    for i, ins in enumerate(fn.code):
        if ins.target >= 0:
            starts.add(ins.target)
        if ins.op in _BLOCK_ENDS:
            starts.add(i + 1)
        elif ins.op == mir.SWITCH:
            starts.update(ins.extra)
    for region in fn.regions:
        starts.add(region.handler_start)
        starts.add(region.try_start)
    return starts


_FOLDABLE = {
    mir.ADD: lambda a, b: a + b,
    mir.SUB: lambda a, b: a - b,
    mir.MUL: lambda a, b: a * b,
    mir.AND: lambda a, b: a & b,
    mir.OR: lambda a, b: a | b,
    mir.XOR: lambda a, b: a ^ b,
}

_WRAP = {"i4": i32, "i8": i64, "r4": round_r4, "r8": float, "ref": lambda v: v}


def _global_constants(fn: mir.MIRFunction) -> Dict[int, object]:
    """vreg -> constant for vregs that are provably constant everywhere:
    a single definition by LDI (or a MOV chain from one), not skippable by a
    forward branch, with every use after the definition in code order.

    One walk counts definitions and first uses; a second decides each
    definition in code order.  That second walk reaches the MOV-chain
    fixpoint: a MOV's source can only be constant if all its uses, the
    MOV included, follow its definition, so the source is decided first.
    """
    code = fn.code
    n_defs: Dict[int, int] = {}
    first_use: Dict[int, int] = {}
    for i, ins in enumerate(code):
        # the reads of :func:`_uses`, inlined so that no list is built
        o = ins.op
        if o == mir.RET:
            a = ins.a
            if isinstance(a, int) and a >= 0:
                first_use.setdefault(a, i)
        elif o != mir.LDI:
            for f in (ins.a, ins.b, ins.c):
                if isinstance(f, int) and f >= 0:
                    first_use.setdefault(f, i)
        if ins.args:
            for v in ins.args:
                first_use.setdefault(v, i)
        if ins.dst >= 0:
            n_defs[ins.dst] = n_defs.get(ins.dst, 0) + 1
    n = len(code)
    out: Dict[int, object] = {}
    # code below ``reach`` is spanned by an earlier forward branch, so it
    # may be skipped
    reach = 0
    for k, ins in enumerate(code):
        v = ins.dst
        if (
            v >= 0
            and k >= reach
            and n_defs[v] == 1
            and first_use.get(v, n) > k
            and ins.kind != "r4"
        ):
            if ins.op == mir.LDI and isinstance(ins.a, (int, float)):
                out[v] = ins.a
            elif ins.op == mir.MOV and isinstance(ins.a, int) and ins.a in out:
                out[v] = out[ins.a]
        if ins.target > k:
            reach = max(reach, min(ins.target, n))
        if ins.op == mir.SWITCH:
            for t in ins.extra:
                if t > k:
                    reach = max(reach, min(t, n))
    return out


def constant_fold(fn: mir.MIRFunction, profile=None) -> None:
    """Constant propagation + folding.

    Block-local facts (LDI constants flowing through MOVs and simple ALU
    ops) are seeded with *global* single-assignment constants, so a
    loop-invariant ``int d = 3`` is visible inside the loop — which is how
    the CLR 1.1 "realizes that a constant is used" in the paper's division
    study (Table 6).  Constants seen at a DIV's divisor are recorded for
    the quirk pass (``fn.stats['const_divisors']``).
    """
    starts = block_starts(fn)
    global_consts = _global_constants(fn)
    consts: Dict[int, object] = dict(global_consts)
    const_divisors: List[int] = []
    for i, ins in enumerate(fn.code):
        if i in starts:
            consts.clear()
            consts.update(global_consts)
        o = ins.op
        if o == mir.LDI:
            if ins.dst >= 0:
                consts[ins.dst] = ins.a
            continue
        if o == mir.MOV:
            src = ins.a
            if src in consts and ins.kind != "r4":
                ins.op = mir.LDI
                ins.a = consts[src]
                consts[ins.dst] = ins.a
            else:
                consts.pop(ins.dst, None)
                if src in consts:
                    consts[ins.dst] = consts[src]
            continue
        if o in _FOLDABLE and ins.a in consts and ins.b in consts:
            va, vb = consts[ins.a], consts[ins.b]
            if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
                try:
                    value = _WRAP.get(ins.kind, lambda v: v)(_FOLDABLE[o](va, vb))
                except TypeError:
                    value = None
                if value is not None:
                    ins.op = mir.LDI
                    ins.a = value
                    ins.b = None
                    consts[ins.dst] = value
                    continue
        if o == mir.DIV and ins.b in consts:
            const_divisors.append(i)
        # any write invalidates
        if ins.dst >= 0:
            consts.pop(ins.dst, None)
    fn.stats["const_divisors"] = const_divisors


def _uses(ins: mir.MInstr) -> List[int]:
    """vregs read by an instruction."""
    o = ins.op
    if o == mir.LDI:
        out = []
    elif o == mir.RET:
        a = ins.a
        out = [a] if isinstance(a, int) and a >= 0 else []
    else:
        out = [f for f in (ins.a, ins.b, ins.c) if isinstance(f, int) and f >= 0]
    if ins.args:
        out.extend(ins.args)
    return out


def _replace_uses(ins: mir.MInstr, mapping: Dict[int, int]) -> None:
    o = ins.op
    if o != mir.LDI:
        if isinstance(ins.a, int) and ins.a in mapping:
            ins.a = mapping[ins.a]
        if isinstance(ins.b, int) and ins.b in mapping:
            ins.b = mapping[ins.b]
        if isinstance(ins.c, int) and ins.c in mapping:
            ins.c = mapping[ins.c]
    if ins.args:
        ins.args = [mapping.get(v, v) for v in ins.args]


def copy_propagate(fn: mir.MIRFunction, profile=None) -> None:
    """Block-local copy propagation: rewrite uses of ``dst`` after
    ``mov dst <- src`` to use ``src`` while neither is redefined."""
    starts = block_starts(fn)
    copies: Dict[int, int] = {}
    n_args = fn.n_args
    for i, ins in enumerate(fn.code):
        if i in starts:
            copies.clear()
        if copies:
            _replace_uses(ins, copies)
        if ins.dst >= 0:
            # a write kills copies involving dst (either side)
            if copies:
                copies.pop(ins.dst, None)
                if ins.dst in copies.values():
                    for k in [k for k, v in copies.items() if v == ins.dst]:
                        copies.pop(k)
            # r4 moves are value-changing (rounding); don't propagate through
            if ins.op == mir.MOV and isinstance(ins.a, int) and ins.kind != "r4":
                copies[ins.dst] = ins.a


_PURE = frozenset(
    {mir.MOV, mir.LDI}
    | mir.ARITH
    | mir.COMPARES
    | {mir.NEG, mir.NOT, mir.CONV, mir.STRUCT_COPY, mir.LDLEN}
)


def dead_code_eliminate(fn: mir.MIRFunction, profile=None) -> None:
    """Remove pure instructions whose destination is never read.

    Memory/array/field/call ops stay, and so do writes to arguments.
    Division counts as pure, so a dead division is removed even though it
    can raise (a known defect; fixing it moves compiled code).  Removing
    one instruction can kill
    another, so removal runs off read counts: a vreg whose count reaches
    zero queues its definitions, and each removed definition releases its
    own reads.  An instruction that reads its own destination keeps it
    alive.  Indices are remapped once, after the last removal.
    """
    code = fn.code
    n_args = fn.n_args
    uses = list(map(_uses, code))
    reads = Counter(chain.from_iterable(uses))
    #: vreg -> indices of its removable definitions
    defs: Dict[int, List[int]] = {}
    for i, ins in enumerate(code):
        if ins.op in _PURE and ins.dst >= 0 and ins.dst >= n_args:
            defs.setdefault(ins.dst, []).append(i)
    work = [v for v in defs if v not in reads]
    if not work:
        return
    removed = [False] * len(code)
    while work:
        for i in defs[work.pop()]:
            removed[i] = True
            for v in uses[i]:
                reads[v] -= 1
                if not reads[v] and v in defs:
                    work.append(v)
    new_code: List[mir.MInstr] = []
    remap: Dict[int, int] = {}
    for i, ins in enumerate(code):
        remap[i] = len(new_code)
        if not removed[i]:
            new_code.append(ins)
    remap[len(code)] = len(new_code)
    for ins in new_code:
        if ins.target >= 0:
            ins.target = remap[ins.target]
        if ins.op == mir.SWITCH:
            ins.extra = [remap[t] for t in ins.extra]
    for region in fn.regions:
        region.try_start = remap[region.try_start]
        region.try_end = remap.get(region.try_end, len(new_code))
        region.handler_start = remap[region.handler_start]
        region.handler_end = remap.get(region.handler_end, len(new_code))
    fn.code = new_code
