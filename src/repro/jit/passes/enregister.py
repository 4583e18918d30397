"""Enregistration — deciding which virtual registers get machine registers.

This is the paper's dominant effect (section 5): "The level of
optimizations produced by the JIT engines appears to be the dominating
factor in the resulting performance of the low-level compute benchmarks."
Three modes model the observed emitters:

* ``full`` (CLR 1.1, IBM JVM, HotSpot, JRockit, native): linear-scan
  allocation over live ranges — short-lived temporaries share registers,
  so a tight loop keeps everything register-resident, exactly the Table 6
  code ("uses registers and constants throughout the loop").  The CLR
  additionally only *tracks* the first 64 locals (``max_tracked_locals``),
  the documented enregistration cliff.
* ``partial`` (Mono 0.23): the same allocator but with a tiny budget and
  only expression temporaries eligible; named locals stay in the frame
  ("uses two memory locations for each of the variables").
* ``none`` (SSCLI): every value through memory (Table 8).

Values defined only by constant loads count as *immediates* when the
emitter folds constants (``constant_folding``): they encode into the
instruction (``cmp esi, 1000``) and consume no register.  Rotor does not
fold, so its constants round-trip through the frame.

The executor always reads ``frame.R[vreg]``; placement only changes the
per-instruction cycle cost stamped by the cost-model pass.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Set, Tuple

from .. import mir
from .simplify import _uses


def _loop_weights(fn: mir.MIRFunction) -> List[int]:
    """Instruction weight = 10^loop-depth (approximated by backedge spans),
    capped to avoid pathological nesting."""
    spans: List[Tuple[int, int]] = []
    for j, ins in enumerate(fn.code):
        if ins.target >= 0 and ins.target <= j and (
            ins.op in mir.COND_JUMPS or ins.op == mir.JMP
        ):
            spans.append((ins.target, j))
    weights = [1] * len(fn.code)
    for start, end in spans:
        for k in range(start, end + 1):
            if weights[k] < 10_000:
                weights[k] *= 10
    return weights, spans


def _live_ranges(ranges: Dict[int, List[int]], spans) -> Dict[int, Tuple[int, int]]:
    """vreg -> its ``[first, last]`` touching indices in ``ranges``,
    widened to enclosing loop spans so a value used across a backedge stays
    live for the whole loop."""
    boundaries = sorted({index for span in spans for index in span})
    out: Dict[int, Tuple[int, int]] = {}
    for v, (start, end) in ranges.items():
        # a value whose range crosses a loop boundary is live for the whole
        # loop (it flows around the backedge); one fully inside dies within
        # a single iteration and keeps its short range.  Only a range that
        # holds some span's first or last index can cross that span.
        first = bisect_left(boundaries, start)
        changed = first < len(boundaries) and boundaries[first] <= end
        while changed:
            changed = False
            for s, e in spans:
                crosses = (start < s <= end) or (start <= e < end)
                if crosses and not (start <= s and e <= end):
                    start = min(start, s)
                    end = max(end, e)
                    changed = True
        out[v] = (start, end)
    return out


def enregister(fn: mir.MIRFunction, profile) -> None:
    config = profile.jit
    if config.enreg_mode == "none" or config.reg_budget <= 0:
        # Rotor: not even immediates — constants go through the frame
        fn.in_register = [False] * fn.n_vregs
        fn.stats["enregistered"] = 0
        return

    weights_list, spans = _loop_weights(fn)
    # one walk: each vreg's loop-weighted access count, the first and last
    # index that touches it (reads, then the write), and whether every
    # definition is a numeric constant load
    usage: Dict[int, int] = {}
    touched: Dict[int, List[int]] = {}
    constant_defs: Set[int] = set()
    other_defs: Set[int] = set()
    for i, ins in enumerate(fn.code):
        w = weights_list[i]
        operands = _uses(ins)
        if ins.dst >= 0:
            operands.append(ins.dst)
            if ins.op == mir.LDI and isinstance(ins.a, (int, float)):
                constant_defs.add(ins.dst)
            else:
                other_defs.add(ins.dst)
        for v in operands:
            usage[v] = usage.get(v, 0) + w
            r = touched.get(v)
            if r is None:
                touched[v] = [i, i]
            else:
                r[1] = i

    # constant-defined vregs become immediates when the emitter folds
    fn.in_register = [False] * fn.n_vregs
    immediates: Set[int] = set()
    if config.constant_folding:
        immediates = constant_defs - other_defs
        for v in immediates:
            if v < fn.n_vregs:
                fn.in_register[v] = True

    n_args = fn.n_args
    method = fn.method
    n_locals = len(method.locals) if method is not None else 0
    local_range = range(n_args, n_args + n_locals)
    forced_spill: Set[int] = set(fn.stats.get("force_spill", ()))

    def eligible(v: int) -> bool:
        if v in forced_spill or v in immediates:
            return False
        if config.enreg_mode == "partial":
            # scratch temps only; named locals/args stay in the frame
            return v >= n_args + n_locals
        # full: the CLR tracking limit applies to *locals* beyond the cap
        if v in local_range and (v - n_args) >= config.max_tracked_locals:
            return False
        return True

    ranges = _live_ranges(touched, spans)
    intervals = sorted(
        (
            (ranges[v][0], ranges[v][1], usage.get(v, 0), v)
            for v in ranges
            if eligible(v)
        ),
        key=lambda t: t[0],
    )

    # linear scan: active intervals hold registers; on pressure, the
    # lowest-weight interval (incoming or active) spills
    budget = config.reg_budget
    active: List[Tuple[int, int, int]] = []  # (end, weight, vreg)
    placed = 0
    for start, end, weight, v in intervals:
        active = [a for a in active if a[0] >= start]
        if len(active) < budget:
            active.append((end, weight, v))
            fn.in_register[v] = True
            placed += 1
        else:
            victim = min(active, key=lambda a: a[1])
            if victim[1] < weight:
                active.remove(victim)
                fn.in_register[victim[2]] = False
                placed -= 1
                active.append((end, weight, v))
                fn.in_register[v] = True
                placed += 1
    fn.stats["enregistered"] = placed
    fn.stats["immediates"] = len(immediates)
