"""Array bounds-check elimination (the paper's section-5 case study).

    "One of these shortcuts is for example the elimination of in-loop array
    bound checks when the array index has a known relationship to the loop
    counter. [...] In CLR 1.1, we can easily force this optimization by
    using the array.Length property as the bounds in the loop; if we
    introduce this for example in the sparse matrix multiply kernel [...]
    we see an instant performance improvement of 15% or more."

The pattern recognized (conservatively) is::

    len = ldlen arr            ; anywhere before the loop, assigned once
    loop: ...
        x = ldelem arr, i      ; i is the loop counter, arr the same array
        ...
        i = add i, +const
        jlt i, len, loop       ; backedge guarded by i < len

When it matches, the range checks on ``arr[i]`` inside the loop are
dropped.  Loops bounded by a plain local (``i < n``) do NOT match — which
is exactly why rewriting SciMark's sparse kernel to use ``.Length`` gives
the measured speedup (see ``tests/test_paper_findings.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .. import mir


def _definitions(fn: mir.MIRFunction) -> Dict[int, List[int]]:
    """vreg -> indices of instructions writing it."""
    defs: Dict[int, List[int]] = {}
    for i, ins in enumerate(fn.code):
        if ins.dst >= 0:
            defs.setdefault(ins.dst, []).append(i)
    return defs


def eliminate_bounds_checks(fn: mir.MIRFunction, profile=None) -> None:
    code = fn.code
    defs = _definitions(fn)

    # find backedges: conditional jumps with target <= index
    for j, ins in enumerate(code):
        if ins.op not in (mir.JLT, mir.JLE) or ins.target < 0 or ins.target > j:
            continue
        head = ins.target
        i_vreg = ins.a
        bound_vreg = ins.b
        if not isinstance(i_vreg, int) or not isinstance(bound_vreg, int):
            continue
        # bound must be single-assigned, from ldlen of a stable array vreg;
        # the ldlen itself typically sits inside the loop (the test is
        # re-evaluated), which is fine — it always reloads the same length
        bound_defs = defs.get(bound_vreg, [])
        if len(bound_defs) != 1:
            continue
        bound_chain = {bound_defs[0]}
        src = code[bound_defs[0]]
        if src.op == mir.MOV and isinstance(src.a, int):
            inner = defs.get(src.a, [])
            if len(inner) != 1:
                continue
            bound_chain.add(inner[0])
            src = code[inner[0]]
        if src.op != mir.LDLEN or not isinstance(src.a, int):
            continue
        arr_vreg = src.a
        if len(defs.get(arr_vreg, [])) > 1:
            continue

        def _is_positive_const(vreg: object) -> bool:
            d = defs.get(vreg, []) if isinstance(vreg, int) else []
            if len(d) != 1 or code[d[0]].op != mir.LDI:
                return False
            step = code[d[0]].a
            return isinstance(step, int) and step > 0

        def _is_increment(w: mir.MInstr) -> bool:
            """w writes i_vreg; accept `i = add i, +c` directly or via one
            mov from a single-def add."""
            if w.op == mir.ADD and w.a == i_vreg and _is_positive_const(w.b):
                return True
            if w.op == mir.MOV and isinstance(w.a, int):
                d = defs.get(w.a, [])
                if len(d) == 1:
                    inner = code[d[0]]
                    if inner.op == mir.ADD and inner.a == i_vreg and _is_positive_const(inner.b):
                        return True
            return False

        ok = True
        body = range(head, j)
        for k in body:
            w = code[k]
            if w.dst == i_vreg:
                if not _is_increment(w):
                    ok = False
                    break
            elif w.dst == bound_vreg and k not in bound_chain:
                ok = False
                break
            elif w.dst == arr_vreg:
                ok = False
                break
        if not ok:
            continue
        eliminated = 0
        for k in body:
            w = code[k]
            if w.op in (mir.LDELEM, mir.STELEM) and w.a == arr_vreg and w.b == i_vreg:
                if w.bounds_check:
                    w.bounds_check = False
                    eliminated += 1
        fn.stats["bce_eliminated"] = fn.stats.get("bce_eliminated", 0) + eliminated


def clear_all_bounds_checks(fn: mir.MIRFunction, profile=None) -> None:
    """Native code: no range checks anywhere."""
    for ins in fn.code:
        if ins.op in (mir.LDELEM, mir.STELEM, mir.LDELEM_MD, mir.STELEM_MD):
            ins.bounds_check = False
