"""Threaded-code dispatch: the measured (MIR) engine's executor.

The classic executor (the tests' cycle oracle in
``tests/classic_oracle.py``, outside this package) walks one giant
if/elif chain per instruction and re-derives operands, cost constants and
jump targets from the :class:`~repro.jit.mir.MInstr` on every cycle.  This
module removes that: each function's MIR is translated into a flat array
of *pre-bound closures* — one per pc, with operand vregs, cost constants,
resolved call records and jump targets bound in — and the driver loop
shrinks to ``pc = ops[pc](R, st)``.  Every
:class:`~repro.vm.machine.Machine` runs it.

Translation is tiered (see :func:`build_ops`).  Tier 0, built when a
function first runs, is generated singles, with hand-written closures
only for ops outside the template subset: each register, arithmetic,
compare, branch, field and array op gets a closure *generated as Python
source* with the value-kind wrap/round math inlined
(:func:`_make_single_gen`); calls, allocation, MD arrays, box/unbox,
casts, statics, switch, throw/leave and narrow converts keep hand-written
closures.  Once a function has run :data:`_FUSE_RUNS` times its length
in instructions its straight-line runs, array and field accesses
included, become superinstructions (:func:`_make_fused_gen`).  A
function that reached the superinstruction tier once in the process
starts in it on every later machine (the tier memory,
:data:`_HOT_CODE`).  Observed machines tier up
too unless the observer has a per-instruction hook: the cycle-attribution
profiler (``observer.instr``) keeps one closure per pc, while an observer
with ``instr = None`` (``MachineMetrics``, ``StackSampler``) fuses and
shares the tier memory like a bare machine.  On an observed machine the
array accesses, single or fused, report the memory tax through
``observer.dyn`` from templates of their own.  Generated source carries
no per-instruction literal — operands are default arguments — so it is
keyed by the shape of the instruction or run and compiled once per
process, or not at all in a forked process that inherits it: a process
can hand the templates it compiled back to the one that forked it
(:func:`export_templates`, :func:`adopt_templates`).

Equivalence contract (enforced by ``tests/test_dispatch_equivalence.py``):
a threaded machine is **bit-identical** to a classic one in ``cycles``,
``instructions``, results, metrics snapshots, observer event streams and
fault-fire sites.  Two classic behaviours matter for that:

* the budget predicate ``total_spent + spent >= budget`` is checked after
  every instruction; flushes move ``spent`` into ``total`` so the sum is
  flush-invariant and the driver can test it after each closure returns;
* a quantum that ends because the thread blocked on a monitor / yielded
  drops the current binding's instruction count (the classic loop returns
  before the ``self.instructions += icount`` flush).  The driver reproduces
  the drop on the EXIT sentinel;
* the classic per-binding *burst* rebind (``icount >= burst``) must be
  kept with the exact same cadence: several profiles carry **float** cost
  entries, and a rebind flushes ``spent`` into ``machine.cycles`` — float
  addition is non-associative, so moving a flush boundary by even one
  instruction changes the low-order bits of the final cycle count.  The
  instruction counter therefore lives in :class:`ExecState` so fused runs
  can count their elements into it, and a run that might cross a flush
  boundary runs only its first element (the head fallback below).

Closure protocol: ``ops[pc](R, st) -> next_pc``, where ``next_pc >= 0``
continues in this frame, ``REBIND`` re-binds the top frame (call/ret/
endfinally) and ``EXIT`` ends the quantum (blocked / yielded).  Frame
locals are the plain ``frame.R`` slot array, passed to every closure per
dispatch — closures never capture a frame's ``R`` at build time, because
one closure array is shared by *every* activation of the function
(recursion, multiple threads); see the frame-aliasing regression tests.

Superinstructions: :func:`fuse_plan` greedily merges straight-line runs of
register ops and array/field accesses (up to :data:`MAX_FUSE_RUN`,
optionally ending in a branch) into one generated function per run
(:func:`_make_fused_gen`).  A run may end on a loop latch — the
conditional jump at a branch target that closes a bottom-tested loop —
so SOR's inner loop takes 2 dispatches per iteration.  Fusion changes
host speed only.  Each fused body carries two paths (:func:`_run_source`):
an *int fast path* (all costs int, no float memory tax, comfortably
inside the budget and burst bounds) that executes the whole run with a
single bookkeeping store, and a *sequential path* for float sums — the
large memory model's per-access tax, float cost profiles — that adds
classic's costs in classic's order but skips the per-element checks when
one margin-guarded entry check proves none could trip.  When neither
entry check passes the run falls back to its head: it calls ``F0``, the
closure it replaced at its start, and the driver goes on through the
interior pcs, which keep their own closures.  A raising element flushes
the classic-partial ``spent`` / ``icount`` and records the precise
raising pc in ``ExecState.raise_pc`` before the throw.  The fuser keeps
branch targets and exception-region boundaries out of a run's interior
(only a latch may end one), and stands down entirely on machines with a
fault injector armed (every pc stays an attributable fire site).

Loop superinstructions: a run still returns to the driver at every
block boundary, and the driver's round trip costs several times what
one block transition costs inside a function.  :func:`loop_plan` picks
the maximal, disjoint call-free loops of a function (an interval closed
by a back edge, every op fusable, no exception-region edge inside), and
:func:`_make_loop_gen` gives each one generated function that runs the
loop's blocks — its runs, from the same fragments and with the same two
paths, and the singles between them — in a local ``while``
(:func:`_loop_source`).  At every block boundary it does exactly what the
driver and the next closure would do: the budget and burst test, then
the block's entry checks, so the flush cadence, ``icount``, the raise
pcs, the float cost sums and the observer's memory-tax reports stay
classic's.  It hands control back when the loop exits or the test
trips, and when a run block's entry checks fail it calls that run's own
closure, which checks again and runs or falls back to its head as under
the driver.  The function
is installed at every block start of the loop, so a binding that ended
inside it, or a jump into it from outside (the entry jump of a
bottom-tested loop), resumes in it at once; the interior pcs of runs
keep their singles.  Loop templates are keyed by the instruction shapes
and the block layout and live in the same bounded cache as the rest.
"""

from __future__ import annotations

import builtins
import marshal
import math
import re
import struct
from types import FunctionType

from ..cil import cts
from ..errors import VMError
from ..jit import mir
from ..observe.recorder import CAT_DISPATCH, CAT_EXECUTE, CAT_MEMTAX
from .exceptions import GuestException, make_exception
from .objects import BoxedValue, MDArray, StructValue
from .threads import Frame, RUNNABLE
from .values import r4

#: closure sentinel returns (< 0 so real pcs stay >= 0)
REBIND = -1
EXIT = -2

class ExecState:
    """Mutable per-quantum execution state shared with the closures.

    ``spent`` is the unflushed cycle count of the current binding,
    ``total`` the cycles already flushed to ``machine.cycles`` this
    quantum (their sum is the budget predicate), ``icount`` the current
    binding's instruction count (fused second halves bump it too, so the
    burst predicate sees exactly what the classic loop would), ``burst``
    the classic per-binding rebind bound.  ``raise_pc`` is -1 except when
    a fused run raises a guest exception from an interior element: the run
    records the raising pc here (after flushing its hoisted ``spent`` and
    ``icount`` copies) so the driver attributes the throw to the exact
    instruction, not the run start.
    """

    __slots__ = (
        "machine", "thread", "frame", "budget", "spent", "total",
        "icount", "burst", "raise_pc",
    )

    def __init__(self, machine, thread, budget, burst) -> None:
        self.machine = machine
        self.thread = thread
        self.frame = None
        self.budget = budget
        self.spent = 0
        self.total = 0
        self.icount = 0
        self.burst = burst
        self.raise_pc = -1


# ---------------------------------------------------------------------------
# superinstruction planning
# ---------------------------------------------------------------------------

#: array and field accesses: they never flush, allocate or rebind, but an
#: array access pays the large-memory-model tax (see :func:`_run_source`)
MEMORY_OPS = frozenset({mir.LDELEM, mir.STELEM, mir.LDFLD, mir.STFLD, mir.LDLEN})
#: the memory ops that pay it
_TAXED = (mir.LDELEM, mir.STELEM)

#: ops that may appear anywhere in a fused run: register transforms and
#: memory accesses that never flush or rebind a frame, and always fall
#: through to pc+1.  DIV/REM and the memory ops may raise — the generated
#: run records the exact raising pc in ``ExecState.raise_pc`` so the
#: driver's throw attribution stays per-instruction.  (Calls rebind,
#: allocations flush — excluded.)
FUSABLE_FIRST = frozenset(
    {
        mir.MOV,
        mir.LDI,
        mir.ADD,
        mir.SUB,
        mir.MUL,
        mir.DIV,
        mir.REM,
        mir.AND,
        mir.OR,
        mir.XOR,
        mir.SHL,
        mir.SHR,
        mir.SHRU,
        mir.NEG,
        mir.NOT,
        mir.CONV,
    }
) | mir.COMPARES | MEMORY_OPS

#: the last element of a run may additionally be a branch (compare+branch
#: and arith+branch are the dominant pairs in the PR 2/3 profiles)
FUSABLE_SECOND = FUSABLE_FIRST | frozenset({mir.JMP}) | mir.COND_JUMPS

#: longest superinstruction: straight-line MIR collapses into runs of up
#: to this many instructions per dispatch
MAX_FUSE_RUN = 16


def fuse_plan(code, regions, branch_targets, faults_armed: bool,
              max_run: int = MAX_FUSE_RUN):
    """Plan superinstruction fusion for one function.

    Returns ``(start, length)`` tuples of non-overlapping fused runs
    (``length >= 2``), chosen greedily left to right.  Pure function of
    its inputs so the property-based tests can exercise it standalone.

    All interior elements of a run must be in :data:`FUSABLE_FIRST` (pure
    register transforms that always fall through); the final element may
    additionally be a branch (:data:`FUSABLE_SECOND`).  No interior element
    may be a branch target or an exception region boundary (try/handler
    start or end), and the last one may be a branch target only when it is
    a conditional jump — the latch of a bottom-tested loop, which the
    increment falls into — and no region boundary.  A run only replaces
    the closure at its start, so entering it sideways, at the latch
    included, always hits a plain closure.  With a fault injector armed
    nothing is fused at all: every pc stays an individually observable
    fire site.
    """
    if faults_armed:
        return []
    edges = set()
    for reg in regions:
        edges.update((reg.try_start, reg.try_end, reg.handler_start, reg.handler_end))
    boundaries = edges.union(branch_targets)
    runs = []
    i = 0
    n = len(code)
    while i < n - 1:
        if code[i].op not in FUSABLE_FIRST:
            i += 1
            continue
        j = i + 1
        while j < n and j - i < max_run:
            op = code[j].op
            if j in boundaries:
                if op in mir.COND_JUMPS and j not in edges:
                    j += 1  # a loop latch ends the run
                break
            if op in FUSABLE_FIRST:
                j += 1
            elif op in FUSABLE_SECOND:
                j += 1  # branch: include it, then the run must end
                break
            else:
                break
        if j - i >= 2:
            runs.append((i, j - i))
            i = j
        else:
            i += 1
    return runs


def loop_plan(code, regions, branch_targets, faults_armed: bool):
    """Plan loop superinstructions for one function.

    Returns ``(head, latch, blocks)`` triples, one per loop, in pc order.
    A loop is an interval ``[head, latch]`` closed by a back edge — the
    jump at ``latch`` targets ``head`` — whose every op is in
    :data:`FUSABLE_SECOND` (no call, allocation or rebind) and inside
    which no exception region starts or ends.  The loops are maximal and
    disjoint: of the back edges into one head the farthest that
    qualifies closes its loop, the longest loop goes first, and one that
    overlaps a chosen one is dropped, so of nested call-free loops the
    outer one is taken.  Pure function of its inputs, like
    :func:`fuse_plan`.

    ``blocks`` are the loop's dispatch points as ``(offset, length)``
    pairs relative to ``head``: the :func:`fuse_plan` runs that start in
    the interval, one single per pc no run covers, and one single for each
    run-ending latch that is a branch target.  Every pc control can reach
    from a block without leaving the interval starts a block, so the
    loop's generated function (:func:`_make_loop_gen`) can go from block
    to block as the driver would go from closure to closure.  With a fault
    injector armed there are no loops, as there are no runs.
    """
    if faults_armed:
        return []
    edges = set()
    for reg in regions:
        edges.update((reg.try_start, reg.try_end, reg.handler_start, reg.handler_end))
    latches = {}  # head -> the farthest back edge into it that qualifies
    for pc, ins in enumerate(code):
        head = ins.target
        if (
            (ins.op == mir.JMP or ins.op in mir.COND_JUMPS) and 0 <= head <= pc
            and all(code[k].op in FUSABLE_SECOND for k in range(head, pc + 1))
            and not any(head < edge <= pc for edge in edges)
        ):
            latches[head] = pc
    candidates = sorted(latches.items(), key=lambda loop: (loop[0] - loop[1], loop[0]))
    chosen = []
    for head, latch in candidates:
        if all(latch < h or l < head for h, l in chosen):
            chosen.append((head, latch))
    if not chosen:
        return []
    runs = dict(fuse_plan(code, regions, branch_targets, False))
    loops = []
    for head, latch in sorted(chosen):
        blocks = []
        pc = head
        while pc <= latch:
            length = runs.get(pc, 1)
            blocks.append((pc - head, length))
            end = pc + length - 1
            if length > 1 and end in branch_targets:
                blocks.append((end - head, 1))
            pc += length
        loops.append((head, latch, tuple(blocks)))
    return loops


# ---------------------------------------------------------------------------
# shape-keyed templates
# ---------------------------------------------------------------------------
#
# The fusable opcode subset is hot enough that every residual host-level
# call per retired instruction — an ``operator`` function, an ``i32``/``r4``
# wrap, the second half of a composed pair — shows up directly in
# wall-clock.  For these opcodes the translator generates the closure
# *source* with the wrap arithmetic inlined; it is their only
# implementation.  The source holds no per-instruction literal: register
# slots, jump targets, next pcs, costs, partial cost sums, raise pcs and a
# run's fallback closure are parameters, bound as default arguments
# (``LOAD_FAST`` locals) when a closure is made.  Its text, and so its
# compiled code, depends only on the *shape* of the instruction or run —
# opcode, value kind, CONV kind, position in the run, all-int costs — and
# each shape is compiled at most once per process into ``_TEMPLATES``; a
# forked child inherits its parent's, and the parent can adopt the ones
# the child compiled (:func:`adopt_templates`).  A template
# is the code of ``bind(code, s, M, F0)``, which holds ``op_(R, st,
# <params>)`` as a nested definition whose defaults read the operands of
# the instructions at ``code[s:]`` and what the body needs of machine
# ``M`` (the loaded assembly for raised exceptions, the working-set flag
# and memory tax for array accesses): a cache hit builds no string, calls
# no ``compile()`` and interprets no operand list.  The differential suite
# holds the result to the classic loop bit-for-bit.

_F32 = struct.Struct("f")
#: names a generated body may reference; the ones it does are bound as
#: default arguments so lookups are LOAD_FAST, not LOAD_GLOBAL
_GEN_ENV = {
    "_fp": _F32.pack,
    "_fu": _F32.unpack,
    "_INF": float("inf"),
    "_NINF": float("-inf"),
    "_NAN": float("nan"),
    "_copysign": math.copysign,
    "_fmod": math.fmod,
    "_mkexc": make_exception,
    "type": type,
    "float": float,
    "int": int,
}
_GEN_GLOBALS = {"__builtins__": builtins, **_GEN_ENV}

#: machine-derived names a generated body may reference: name -> the
#: source text ``bind`` evaluates on machine ``M`` (``fn``, the MIR
#: function a run reports the memory tax for, is an argument of ``bind``)
_MACHINE_ENV = {
    "_loaded": "M.loaded",
    "_M": "M",
    "_memtax": "M.costs.large_array_extra",
    "_dyn": "M.observer.dyn",
    "_fn": "fn",
}
_ENV_USE = re.compile(r"\b({})\b".format("|".join([*_GEN_ENV, *_MACHINE_ENV])))

#: operand parameters of element ``k`` of a template: letter -> the
#: element's MInstr field (``N``, ``Q``, ``P`` and ``F`` are derived, see
#: :func:`_operand_source`)
_OPERAND = {
    "A": "a",
    "B": "b",
    "D": "dst",
    "T": "target",
    "C": "cost",
    "V": "c",  # stored value
}
_PARAM = re.compile(r"\b([ABCDFNPQTV])(\d+)\b")

_ARITH_SYM = {mir.ADD: "+", mir.SUB: "-", mir.MUL: "*"}
_BIT_SYM = {mir.AND: "&", mir.OR: "|", mir.XOR: "^"}
_CMP_SYM = {mir.CLT: "<", mir.CLE: "<=", mir.CGT: ">", mir.CGE: ">="}
_JCC_SYM = {mir.JLT: "<", mir.JLE: "<=", mir.JGT: ">", mir.JGE: ">="}


def _i32_into(tmp, lv):
    """Statements writing ``i32(tmp)`` into lvalue ``lv`` (two's-complement
    wrap, identical to :func:`repro.vm.values.i32`)."""
    return [
        f"{tmp} &= 4294967295",
        f"{lv} = {tmp} - 4294967296 if {tmp} >= 2147483648 else {tmp}",
    ]


def _i64_into(tmp, lv):
    return [
        f"{tmp} &= 18446744073709551615",
        f"{lv} = {tmp} - 18446744073709551616"
        f" if {tmp} >= 9223372036854775808 else {tmp}",
    ]


def _r4_into(tmp, lv):
    """Statements writing ``r4(tmp)`` into ``lv``: round through an actual
    4-byte representation, saturating to ±inf exactly like values.r4."""
    return [
        "try:",
        f"    {lv} = _fu(_fp({tmp}))[0]",
        "except OverflowError:",
        f"    {lv} = _INF if {tmp} > 0 else _NINF",
    ]


def _nan_check(x, y):
    return f"(type({x}) is float and {x} != {x}) or (type({y}) is float and {y} != {y})"


def _shape(ins):
    """The part of an instruction its generated source depends on."""
    o = ins.op
    if o in MEMORY_OPS:
        # only a stored value's r4 rounding depends on the value kind
        stores = o == mir.STELEM or o == mir.STFLD
        return (o, "r4" if stores and ins.kind == "r4" else None, None)
    return (o, ins.kind, ins.extra if o == mir.CONV else None)


def _fragment(shape, k, sfx, raise_pre=(), memtax=()):
    """Source fragment for element ``k`` of a template: ``(body, tail)``.

    ``body`` is the computation (falls through), ``tail`` the control
    transfer (``return`` statements).  Operands are the parameters
    ``A{k}``, ``B{k}``, ``D{k}`` (destination), ``V{k}`` (stored value),
    ``T{k}`` (branch target) and ``N{k}`` (next pc); temporaries carry the
    suffix ``sfx``.  ``raise_pre`` is spliced in front of every ``raise``
    statement — fused runs use it to flush their hoisted bookkeeping and
    record the raising pc before the exception unwinds.  ``memtax`` is
    spliced into an array access after its checks pass, where classic adds
    the large-memory-model tax.  Returns None for opcodes outside the
    codegen subset — the caller falls back to a hand-written closure, so
    each op has exactly one implementation.
    """
    o, kind, ck = shape
    a = f"R[A{k}]"
    b = f"R[B{k}]"
    d = f"R[D{k}]"
    t = f"T{k}"
    nxt = f"N{k}"
    v = f"v{sfx}"
    x = f"x{sfx}"
    y = f"y{sfx}"
    tail = [f"return {nxt}"]

    if o == mir.MOV:
        if kind == "r4":
            body = [f"{v} = {a}", f"if type({v}) is float:"]
            body += ["    " + ln for ln in _r4_into(v, v)]
            body.append(f"{d} = {v}")
        else:
            body = [f"{d} = {a}"]
        return body, tail

    if o == mir.LDI:
        return [f"{d} = A{k}"], tail

    if o in _ARITH_SYM:
        expr = f"{a} {_ARITH_SYM[o]} {b}"
        if kind == "i4":
            body = [f"{v} = {expr}"] + _i32_into(v, d)
        elif kind == "i8":
            body = [f"{v} = {expr}"] + _i64_into(v, d)
        elif kind == "r4":
            body = [f"{v} = {expr}"] + _r4_into(v, d)
        else:
            body = [f"{d} = {expr}"]
        return body, tail

    if o in _BIT_SYM:
        return [f"{d} = {a} {_BIT_SYM[o]} {b}"], tail

    if o == mir.SHL:
        if kind == "i4":
            body = [f"{v} = {a} << ({b} & 31)"] + _i32_into(v, d)
        else:
            body = [f"{v} = {a} << ({b} & 63)"] + _i64_into(v, d)
        return body, tail

    if o == mir.SHR:
        mask = 31 if kind == "i4" else 63
        return [f"{d} = {a} >> ({b} & {mask})"], tail

    if o == mir.SHRU:
        if kind == "i4":
            body = [f"{v} = ({a} & 4294967295) >> ({b} & 31)"]
            body += _i32_into(v, d)
        else:
            body = [f"{v} = ({a} & 18446744073709551615) >> ({b} & 63)"]
            body += _i64_into(v, d)
        return body, tail

    if o == mir.NEG:
        if kind == "i4":
            body = [f"{v} = -{a}"] + _i32_into(v, d)
        elif kind == "i8":
            body = [f"{v} = -{a}"] + _i64_into(v, d)
        else:
            body = [f"{d} = -{a}"]
        return body, tail

    if o == mir.NOT:
        into = _i32_into if kind == "i4" else _i64_into
        return [f"{v} = ~{a}"] + into(v, d), tail

    if o == mir.CEQ or o == mir.CNE:
        eq, ne = ("1", "0") if o == mir.CEQ else ("0", "1")
        on_nan = "0" if o == mir.CEQ else "1"
        body = [
            f"{x} = {a}",
            f"{y} = {b}",
            f"if {_nan_check(x, y)}:",
            f"    {d} = {on_nan}",
            f"elif {x} is {y} or {x} == {y}:",
            f"    {d} = {eq}",
            "else:",
            f"    {d} = {ne}",
        ]
        return body, tail

    if o in _CMP_SYM:
        body = [
            f"{x} = {a}",
            f"{y} = {b}",
            f"if {_nan_check(x, y)}:",
            f"    {d} = 0",
            "else:",
            f"    {d} = 1 if {x} {_CMP_SYM[o]} {y} else 0",
        ]
        return body, tail

    if o == mir.JMP:
        return [], [f"return {t}"]

    if o == mir.JTRUE:
        body = [f"{v} = {a}"]
        return body, [f"return {t} if ({v} is not None and {v} != 0) else {nxt}"]

    if o == mir.JFALSE:
        body = [f"{v} = {a}"]
        return body, [f"return {t} if ({v} is None or {v} == 0) else {nxt}"]

    if o == mir.JEQ or o == mir.JNE:
        want_eq = o == mir.JEQ
        body = [f"{x} = {a}", f"{y} = {b}"]
        tail = [
            f"if {_nan_check(x, y)}:",
            f"    return {nxt if want_eq else t}",
            f"if {x} is {y} or {x} == {y}:",
            f"    return {t if want_eq else nxt}",
            f"return {nxt if want_eq else t}",
        ]
        return body, tail

    if o in _JCC_SYM:
        body = [f"{x} = {a}", f"{y} = {b}"]
        tail = [
            f"if {_nan_check(x, y)}:",
            f"    return {nxt}",
            f"return {t} if {x} {_JCC_SYM[o]} {y} else {nxt}",
        ]
        return body, tail

    # --- raising opcodes: as singles the driver's pc already points at
    # the instruction; inside a fused run ``raise_pre`` records the exact
    # raising pc (and flushes the run's hoisted bookkeeping) first.
    def raising(name):
        return ["    " + ln for ln in raise_pre] + [f"    raise _mkexc(_loaded, '{name}')"]

    if o in MEMORY_OPS:
        obj = f"o{sfx}"
        body = [f"{obj} = {a}", f"if {obj} is None:"] + raising("NullReferenceException")
        if o == mir.LDLEN:
            return body + [f"{d} = len({obj}.data)"], tail
        if o == mir.LDFLD:
            return body + [f"{d} = {obj}.fields[B{k}]"], tail
        if o == mir.LDELEM or o == mir.STELEM:
            i = f"i{sfx}"
            data = f"e{sfx}"
            body += [
                f"{i} = {b}",
                f"{data} = {obj}.data",
                f"if {i} < 0 or {i} >= len({data}):",
            ] + raising("IndexOutOfRangeException") + list(memtax)
            if o == mir.LDELEM:
                return body + [f"{d} = {data}[{i}]"], tail
            dest = f"{data}[{i}]"
        else:
            dest = f"{obj}.fields[B{k}]"
        if kind == "r4":
            body += [f"{v} = R[V{k}]", f"if type({v}) is float:"]
            body += ["    " + ln for ln in _r4_into(v, v)]
            return body + [f"{dest} = {v}"], tail
        return body + [f"{dest} = R[V{k}]"], tail

    if o == mir.DIV:
        q = f"q{sfx}"
        if kind in ("i4", "i8"):
            into = _i32_into if kind == "i4" else _i64_into
            body = [
                f"{x} = {a}",
                f"{y} = {b}",
                f"if {y} == 0:",
            ] + raising("DivideByZeroException") + [
                f"{v} = ({x} if {x} >= 0 else -{x}) // ({y} if {y} >= 0 else -{y})",
                f"if ({x} >= 0) != ({y} >= 0):",
                f"    {v} = -{v}",
            ] + into(v, d)
            return body, tail
        body = [
            f"{x} = {a}",
            f"{y} = {b}",
            f"if {y} == 0.0:",
            f"    if {x} == 0.0 or {x} != {x}:",
            f"        {q} = _NAN",
            f"    elif ({x} > 0) == (_copysign(1.0, {y}) > 0):",
            f"        {q} = _INF",
            "    else:",
            f"        {q} = _NINF",
            "else:",
            f"    {q} = {x} / {y}",
        ]
        if kind == "r4":
            body += _r4_into(q, d)
        else:
            body.append(f"{d} = {q}")
        return body, tail

    if o == mir.REM:
        if kind in ("i4", "i8"):
            body = [
                f"{x} = {a}",
                f"{y} = {b}",
                f"if {y} == 0:",
            ] + raising("DivideByZeroException") + [
                f"{v} = ({x} if {x} >= 0 else -{x}) // ({y} if {y} >= 0 else -{y})",
                f"if ({x} >= 0) != ({y} >= 0):",
                f"    {v} = -{v}",
                f"{d} = {x} - {v} * {y}",
            ]
        else:
            body = [
                f"{y} = {b}",
                f"{d} = _fmod({a}, {y}) if {y} != 0.0 else _NAN",
            ]
        return body, tail

    if o == mir.CONV:
        if ck == "r8":
            return [f"{d} = float({a})"], tail
        if ck == "r4":
            return [f"{v} = float({a})"] + _r4_into(v, d), tail
        if ck == "i4":
            body = [
                f"{v} = {a}",
                f"if type({v}) is float:",
                f"    {d} = -2147483648 if ({v} != {v} or {v} >= 2147483648.0"
                f" or {v} < -2147483648.0) else int({v})",
                "else:",
            ] + ["    " + ln for ln in _i32_into(v, d)]
            return body, tail
        if ck == "i8":
            body = [
                f"{v} = {a}",
                f"if type({v}) is float:",
                f"    {d} = -9223372036854775808 if ({v} != {v}"
                f" or {v} >= 9223372036854775808.0"
                f" or {v} < -9223372036854775808.0) else int({v})",
                "else:",
            ] + ["    " + ln for ln in _i64_into(v, d)]
            return body, tail
        return None  # narrow int converts: keep the hand-written closure

    return None


def _single_source(shape, hook=False):
    """Body of a single-instruction template, or None outside the subset.

    An array access adds the memory tax when the machine's working set is
    large, read at each execution as classic does; with ``hook`` it also
    reports the tax to the observer's ``dyn`` hook."""
    memtax = ("if _M.large_working_set:", "    st.spent += _memtax")
    if hook:
        memtax += (f"    _dyn(_fn, {CAT_MEMTAX!r}, _memtax)",)
    frag = _fragment(shape, 0, "", memtax=memtax)
    if frag is None:
        return None
    body, tail = frag
    return ["st.spent += C0"] + body + tail


#: every run and loop body starts by hoisting the bookkeeping into locals
_PROLOGUE = (
    "spent = st.spent",
    "tot = st.total",
    "bud = st.budget",
    "ic = st.icount",
    "bur = st.burst",
)


def _indent(lines):
    return ["    " + ln for ln in lines]


def _run_checks(b, e, n_tax, length):
    """The entry checks of a fused run's int fast path and sequential
    path, for :func:`_run_paths`: the comments there say why each is
    exact."""
    return (
        f"{'not lws and ' if n_tax else ''}spent.__class__ is int"
        f" and tot + spent + P{e} < bud and ic + {length} < bur",
        f"tot + spent + P{e}{f' + {n_tax} * _memtax' if n_tax else ''}"
        f" + 1.0 < bud and ic + {length} < bur",
    )


def _run_paths(shapes, b, e, all_int, taxed, exit_, tail, checks=_run_checks):
    """The paths of a fused run over elements ``b .. e`` of ``shapes``, as
    ``(entry_check, lines)`` pairs in the order to try them — the int fast
    path when ``all_int``, then the sequential path — or None when an
    element is outside the codegen subset.  Each path runs every
    element's body in order, then ``exit_(sum)``, the bookkeeping with
    ``sum`` the run's final cost sum, then ``tail(transfer)``, the last
    element's control transfer.  ``taxed`` follows the sequential path's
    memory-tax add (the observer's report, say).  ``P{k}`` is the cost of
    elements ``b .. k``, ``{i}`` in a raise prelude the element's place in
    the run.  ``checks(b, e, n_tax, length)`` gives the two paths' entry
    checks (:func:`_run_checks`, or a loop's cheaper ones).
    """
    length = e - b + 1
    n_tax = sum(1 for shape in shapes[b:e + 1] if shape[0] in _TAXED)

    def path(raise_pre, memtax, step, total):
        out = []
        for k in range(b, e + 1):
            frag = _fragment(
                shapes[k], k, str(k),
                raise_pre=[ln.format(k=k, i=k - b) for ln in raise_pre],
                memtax=memtax,
            )
            if frag is None:
                return None
            out += step(k) + frag[0]
        return out + exit_(total) + tail(frag[1])

    fast_check, seq_check = checks(b, e, n_tax, length)
    paths = []
    # Int fast path: when every cost in the run is an int (exact,
    # associative arithmetic), no array access pays the float memory tax,
    # and neither the budget nor the burst can trip anywhere inside the
    # run — provable with one conservative entry check, since costs are
    # non-negative — the per-element bookkeeping collapses to two stores at
    # the exits.  The ``spent`` int check matters: dynamic costs can have
    # made it a float, and float ``+=`` is order-sensitive.
    if all_int:
        fast = path(
            ("st.spent = spent + P{k}", "st.icount = ic + {i}", "st.raise_pc = Q{k}"),
            (), lambda k: [], f"spent + P{e}",
        )
        if fast is None:
            return None
        paths.append((fast_check, fast))

    # Sequential path: any cost or ``spent`` type, memory tax included.
    # The additions are classic's, in classic's order, into a local; only
    # the per-element budget/burst checks are skipped, which is exact when
    # none of them could trip.  Costs and the tax are non-negative, so
    # every intermediate ``tot + sp`` is at most the final one, and the
    # entry check bounds the final one by adding the same terms in another
    # grouping.  The two float sums can differ by rounding: a few dozen
    # half-ulps of values below the budget, far below 1.0 for any budget
    # under 2**40 cycles (a quantum is tens of thousands).  Demanding a
    # 1-cycle margin absorbs that difference, so when the entry check
    # passes classic's own ``tot + spent`` stays below the budget after
    # every element and the run cannot end mid-way.
    seq = path(
        ("st.spent = sp", "st.icount = ic + {i}", "st.raise_pc = Q{k}"),
        ("if lws:", "    sp += _memtax") + taxed,
        lambda k: [f"sp = spent + C{k}" if k == b else f"sp += C{k}"], "sp",
    )
    if seq is None:
        return None
    paths.append((seq_check, seq))
    return paths


def _run_source(shapes, all_int, hook=False):
    """One flat function body for a fused run of ``shapes``.

    Cycle and instruction bookkeeping live in function locals (``sp``,
    ``ic``) for the whole run — one attribute load each at entry, one
    store at every exit.  ``st.total``/``st.budget``/``st.burst`` are
    constant across the run (no element flushes), and so is the machine's
    working-set flag (no element allocates), so their hoisted copies see
    the same values the classic loop reads per instruction.  The cost
    additions on every path happen in the same order and grouping as
    classic's per-instruction ``spent +=`` (an array access adds the
    memory tax after its own cost), which keeps float sums bit-identical.
    With ``hook`` each taxed access also reports the tax to the observer's
    ``dyn`` hook right after adding it, as the array-access singles do.
    """
    last = len(shapes) - 1
    lines = list(_PROLOGUE)
    if any(shape[0] in _TAXED for shape in shapes):
        lines.append("lws = _M.large_working_set")
    dyn = (f"    _dyn(_fn, {CAT_MEMTAX!r}, _memtax)",) if hook else ()
    paths = _run_paths(
        shapes, 0, last, all_int, dyn,
        lambda total: [f"st.spent = {total}", f"st.icount = ic + {last}"], list,
    )
    if paths is None:
        return None
    for check, body in paths:
        lines += [f"if {check}:", *_indent(body)]
    # Head fallback: the quantum may end inside the run, so run only its
    # first element, through ``F0`` — the closure the run replaced at its
    # start, exactly what the driver would have dispatched there.  The
    # driver then checks the budget and burst and goes on through the
    # interior pcs, which keep their own closures.
    return lines + ["return F0(R, st)"]


def _assign_tail(tail):
    """A :func:`_fragment` tail — ``if c:`` / ``    return x`` pairs, then
    one ``return y`` — as an if/elif/else that sets ``pc`` instead."""
    out = []
    for line in tail:
        if line.startswith("if "):
            out.append(line if not out else "el" + line)
        elif line.startswith("    return "):
            out.append("    pc = " + line[len("    return "):])
        else:
            target = line[len("return "):]
            out += ["else:", f"    pc = {target}"] if out else [f"pc = {target}"]
    return out


def _loop_source(shapes, blocks, hook=False):
    """One function body for a loop superinstruction.

    ``shapes`` are the loop's instructions, ``blocks`` its dispatch points
    (:func:`loop_plan`) as ``(offset, length, all_int, leaves)``, where
    ``leaves`` says whether the block's last element can transfer control
    out of the loop.  The body keeps the bookkeeping in locals, as a fused
    run does, and goes from block to block in a ``while`` loop of one
    ``if pc == <block start>`` section per block, in pc order: a block that
    falls or branches forward reaches the next section with one compare.
    Each section does what the driver and the block's closure would do:

    * the driver's test after the previous block (``tot + spent >= bud or
      icount >= bur``).  A run block makes it only when its own entry
      checks fail: they add non-negative terms to the same ``tot + spent``
      and demand a stricter burst bound, so when either passes the
      driver's test passes too.  A single block makes it first.  When it
      trips the function hands the pc back with the previous block's
      bookkeeping, and the driver ends the binding there, as it would
      have.  At the section the function starts at the test is the one
      the driver just passed, so it passes again;
    * the driver's ``icount += 1`` (kept one ahead in ``ic``, as the
      closure sees it) and the block itself: a run's two paths, from the
      same fragments as :func:`_run_source`, behind entry checks against
      bounds worked out once per call (as strict as the run's own), or a
      single's cost add and memory tax, as :func:`_single_source` has
      them.
      ``st.total``, ``st.budget``, ``st.burst`` and the working-set flag
      are constant across the loop (nothing in it flushes or allocates),
      so the hoisted copies see what the driver and the closures would
      read.

    So the cycle sums, the flush cadence and the raise pcs stay those of
    the classic loop.  The function also returns the next pc, with the
    bookkeeping stored back, when control leaves the loop.  When the
    driver's test passes but a run block's entry checks both fail it
    returns what that run's own closure ``F{offset}`` returns: the closure
    checks again and runs the block or falls back to its head, as it
    would under the driver.  Every pc a block can reach inside the loop starts a block
    (:func:`loop_plan`), so the ``while`` always finds a section.
    """
    last = len(shapes) - 1
    lines = list(_PROLOGUE)
    dyn = (f"    _dyn(_fn, {CAT_MEMTAX!r}, _memtax)",) if hook else ()
    # A run block's entry checks compare with bounds worked out once per
    # call from ``room = bud - tot - 1``, the cycles ``spent`` may reach
    # with a 1-cycle margin (which absorbs the rounding of a float
    # ``tot``, as in :func:`_run_paths`).  The int fast path checks
    # ``spent + P < lim`` (``limt`` for a run with an array access): both
    # are ``room`` while ``spent`` is an int, ``limt`` is -1 in the large
    # working set, and both drop to -1 for good once a float cost or the
    # float memory tax makes ``spent`` a float.  The sequential path
    # checks ``spent < sq{b}``, ``room`` less the run's costs and taxes.
    # Both check the burst as ``ic < bl{length}``, ``bur - length``.
    lines += ["room = bud - tot - 1",
              "lim = room if spent.__class__ is int else -1"]
    drop = "lim = -1"
    if any(shape[0] in _TAXED for shape in shapes):
        lines += ["lws = _M.large_working_set", "limt = -1 if lws else lim"]
        drop = "lim = limt = -1"
    lengths = set()
    for b, length, _all_int, _leaves in blocks:
        if length > 1:
            e = b + length - 1
            n_tax = sum(1 for shape in shapes[b:e + 1] if shape[0] in _TAXED)
            lines.append(f"sq{b} = room - (P{e} + {n_tax} * _memtax)" if n_tax
                         else f"sq{b} = room - P{e}")
            if length not in lengths:
                lengths.add(length)
                lines.append(f"bl{length} = bur - {length}")

    def checks(b, e, n_tax, length):
        return (f"spent + P{e} < {'limt' if n_tax else 'lim'} and ic < bl{length}",
                f"spent < sq{b} and ic < bl{length}")
    taxed = ("    lim = -1",) + dyn
    lines += ["pc = E", "while True:"]
    # the driver's test after the previous block, and ending the binding
    # at this block when it trips
    tripped = ["if tot + spent >= bud or ic > bur:",
               "    st.spent = spent",
               "    st.icount = ic - 1",
               "    return pc"]

    for b, length, all_int, leaves in blocks:
        if length == 1:
            frag = _fragment(
                shapes[b], b, str(b),
                raise_pre=("st.spent = spent", "st.icount = ic", f"st.raise_pc = Q{b}"),
                memtax=("if lws:", "    spent += _memtax") + taxed,
            )
            if frag is None:
                return None
            out = tripped + [f"spent += C{b}", *([] if all_int else [drop]),
                             *frag[0], "ic += 1", *_assign_tail(frag[1])]
        else:
            # ``ic`` moves on past the run and the next dispatch at once
            paths = _run_paths(
                shapes, b, b + length - 1, all_int, taxed,
                lambda total: [f"spent = {total}", f"ic += {length}",
                               *([] if all_int else [drop])],
                _assign_tail, checks,
            )
            if paths is None:
                return None
            out = []
            for index, (check, body) in enumerate(paths):
                out += [f"{'el' if index else ''}if {check}:", *_indent(body)]
            out += ["el" + tripped[0], *tripped[1:],
                    "else:",
                    "    st.spent = spent",
                    "    st.icount = ic",
                    f"    return F{b}(R, st)"]
        if leaves:
            out += [f"if pc < Q0 or pc > Q{last}:",
                    "    st.spent = spent",
                    "    st.icount = ic - 1",
                    "    return pc"]
        lines += [f"    if pc == Q{b}:", *_indent(_indent(out))]
    return lines


def _operand_source(letter, k):
    """The source text ``bind`` evaluates for operand ``letter`` of element
    ``k``; ``I{k}`` is the element's MInstr, ``s`` the pc of element 0."""
    if letter == "N":
        return f"s + {k + 1}"  # next pc
    if letter == "Q":
        return f"s + {k}" if k else "s"  # the element's own pc: its raise point
    if letter == "P" or letter == "F":
        return f"{letter}{k}"  # a local of ``bind``
    return f"I{k}.{_OPERAND[letter]}"


def _compile_template(lines, starts=(0,), loop=False):
    """Compile a template body into the code of ``bind(code, s, M, F0)``,
    which returns a new ``op_(R, st, <params>)`` running ``lines``: its
    defaults are the operands the body reads, of the instructions at
    ``code[s:]``, then the environment names it uses, on machine ``M``.
    A body that reports to the observer's ``dyn`` hook binds the MIR
    function it reports for too: ``bind(code, s, M, F0, fn)``.  ``P{k}``
    sums the costs from the nearest of ``starts`` up to element ``k``.  A
    loop's body binds ``bind(code, s, M, G, E[, fn])`` instead: ``F{k}``
    is ``G[k]``, the closure the loop found at ``s + k``, and ``E`` the pc
    the function starts at."""
    text = "\n".join(lines)
    operands = sorted(
        {(letter, int(k)) for letter, k in _PARAM.findall(text)},
        key=lambda p: (p[1], p[0]),
    )
    params = [f"{letter}{k}={_operand_source(letter, k)}" for letter, k in operands]
    env = sorted(set(_ENV_USE.findall(text)))
    params += [f"{name}={_MACHINE_ENV.get(name, name)}" for name in env]
    fallbacks = []
    if loop:
        params.append("E=E")
        fallbacks = [f"    F{k} = G[{k}]" for letter, k in operands if letter == "F"]
    # every element's cost is a parameter, so every element is loaded;
    # ``P{k}`` is summed left to right like classic's per-instruction adds
    last = operands[-1][1]
    sums = max([k for letter, k in operands if letter == "P"], default=-1)
    src = "\n".join(
        ["def bind(code, s, M, {}{}):".format(
            "G, E" if loop else "F0", ", fn" if "_fn" in env else ""),
         "    I0 = code[s]"]
        + [f"    I{k} = code[s + {k}]" for k in range(1, last + 1)]
        + [f"    P{k} = I{k}.cost" if k == 0 or k in starts
           else f"    P{k} = P{k - 1} + I{k}.cost" for k in range(sums + 1)]
        + fallbacks
        + ["    def op_(R, st, {}):".format(", ".join(params))]
        + ["        " + ln for ln in lines]
        + ["    return op_"]
    )
    ns = {}
    exec(compile(src, "<dispatch-gen>", "exec"), ns)
    return ns["bind"].__code__


#: template key -> the code of its ``bind`` (see :func:`_compile_template`),
#: or None for a shape outside the codegen subset.  A single's key is its
#: shape, or ``(shape, True)`` for an array access that reports the
#: memory tax to an observer; a fused run's is ``(all_int, shapes)``, or
#: ``(all_int, shapes, True)`` for a run whose array accesses report it;
#: a loop's is ``("loop", shapes, layout)``, or with ``True`` appended
#: likewise (see :func:`_make_loop_gen`).  Bounded: the oldest entry goes
#: first.
_TEMPLATES = {}
_TEMPLATE_LIMIT = 4096
_MISSING = object()


def _remember(cache, key, value):
    """Store ``key`` in the bounded process-wide ``cache``, evicting the
    oldest entry when it is full."""
    if len(cache) >= _TEMPLATE_LIMIT:
        try:
            del cache[next(iter(cache))]
        except (KeyError, RuntimeError, StopIteration):
            pass  # another thread evicted first
    cache[key] = value


def template_keys():
    """The keys of the template cache now: what a process forked at this
    point inherits."""
    return set(_TEMPLATES)


def export_templates(inherited):
    """The templates compiled since ``inherited`` (see
    :func:`template_keys`) was taken, marshaled: code objects do not
    pickle, and a key is a tuple of str, int, bool and None."""
    return marshal.dumps(
        [(key, code) for key, code in _TEMPLATES.items() if key not in inherited]
    )


def adopt_templates(blob):
    """Merge templates :func:`export_templates` exported in another
    process, within the cache bound; returns how many were new here."""
    adopted = 0
    for key, code in marshal.loads(blob):
        if key not in _TEMPLATES:
            _remember(_TEMPLATES, key, code)
            adopted += 1
    return adopted


def _template(key, source, *args, **options):
    """Template ``key``; compiles ``source(*args)`` on a miss, with the
    :func:`_compile_template` ``options``."""
    template = _TEMPLATES.get(key, _MISSING)
    if template is _MISSING:
        lines = source(*args)
        template = None if lines is None else _compile_template(lines, **options)
        _remember(_TEMPLATES, key, template)
    return template


def _make_single_gen(code, pc, machine, fn=None):
    """Shape-templated closure for ``code[pc]``, or None outside the subset.
    On a machine with an observer an array access reports its memory tax
    for ``fn``, from a template of its own, like a fused run."""
    shape = _shape(code[pc])
    if fn is not None and machine.observer is not None and shape[0] in _TAXED:
        bind = _template((shape, True), _single_source, shape, True)
        return FunctionType(bind, _GEN_GLOBALS)(code, pc, machine, None, fn)
    # the cache probe is inlined: this runs for every pc a function has
    bind = _TEMPLATES.get(shape, _MISSING)
    if bind is _MISSING:
        bind = _template(shape, _single_source, shape)
    if bind is None:
        return None
    return FunctionType(bind, _GEN_GLOBALS)(code, pc, machine, None)


def _make_fused_gen(code, start, length, machine, fallback=None, fn=None):
    """Shape-templated superinstruction for ``code[start : start + length]``,
    or None when an element is outside the subset.  ``fallback`` is the
    closure it replaces at ``start``: the run calls it when the quantum may
    end inside the run.  ``fn`` is the MIR function the run belongs to: on
    a machine with an observer the run's array accesses report their
    memory tax for it, from a template of their own, so a bare machine's
    templates stay what they are."""
    run = code[start:start + length]
    shapes = tuple(map(_shape, run))
    all_int = all(type(ins.cost) is int for ins in run)
    hook = fn is not None and machine.observer is not None and any(
        shape[0] in _TAXED for shape in shapes
    )
    key = (all_int, shapes, True) if hook else (all_int, shapes)
    bind = _template(key, _run_source, shapes, all_int, hook)
    if bind is None:
        return None
    make = FunctionType(bind, _GEN_GLOBALS)
    if hook:
        return make(code, start, machine, fallback, fn)
    return make(code, start, machine, fallback)


def _make_loop_gen(code, head, latch, blocks, entry, machine, originals, fn=None):
    """Loop superinstruction for ``code[head : latch + 1]`` (see
    :func:`loop_plan` for ``blocks``) that starts at pc ``entry``, or None
    when an element is outside the subset.  ``originals`` are the closures
    at ``head .. latch`` before it is installed: a run block whose entry
    checks fail calls its own.
    ``fn`` is as for :func:`_make_fused_gen`.  The template is keyed by the
    shapes and the block layout, which holds of each block's branch target
    only whether it leaves the loop; the targets themselves are
    parameters, so the same loop anywhere in any function shares it."""
    body = code[head:latch + 1]
    shapes = tuple(map(_shape, body))
    layout = []
    for b, length in blocks:
        end = body[b + length - 1]
        exits = [b + length] if end.op != mir.JMP else []
        if end.op == mir.JMP or end.op in mir.COND_JUMPS:
            exits.append(end.target - head)
        layout.append((
            b, length,
            all(type(ins.cost) is int for ins in body[b:b + length]),
            any(not 0 <= x < len(body) for x in exits),
        ))
    layout = tuple(layout)
    hook = fn is not None and machine.observer is not None and any(
        shape[0] in _TAXED for shape in shapes
    )
    key = ("loop", shapes, layout, True) if hook else ("loop", shapes, layout)
    starts = {b for b, length in blocks if length > 1}
    bind = _template(key, _loop_source, shapes, layout, hook, starts=starts, loop=True)
    if bind is None:
        return None
    make = FunctionType(bind, _GEN_GLOBALS)
    if hook:
        return make(code, head, machine, originals, entry, fn)
    return make(code, head, machine, originals, entry)


# ---------------------------------------------------------------------------
# closure translation
# ---------------------------------------------------------------------------


def _closure_builder(machine, fn):
    """Return ``closure(pc)``: the generated single for ``fn.code[pc]`` on
    ``machine``, or its hand-written closure outside the template subset,
    wrapped for the observer's per-instruction hook when one is attached.

    Used strictly after :meth:`Machine._link` resolved field slots and
    call records in place.
    """
    # imported here: machine.py imports this module at top level
    from .machine import _CONV_FNS, _box_matches

    M = machine
    loaded = M.loaded
    costs = M.costs
    observer = M.observer
    obs_dyn = None if observer is None else observer.dyn
    obs_instr = None if observer is None else observer.instr
    faults = M.faults
    stack_limit = -1 if faults is None else faults.stack_limit
    call_cost = costs.call
    memtax = costs.large_array_extra

    def _raise_stack_overflow(depth):
        faults.record("stack_limit")
        raise make_exception(
            loaded,
            "StackOverflowException",
            f"call depth {depth} at limit {stack_limit}",
        )

    code = fn.code

    def build(pc):
        op_ = _make_single_gen(code, pc, M, fn)
        if op_ is not None:
            return op_
        ins = code[pc]
        o = ins.op
        cost = ins.cost
        a = ins.a
        b = ins.b
        c = ins.c
        dst = ins.dst
        kind = ins.kind
        nxt = pc + 1

        if o == mir.CONV:  # narrow int converts
            conv = _CONV_FNS[ins.extra]
            def op_(R, st, a=a, dst=dst, cost=cost, nxt=nxt, conv=conv):
                st.spent += cost
                R[dst] = conv(R[a])
                return nxt
            return op_

        if o == mir.SWITCH:
            targets = tuple(ins.extra)
            def op_(R, st, a=a, cost=cost, targets=targets, n=len(targets), nxt=nxt):
                st.spent += cost
                v = R[a]
                return targets[v] if 0 <= v < n else nxt
            return op_

        if o == mir.LDSFLD:
            rc, slot = ins.extra
            def op_(R, st, dst=dst, rc=rc, slot=slot, cost=cost, nxt=nxt):
                st.spent += cost
                R[dst] = rc.statics[slot]
                return nxt
            return op_

        if o == mir.STSFLD:
            rc, slot = ins.extra
            coerce = kind == "r4"
            def op_(R, st, c=c, rc=rc, slot=slot, cost=cost, nxt=nxt, coerce=coerce):
                st.spent += cost
                v = R[c]
                if coerce and type(v) is float:
                    v = r4(v)
                rc.statics[slot] = v
                return nxt
            return op_

        if o == mir.CALL:
            ckind = ins.extra[0]
            args_t = tuple(ins.args or ())

            if ckind == "intrinsic":
                _k, fn_i, cost_i, _ref = ins.extra
                def op_(R, st, cost=cost, cost_i=cost_i, fn_i=fn_i,
                        args_t=args_t, dst=dst, nxt=nxt):
                    st.frame.pc = nxt
                    st.spent += cost + cost_i
                    if obs_dyn is not None:
                        obs_dyn(fn, CAT_DISPATCH, cost_i)
                    M.cycles += st.spent
                    st.total += st.spent
                    st.spent = 0
                    argv = [R[v] for v in args_t]
                    result = fn_i(M, argv)
                    if dst >= 0:
                        R[dst] = result
                    return nxt
                return op_

            if ckind == "static":
                method = ins.extra[1]
                this_reg = args_t[0] if (not method.is_static and args_t) else -1
                # bound on the first call that compiles: a failed (or
                # injected) compile raises first and leaves it unbound
                callee = None
                def op_(R, st, cost=cost, method=method, args_t=args_t,
                        dst=dst, nxt=nxt, this_reg=this_reg):
                    nonlocal callee
                    st.frame.pc = nxt
                    st.spent += cost + call_cost
                    if this_reg >= 0 and R[this_reg] is None:
                        raise make_exception(loaded, "NullReferenceException")
                    th = st.thread
                    frames = th.frames
                    if 0 <= stack_limit <= len(frames):
                        _raise_stack_overflow(len(frames))
                    if callee is None:
                        callee = M._function(method)
                    argv = [R[v] for v in args_t]
                    frames.append(Frame(callee, argv, ret_dst=dst))
                    if observer is not None:
                        obs_dyn(fn, CAT_DISPATCH, call_cost)
                        observer.enter(th, callee, M.cycles + st.spent)
                    return REBIND
                return op_

            if ckind == "virtual":
                ref = ins.extra[1]
                vcost = call_cost + costs.virtual_call_extra
                def op_(R, st, cost=cost, vcost=vcost, name=ref.name,
                        params=ref.param_types, args_t=args_t, dst=dst, nxt=nxt):
                    st.frame.pc = nxt
                    st.spent += cost + vcost
                    receiver = R[args_t[0]]
                    if receiver is None:
                        raise make_exception(loaded, "NullReferenceException")
                    method = receiver.rtclass.resolve_virtual(name, params)
                    th = st.thread
                    frames = th.frames
                    if 0 <= stack_limit <= len(frames):
                        _raise_stack_overflow(len(frames))
                    callee = M._function(method)
                    argv = [R[v] for v in args_t]
                    frames.append(Frame(callee, argv, ret_dst=dst))
                    if observer is not None:
                        obs_dyn(fn, CAT_DISPATCH, vcost)
                        observer.enter(th, callee, M.cycles + st.spent)
                    return REBIND
                return op_

            # thread / monitor ops
            _k, name, is_monitor = ins.extra
            if is_monitor:
                def op_(R, st, cost=cost, name=name, args_t=args_t, nxt=nxt):
                    st.frame.pc = nxt
                    st.spent += cost
                    M.cycles += st.spent
                    st.total += st.spent
                    st.spent = 0
                    argv = [R[v] for v in args_t]
                    M._monitor_op(st.thread, name, argv)
                    if st.thread.state is not RUNNABLE:
                        return EXIT
                    return nxt
                return op_

            def op_(R, st, cost=cost, name=name, args_t=args_t, dst=dst, nxt=nxt):
                st.frame.pc = nxt
                st.spent += cost
                M.cycles += st.spent
                st.total += st.spent
                st.spent = 0
                argv = [R[v] for v in args_t]
                result = M._thread_op(st.thread, name, argv)
                if result == "yield":
                    return EXIT
                if dst >= 0:
                    R[dst] = result
                if st.thread.state is not RUNNABLE:
                    return EXIT
                return nxt
            return op_

        if o == mir.RET:
            ret_reg = a if isinstance(a, int) and a >= 0 else -1
            def op_(R, st, cost=cost, ret_reg=ret_reg):
                st.spent += cost
                value = R[ret_reg] if ret_reg >= 0 else None
                th = st.thread
                frames = th.frames
                frames.pop()
                if observer is not None:
                    observer.exit(th, M.cycles + st.spent)
                if frames:
                    rd = st.frame.ret_dst
                    if rd >= 0:
                        frames[-1].R[rd] = value
                else:
                    M._finish_thread(th, value)
                return REBIND
            return op_

        if o == mir.NEWOBJ:
            rc, ctor = ins.extra
            size = rc.instance_size
            if ctor is None:
                def op_(R, st, cost=cost, rc=rc, size=size, dst=dst, nxt=nxt):
                    st.spent += cost
                    obj = loaded.new_instance(rc)
                    M.cycles += st.spent
                    st.total += st.spent
                    st.spent = 0
                    M._alloc_charge(size)
                    R[dst] = obj
                    return nxt
                return op_
            args_t = tuple(ins.args or ())
            def op_(R, st, cost=cost, rc=rc, size=size, ctor=ctor,
                    args_t=args_t, dst=dst, nxt=nxt):
                st.spent += cost
                obj = loaded.new_instance(rc)
                M.cycles += st.spent
                st.total += st.spent
                st.spent = 0
                M._alloc_charge(size)
                R[dst] = obj
                st.frame.pc = nxt
                st.spent += call_cost
                th = st.thread
                frames = th.frames
                if 0 <= stack_limit <= len(frames):
                    _raise_stack_overflow(len(frames))
                callee = M._function(ctor)
                argv = [obj] + [R[v] for v in args_t]
                frames.append(Frame(callee, argv, ret_dst=-1))
                if observer is not None:
                    obs_dyn(fn, CAT_DISPATCH, call_cost)
                    observer.enter(th, callee, M.cycles + st.spent)
                return REBIND
            return op_

        if o == mir.NEWARR:
            def op_(R, st, a=a, dst=dst, cost=cost, nxt=nxt, elem=ins.extra):
                st.spent += cost
                length = R[a]
                M.cycles += st.spent
                st.total += st.spent
                st.spent = 0
                R[dst] = M._new_szarray(elem, length)
                return nxt
            return op_

        if o == mir.NEWARR_MD:
            args_t = tuple(ins.args or ())
            def op_(R, st, args_t=args_t, dst=dst, cost=cost, nxt=nxt,
                    elem=ins.extra):
                st.spent += cost
                dims = [R[v] for v in args_t]
                if any(d < 0 for d in dims):
                    raise make_exception(loaded, "ArgumentException", "negative length")
                arr = MDArray(elem, dims)
                M.cycles += st.spent
                st.total += st.spent
                st.spent = 0
                M._alloc_charge(16 + 8 * len(arr.data))
                R[dst] = arr
                return nxt
            return op_

        if o == mir.LDELEM_MD:
            args_t = tuple(ins.args or ())
            def op_(R, st, a=a, args_t=args_t, dst=dst, cost=cost, nxt=nxt):
                st.spent += cost
                arr = R[a]
                if arr is None:
                    raise make_exception(loaded, "NullReferenceException")
                flat = arr.flat_index([R[v] for v in args_t])
                if flat < 0:
                    raise make_exception(loaded, "IndexOutOfRangeException")
                if M.large_working_set:
                    st.spent += memtax
                    if obs_dyn is not None:
                        obs_dyn(fn, CAT_MEMTAX, memtax)
                R[dst] = arr.data[flat]
                return nxt
            return op_

        if o == mir.STELEM_MD:
            args_t = tuple(ins.args or ())
            coerce = kind == "r4"
            def op_(R, st, a=a, c=c, args_t=args_t, cost=cost, nxt=nxt,
                    coerce=coerce):
                st.spent += cost
                arr = R[a]
                if arr is None:
                    raise make_exception(loaded, "NullReferenceException")
                flat = arr.flat_index([R[v] for v in args_t])
                if flat < 0:
                    raise make_exception(loaded, "IndexOutOfRangeException")
                if M.large_working_set:
                    st.spent += memtax
                    if obs_dyn is not None:
                        obs_dyn(fn, CAT_MEMTAX, memtax)
                v = R[c]
                if coerce and type(v) is float:
                    v = r4(v)
                arr.data[flat] = v
                return nxt
            return op_

        if o == mir.BOX:
            tname = ins.extra.name
            def op_(R, st, a=a, dst=dst, cost=cost, nxt=nxt, tname=tname):
                st.spent += cost
                M._alloc_charge(16)
                R[dst] = BoxedValue(tname, R[a])
                return nxt
            return op_

        if o == mir.UNBOX:
            t, _rc = ins.extra
            if isinstance(t, cts.NamedType):
                def op_(R, st, a=a, dst=dst, cost=cost, nxt=nxt, tname=t.name):
                    st.spent += cost
                    v = R[a]
                    if v is None:
                        raise make_exception(loaded, "NullReferenceException")
                    if not isinstance(v, BoxedValue):
                        raise make_exception(loaded, "InvalidCastException")
                    if (
                        not isinstance(v.value, StructValue)
                        or v.value.rtclass.name != tname
                    ):
                        raise make_exception(loaded, "InvalidCastException")
                    R[dst] = v.value.copy()
                    return nxt
            else:
                def op_(R, st, a=a, dst=dst, cost=cost, nxt=nxt, tname=t.name):
                    st.spent += cost
                    v = R[a]
                    if v is None:
                        raise make_exception(loaded, "NullReferenceException")
                    if not isinstance(v, BoxedValue):
                        raise make_exception(loaded, "InvalidCastException")
                    if not _box_matches(v.type_name, tname):
                        raise make_exception(loaded, "InvalidCastException")
                    R[dst] = v.value
                    return nxt
            return op_

        if o == mir.CASTCLASS or o == mir.ISINST:
            t, rc = ins.extra
            if o == mir.CASTCLASS:
                def op_(R, st, a=a, dst=dst, cost=cost, nxt=nxt, t=t, rc=rc):
                    st.spent += cost
                    v = R[a]
                    if v is not None and not M._isinst(v, t, rc):
                        raise make_exception(loaded, "InvalidCastException")
                    R[dst] = v
                    return nxt
            else:
                def op_(R, st, a=a, dst=dst, cost=cost, nxt=nxt, t=t, rc=rc):
                    st.spent += cost
                    v = R[a]
                    R[dst] = v if (v is not None and M._isinst(v, t, rc)) else None
                    return nxt
            return op_

        if o == mir.STRUCT_COPY:
            per_field = costs.struct_copy_per_field
            def op_(R, st, a=a, dst=dst, cost=cost, nxt=nxt, per_field=per_field):
                st.spent += cost
                v = R[a]
                if isinstance(v, StructValue):
                    extra = per_field * len(v.fields)
                    st.spent += extra
                    if obs_dyn is not None:
                        obs_dyn(fn, CAT_EXECUTE, extra)
                    R[dst] = v.copy()
                else:
                    R[dst] = v
                return nxt
            return op_

        if o == mir.THROW:
            def op_(R, st, a=a, cost=cost):
                st.spent += cost
                v = R[a]
                if v is None:
                    raise make_exception(loaded, "NullReferenceException")
                raise GuestException(v)
            return op_

        if o == mir.RETHROW:
            def op_(R, st, cost=cost):
                st.spent += cost
                exc = st.frame.exc
                if exc is None:
                    raise VMError("rethrow with no active exception")
                raise GuestException(exc)
            return op_

        if o == mir.LEAVE:
            def op_(R, st, cost=cost, mypc=pc, target=ins.target):
                st.spent += cost
                f = st.frame
                f.pc = mypc
                M._leave(st.thread, f, target)
                return f.pc
            return op_

        if o == mir.ENDFINALLY:
            def op_(R, st, cost=cost, mypc=pc):
                st.spent += cost
                f = st.frame
                f.pc = mypc
                M.cycles += st.spent
                st.total += st.spent
                st.spent = 0
                M._end_finally(st.thread, f)
                return REBIND
            return op_

        if o == mir.NOP:
            def op_(R, st, cost=cost, nxt=nxt):
                st.spent += cost
                return nxt
            return op_

        raise VMError(f"unhandled MIR op {mir.name(o)}")  # pragma: no cover

    if obs_instr is None:
        return build
    return lambda pc: _observed(build(pc), obs_instr, fn, code[pc])


def _observed(inner, obs_instr, fn, ins):
    """Wrap ``inner`` so the observer's per-instruction hook fires first,
    as it does in the classic loop (the hook stream stays order-identical)."""
    def op_(R, st, inner=inner, o=ins.op, cost=ins.cost):
        obs_instr(fn, o, cost)
        return inner(R, st)
    return op_


# ---------------------------------------------------------------------------
# tiered translation
# ---------------------------------------------------------------------------
#
# Translation is tiered, driven only by execution counts.  A function
# gets generated singles when it first runs, with hand-written closures
# only for ops outside the template subset (a single's few shapes are
# soon all compiled).  Once it has retired ``_FUSE_RUNS`` times as many
# instructions as it has (every instruction ran that often on average),
# :func:`build_ops` replaces its straight-line runs in place with
# superinstructions, and its call-free loops with loop superinstructions.
# A function that reached the superinstruction tier once in this process
# starts in it on every later machine
# (:data:`_HOT_CODE`).  The tier-up happens between bindings, never inside
# a closure, and only changes host speed: both tiers are bit-identical to
# classic.

#: a function tiers up to superinstructions once it has retired this many
#: times as many instructions as its length: each run shape costs a
#: compile that only a hot run pays back (fusing every function on its
#: first run made mostly-cold generated programs 4.5x slower)
_FUSE_RUNS = 200

#: tier memory: the :func:`_tier_key` of every function whose translation
#: reached the superinstruction tier in this process.  Values are unused;
#: bounded like ``_TEMPLATES``, and it holds only str and int.
_HOT_CODE = {}


def _tier_key(fn):
    """``fn``'s tier-memory key: its full name and the CIL opcodes of its
    body, or None without a body.  Every profile compiles the same CIL, so
    a function hot on one runtime starts hot on the next; the opcodes keep
    a different program that reuses the name from starting hot."""
    method = fn.method
    if method is None:
        return None
    return (fn.full_name, tuple([ins.opcode for ins in method.body]))


class Translation:
    """One function's closures on one machine.

    ``ops`` is the closure array the driver dispatches through, shared by
    every activation of the function and rewritten in place at the
    tier-up; ``heat`` is the number of instructions left before the
    tier-up (<= 0 once the function is in its last tier).
    """

    __slots__ = ("ops", "heat")

    def __init__(self, ops) -> None:
        self.ops = ops
        self.heat = _FUSE_RUNS * len(ops)


def build_ops(machine, fn, tr=None):
    """Translate ``fn`` for ``machine``; every translation goes through here.

    Without ``tr``: a new :class:`Translation` of generated singles and
    hand-written closures, fused at once when the tier memory knows ``fn``.
    With ``tr`` (the function turned hot): give each fusion run its
    superinstruction in place, and then each call-free loop its loop
    superinstruction (none of either with a fault injector armed, see
    :func:`fuse_plan` and :func:`loop_plan`).  A machine whose observer has a per-instruction
    hook (``observer.instr is not None``) never tiers up: the hook needs
    per-instruction closures.  Any other observer (``MachineMetrics``,
    ``StackSampler``) tiers up and shares the tier memory like a bare
    machine.  Returns the translation.
    """
    if tr is None:
        closure = _closure_builder(machine, fn)
        tr = Translation([closure(pc) for pc in range(len(fn.code))])
        observer = machine.observer
        if observer is not None and observer.instr is not None:
            tr.heat = 0
            return tr
        if _tier_key(fn) not in _HOT_CODE:
            return tr
    code = fn.code
    ops = tr.ops
    targets = getattr(fn, "branch_targets", None)
    if targets is None:
        targets = mir.branch_targets(fn)
    faults_armed = machine.faults is not None
    for pc, length in fuse_plan(code, fn.regions, targets, faults_armed):
        fused = _make_fused_gen(code, pc, length, machine, ops[pc], fn)
        if fused is not None:
            ops[pc] = fused
    for head, latch, blocks in loop_plan(code, fn.regions, targets, faults_armed):
        # the loop's function starts at each of its dispatch points, so a
        # binding that ends inside the loop (quantum, burst) or a branch
        # into it from outside resumes in it at once
        originals = ops[head:latch + 1]
        for b, _length in blocks:
            loop = _make_loop_gen(code, head, latch, blocks, head + b,
                                  machine, originals, fn)
            if loop is None:
                break
            ops[head + b] = loop
    tr.heat = 0
    key = _tier_key(fn)
    if key is not None and key not in _HOT_CODE:
        _remember(_HOT_CODE, key, True)
    return tr


# ---------------------------------------------------------------------------
# quantum driver
# ---------------------------------------------------------------------------


def step_thread(machine, thread, budget: int) -> None:
    """The threaded-code driver, bound as ``Machine._step_thread``.

    Structure mirrors the classic loop exactly: bind the top frame, run
    closures until a sentinel / the budget trips / a guest exception
    unwinds, flush ``spent`` and the instruction count per binding, and let
    the outer loop re-bind.  See the module docstring for the equivalence
    contract.  The flush also counts the binding's instructions towards
    the function's tier-up (:func:`build_ops`).
    """
    faults = machine.faults
    observer = machine.observer
    loaded = machine.loaded
    cache = machine._threaded_code
    # instruction burst bound: same formula as classic — a rebind flushes
    # ``spent`` into the (possibly float) cycle counter, so the flush
    # cadence is part of the bit-identity contract
    burst = budget >> 1
    if burst > 4096:
        burst = 4096
    elif burst < 8:
        burst = 8
    st = ExecState(machine, thread, budget, burst)
    frames = thread.frames
    while frames and st.total < budget and thread.state is RUNNABLE:
        frame = frames[-1]
        st.frame = frame
        fn = frame.fn
        tr = cache.get(id(fn))
        if tr is None:
            tr = cache[id(fn)] = build_ops(machine, fn)
        ops = tr.ops
        R = frame.R
        pc = frame.pc
        st.icount = 0
        thrown = None
        try:
            if faults is not None and faults.pending is not None:
                injected = faults.take_pending(thread)
                if injected is not None:
                    # an exception seeded during unwind fires at the entry
                    # of the finally handler the dispatcher just targeted
                    raise make_exception(loaded, injected[0], injected[1])
            while True:
                st.icount += 1
                n = ops[pc](R, st)
                if n >= 0:
                    if st.total + st.spent >= budget or st.icount >= burst:
                        frame.pc = n
                        break
                    pc = n
                elif n == REBIND:
                    break
                else:
                    # EXIT: blocked on a monitor / yielded.  Classic
                    # returns before its instruction flush, dropping the
                    # binding's icount — reproduce that exactly.
                    return
        except GuestException as guest:
            # a fused run records the exact raising pc (and flushes its
            # hoisted bookkeeping) before the exception unwinds; every
            # other closure raises with the driver's pc current
            rp = st.raise_pc
            if rp >= 0:
                frame.pc = rp
                st.raise_pc = -1
            else:
                frame.pc = pc
            thrown = guest.obj
        machine.cycles += st.spent
        st.total += st.spent
        st.spent = 0
        machine.instructions += st.icount
        if tr.heat > 0:
            tr.heat -= st.icount
            if tr.heat <= 0:
                build_ops(machine, fn, tr)
        if thrown is not None:
            if observer is not None:
                observer.throw(machine.cycles)
            machine._throw(thread, thrown)
