"""Cycle-attribution recorder: where did every simulated cycle go?

The harness has always produced aggregate totals (``Machine.cycles``,
per-section sums); this module breaks those totals down per method, per MIR
opcode, and per *cost category* so a measured gap can be explained from our
own data — the paper's section-4/5 analysis (loop overhead, exception
dispatch, allocation, monitors, the large-memory-model tax) made
inspectable.

Design invariant (**observer-effect freedom**): the recorder only ever
*reads* machine state.  Every hook is called at a point where the machine
has already decided what to charge; enabling observation must never change
``machine.cycles``, ``machine.instructions``, or any benchmark result —
``tests/test_observe.py`` enforces bit-identity against unobserved runs.

Category model:

* ``execute``        — statically stamped per-instruction cost (the JIT
                       cost model: ALU, memory operands, bounds checks);
* ``dispatch``       — dynamic call overhead (frame setup, virtual-slot
                       lookup extra, intrinsic entry);
* ``alloc+gc``       — allocation, the amortized GC share, explicit
                       collections;
* ``exception``      — two-pass exception dispatch (throw + per-frame);
* ``memtax``         — the large-working-set array-access tax;
* ``monitor/thread`` — monitor enter/exit/contention, thread start,
                       context switches;
* ``runtime``        — data-dependent intrinsic work (serializer bytes,
                       string characters).

The sum over all buckets reconstructs ``machine.cycles`` exactly (the
report prints the coverage percentage; tests require >= 95%).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..jit import mir
from .base import MachineObserver
from .jittrace import JitTrace
from .timeline import Timeline

# cost categories (keep in sync with the module docstring)
CAT_EXECUTE = "execute"
CAT_DISPATCH = "dispatch"
CAT_ALLOC = "alloc+gc"
CAT_EXCEPTION = "exception"
CAT_MEMTAX = "memtax"
CAT_MONITOR = "monitor/thread"
CAT_RUNTIME = "runtime"

CATEGORIES = (
    CAT_EXECUTE,
    CAT_DISPATCH,
    CAT_ALLOC,
    CAT_EXCEPTION,
    CAT_MEMTAX,
    CAT_MONITOR,
    CAT_RUNTIME,
)

#: method bucket used when a charge has no managed frame (e.g. a context
#: switch after a thread's last frame popped)
RUNTIME_METHOD = "<runtime>"


class CycleAttribution:
    """Accumulates (method x opcode) static costs and (method x category)
    dynamic costs; everything else is derived at reporting time."""

    def __init__(self) -> None:
        #: (method, opcode) -> [executed count, cycles]
        self.by_method_op: Dict[Tuple[str, int], List[float]] = {}
        #: (method, category) -> cycles (dynamic charges only)
        self.by_method_cat: Dict[Tuple[str, str], float] = {}

    # ------------------------------------------------------------- recording

    def instr(self, method: str, op: int, cost: float) -> None:
        cell = self.by_method_op.get((method, op))
        if cell is None:
            self.by_method_op[(method, op)] = [1, cost]
        else:
            cell[0] += 1
            cell[1] += cost

    def dyn(self, method: str, category: str, cycles: float) -> None:
        key = (method, category)
        self.by_method_cat[key] = self.by_method_cat.get(key, 0) + cycles

    # ------------------------------------------------------------ aggregates

    def instructions(self) -> int:
        return int(sum(c for c, _cyc in self.by_method_op.values()))

    def attributed_cycles(self) -> float:
        return sum(cyc for _c, cyc in self.by_method_op.values()) + sum(
            self.by_method_cat.values()
        )

    def categories(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        execute = sum(cyc for _c, cyc in self.by_method_op.values())
        if execute:
            out[CAT_EXECUTE] = execute
        for (_method, cat), cyc in self.by_method_cat.items():
            out[cat] = out.get(cat, 0) + cyc
        return out

    def methods(self) -> Dict[str, Dict[str, object]]:
        """method -> {instructions, cycles, categories{cat: cycles}}."""
        out: Dict[str, Dict[str, object]] = {}

        def bucket(name: str) -> Dict[str, object]:
            b = out.get(name)
            if b is None:
                b = {"instructions": 0, "cycles": 0.0, "categories": {}}
                out[name] = b
            return b

        for (method, _op), (count, cyc) in self.by_method_op.items():
            b = bucket(method)
            b["instructions"] += int(count)
            b["cycles"] += cyc
            cats = b["categories"]
            cats[CAT_EXECUTE] = cats.get(CAT_EXECUTE, 0) + cyc
        for (method, cat), cyc in self.by_method_cat.items():
            b = bucket(method)
            b["cycles"] += cyc
            cats = b["categories"]
            cats[cat] = cats.get(cat, 0) + cyc
        return out

    def opcodes(self) -> Dict[str, Dict[str, float]]:
        """opcode name -> {count, cycles} (static stamped costs only)."""
        out: Dict[str, Dict[str, float]] = {}
        for (_method, op), (count, cyc) in self.by_method_op.items():
            name = mir.name(op)
            cell = out.get(name)
            if cell is None:
                out[name] = {"count": int(count), "cycles": cyc}
            else:
                cell["count"] += int(count)
                cell["cycles"] += cyc
        return out


class Observer(MachineObserver):
    """The bundle a :class:`~repro.vm.machine.Machine` reports into.

    Wire it at construction time::

        obs = Observer()
        machine = Machine(loaded, profile, observer=obs)
        machine.run()
        print(render_report(obs))   # repro.observe.report

    One observer observes one machine (attach is exclusive); the recorded
    data stays available after the run for reporting/export/diffing.
    """

    def __init__(self, max_events: int = 100_000) -> None:
        self.cycles = CycleAttribution()
        self.timeline = Timeline(max_events=max_events)
        self.jit = JitTrace()
        self.machine = None
        #: set by the harness for artifact naming; None for direct use
        self.benchmark: Optional[str] = None
        #: shadow call stacks: tid -> list of (method name, event emitted)
        self._stacks: Dict[int, List[Tuple[str, bool]]] = {}

    # ------------------------------------------------------------- lifecycle

    def attach(self, machine) -> None:
        if self.machine is not None and self.machine is not machine:
            raise ValueError("Observer is already attached to another Machine")
        self.machine = machine

    # ------------------------------------------------- machine-facing hooks
    #
    # `fn` is the executing MIRFunction (or None when no managed frame is
    # live); hooks never mutate it.

    def instr(self, fn, op: int, cost: float) -> None:
        self.cycles.instr(fn.full_name, op, cost)

    def dyn(self, fn, category: str, cycles: float) -> None:
        self.cycles.dyn(
            fn.full_name if fn is not None else RUNTIME_METHOD, category, cycles
        )

    def enter(self, thread, fn, now) -> None:
        stack = self._stacks.get(thread.tid)
        if stack is None:
            stack = self._stacks[thread.tid] = []
        emitted = self.timeline.begin(fn.full_name, now, thread.tid, cat="method")
        stack.append((fn.full_name, emitted))

    def exit(self, thread, now) -> None:
        stack = self._stacks.get(thread.tid)
        if not stack:  # pragma: no cover - defensive (pop without push)
            return
        name, emitted = stack.pop()
        if emitted:
            self.timeline.end(name, now, thread.tid, cat="method")

    def thread_started(self, thread, now) -> None:
        self.timeline.instant(f"start {thread.name}", now, thread.tid, cat="thread")

    def quantum(self, thread, start, end) -> None:
        self.timeline.complete(
            f"quantum {thread.name}", start, end, Timeline.SCHEDULER_TRACK, cat="sched"
        )

    def gc(self, start, end, live: int) -> None:
        self.timeline.complete(
            "GC.Collect", start, end, Timeline.GC_TRACK, cat="gc", args={"live": live}
        )
