"""Deterministic call-stack sampler → collapsed-stack flamegraph output.

A classical profiler interrupts the process every N microseconds of wall
time and records the stack; that is inherently nondeterministic.  Here the
only clock is the machine's simulated cycle counter, and the observer hooks
deliver every stack transition (enter/exit/quantum) with its cycle
timestamp — so sampling can be *exact*: the sampler replays the stack
machine and, for every interval between transitions, credits the stack that
was live with the number of whole sample periods the interval crossed
(``floor(end/period) - floor(start/period)``).  Two runs of the same
deterministic benchmark therefore produce byte-identical flamegraphs.

Output is Brendan Gregg's collapsed-stack format — one line per unique
stack, frames ``;``-joined root-first, weight last::

    main;Program::Main;SOR::Execute 1042

which feeds ``flamegraph.pl``, speedscope, or any folded-stack viewer
directly (``repro prof flame`` writes it).  Weights are *samples*; multiply
by ``period`` for approximate cycles.

Like every :class:`~repro.observe.base.MachineObserver`, attaching the
sampler perturbs nothing: it sets ``instr = None`` (no per-instruction
callback) and only reads hook arguments.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..observe.base import MachineObserver

#: stack shown for cycles spent with no managed frame live on the sampled
#: thread (scheduler, cctor gaps)
RUNTIME_FRAME = "<runtime>"


class StackSampler(MachineObserver):
    """Sample the call stack every ``period`` simulated cycles."""

    instr = None

    def __init__(self, period: int = 1000) -> None:
        if period <= 0:
            raise ValueError("sample period must be positive")
        self.period = period
        #: (thread_name, frame, frame, ...) -> samples
        self.weights: Dict[Tuple[str, ...], int] = {}
        self.machine = None
        self._stacks: Dict[int, List[str]] = {}
        self._names: Dict[int, str] = {}
        #: cycle timestamp of the last processed transition
        self._last = 0

    # ------------------------------------------------------------- lifecycle

    def attach(self, machine) -> None:
        if self.machine is not None and self.machine is not machine:
            raise ValueError("StackSampler is already attached to another Machine")
        self.machine = machine

    # ------------------------------------------------------------- internals

    def _credit(self, tid: int, now) -> None:
        """Attribute sample ticks in ``(self._last, now]`` to the stack of
        the thread that executed the interval.  That is the machine's
        *current* thread, not necessarily the event's thread: an ``enter``
        fired from ``Thread.Start`` names the spawned thread while the
        spawner is still the one burning cycles.  ``tid`` is the fallback
        before scheduling begins."""
        last = self._last
        if now <= last:
            return
        ticks = now // self.period - last // self.period
        self._last = now
        if not ticks:
            return
        machine = self.machine
        if machine is not None and machine.current is not None:
            tid = machine.current.tid
        stack = self._stacks.get(tid)
        name = self._names.get(tid, f"thread-{tid}")
        key = (name, *stack) if stack else (name, RUNTIME_FRAME)
        self.weights[key] = self.weights.get(key, 0) + ticks

    # ----------------------------------------------------------------- hooks

    def enter(self, thread, fn, now) -> None:
        self._names[thread.tid] = thread.name
        self._credit(thread.tid, now)
        self._stacks.setdefault(thread.tid, []).append(fn.full_name)

    def exit(self, thread, now) -> None:
        self._credit(thread.tid, now)
        stack = self._stacks.get(thread.tid)
        if stack:
            stack.pop()

    def quantum(self, thread, start, end) -> None:
        self._names[thread.tid] = thread.name
        self._credit(thread.tid, end)

    def gc(self, start, end, live: int) -> None:
        # GC pauses happen on the current thread; keep the clock moving so
        # the pause is credited to the collecting stack
        if self.machine is not None and self.machine.current is not None:
            self._credit(self.machine.current.tid, end)

    # ---------------------------------------------------------------- output

    @property
    def total_samples(self) -> int:
        return sum(self.weights.values())

    def collapsed(self) -> str:
        """The folded-stack text: sorted for byte-stable output."""
        lines = [
            ";".join(stack) + f" {weight}"
            for stack, weight in self.weights.items()
        ]
        return "\n".join(sorted(lines))
