"""The machine observation hook protocol (no-op base class).

A :class:`~repro.vm.machine.Machine` accepts exactly one ``observer``; this
class defines the full hook surface that slot speaks, with every hook a
no-op.  Concrete observers — the cycle-attribution
:class:`~repro.observe.recorder.Observer`, the metrics adapter
(:class:`repro.metrics.instrument.MachineMetrics`), the flamegraph sampler
(:class:`repro.metrics.sampler.StackSampler`) — subclass it and override
only what they need.

Contract (the **zero-perturbation invariant**): every hook is called at a
point where the machine has already decided what to charge, and hooks must
only *read* machine state.  Attaching any observer must never change
``machine.cycles``, ``machine.instructions``, or benchmark results;
``tests/test_observe.py`` and ``tests/test_metrics.py`` enforce
bit-identity against bare runs.

Two hooks are special-cased for hot-loop cost:

* ``instr`` fires once per executed MIR instruction.  The machine reads it
  once per quantum (``obs_instr = observer.instr``) and skips the call when
  the attribute is ``None`` — an observer that does not need per-instruction
  data should set ``instr = None`` at class level rather than override it.
  That also keeps the threaded engine's fused tiers (superinstructions and
  the tier memory): a per-instruction hook needs one closure per
  instruction, so a machine whose observer has one never tiers up.
* ``jit`` is an attribute, not a method: the
  :class:`~repro.observe.jittrace.JitTrace` handed to the
  :class:`~repro.jit.pipeline.JitCompiler`, or ``None``.
"""

from __future__ import annotations


class MachineObserver:
    """No-op implementation of every machine observation hook."""

    #: JitTrace compilation recorder, or None for no JIT tracing
    jit = None
    #: benchmark name stamped by the harness for artifact naming
    benchmark = None

    # ------------------------------------------------------------- lifecycle

    def attach(self, machine) -> None:
        """Called once from ``Machine.__init__``."""

    # ------------------------------------------------------- hot-path hooks

    #: per-instruction hook; None means "don't call me per instruction"
    def instr(self, fn, op: int, cost) -> None:
        """One MIR instruction of ``fn`` executed at static cost ``cost``."""

    def dyn(self, fn, category: str, cycles) -> None:
        """A dynamic charge of ``cycles`` in ``category`` attributed to the
        method executing on the current thread (``fn`` may be None)."""

    # ----------------------------------------------------------- call stack

    def enter(self, thread, fn, now) -> None:
        """A frame for ``fn`` was pushed on ``thread`` at cycle ``now``."""

    def exit(self, thread, now) -> None:
        """The top frame of ``thread`` was popped at cycle ``now``."""

    # ---------------------------------------------------- scheduler/threads

    def thread_started(self, thread, now) -> None:
        """``thread`` transitioned NEW -> RUNNABLE."""

    def quantum(self, thread, start, end) -> None:
        """``thread`` ran one scheduler quantum spanning [start, end]."""

    def switch(self, thread, cost, now) -> None:
        """A context switch away from ``thread`` was charged ``cost``."""

    # -------------------------------------------------------------- heap/GC

    def alloc(self, byte_size: int, cycles) -> None:
        """One allocation of ``byte_size`` bytes charged ``cycles``
        (allocation cost + amortized GC share)."""

    def gc(self, start, end, live: int) -> None:
        """An explicit collection ran over [start, end] marking ``live``
        reachable objects."""

    # ----------------------------------------------------------- exceptions

    def throw(self, now) -> None:
        """A managed exception began dispatch at cycle ``now``."""

    def unwound(self, thread, now) -> None:
        """Exception dispatch popped one frame of ``thread``."""

    # ------------------------------------------------------------- monitors

    def contention(self, thread, now) -> None:
        """``thread`` blocked on a monitor owned by another thread."""
