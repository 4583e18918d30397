"""Machine-hook → metrics-registry adapter.

:class:`MachineMetrics` is an observer (the
:class:`~repro.observe.base.MachineObserver` protocol) that translates the
measured engine's read-only hooks into registry updates: allocation sites,
GC collections/pauses/live set, exception dispatch and unwinds, monitor
contention, scheduler quanta and context switches.  Its ``jit`` slot is
the structural :class:`~repro.observe.jittrace.JitTrace`, the same
recorder the profiler uses; :meth:`MachineMetrics.finalize` derives the
per-pass JIT instruction deltas and compile counts from its records.  Like
every observer it never mutates machine state, so a metric-instrumented
run is cycle-for-cycle bit-identical to a bare run (``tests/test_metrics.py``
enforces it across benchmarks and the fuzz corpus).

It deliberately sets ``instr = None``: per-instruction data is the
cycle-attribution profiler's job; the metrics layer reads the aggregate
instruction count from the machine at :meth:`finalize` time instead of
paying a Python call per executed instruction.  Without that hook the
threaded engine also keeps its fused tiers (superinstructions and the
tier memory, see :func:`repro.vm.dispatch.build_ops`), so a metrics run
executes the same code a bare run does.

Metric catalogue (all names created on first update):

========================  =========  ==========================================
``cycles.<category>``     counter    dynamic charges per cost category
``calls.frames_pushed``   counter    activation frames pushed / popped
``calls.frames_popped``   counter
``heap.allocations``      counter    allocation sites hit
``heap.allocated_bytes``  counter    bytes allocated (== machine total)
``heap.alloc_bytes``      histogram  per-allocation size distribution
``gc.collections``        counter    explicit collections
``gc.pause_cycles``       histogram  per-collection pause, simulated cycles
``gc.live_objects``       gauge      live set at the last collection
``exceptions.thrown``     counter    managed throws started
``exceptions.frames_unwound`` counter  frames popped by dispatch
``monitor.contended``     counter    blocking monitor acquisitions
``threads.started``       counter    guest threads started
``sched.quanta``          counter    scheduler quanta that charged cycles
``sched.quantum_cycles``  histogram  cycles per quantum
``sched.switches``        counter    context switches charged
``jit.methods_compiled``  counter    finalize(): pipeline compilations
``jit.instrs_lowered``    counter    MIR instructions produced by lowering
``jit.instrs_final``      counter    MIR instructions after the pipeline
``jit.inline_requests``   counter    inline candidates asked for / available
``jit.inline_available``  counter
``jit.pass.<p>.runs``     counter    executions of pass ``<p>``
``jit.pass.<p>.delta``    counter    net instruction delta of pass ``<p>``
``machine.cycles``        gauge      finalize(): machine totals
``machine.instructions``  gauge
``machine.allocated_bytes`` gauge
``machine.gc_collections``  gauge
``machine.gc_live_objects`` gauge
``threads.created``       gauge      finalize(): scheduler/thread totals
``threads.quanta``        gauge      (includes zero-charge quanta)
``threads.switches``      gauge
``jit.compile_cycles``    gauge      finalize(): synthetic compile effort
========================  =========  ==========================================
"""

from __future__ import annotations

from typing import Dict

from ..observe.base import MachineObserver
from ..observe.jittrace import JitTrace
from .registry import Counter, MetricsRegistry

#: pause/size-style histograms share the default geometric bounds from the
#: registry; quantum histograms get wider ones (quanta are ~50k cycles)
QUANTUM_BUCKETS = (
    256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216,
)


class MachineMetrics(MachineObserver):
    """Attach to one machine; record into its own registry."""

    #: skip the per-instruction hot-path callback entirely
    instr = None

    def __init__(self) -> None:
        self.registry = reg = MetricsRegistry()
        self.machine = None
        self.jit = JitTrace()
        # pre-create the hook-side metrics so hot hooks are attribute loads
        self._cat: Dict[str, Counter] = {}
        self._frames_pushed = reg.counter("calls.frames_pushed")
        self._frames_popped = reg.counter("calls.frames_popped")
        self._allocations = reg.counter("heap.allocations")
        self._allocated_bytes = reg.counter("heap.allocated_bytes")
        self._alloc_hist = reg.histogram("heap.alloc_bytes")
        self._gc_collections = reg.counter("gc.collections")
        self._gc_pause = reg.histogram("gc.pause_cycles")
        self._gc_live = reg.gauge("gc.live_objects")
        self._thrown = reg.counter("exceptions.thrown")
        self._unwound = reg.counter("exceptions.frames_unwound")
        self._contended = reg.counter("monitor.contended")
        self._threads_started = reg.counter("threads.started")
        self._quanta = reg.counter("sched.quanta")
        self._quantum_hist = reg.histogram("sched.quantum_cycles", QUANTUM_BUCKETS)
        self._switches = reg.counter("sched.switches")

    # ------------------------------------------------------------- lifecycle

    def attach(self, machine) -> None:
        if self.machine is not None and self.machine is not machine:
            raise ValueError("MachineMetrics is already attached to another Machine")
        self.machine = machine

    def finalize(self) -> None:
        """Publish end-of-run machine/scheduler totals as gauges and the
        ``jit.*`` counters derived from the compile records.

        This is where the machine's formerly-internal counters
        (``gc_collections``, ``gc_live_objects``, ``allocated_bytes``) are
        promoted into the registry.  Idempotent (every value is set, never
        added); the harness calls it after every run, direct users call it
        before :meth:`snapshot`.
        """
        machine = self.machine
        if machine is None:
            return
        reg = self.registry
        reg.gauge("machine.cycles").set(machine.cycles)
        reg.gauge("machine.instructions").set(machine.instructions)
        reg.gauge("machine.allocated_bytes").set(machine.allocated_bytes)
        reg.gauge("machine.gc_collections").set(machine.gc_collections)
        reg.gauge("machine.gc_live_objects").set(machine.gc_live_objects)
        reg.gauge("threads.created").set(len(machine.threads))
        reg.gauge("threads.quanta").set(sum(t.quanta for t in machine.threads))
        reg.gauge("threads.switches").set(sum(t.switches for t in machine.threads))
        reg.gauge("jit.compile_cycles").set(machine.jit.compile_effort)
        methods = self.jit.methods
        if not methods:
            return
        derived = {
            "jit.methods_compiled": len(methods),
            "jit.instrs_lowered": sum(rec.lowered_instrs for rec in methods),
            "jit.instrs_final": sum(rec.final_instrs for rec in methods),
            "jit.inline_requests": sum(len(rec.inline_decisions) for rec in methods),
            "jit.inline_available": sum(
                d.available for rec in methods for d in rec.inline_decisions
            ),
        }
        for rec in methods:
            for p in rec.passes:
                runs, delta = f"jit.pass.{p.name}.runs", f"jit.pass.{p.name}.delta"
                derived[runs] = derived.get(runs, 0) + 1
                derived[delta] = derived.get(delta, 0) + p.delta
        for name, value in derived.items():
            reg.counter(name).value = value

    def snapshot(self) -> dict:
        """Finalize, then return the registry's JSON-ready snapshot."""
        self.finalize()
        return self.registry.snapshot()

    # ----------------------------------------------------------------- hooks

    def dyn(self, fn, category: str, cycles) -> None:
        counter = self._cat.get(category)
        if counter is None:
            counter = self._cat[category] = self.registry.counter(
                f"cycles.{category}"
            )
        counter.add(cycles)

    def enter(self, thread, fn, now) -> None:
        self._frames_pushed.inc()

    def exit(self, thread, now) -> None:
        self._frames_popped.inc()

    def thread_started(self, thread, now) -> None:
        self._threads_started.inc()

    def quantum(self, thread, start, end) -> None:
        self._quanta.inc()
        self._quantum_hist.observe(end - start)

    def switch(self, thread, cost, now) -> None:
        self._switches.inc()

    def alloc(self, byte_size: int, cycles) -> None:
        self._allocations.inc()
        self._allocated_bytes.add(byte_size)
        self._alloc_hist.observe(byte_size)

    def gc(self, start, end, live: int) -> None:
        self._gc_collections.inc()
        self._gc_pause.observe(end - start)
        self._gc_live.set(live)

    def throw(self, now) -> None:
        self._thrown.inc()

    def unwound(self, thread, now) -> None:
        self._unwound.inc()

    def contention(self, thread, now) -> None:
        self._contended.inc()
