"""``repro.observe`` — cycle-attribution profiler, JIT trace, and event
timeline for the measured engine.

The subsystem answers *why* one runtime profile is slower than another from
our own data instead of opaque totals: attach an :class:`Observer` to a
:class:`~repro.vm.machine.Machine` (or pass ``observe=True`` to
:meth:`repro.harness.runner.Runner.run_on`) and every simulated cycle is
broken down per method, per MIR opcode, and per cost category, the JIT
pipeline's per-method decisions are traced, and a Chrome trace-event
timeline of the run is recorded — all without perturbing the measurement
(observed and unobserved runs are bit-identical in cycles, instructions,
and results).

Command-line access: ``repro prof report|diff|export`` (see
:mod:`repro.observe.cli`) or ``repro run ... --profile``.
"""

from .base import MachineObserver
from .jittrace import JitTrace, MethodCompile
from .recorder import (
    CAT_ALLOC,
    CAT_DISPATCH,
    CAT_EXCEPTION,
    CAT_EXECUTE,
    CAT_MEMTAX,
    CAT_MONITOR,
    CAT_RUNTIME,
    CATEGORIES,
    CycleAttribution,
    Observer,
)
from .report import (
    coverage,
    diff_categories,
    profile_from_path,
    profile_to_dict,
    render_diff,
    render_diff_markdown,
    render_report,
)
from .timeline import Timeline

__all__ = [
    "CATEGORIES",
    "CAT_ALLOC",
    "CAT_DISPATCH",
    "CAT_EXCEPTION",
    "CAT_EXECUTE",
    "CAT_MEMTAX",
    "CAT_MONITOR",
    "CAT_RUNTIME",
    "CycleAttribution",
    "JitTrace",
    "MachineObserver",
    "MethodCompile",
    "Observer",
    "Timeline",
    "coverage",
    "diff_categories",
    "profile_from_path",
    "profile_to_dict",
    "render_diff",
    "render_diff_markdown",
    "render_report",
]
