"""Continuous benchmark trajectory: metrics registry, machine telemetry,
deterministic flamegraph sampling, and BENCH_* regression artifacts.

Layering: :mod:`.registry` is the neutral store (counters / gauges /
streaming histograms); :mod:`.instrument` adapts the machine's observer
hooks into registry updates; :mod:`.sampler` turns the same hooks into
collapsed-stack flamegraphs; :mod:`.baseline` runs the graph suite with
metrics attached and writes/compares ``BENCH_<seq>.json`` artifacts
(:mod:`.cli` is the ``repro bench`` entry point).
"""

from .baseline import (
    BENCH_SCHEMA,
    collect,
    compare,
    current_git_sha,
    graph_suite,
    load_artifact,
    regressions,
    render_compare,
    write_artifact,
)
from .exposition import (
    EXPOSITION_CONTENT_TYPE,
    parse_exposition,
    render_exposition,
    validate_exposition,
)
from .instrument import MachineMetrics
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from .sampler import RUNTIME_FRAME, StackSampler

__all__ = [
    "BENCH_SCHEMA",
    "Counter",
    "EXPOSITION_CONTENT_TYPE",
    "Gauge",
    "Histogram",
    "MachineMetrics",
    "MetricsError",
    "MetricsRegistry",
    "RUNTIME_FRAME",
    "StackSampler",
    "collect",
    "compare",
    "current_git_sha",
    "graph_suite",
    "load_artifact",
    "parse_exposition",
    "regressions",
    "render_compare",
    "render_exposition",
    "validate_exposition",
    "write_artifact",
]
