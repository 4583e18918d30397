"""Result records produced by the harness runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .charts import bar_chart


@dataclass
class SectionResult:
    section: str
    cycles: float
    ops: int
    flops: int
    ops_per_sec: float
    mflops: float
    #: wall seconds at the run's nominal clock
    seconds: float = 0.0
    results: List[float] = field(default_factory=list)


@dataclass
class ProfileRun:
    """One benchmark executed on one runtime profile."""

    benchmark: str
    profile: str
    clock_hz: float
    total_cycles: float
    sections: Dict[str, SectionResult] = field(default_factory=dict)
    stdout: List[str] = field(default_factory=list)
    #: machine-level counters useful for reports
    allocated_bytes: int = 0
    instructions: int = 0
    gc_collections: int = 0
    gc_live_objects: int = 0
    #: the repro.observe.Observer attached for this run, when profiling
    observation: Optional[object] = None
    #: repro.metrics registry snapshot ({"counters": ..., "gauges": ...,
    #: "histograms": ...}) when the run was metric-instrumented, else None
    metrics: Optional[dict] = None
    #: fired fault-site counts ({site: count}) when a repro.faults spec was
    #: active and at least one site fired without failing the run, else None
    faults: Optional[dict] = None

    def section(self, name: str) -> SectionResult:
        try:
            return self.sections[name]
        except KeyError:
            known = ", ".join(sorted(self.sections))
            raise KeyError(
                f"{self.benchmark}@{self.profile}: no section {name!r}; have {known}"
            ) from None


@dataclass
class ExperimentCheck:
    """One paper-shape expectation evaluated against measured data."""

    description: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"  [{status}] {self.description}"
        if self.detail:
            line += f" ({self.detail})"
        return line


@dataclass
class ExperimentResult:
    """Everything one paper graph/table regeneration produced."""

    experiment: str
    title: str
    #: section -> profile -> value (ops/sec, MFlops... as the graph plots)
    series: Dict[str, Dict[str, float]] = field(default_factory=dict)
    unit: str = "ops/sec"
    checks: List[ExperimentCheck] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    text: str = ""

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render_text(self, profile_order, *blocks: str) -> None:
        """Set ``text``: the bar chart of ``series``, then each extra
        block, then the rendered checks."""
        chart = bar_chart(self.series, unit=self.unit,
                          profile_order=profile_order, title=self.title)
        checks = "\n".join(c.render() for c in self.checks)
        self.text = "\n\n".join([chart, *blocks, checks])
