"""Graph 3 — floating point arithmetic (float and double add/mul/div).

The paper's Graph 3 shows the same JIT-quality ladder on FP code; double
and float throughput are close on every VM (x87 computes in extended
precision either way).
"""

from __future__ import annotations

from ...runtimes import MICRO_PROFILES
from ..results import ExperimentCheck, ExperimentResult
from ..runner import plan, profile_cells, section_series
from .graph01_02_int_arith import MICRO_CLOCK

SECTIONS = (
    "Arith:Add:Float", "Arith:Mul:Float", "Arith:Div:Float",
    "Arith:Add:Double", "Arith:Mul:Double", "Arith:Div:Double",
)


def cells(scale: float = 1.0):
    reps = max(200, int(6000 * scale))
    return profile_cells("micro.arith", {"Reps": reps}, MICRO_PROFILES, MICRO_CLOCK)


def run(scale: float = 1.0) -> ExperimentResult:
    return evaluate(plan(cells(scale)), scale)


def evaluate(runs, scale: float = 1.0) -> ExperimentResult:
    result = ExperimentResult(
        experiment="graph03",
        title="Graph 3: Floating point arithmetic (ops/sec)",
        unit="ops/sec",
    )
    result.series.update(section_series(runs, cells(scale), SECTIONS))

    v = lambda s, p: result.series[s][p]
    result.checks.append(ExperimentCheck(
        "commercial VMs (CLR, IBM) lead on double addition",
        min(v("Arith:Add:Double", "clr-1.1"), v("Arith:Add:Double", "ibm-1.3.1"))
        > max(v("Arith:Add:Double", "mono-0.23"), v("Arith:Add:Double", "sscli-1.0")),
    ))
    result.checks.append(ExperimentCheck(
        "division much slower than addition everywhere (hardware bound)",
        all(v(f"Arith:Div:{t}", p) < v(f"Arith:Add:{t}", p)
            for t in ("Float", "Double") for p in result.series["Arith:Add:Float"]),
    ))
    result.checks.append(ExperimentCheck(
        "SSCLI slowest on double math",
        v("Arith:Add:Double", "sscli-1.0")
        == min(result.series["Arith:Add:Double"].values()),
    ))

    result.render_text([p.name for p in MICRO_PROFILES])
    return result
