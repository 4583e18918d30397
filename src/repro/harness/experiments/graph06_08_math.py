"""Graphs 6-8 — Math library routines (three groups, 26 routines).

Paper section 5: "The CLR 1.1 version of the Math library appears to
perform better than the Java version."
"""

from __future__ import annotations

from ...benchmarks.micro.math_bench import GROUP1, GROUP2, GROUP3
from ...runtimes import MICRO_PROFILES
from ..results import ExperimentCheck, ExperimentResult
from ..runner import plan, profile_cells, section_series
from .graph01_02_int_arith import MICRO_CLOCK


def cells(scale: float = 1.0):
    reps = max(400, int(2000 * scale))
    return profile_cells("micro.math", {"Reps": reps}, MICRO_PROFILES, MICRO_CLOCK)


def run(scale: float = 1.0) -> ExperimentResult:
    return evaluate(plan(cells(scale)), scale)


def evaluate(runs, scale: float = 1.0) -> ExperimentResult:
    result = ExperimentResult(
        experiment="graph06-08",
        title="Graphs 6-8: Math library calls/sec (groups I-III)",
        unit="calls/sec",
    )
    result.series.update(section_series(runs, cells(scale), GROUP1 + GROUP2 + GROUP3))
    v = lambda s, p: result.series[s][p]
    transcendental = ("Math:SinDouble", "Math:CosDouble", "Math:TanDouble",
                      "Math:ExpDouble", "Math:LogDouble", "Math:PowDouble",
                      "Math:SqrtDouble")
    result.checks.append(ExperimentCheck(
        "CLR math library beats the IBM JVM on transcendentals (Graphs 6-8)",
        all(v(s, "clr-1.1") > v(s, "ibm-1.3.1") for s in transcendental),
        f"sin: clr={v('Math:SinDouble', 'clr-1.1'):.3e} ibm={v('Math:SinDouble', 'ibm-1.3.1'):.3e}",
    ))
    result.checks.append(ExperimentCheck(
        "Abs/Max/Min (group I) are far cheaper than trig (group II) everywhere",
        all(v("Math:AbsInt", p) > 3 * v("Math:SinDouble", p)
            for p in result.series["Math:AbsInt"]),
    ))
    result.checks.append(ExperimentCheck(
        "CLR leads every math routine among the four VMs or ties native order",
        sum(1 for s in GROUP2 + GROUP3
            if v(s, "clr-1.1") == max(result.series[s].values())) >= len(GROUP2 + GROUP3) * 0.7,
    ))
    result.render_text([p.name for p in MICRO_PROFILES])
    return result
