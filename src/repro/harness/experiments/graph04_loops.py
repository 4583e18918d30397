"""Graph 4 — loop overheads (For / ReverseFor / While).

Paper section 5: "the loop overhead in CLR 1.1 is lower" than the JVM's.
"""

from __future__ import annotations

from ...runtimes import MICRO_PROFILES
from ..results import ExperimentCheck, ExperimentResult
from ..runner import plan, profile_cells, section_series
from .graph01_02_int_arith import MICRO_CLOCK

SECTIONS = ("Loop:For", "Loop:ReverseFor", "Loop:While")


def cells(scale: float = 1.0):
    reps = max(1000, int(30000 * scale))
    return profile_cells("micro.loop", {"Reps": reps}, MICRO_PROFILES, MICRO_CLOCK)


def run(scale: float = 1.0) -> ExperimentResult:
    return evaluate(plan(cells(scale)), scale)


def evaluate(runs, scale: float = 1.0) -> ExperimentResult:
    result = ExperimentResult(
        experiment="graph04",
        title="Graph 4: Loop performance (iterations/sec)",
        unit="iterations/sec",
    )
    result.series.update(section_series(runs, cells(scale), SECTIONS))
    v = lambda s, p: result.series[s][p]
    result.checks.append(ExperimentCheck(
        "CLR loop overhead lower than IBM JVM (paper sec. 5)",
        all(v(s, "clr-1.1") > v(s, "ibm-1.3.1") for s in SECTIONS),
        f"for: clr={v('Loop:For', 'clr-1.1'):.3e} ibm={v('Loop:For', 'ibm-1.3.1'):.3e}",
    ))
    result.checks.append(ExperimentCheck(
        "loop styles within 2x of each other per VM (no pathological form)",
        all(
            max(result.series[s][p] for s in SECTIONS) <= 2 * min(result.series[s][p] for s in SECTIONS)
            for p in result.series["Loop:For"]
        ),
    ))
    result.render_text([p.name for p in MICRO_PROFILES])
    return result
