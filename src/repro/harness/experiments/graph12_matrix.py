"""Graph 12 — matrix styles on the CLR 1.1: true multidimensional vs jagged
arrays, value-type vs object-type elements.

Paper section 5: "Copy assignments in true multidimensional matrices run at
25 percent of the performance of jagged arrays"; the graph also shows
value-type matrices ahead of object-type ones.
"""

from __future__ import annotations

from ...runtimes import CLR11
from ..results import ExperimentCheck, ExperimentResult
from ..runner import plan, profile_cells, section_series
from .graph01_02_int_arith import MICRO_CLOCK

SECTIONS = ("Matrix:MultiDim", "Matrix:Jagged", "Matrix:ValueType", "Matrix:ObjectType")


def cells(scale: float = 1.0):
    reps = max(2, int(4 * scale))
    return profile_cells("clispec.matrix", {"Reps": reps}, [CLR11], MICRO_CLOCK)


def run(scale: float = 1.0) -> ExperimentResult:
    return evaluate(plan(cells(scale)), scale)


def evaluate(runs, scale: float = 1.0) -> ExperimentResult:
    result = ExperimentResult(
        experiment="graph12",
        title="Graph 12: Matrix copy performance on .NET CLR 1.1 (copies/sec)",
        unit="copies/sec",
    )
    result.series.update(section_series(runs, cells(scale), SECTIONS))
    clr = "clr-1.1"
    v = lambda s: result.series[s][clr]
    ratio = v("Matrix:MultiDim") / v("Matrix:Jagged")
    result.checks.append(ExperimentCheck(
        "true multidimensional runs at roughly 25% of jagged (0.15-0.45)",
        0.15 < ratio < 0.45,
        f"multidim/jagged = {ratio:.2f}",
    ))
    result.checks.append(ExperimentCheck(
        "value-type elements faster than object-type elements",
        v("Matrix:ValueType") > v("Matrix:ObjectType"),
        f"value={v('Matrix:ValueType'):.3e} object={v('Matrix:ObjectType'):.3e}",
    ))
    result.checks.append(ExperimentCheck(
        "jagged arrays are the fastest matrix style",
        v("Matrix:Jagged") == max(v(s) for s in SECTIONS),
    ))
    result.render_text([CLR11.name])
    return result
