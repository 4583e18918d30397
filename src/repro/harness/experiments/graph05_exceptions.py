"""Graph 5 — exception handling (Throw / New / Method).

Paper section 5: "exception-handling in all implementations of the CLI is
significantly more costly than in the JVM."
"""

from __future__ import annotations

from ...runtimes import MICRO_PROFILES
from ..results import ExperimentCheck, ExperimentResult
from ..runner import plan, profile_cells, section_series
from .graph01_02_int_arith import MICRO_CLOCK

SECTIONS = ("Exception:Throw", "Exception:New", "Exception:Method")


def cells(scale: float = 1.0):
    reps = max(50, int(300 * scale))
    return profile_cells("micro.exception", {"Reps": reps}, MICRO_PROFILES, MICRO_CLOCK)


def run(scale: float = 1.0) -> ExperimentResult:
    return evaluate(plan(cells(scale)), scale)


def evaluate(runs, scale: float = 1.0) -> ExperimentResult:
    result = ExperimentResult(
        experiment="graph05",
        title="Graph 5: Exception handling (exceptions/sec)",
        unit="exceptions/sec",
    )
    result.series.update(section_series(runs, cells(scale), SECTIONS))
    v = lambda s, p: result.series[s][p]
    cli = ("clr-1.1", "mono-0.23", "sscli-1.0")
    result.checks.append(ExperimentCheck(
        "every CLI throws exceptions far slower than the JVM (>=4x)",
        all(v("Exception:Throw", "ibm-1.3.1") > 4 * v("Exception:Throw", p) for p in cli),
        f"ibm={v('Exception:Throw', 'ibm-1.3.1'):.3e} clr={v('Exception:Throw', 'clr-1.1'):.3e}",
    ))
    result.checks.append(ExperimentCheck(
        "creating the exception object is much cheaper than throwing it",
        all(v("Exception:New", p) > 5 * v("Exception:Throw", p)
            for p in result.series["Exception:New"]),
    ))
    result.checks.append(ExperimentCheck(
        "throwing down a call tree costs more than a local throw",
        all(v("Exception:Method", p) < v("Exception:Throw", p)
            for p in result.series["Exception:Method"]),
    ))
    result.render_text([p.name for p in MICRO_PROFILES])
    return result
