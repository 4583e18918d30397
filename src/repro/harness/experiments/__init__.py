"""Experiment modules — one per paper graph/table.

Each module declares ``cells(scale=1.0)``, its ``(benchmark, overrides,
profile name, clock_hz)`` cells (pure: nothing executes), and
``evaluate(runs, scale=1.0) -> ExperimentResult``, which reads their runs
from :func:`repro.harness.runner.plan` without mutating them (another
experiment may share a run); ``run(scale=1.0)`` is
``evaluate(plan(cells(scale)), scale)``.  graph10-11 also takes ``model``
and renders once per entry of its ``MODELS``.

``scale`` multiplies repetition counts (tests use < 1.0 for speed, benches
1.0), and every module evaluates the paper's qualitative expectations as
:class:`~repro.harness.results.ExperimentCheck` records.
"""

from typing import List

from ..results import ExperimentResult
from ..runner import plan
from . import (
    graph01_02_int_arith,
    graph03_fp_arith,
    graph04_loops,
    graph05_exceptions,
    graph06_08_math,
    graph09_scimark,
    graph10_11_kernels,
    graph12_matrix,
    tables_jit,
)

ALL_EXPERIMENTS = {
    "graph01-02": graph01_02_int_arith,
    "graph03": graph03_fp_arith,
    "graph04": graph04_loops,
    "graph05": graph05_exceptions,
    "graph06-08": graph06_08_math,
    "graph09": graph09_scimark,
    "graph10-11": graph10_11_kernels,
    "graph12": graph12_matrix,
    "tables5-8": tables_jit,
}


def renders(name: str) -> List[dict]:
    """The keyword sets experiment ``name`` renders with, in print order."""
    if name == "graph10-11":
        return [{"model": model} for model in graph10_11_kernels.MODELS]
    return [{}]


def evaluate_all(names, scale: float = 1.0) -> List[ExperimentResult]:
    """Every render of the named experiments, in order, from one
    :func:`plan` over all their cells: a cell two experiments declare
    runs once."""
    sections = [(ALL_EXPERIMENTS[name], kwargs) for name in names for kwargs in renders(name)]
    runs = plan([cell for module, kwargs in sections for cell in module.cells(scale, **kwargs)])
    return [module.evaluate(runs, scale, **kwargs) for module, kwargs in sections]
