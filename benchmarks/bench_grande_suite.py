"""The Grande/DHPC application suite (paper Table 4 rows outside SciMark):
per-kernel ops/sec on the four micro-section VMs."""

from conftest import record_series

from repro.harness.results import ExperimentResult
from repro.harness.runner import plan, profile_cells, profile_runs
from repro.runtimes import MICRO_PROFILES

GRANDE = (
    "grande.fibonacci", "grande.sieve", "grande.hanoi", "grande.heapsort",
    "grande.crypt", "grande.moldyn", "grande.euler", "grande.search",
    "grande.raytracer",
)


def run_grande_suite():
    result = ExperimentResult(
        experiment="grande-suite",
        title="Table 4 applications: Grande/DHPC kernels (ops/sec)",
        unit="ops/sec",
    )
    cells = {name: profile_cells(name, None, MICRO_PROFILES, 2.8e9) for name in GRANDE}
    planned = plan([cell for group in cells.values() for cell in group])
    for name in GRANDE:
        runs = profile_runs(planned, cells[name])
        sample = next(iter(runs.values()))
        for section in sample.sections:
            result.series[section] = {
                p: r.section(section).ops_per_sec for p, r in runs.items()
            }
    return result


def test_grande_suite(benchmark):
    result = benchmark.pedantic(run_grande_suite, rounds=1, iterations=1)
    record_series(benchmark, result)
    # the JIT-quality ladder holds on application code too
    for section, per_profile in result.series.items():
        assert per_profile["sscli-1.0"] <= per_profile["clr-1.1"], section
