"""The multithreaded micro suite (paper Table 2 + Table 3 thread rows):
barrier styles, fork-join, synchronized method/block, thread startup,
lock contention — across the four micro VMs."""

from conftest import record_series

from repro.harness.results import ExperimentResult
from repro.harness.runner import plan, profile_cells, profile_runs
from repro.runtimes import MICRO_PROFILES


def run_threads_suite():
    result = ExperimentResult(
        experiment="threads-micro",
        title="Tables 2-3: multithreaded micro benchmarks (ops/sec)",
        unit="ops/sec",
    )
    specs = [
        ("threads.barrier", None),
        ("threads.forkjoin", None),
        ("threads.sync", None),
        ("threads.thread", None),
        ("threads.lock", None),
    ]
    cells = [profile_cells(name, overrides, MICRO_PROFILES, 2.8e9)
             for name, overrides in specs]
    planned = plan([cell for group in cells for cell in group])
    for group in cells:
        runs = profile_runs(planned, group)
        sample = next(iter(runs.values()))
        for section in sample.sections:
            result.series[section] = {
                p: r.section(section).ops_per_sec for p, r in runs.items()
            }
    return result


def test_threads_micro(benchmark):
    result = benchmark.pedantic(run_threads_suite, rounds=1, iterations=1)
    record_series(benchmark, result)
    # JVM thin locks beat every CLI on uncontended monitors
    uncontended = result.series["Lock:Uncontended"]
    assert uncontended["ibm-1.3.1"] > uncontended["clr-1.1"]
    assert uncontended["clr-1.1"] > uncontended["sscli-1.0"]
    # the lock-free tournament barrier beats the monitor barrier everywhere
    simple = result.series["Barrier:Simple"]
    tournament = result.series["Barrier:Tournament"]
    assert all(tournament[p] > simple[p] for p in simple)
