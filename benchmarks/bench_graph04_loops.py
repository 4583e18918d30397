"""Regenerates paper Graph 4 (loop overheads)."""

from conftest import record_series

from repro.harness.experiments import graph04_loops


def test_graph04_loops(benchmark):
    result = benchmark.pedantic(
        graph04_loops.run,
        kwargs={"scale": 1.0},
        rounds=1, iterations=1,
    )
    record_series(benchmark, result)
    assert result.all_passed, [c.render() for c in result.checks if not c.passed]
