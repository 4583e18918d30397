"""Regenerates paper Graphs 6-8 (the 26 Math library routines)."""

from conftest import record_series

from repro.harness.experiments import graph06_08_math


def test_graph06_08_math(benchmark):
    result = benchmark.pedantic(
        graph06_08_math.run,
        kwargs={"scale": 1.0},
        rounds=1, iterations=1,
    )
    record_series(benchmark, result)
    assert result.all_passed, [c.render() for c in result.checks if not c.passed]
