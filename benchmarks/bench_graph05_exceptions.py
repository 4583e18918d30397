"""Regenerates paper Graph 5 (exception handling cost)."""

from conftest import record_series

from repro.harness.experiments import graph05_exceptions


def test_graph05_exceptions(benchmark):
    result = benchmark.pedantic(
        graph05_exceptions.run,
        kwargs={"scale": 1.0},
        rounds=1, iterations=1,
    )
    record_series(benchmark, result)
    assert result.all_passed, [c.render() for c in result.checks if not c.passed]
