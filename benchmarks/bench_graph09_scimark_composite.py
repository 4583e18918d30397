"""Regenerates paper Graph 9 (SciMark composite MFlops, small + large
memory models, all eight columns)."""

from conftest import record_series

from repro.harness.experiments import graph09_scimark


def test_graph09_scimark_composite(benchmark):
    result = benchmark.pedantic(
        graph09_scimark.run,
        kwargs={"scale": 1.0},
        rounds=1, iterations=1,
    )
    record_series(benchmark, result)
    assert result.all_passed, [c.render() for c in result.checks if not c.passed]
