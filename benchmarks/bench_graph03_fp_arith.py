"""Regenerates paper Graph 3 (floating point arithmetic)."""

from conftest import record_series

from repro.harness.experiments import graph03_fp_arith


def test_graph03_fp_arith(benchmark):
    result = benchmark.pedantic(
        graph03_fp_arith.run,
        kwargs={"scale": 1.0},
        rounds=1, iterations=1,
    )
    record_series(benchmark, result)
    assert result.all_passed, [c.render() for c in result.checks if not c.passed]
