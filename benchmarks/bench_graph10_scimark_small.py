"""Regenerates paper Graph 10 (SciMark kernels vs C, small memory model)."""

from conftest import record_series

from repro.harness.experiments import graph10_11_kernels


def test_graph10_scimark_small(benchmark):
    result = benchmark.pedantic(
        graph10_11_kernels.run,
        kwargs={"scale": 1.0, "model": "small"},
        rounds=1, iterations=1,
    )
    record_series(benchmark, result)
    assert result.all_passed, [c.render() for c in result.checks if not c.passed]
