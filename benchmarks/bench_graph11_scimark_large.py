"""Regenerates paper Graph 11 (SciMark kernels vs C, large memory model)."""

from conftest import record_series

from repro.harness.experiments import graph10_11_kernels


def test_graph11_scimark_large(benchmark):
    result = benchmark.pedantic(
        graph10_11_kernels.run,
        kwargs={"scale": 1.0, "model": "large"},
        rounds=1, iterations=1,
    )
    record_series(benchmark, result)
    assert result.all_passed, [c.render() for c in result.checks if not c.passed]
