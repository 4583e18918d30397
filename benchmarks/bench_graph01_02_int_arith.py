"""Regenerates paper Graphs 1-2 (integer arithmetic across four VMs)."""

from conftest import record_series

from repro.harness.experiments import graph01_02_int_arith


def test_graph01_02_int_arith(benchmark):
    result = benchmark.pedantic(
        graph01_02_int_arith.run,
        kwargs={"scale": 1.0},
        rounds=1, iterations=1,
    )
    record_series(benchmark, result)
    assert result.all_passed, [c.render() for c in result.checks if not c.passed]
