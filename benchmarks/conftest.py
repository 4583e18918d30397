"""Shared helpers for the benchmark harness (pytest-benchmark)."""


def record_series(benchmark, result):
    """Attach the regenerated graph data + check outcomes to the report."""
    benchmark.extra_info["experiment"] = result.experiment
    benchmark.extra_info["series"] = {
        s: {p: round(v, 1) for p, v in per.items()}
        for s, per in result.series.items()
    }
    benchmark.extra_info["checks"] = {
        c.description: ("PASS" if c.passed else "FAIL") for c in result.checks
    }
