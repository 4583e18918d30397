"""Compare two sets of benchmark runs, parent against change.

    python benchmarks/perf/compare.py PARENT.json CHANGE.json

Each file is the ``results.json`` that ``run.py --out DIR`` writes; run
both sides with the same arguments, for example ``--repeats 10``.  One
row per (workload, metric) gives each side's median and quartiles and a
verdict against the metric's bound from ``BENCHMARK.json``:

* ``regressed`` / ``improved``: the medians differ by more than the bound;
* ``ok``: they differ by less;
* ``unresolved``: either side's spread (interquartile range over median)
  is wider than the bound, unless every change run beats every parent
  run.

``error_rate`` has a bound of zero: any rise is a regression.  Layer
metrics come from one traced repeat and carry no verdict.  The exit code
is 1 when any row regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")

#: end-to-end metrics reported on single workloads, beyond the gated set
EXTRA_BOUNDS = {
    "serial_wall_s": 0.15,
    "parallel_wall_s": 0.2,
    "warm_p50_ms": 0.2,
    "warm_p95_ms": 0.25,
    "cold_p50_ms": 0.2,
    "cold_p90_ms": 0.25,
    "client_p50_ms": 0.2,
    "jobs_per_s": 0.15,
    "error_rate": 0.0,
}


def load_bounds() -> dict:
    """metric -> (bound, better)."""
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    for name, bound in EXTRA_BOUNDS.items():
        bounds.setdefault(name, (bound, "higher" if name.endswith("per_s") else "lower"))
    return bounds


def samples(results: dict) -> dict:
    """(workload, metric) -> values, one per repeat (``setup_s``: one per
    set-up)."""
    out = {}
    for workload, data in results["workloads"].items():
        if data.get("setup_s"):
            out[(workload, "setup_s")] = list(data["setup_s"])
        for repeat in data["repeats"]:
            for name, value in repeat["metrics"].items():
                out.setdefault((workload, name), []).append(value)
        if data.get("traced"):
            for name, value in data["metrics"].items():
                out.setdefault((workload, name), [value])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values) -> float:
    low, mid, high = quartiles(values)
    return (high - low) / abs(mid) if mid else 0.0


def verdict(parent, change, bound, better) -> str:
    p_mid, c_mid = quartiles(parent)[1], quartiles(change)[1]
    sign = 1.0 if better == "lower" else -1.0
    if bound == 0:
        worse = sign * (c_mid - p_mid)
        return "regressed" if worse > 0 else "improved" if worse < 0 else "ok"
    if max(spread(parent), spread(change)) > bound:
        every = all(sign * c < sign * p for c in change for p in parent)
        return "improved" if every else "unresolved"
    worse = sign * (c_mid - p_mid) / abs(p_mid) if p_mid else 0.0
    if worse > bound:
        return "regressed"
    return "improved" if worse < -bound else "ok"


def compare(parent: dict, change: dict, bounds: dict):
    """Rows ``(workload, metric, parent quartiles, change quartiles,
    relative change, verdict)`` for every metric both sides report."""
    left, right = samples(parent), samples(change)
    rows = []
    for key in sorted(set(left) & set(right)):
        workload, name = key
        p_q, c_q = quartiles(left[key]), quartiles(right[key])
        delta = (c_q[1] - p_q[1]) / abs(p_q[1]) if p_q[1] else 0.0
        if name in bounds:
            bound, better = bounds[name]
            result = verdict(left[key], right[key], bound, better)
        else:
            result = "-"
        rows.append((workload, name, p_q, c_q, delta, result))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        parent = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        change = json.load(handle)
    rows = compare(parent, change, load_bounds())

    def side(q):
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    print(f"{'workload':<9} {'metric':<28} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'delta':>8}  verdict")
    for workload, name, p_q, c_q, delta, result in rows:
        print(f"{workload:<9} {name:<28} {side(p_q):<34} {side(c_q):<34} "
              f"{delta:>+8.1%}  {result}")
    return 1 if any(row[5] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
