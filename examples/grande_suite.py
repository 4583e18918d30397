#!/usr/bin/env python3
"""Grande application suite — the Table 4 kernels beyond SciMark (FFT et
al.): Fibonacci, Sieve, Hanoi, HeapSort, IDEA Crypt, MolDyn, Euler,
connect-4 Search and the RayTracer, across the four micro-study VMs.

Every kernel validates its own computation (round trips, invariants,
conservation laws) and the harness additionally asserts all runtimes
computed identical results.

Run:  python examples/grande_suite.py [--fast]
"""

import sys

from repro.benchmarks import get
from repro.harness.charts import table
from repro.harness.runner import plan, profile_cells, profile_runs
from repro.runtimes import MICRO_PROFILES

KERNELS = (
    "grande.fibonacci", "grande.sieve", "grande.hanoi", "grande.heapsort",
    "grande.crypt", "grande.moldyn", "grande.euler", "grande.search",
    "grande.raytracer",
)

FAST_OVERRIDES = {
    "grande.fibonacci": {"N": 15},
    "grande.sieve": {"Limit": 3000},
    "grande.hanoi": {"Disks": 11},
    "grande.heapsort": {"N": 1000},
    "grande.crypt": {"Words": 256},
    "grande.moldyn": {"MM": 2, "Steps": 2},
    "grande.euler": {"N": 6, "Steps": 2},
    "grande.search": {"Depth": 3},
    "grande.raytracer": {"Size": 8},
}


def main() -> None:
    fast = "--fast" in sys.argv
    cells = {
        name: profile_cells(name, FAST_OVERRIDES[name] if fast else None,
                            MICRO_PROFILES, 2.8e9)
        for name in KERNELS
    }
    planned = plan([cell for group in cells.values() for cell in group])
    rows = {}
    for name in KERNELS:
        bench = get(name)
        runs = profile_runs(planned, cells[name])
        section = bench.sections[0]
        rows[section] = {
            p: r.section(section).ops_per_sec for p, r in runs.items()
        }
        sample = next(iter(runs.values())).section(section)
        print(f"{name:<20} validated; results = "
              f"{[round(v, 4) for v in sample.results]}")
    print()
    print(table(rows, columns=[p.name for p in MICRO_PROFILES],
                value_format="{:.3e}", row_header="kernel (ops/sec)"))


if __name__ == "__main__":
    main()
