#!/usr/bin/env python3
"""Matrix styles — the paper's Graph 12 irony, live.

"It is ironic to see that one of the major bottlenecks identified by the
Java Grande Forum, the lack of true multidimensional arrays, does not
appear under the CLR": true ``double[,]`` arrays exist — and run at ~25%
of jagged-array speed under CLR 1.1.

Run:  python examples/matrix_styles.py
"""

from repro.harness.charts import bar_chart
from repro.harness.runner import plan, profile_cells, profile_runs
from repro.runtimes import CLR11, MONO023, NATIVE_C

SECTIONS = ("Matrix:MultiDim", "Matrix:Jagged", "Matrix:ValueType", "Matrix:ObjectType")


def main() -> None:
    profiles = [CLR11, MONO023, NATIVE_C]
    cells = profile_cells("clispec.matrix", {"N": 16, "Reps": 4}, profiles, 2.8e9)
    runs = profile_runs(plan(cells), cells)

    series = {
        s: {name: r.section(s).ops_per_sec for name, r in runs.items()}
        for s in SECTIONS
    }
    print(bar_chart(series, unit="copies/sec",
                    profile_order=[p.name for p in profiles],
                    title="Matrix copy styles (Graph 12)"))
    clr = {s: series[s]["clr-1.1"] for s in SECTIONS}
    ratio = clr["Matrix:MultiDim"] / clr["Matrix:Jagged"]
    print()
    print(f"CLR 1.1 multidim/jagged ratio: {ratio:.2f} "
          f"(paper: 'run at 25 percent of the performance of jagged arrays')")
    native = {s: series[s]["native-c"] for s in SECTIONS}
    print(f"native C multidim/jagged ratio: "
          f"{native['Matrix:MultiDim'] / native['Matrix:Jagged']:.2f} "
          f"(compiled code pays almost no multidim penalty)")


if __name__ == "__main__":
    main()
