#!/usr/bin/env python3
"""SciMark shootout: regenerate the paper's Graph 9/10 data — the five
SciMark kernels across all eight runtime columns, small and large memory
models, with composite MFlops.

Run:  python examples/scimark_shootout.py [--fast]
"""

import sys

from repro.harness.charts import table
from repro.harness.experiments.graph09_scimark import (
    SCIMARK_CLOCK,
    cells,
    composite,
    kernel_mflops,
)
from repro.harness.runner import plan
from repro.runtimes import ALL_PROFILES


def main() -> None:
    scale = 0.4 if "--fast" in sys.argv else 1.0
    runs = plan(cells(scale))  # both memory models, every profile
    order = [p.name for p in ALL_PROFILES]

    for model in ("small", "large"):
        per_kernel = kernel_mflops(runs, model, scale)
        per_kernel["composite"] = composite(
            {k: v for k, v in per_kernel.items() if k != "composite"}
        )
        print(f"SciMark MFlops — {model} memory model "
              f"(simulated {SCIMARK_CLOCK / 1e9:.1f} GHz)")
        print(table(per_kernel, columns=order, row_header="kernel"))
        print()

    print("Expected shape (paper Graphs 9-11): C leads; IBM and the CLR are")
    print("the top VMs; BEA/Sun trail them; Mono ~half; Rotor far behind;")
    print("the C MonteCarlo column is anomalously fast because the native")
    print("build has no synchronized RNG (paper section 5).")


if __name__ == "__main__":
    main()
