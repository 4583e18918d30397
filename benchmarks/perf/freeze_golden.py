"""Regenerate the golden fingerprints in ``golden/`` from the program.

    python benchmarks/perf/freeze_golden.py

The goldens freeze the simulated observables the benchmark produces:
each paper experiment's series and check outcomes, each graph-suite
artifact entry (without ``git_sha``), and each ``churn`` program's
result, stdout and per-profile cycles for seed 0.  Nothing that only
changes wall-clock speed may move them; regenerate them only with a
change that is meant to move the simulated clock, and say so.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

from hostspeed import SpeedMeter  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import GOLDEN_DIR, WORKLOADS  # noqa: E402

#: workload -> (golden file, passes frozen); churn covers six passes of
#: programs, more than a 20-second repeat runs
FROZEN = {"paper": ("paper", 1), "suite": ("suite", 1), "churn": ("churn_seed0", 6)}


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".perfbench-work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench-work")) as work_dir:
        for name, (golden, passes) in FROZEN.items():
            workload = WORKLOADS[name](0, "full", work_dir, SpanRecorder(), SpeedMeter())
            workload.golden = {}
            observed = {}
            for index in range(passes):
                observed.update(workload.run_pass(index).observed)
            if workload.failures:
                print("\n".join(workload.failures), file=sys.stderr)
                return 1
            path = os.path.join(GOLDEN_DIR, golden + ".json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(observed, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print(f"{path}: {len(observed)} fingerprints")
    return 0


if __name__ == "__main__":
    sys.exit(main())
