"""Wall-clock benchmark of the reproduction, end to end and per layer.

    PYTHONPATH=src python benchmarks/perf/run.py [--workload W] [--seed S]
        [--seconds T] [--repeats N] [--trace [0|1]] [--out DIR]

Runs one workload (or all four) from the root of a checkout.  Every
repeat runs in a fresh process (``worker.py``) with fresh compile-cache
and store directories under ``.perfbench-work/``, and with
``REPRO_DISPATCH`` and ``REPRO_CACHE_DIR`` unset, so the defaults are
measured.  A repeat runs whole passes of its workload for about
``--seconds`` (always at least one pass); timings are medians, put at
reference speed by the host-speed meter (``hostspeed.py``).

Without ``--trace`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace`` it holds the per-layer metrics of
one extra, traced repeat, and the untraced repeat gives the tracing
overhead.  Every metric is also printed by name with its unit.  The
exit code is 1 when any output is wrong (a failed check, a golden
fingerprint mismatch, a traced digest unlike the untraced one), 2 when
the program under test is missing.  ``--out`` writes ``results.json``
(and traced spans as JSONL) for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORK_DIR = os.path.join(ROOT, ".perfbench-work")

WORKLOADS = ("paper", "churn", "suite", "service")

#: extra set-ups per workload, so ``setup_s`` is a median of five
SETUP_PROBES = 4

#: a repeat that has not finished by then is killed, with its children
REPEAT_TIMEOUT = 170.0

#: metrics on the last line, in order: the benchmark's gated set
END_TO_END = ("setup_s", "wall_s", "op_p50_ms", "op_p90_ms", "ops_per_s", "peak_rss_mb")
PER_LAYER = (
    "lang.parse.self_s", "lang.typecheck.self_s", "lang.codegen.self_s",
    "cil.verify.self_s", "lang.compile.calls",
    "jit.lower.self_s", "jit.simplify.self_s", "jit.inline.self_s",
    "jit.quirks.self_s", "jit.boundscheck.self_s", "jit.enregister.self_s",
    "jit.finalize.self_s", "jit.compile.self_s", "jit.methods",
    "vm.run.self_s", "vm.build_ops.calls", "vm.guest_instructions",
    "trace.coverage", "trace.overhead_ratio",
)

COVERAGE_FLOOR = 0.95


def unit_of(name: str) -> str:
    if name.endswith(("_ms",)):
        return "ms"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_s", ".self_s")):
        return "s"
    if name.endswith(("ratio", "coverage", "efficiency", "error_rate", "slowdown")):
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_DISPATCH", None)
    env.pop("REPRO_CACHE_DIR", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(workload: str, args, seconds: float, trace: bool = False, spans=None):
    """Run one repeat; returns ``(setup seconds, result dict or None,
    error text or None)``.  Set-up is timed from spawn to ``ready``, and
    put at reference speed by the slowdown the worker measured."""
    command = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(seconds), "--size", args.size,
        "--work-dir", WORK_DIR,
    ]
    if trace:
        command.append("--trace")
    if spans:
        command += ["--spans", spans]
    started = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(REPEAT_TIMEOUT, kill_group)
    watchdog.start()
    try:
        setup = None
        last = ""
        for line in proc.stdout:
            if setup is None and line.startswith("ready "):
                # set-up at reference speed (see hostspeed.py)
                setup = (time.perf_counter() - started) / float(line.split()[1])
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        # the worker reaps its own children; this catches any it leaked
        kill_group()
    if code != 0:
        return setup, None, f"{workload} repeat exited with code {code}"
    if seconds <= 0:
        return setup, None, None
    try:
        return setup, json.loads(last), None
    except ValueError:
        return setup, None, f"{workload} repeat printed no result"


def run_workload(workload: str, args) -> dict:
    """Every repeat of one workload, and the metric values they give."""
    out = {"repeats": [], "setup_s": [], "errors": [], "failures": [], "attempted": 0}
    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setup, _result, error = spawn(workload, args, 0)
            if error:
                out["errors"].append(error)
            elif setup is not None:
                out["setup_s"].append(setup)
    for _ in range(args.repeats):
        setup, result, error = spawn(workload, args, untraced_seconds)
        if error:
            out["errors"].append(error)
            continue
        out["setup_s"].append(setup)
        out["repeats"].append(result)
    if args.trace:
        spans = os.path.join(args.out, f"{workload}.spans.jsonl") if args.out else None
        _setup, traced, error = spawn(workload, args, args.seconds / 2, trace=True, spans=spans)
        if error:
            out["errors"].append(error)
        out["traced"] = traced
    runs = out["repeats"] + ([out["traced"]] if out.get("traced") else [])
    for result in runs:
        out["attempted"] += result["attempted"]
        out["failures"] += result["failures"]
    if args.trace and out.get("traced") and out["repeats"]:
        digests = {r["digest"] for r in runs}
        if len(digests) != 1:
            out["failures"].append(f"{workload}: traced digest differs from the untraced one")
    out["metrics"] = aggregate(out, args.trace)
    return out


def aggregate(out: dict, trace: bool) -> dict:
    """Medians over repeats; the traced repeat gives the layer metrics."""
    metrics = {}
    if not trace and out["setup_s"]:
        metrics["setup_s"] = statistics.median(out["setup_s"])
    names = sorted({name for r in out["repeats"] for name in r["metrics"]})
    for name in names:
        values = [r["metrics"][name] for r in out["repeats"] if name in r["metrics"]]
        metrics[name] = statistics.median(values)
    traced = out.get("traced")
    if trace and traced:
        layers = dict(traced["metrics"])
        if "wall_s" in metrics:
            layers["trace.overhead_ratio"] = layers["wall_s"] / metrics["wall_s"]
        metrics = {name: value for name, value in layers.items()
                   if name not in metrics or name == "trace.overhead_ratio"}
    return metrics


def environment() -> dict:
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or sha
        except OSError:
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_sha": sha}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time per repeat (default 20)")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int, choices=(0, 1),
                        help="add a traced repeat and report per-layer metrics")
    parser.add_argument("--out", help="directory for results.json and traced spans")
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: the program under test is missing ({ROOT}/src/repro)",
              file=sys.stderr)
        return 2
    if args.out:
        os.makedirs(args.out, exist_ok=True)

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    gated = PER_LAYER if args.trace else END_TO_END
    final = {}
    correct, attempted, failed = True, 0, 0
    for workload, out in results.items():
        print(f"== {workload} (seed {args.seed}, {len(out['repeats'])} repeat(s)"
              f"{', traced' if args.trace else ''})")
        for name, value in out["metrics"].items():
            print(f"  {name:<28} {value:>16.6g} {unit_of(name)}")
        for result in out["repeats"][:1] + ([out["traced"]] if out.get("traced") else []):
            print(f"  samples: {json.dumps(result['counts'])}")
        coverage = out["metrics"].get("trace.coverage")
        if coverage is not None and coverage < COVERAGE_FLOOR:
            print(f"  warning: trace.coverage {coverage:.3f} < {COVERAGE_FLOOR}; "
                  f"other = {out['metrics']['trace.other_s']:.3f} s uncovered")
        out["errors"] += [f"{workload}: no {name}" for name in gated
                          if name not in out["metrics"]]
        for message in out["errors"] + out["failures"]:
            print(f"  FAILED: {message}")
        correct = correct and not (out["errors"] or out["failures"])
        attempted += out["attempted"]
        failed += len(out["failures"])
        prefix = "" if len(results) == 1 else f"{workload}."
        for name in gated:
            if name in out["metrics"]:
                final[prefix + name] = {"value": out["metrics"][name], "unit": unit_of(name)}

    if args.out:
        with open(os.path.join(args.out, "results.json"), "w", encoding="utf-8") as handle:
            json.dump({"env": environment(), "args": vars(args), "workloads": results},
                      handle, indent=1, sort_keys=True)
    if attempted == 0:
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": final}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
