"""One repeat of one workload, in a fresh process.

Run by ``run.py``, never by hand.  The worker sets the workload up,
prints ``ready <slowdown>`` (the parent times set-up from spawn to that
line; the slowdown is the host's during set-up, see ``hostspeed.py``), then
runs whole passes while another one still fits in ``--seconds`` (always
at least one), runs the workload's final checks, and prints one JSON
result line.  ``--seconds 0`` stops after set-up.  ``--trace`` wraps
every layer boundary in span recorders (see ``spans.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

from hostspeed import SpeedMeter  # noqa: E402
from spans import END, NAME, START, Patches, SpanRecorder, install_layers  # noqa: E402
from workloads import WORKLOADS, sha256_json  # noqa: E402


def percentile(values, q: float) -> float:
    """The ``q``-th percentile, smoothed: the mean of the samples ranked
    within ``min(5, (100 - q) / 2)`` points of it.  Operation latencies
    come in clusters (``paper`` runs the same cells every pass), and a
    plain order statistic jumps from one cluster to the next when two
    samples near it swap places."""
    ordered = sorted(values)
    width = min(5.0, (100.0 - q) / 2) / 100.0
    low = math.floor((q / 100.0 - width) * len(ordered))
    high = max(low + 1, math.ceil((q / 100.0 + width) * len(ordered)))
    return statistics.fmean(ordered[max(0, low):high])


def tail_supported(count: int, q: float) -> bool:
    """At least ten samples lie beyond the ``q``-th percentile."""
    return count * (1.0 - q / 100.0) >= 10


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def summarize(workload, passes, recorder, meter, windows, traced, compile_calls) -> dict:
    """Metric values of one repeat, plus the sample counts behind them.
    Timings are put at reference speed by the host-speed meter over the
    interval each was measured in."""

    def norm(samples):
        return [meter.normalize(*sample) for sample in samples]

    walls = [sum(norm(p.phases)) for p in passes]
    ops = norm(op for p in passes for op in p.ops)
    timings, samples = {}, {}
    for p in passes:
        for key, values in p.timings.items():
            timings.setdefault(key, []).extend(norm(values))
        for key, values in p.samples.items():
            samples.setdefault(key, []).extend(values)
    measured = (windows[0][0], windows[-1][1])
    metrics = {
        "wall_s": statistics.median(walls),
        "op_p50_ms": percentile(ops, 50) * 1e3,
        "op_p90_ms": percentile(ops, 90) * 1e3,
        "ops_per_s": (len(ops) + sum(p.untimed_ops for p in passes)) / sum(walls),
        "peak_rss_mb": peak_rss_mb(),
        "error_rate": len(workload.failures) / max(1, workload.attempted),
        "host_slowdown": meter.slowdown(*measured),
        "raw_wall_s": statistics.median(sum(ph[0] for ph in p.phases) for p in passes),
    }
    counts = {"passes": len(passes), "ops": len(ops)}
    for name in ("serial_wall_s", "parallel_wall_s"):
        if name in timings:
            metrics[name] = statistics.median(timings[name])
    if "warm_s" in timings:
        warm, cold = timings["warm_s"], timings["cold_s"]
        counts.update(warm=len(warm), cold=len(cold))
        if warm:
            metrics["warm_p50_ms"] = percentile(warm, 50) * 1e3
            metrics["warm_p95_ms"] = percentile(warm, 95) * 1e3
        if cold:
            metrics["cold_p50_ms"] = percentile(cold, 50) * 1e3
            metrics["cold_p90_ms"] = percentile(cold, 90) * 1e3
        metrics["jobs_per_s"] = metrics["ops_per_s"]
        metrics["client_p50_ms"] = percentile(timings["client_s"], 50) * 1e3
    counts["unsupported_tails"] = [
        name for name, n, q in (
            ("op_p90_ms", len(ops), 90),
            ("warm_p95_ms", counts.get("warm", 0), 95),
            ("cold_p90_ms", counts.get("cold", 0), 90),
        ) if name in metrics and not tail_supported(n, q)
    ]
    if traced:
        slowdown = meter.slowdown(windows[0][0], time.perf_counter())
        # coverage is judged over the measured stretches, not the idling
        # the meter does around paused ones
        stretches = [(start, end) for p in passes for _seconds, start, end in p.phases]
        metrics.update(layer_metrics(recorder, timings, samples, stretches, slowdown,
                                     compile_calls))
    return {"metrics": metrics, "counts": counts}


def layer_metrics(recorder, timings, samples, stretches, slowdown, compile_calls) -> dict:
    """Span-derived layer metrics.  Self times are put at reference speed
    by the mean slowdown over the traced run."""
    calls = recorder.calls()
    out = {f"{layer}.self_s": seconds / slowdown
           for layer, seconds in sorted(recorder.self_times().items())}
    out["lang.compile.calls"] = compile_calls
    out["jit.methods"] = calls.get("jit.lower", 0)
    out["vm.build_ops.calls"] = calls.get("vm.build_ops", 0)
    out["vm.guest_instructions"] = recorder.counts.get("vm.guest_instructions", 0)

    def ratio(hits, misses):
        total = sum(samples[hits]) + sum(samples[misses])
        return sum(samples[hits]) / total if total else 0.0

    if "parallel.cache.hits" in samples:
        out["parallel.cache.hit_ratio"] = ratio("parallel.cache.hits", "parallel.cache.misses")
        out["store.hit_ratio"] = ratio("store.hits", "store.misses")
        out["parallel.efficiency"] = statistics.median(samples["parallel.efficiency"])
        for name in ("parallel.run_cells.wall_s", "parallel.cell_busy_s"):
            out[name] = statistics.median(timings[name])
    if "warm_s" in timings:
        for call in ("submit", "status", "result"):
            durations = [r[END] - r[START] for r in recorder.spans
                         if r[NAME] == f"service.{call}"]
            if durations:
                out[f"service.{call}.rtt_ms"] = percentile(durations, 50) * 1e3 / slowdown
        for name, key in (("service.queue_wait_ms", "queue_wait_s"),
                          ("service.warm_run_ms", "warm_run_s"),
                          ("service.cold_run_ms", "cold_run_s")):
            if timings[key]:
                out[name] = percentile(timings[key], 50) * 1e3
        out["service.coalesced"] = sum(samples["coalesced"])
        out["service.rejected"] = sum(samples["rejected"])
    traced = sum(end - start for start, end in stretches)
    covered = recorder.covered_seconds(stretches)
    out["trace.coverage"] = covered / traced
    out["trace.other_s"] = (traced - covered) / slowdown
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the traced spans to this JSONL file")
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    meter = SpeedMeter()
    meter.start()
    began = time.perf_counter()
    os.makedirs(args.work_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.work_dir)
    recorder = SpanRecorder()
    patches = Patches(recorder)
    workload = None
    try:
        from repro.lang.compiler import COMPILE_STATS

        workload = WORKLOADS[args.workload](args.seed, args.size, work_dir, recorder, meter)
        # the parent times set-up; this is the host's slowdown while it ran
        print(f"ready {meter.slowdown(began, time.perf_counter())!r}", flush=True)
        if args.seconds <= 0:
            return 0
        if args.trace:
            install_layers(patches)
        else:
            workload.install_timers(patches)
        compiles = COMPILE_STATS["compile_source_calls"]
        passes, windows = [], []
        while True:
            start = time.perf_counter()
            passes.append(workload.run_pass(len(passes)))
            windows.append((start, time.perf_counter()))
            elapsed = windows[-1][1] - windows[0][0]
            if elapsed + statistics.median(b - a for a, b in windows) > args.seconds:
                break
        workload.finish()
        compile_calls = COMPILE_STATS["compile_source_calls"] - compiles
        result = summarize(workload, passes, recorder, meter, windows, args.trace,
                           compile_calls)
    finally:
        restore_failures = patches.restore()
        if workload is not None:
            workload.close()
        meter.stop()
        shutil.rmtree(work_dir, ignore_errors=True)

    failures = list(workload.failures)
    if restore_failures:
        failures.append(f"not restored after the run: {', '.join(restore_failures)}")
    result.update({
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "attempted": workload.attempted,
        "failures": failures,
        "digest": sha256_json(passes[0].observed),
        "observed": passes[0].observed,
    })
    if args.spans:
        recorder.write_jsonl(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
