"""``repro-serve`` / ``repro-client`` — the experiment service CLIs.

::

    repro-serve [--store DB] [--host H] [--port P] [--port-file PATH]
                [--trace-log LOG.jsonl] [--workers N|auto] [--jobs N|auto]
                [--max-queue N|auto] [--job-deadline S] [--degraded]
                [--breaker-threshold K] [--breaker-cooldown S]
                [--drain-grace S] [--no-lease] [--lease-ttl S]
                [--cache-dir DIR] [--no-compile-cache]
    repro-client [--url URL] [--trace[=ID]] [--retries N] submit
                --benchmarks a,b --profiles x,y [--scale S]
                [--deadline S] [--wait] [--out FILE]
    repro-client status JOB | result JOB [--out FILE]
    repro-client trends [--benchmark B] [--profile P] [--metric M]
    repro-client stats | metrics | admin gc

The daemon owns one SQLite experiment store; repeated submissions of a
matrix already on record are served from it without compiling or running
anything.  ``--workers`` executes that many jobs concurrently, each in
its own isolated subprocess (identical in-flight submissions coalesce
onto one execution); ``--jobs`` is the per-collection cell fan-out.
The client deliberately refuses armed fault plans — memoized results
must stay perturbation-free.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from typing import List, Optional

DEFAULT_URL = "http://127.0.0.1:8642"


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


# ------------------------------------------------------------------ the daemon


def serve_main(argv: Optional[List[str]] = None) -> int:
    from ..parallel import add_execution_args, execution_from_args

    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="experiment daemon: submit benchmark matrices over HTTP; "
        "repeated cells are served from the SQLite result store",
    )
    parser.add_argument("--store", default=None, metavar="DB",
                        help="experiment store path (default: $REPRO_STORE "
                             "or experiments.sqlite)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642,
                        help="listen port; 0 binds an ephemeral port "
                             "(default: 8642)")
    parser.add_argument("--port-file", default=None, metavar="PATH",
                        help="write the bound port here once listening "
                             "(readiness signal for scripts/CI)")
    parser.add_argument("--trace-log", default=None, metavar="LOG.jsonl",
                        help="append every finished trace span to this JSONL "
                             "file (inspect with repro-trace)")
    parser.add_argument("--job-deadline", type=float, default=None, metavar="S",
                        help="default per-job wall-clock deadline in seconds; "
                             "also caps client-requested deadlines (default: "
                             "no default deadline, cap 3600s)")
    parser.add_argument("--degraded", action="store_true",
                        help="start in memo-only mode: serve warm cells from "
                             "the store, refuse cold work with 503")
    parser.add_argument("--breaker-threshold", type=int, default=5, metavar="K",
                        help="consecutive job-subprocess failures that trip "
                             "the breaker into memo-only mode (default: 5)")
    parser.add_argument("--breaker-cooldown", type=float, default=30.0,
                        metavar="S",
                        help="seconds an open breaker waits before admitting "
                             "a half-open probe job (default: 30)")
    parser.add_argument("--drain-grace", type=float, default=5.0, metavar="S",
                        help="seconds SIGTERM drain lets running jobs finish "
                             "before deadline-killing them (default: 5)")
    parser.add_argument("--no-lease", action="store_true",
                        help="skip the store writer lease (single-daemon "
                             "deployments only; concurrent writers can race)")
    parser.add_argument("--lease-ttl", type=float, default=None, metavar="S",
                        help="writer-lease expiry in seconds (default: 15); "
                             "a dead holder is taken over after this long")
    add_execution_args(parser, include_faults=False, include_workers=True)
    args = parser.parse_args(argv)
    execution = execution_from_args(args)

    from .daemon import ExperimentService, write_port_file

    try:
        service = ExperimentService(
            args.store,
            jobs=execution.jobs,
            workers=execution.workers,
            max_queue=execution.max_queue,
            cache_dir=execution.cache_dir,
            use_compile_cache=execution.use_compile_cache,
            trace_log=args.trace_log,
            job_deadline=args.job_deadline,
            degraded=args.degraded,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
            drain_grace=args.drain_grace,
            use_lease=not args.no_lease,
            lease_ttl=args.lease_ttl,
        )
    except ValueError as exc:
        raise SystemExit(f"repro-serve: {exc}")

    async def run() -> None:
        import signal

        loop = asyncio.get_running_loop()
        stop_event = asyncio.Event()
        try:
            loop.add_signal_handler(signal.SIGTERM, stop_event.set)
            loop.add_signal_handler(signal.SIGINT, stop_event.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-unix event loop: Ctrl-C still raises KeyboardInterrupt
        await service.start(args.host, args.port)
        host, port = service.address
        print(f"repro-serve: listening on http://{host}:{port} "
              f"(store {service.store_path}, workers {service.workers})",
              file=sys.stderr)
        if args.trace_log:
            print(f"repro-serve: tracing spans to {args.trace_log}",
                  file=sys.stderr)
        if service.swept_tmp_files:
            print(f"repro-serve: startup gc reaped {service.swept_tmp_files} "
                  "orphaned cache temp file(s)", file=sys.stderr)
        if args.port_file:
            write_port_file(args.port_file, port)
        serve_task = asyncio.ensure_future(service.serve_forever())
        stop_task = asyncio.ensure_future(stop_event.wait())
        try:
            await asyncio.wait(
                [serve_task, stop_task],
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            for task in (serve_task, stop_task):
                task.cancel()
        if stop_event.is_set():
            print("repro-serve: signal received, draining "
                  f"(grace {args.drain_grace:g}s)", file=sys.stderr)
            await service.drain()
            print("repro-serve: drained, exiting", file=sys.stderr)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


# ------------------------------------------------------------------ the client


def _client(args):
    from ..trace import new_trace_id
    from .client import ServiceClient

    trace_id = getattr(args, "trace", None)
    if trace_id == "":  # bare --trace: mint a fresh id
        trace_id = new_trace_id()
    if trace_id:
        print(f"repro-client: trace {trace_id}", file=sys.stderr)
    return ServiceClient(
        args.url,
        trace_id=trace_id,
        max_retries=getattr(args, "retries", 0) or 0,
        backoff_seed=os.getpid(),
    )


def cmd_submit(args) -> int:
    from ..parallel import execution_from_args
    from .client import ServiceError

    execution = execution_from_args(args)
    try:
        request = execution.as_request()
    except ValueError as exc:
        raise SystemExit(f"repro-client: {exc}")
    request.update(
        benchmarks=args.benchmarks,
        profiles=args.profiles,
        scale=args.scale,
        git_sha=args.git_sha,
    )
    if args.deadline is not None:
        request["deadline"] = args.deadline
    client = _client(args)
    try:
        job = client.submit(request)
        print(f"repro-client: job {job['id']} {job['status']}", file=sys.stderr)
        if not args.wait:
            print(_dump(job), end="")
            return 0
        job = client.wait(job["id"], timeout=args.timeout)
        if job["status"] != "done":
            print(f"repro-client: job {job['id']} failed: {job['error']}",
                  file=sys.stderr)
            return 1
        stats = job["stats"]
        print(
            f"repro-client: job {job['id']} done — {stats['hits']} served / "
            f"{stats['cells_executed']} executed of {stats['cells']} cells "
            f"({stats['compile_calls']} compiles)",
            file=sys.stderr,
        )
        artifact = client.result(job["id"])
    except ServiceError as exc:
        raise SystemExit(f"repro-client: {exc}")
    blob = _dump(artifact)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(blob)
        print(f"repro-client: wrote {args.out}", file=sys.stderr)
    else:
        print(blob, end="")
    return 0


def _timing_line(job: dict) -> str:
    """One human line of the job's lifecycle timing for stderr."""
    bits = [f"job {job['id']} {job['status']}"]
    if job.get("queue_position") is not None:
        bits.append(f"queue position {job['queue_position']}")
    if job.get("coalesced_with") is not None:
        bits.append(f"coalesced with job {job['coalesced_with']}")
    if job.get("queue_wait_seconds") is not None:
        bits.append(f"queued {job['queue_wait_seconds']:.3f}s")
    if job.get("run_seconds") is not None:
        bits.append(f"ran {job['run_seconds']:.3f}s")
    if job.get("trace_id"):
        bits.append(f"trace {job['trace_id']}")
    return ", ".join(bits)


def cmd_status(args) -> int:
    from .client import ServiceError

    try:
        payload = _client(args).status(args.job)
    except ServiceError as exc:
        raise SystemExit(f"repro-client: {exc}")
    print(f"repro-client: {_timing_line(payload)}", file=sys.stderr)
    print(_dump(payload), end="")
    return 0 if payload["status"] != "failed" else 1


def cmd_result(args) -> int:
    from .client import ServiceError

    try:
        artifact = _client(args).result(args.job)
    except ServiceError as exc:
        raise SystemExit(f"repro-client: {exc}")
    blob = _dump(artifact)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(blob)
        print(f"repro-client: wrote {args.out}", file=sys.stderr)
    else:
        print(blob, end="")
    return 0


def cmd_trends(args) -> int:
    from .client import ServiceError

    try:
        payload = _client(args).trends(
            benchmark=args.benchmark,
            profile=args.profile,
            ratio_base=args.ratio_base,
            metric=args.metric,
        )
    except ServiceError as exc:
        raise SystemExit(f"repro-client: {exc}")
    rows = payload["rows"]
    if args.json:
        print(_dump(payload), end="")
        return 0
    for row in rows:
        ratio = row.get("ratio")
        tail = (
            f"ratio {ratio:.3f}" if ratio is not None
            else f"value {row['value']:g}" if "value" in row
            else ""
        )
        cycles = f" {row['cycles']} cycles" if "cycles" in row else ""
        print(
            f"run {row['run']} ({row['git_sha'][:12]}) "
            f"{row['benchmark']}/{row['profile']}:{cycles} {tail}".rstrip()
        )
    if not rows:
        print("repro-client: no trend rows", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    from .client import ServiceError

    try:
        payload = _client(args).stats()
    except ServiceError as exc:
        raise SystemExit(f"repro-client: {exc}")
    print(_dump(payload), end="")
    return 0


def cmd_metrics(args) -> int:
    from .client import ServiceError

    try:
        text = _client(args).metrics()
    except ServiceError as exc:
        raise SystemExit(f"repro-client: {exc}")
    print(text, end="")
    return 0


def cmd_admin(args) -> int:
    from .client import ServiceError

    if args.admin_command == "gc":
        try:
            payload = _client(args).admin_gc()
        except ServiceError as exc:
            raise SystemExit(f"repro-client: {exc}")
        print(
            f"repro-client: gc reaped {payload['reaped_tmp_files']} orphaned "
            f"temp file(s) in {payload['cache_dir']}"
        )
        return 0
    raise SystemExit(f"repro-client: unknown admin command {args.admin_command!r}")


def build_client_parser() -> argparse.ArgumentParser:
    from ..parallel import add_execution_args

    parser = argparse.ArgumentParser(
        prog="repro-client",
        description="client for the repro-serve experiment daemon",
    )
    parser.add_argument("--url", default=os.environ.get("REPRO_SERVICE_URL",
                                                        DEFAULT_URL),
                        help="daemon base URL (default: $REPRO_SERVICE_URL "
                             f"or {DEFAULT_URL})")
    parser.add_argument("--trace", nargs="?", const="", default=None,
                        metavar="ID",
                        help="propagate X-Repro-Trace on every request; "
                             "bare --trace mints a fresh trace id, --trace ID "
                             "joins an existing trace")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="retry 429/503 admission rejections up to N "
                             "times with seeded exponential backoff honoring "
                             "the daemon's Retry-After (default: 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    submit = sub.add_parser("submit", help="queue a benchmark-matrix job")
    submit.add_argument("--benchmarks", default=None,
                        help="comma-separated graph-suite subset (default: all)")
    submit.add_argument("--profiles", default=None,
                        help="comma-separated runtime profiles (default: all)")
    submit.add_argument("--scale", type=float, default=1.0)
    submit.add_argument("--git-sha", default=None,
                        help="stamp this SHA instead of the daemon's HEAD")
    submit.add_argument("--deadline", type=float, default=None, metavar="S",
                        help="per-job wall-clock deadline in seconds; the "
                             "daemon caps it at its own --job-deadline / 1h "
                             "and kills the job's subprocess group on expiry")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes; print the artifact")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="--wait deadline in seconds (default: 600)")
    submit.add_argument("--out", default=None, metavar="FILE",
                        help="with --wait, write the artifact here")
    # same shared flags as every runner CLI; the service rejects fault
    # plans, so an armed --fault-* fails client-side before any HTTP
    add_execution_args(submit)
    submit.set_defaults(func=cmd_submit)

    status = sub.add_parser("status", help="one job's state and stats")
    status.add_argument("job", type=int)
    status.set_defaults(func=cmd_status)

    result = sub.add_parser("result", help="a finished job's BENCH artifact")
    result.add_argument("job", type=int)
    result.add_argument("--out", default=None, metavar="FILE")
    result.set_defaults(func=cmd_result)

    trends = sub.add_parser("trends", help="cross-run ratio ladder / metric history")
    trends.add_argument("--benchmark", default=None)
    trends.add_argument("--profile", default=None)
    trends.add_argument("--ratio-base", default=None,
                        help="ratio anchor profile (default: clr-1.1)")
    trends.add_argument("--metric", default=None,
                        help="flattened counter/gauge name instead of cycles")
    trends.add_argument("--json", action="store_true",
                        help="raw JSON rows instead of the ladder listing")
    trends.set_defaults(func=cmd_trends)

    stats = sub.add_parser("stats", help="service counters, compile stats, store counts")
    stats.set_defaults(func=cmd_stats)

    metrics = sub.add_parser(
        "metrics", help="raw GET /metrics text exposition (Prometheus format)"
    )
    metrics.set_defaults(func=cmd_metrics)

    admin = sub.add_parser("admin", help="daemon administration")
    admin.add_argument("admin_command", choices=["gc"],
                       help="gc: reap orphaned compile-cache temp files")
    admin.set_defaults(func=cmd_admin)
    return parser


_CLIENT_COMMANDS = {"submit", "status", "result", "trends", "stats",
                    "metrics", "admin"}


def client_main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i, tok in enumerate(argv):
        if tok in _CLIENT_COMMANDS:
            break
        if tok == "--trace":
            # argparse's nargs="?" would swallow a following subcommand
            # token as the trace id; rewrite bare --trace to --trace= so
            # ``repro-client --trace submit ...`` mints an id as documented
            nxt = argv[i + 1] if i + 1 < len(argv) else None
            if nxt is None or nxt in _CLIENT_COMMANDS or nxt.startswith("-"):
                argv[i] = "--trace="
            break
    args = build_client_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(serve_main())
