"""``repro serve`` / ``repro client`` — the experiment service verbs.

::

    repro serve [--store DB] [--host H] [--port P] [--port-file PATH]
                [--trace-log LOG.jsonl] [--workers N|auto] [--jobs N|auto]
                [--max-queue N|auto] [--job-deadline S] [--degraded]
                [--breaker-threshold K] [--breaker-cooldown S]
                [--drain-grace S] [--no-lease] [--lease-ttl S]
                [--cache-dir DIR] [--no-compile-cache]
    repro client [--url URL] [--trace[=ID]] [--retries N] submit
                --benchmarks a,b --profiles x,y [--scale S]
                [--deadline S] [--wait] [--out FILE] [--jobs N|auto]
    repro client status JOB | result JOB [--out FILE]
    repro client trends [--benchmark B] [--profile P] [--metric M]
    repro client stats | metrics | admin gc

The daemon owns one SQLite experiment store; repeated submissions of a
matrix already on record are served from it without compiling or running
anything.  ``--workers`` executes that many jobs concurrently, each in
its own isolated subprocess (identical in-flight submissions coalesce
onto one execution); ``--jobs`` is the per-collection cell fan-out.
The client deliberately refuses armed fault plans — memoized results
must stay perturbation-free.
"""

from __future__ import annotations

import json
import os
import sys
from typing import List

DEFAULT_URL = "http://127.0.0.1:8642"


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


# ------------------------------------------------------------------ the daemon


def cmd_serve(args) -> int:
    import asyncio

    from ..parallel import execution_from_args
    from .daemon import ExperimentService, write_port_file

    execution = execution_from_args(args)
    try:
        service = ExperimentService(
            args.store,
            jobs=execution.jobs,
            workers=args.workers,
            max_queue=args.max_queue,
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


def cmd_client(args) -> int:
    """Run one ``repro client`` subcommand against the daemon; a
    :class:`ServiceError` (unreachable daemon, HTTP error) is a clean exit."""
    from ..trace import new_trace_id
    from .client import ServiceClient, ServiceError

    trace_id = args.trace
    if trace_id == "":  # bare --trace: mint a fresh id
        trace_id = new_trace_id()
    if trace_id:
        print(f"repro-client: trace {trace_id}", file=sys.stderr)
    client = ServiceClient(args.url, trace_id=trace_id,
                           max_retries=args.retries, backoff_seed=os.getpid())
    try:
        return args.handler(args, client)
    except ServiceError as exc:
        raise SystemExit(f"repro-client: {exc}")


def _emit(blob: str, out) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(blob)
        print(f"repro-client: wrote {out}", file=sys.stderr)
    else:
        print(blob, end="")


def cmd_submit(args, client) -> int:
    from ..parallel import execution_from_args

    try:
        request = execution_from_args(args).as_request()
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
    _emit(_dump(client.result(job["id"])), args.out)
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


def cmd_status(args, client) -> int:
    payload = client.status(args.job)
    print(f"repro-client: {_timing_line(payload)}", file=sys.stderr)
    print(_dump(payload), end="")
    return 0 if payload["status"] != "failed" else 1


def cmd_result(args, client) -> int:
    _emit(_dump(client.result(args.job)), args.out)
    return 0


def cmd_trends(args, client) -> int:
    from ..store.cli import format_trend_row

    payload = client.trends(
        benchmark=args.benchmark,
        profile=args.profile,
        metric=args.metric,
    )
    rows = payload["rows"]
    if args.json:
        print(_dump(payload), end="")
        return 0
    for row in rows:
        print(format_trend_row(row))
    if not rows:
        print("repro-client: no trend rows", file=sys.stderr)
    return 0


def cmd_stats(args, client) -> int:
    print(_dump(client.stats()), end="")
    return 0


def cmd_metrics(args, client) -> int:
    print(client.metrics(), end="")
    return 0


def cmd_admin(args, client) -> int:
    payload = client.admin_gc()  # "gc" is the only admin command
    print(
        f"repro-client: gc reaped {payload['reaped_tmp_files']} orphaned "
        f"temp file(s) in {payload['cache_dir']}"
    )
    return 0


_CLIENT_COMMANDS = {"submit", "status", "result", "trends", "stats",
                    "metrics", "admin"}


def mint_bare_trace(argv: List[str]) -> List[str]:
    """``repro client --trace <command>`` argv with the bare ``--trace``
    rewritten to ``--trace=``, so a fresh trace id is minted as documented:
    argparse's nargs="?" would otherwise swallow the command as the id."""
    argv = list(argv)
    for i, tok in enumerate(argv):
        if tok in _CLIENT_COMMANDS:
            break
        if tok == "--trace":
            nxt = argv[i + 1] if i + 1 < len(argv) else None
            if nxt is None or nxt in _CLIENT_COMMANDS or nxt.startswith("-"):
                argv[i] = "--trace="
            break
    return argv


def register(sub) -> None:
    """Declare ``repro serve`` and ``repro client ...`` on the root subparsers."""
    from ..parallel.execargs import (
        add_execution_args,
        add_fault_arguments,
        add_jobs_argument,
        add_matrix_arguments,
        add_trend_filters,
    )

    serve = sub.add_parser(
        "serve",
        help="experiment daemon: submit benchmark matrices over HTTP; "
        "repeated cells are served from the SQLite result store",
    )
    serve.add_argument("--store", default=None, metavar="DB",
                       help="experiment store path (default: $REPRO_STORE "
                            "or experiments.sqlite)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="listen port; 0 binds an ephemeral port "
                            "(default: 8642)")
    serve.add_argument("--port-file", default=None, metavar="PATH",
                       help="write the bound port here once listening "
                            "(readiness signal for scripts/CI)")
    serve.add_argument("--trace-log", default=None, metavar="LOG.jsonl",
                       help="append every finished trace span to this JSONL "
                            "file (inspect with repro trace)")
    serve.add_argument("--job-deadline", type=float, default=None, metavar="S",
                       help="default per-job wall-clock deadline in seconds; "
                            "also caps client-requested deadlines (default: "
                            "no default deadline, cap 3600s)")
    serve.add_argument("--degraded", action="store_true",
                       help="start in memo-only mode: serve warm cells from "
                            "the store, refuse cold work with 503")
    serve.add_argument("--breaker-threshold", type=int, default=5, metavar="K",
                       help="consecutive job-subprocess failures that trip "
                            "the breaker into memo-only mode (default: 5)")
    serve.add_argument("--breaker-cooldown", type=float, default=30.0,
                       metavar="S",
                       help="seconds an open breaker waits before admitting "
                            "a half-open probe job (default: 30)")
    serve.add_argument("--drain-grace", type=float, default=5.0, metavar="S",
                       help="seconds SIGTERM drain lets running jobs finish "
                            "before deadline-killing them (default: 5)")
    serve.add_argument("--no-lease", action="store_true",
                       help="skip the store writer lease (single-daemon "
                            "deployments only; concurrent writers can race)")
    serve.add_argument("--lease-ttl", type=float, default=None, metavar="S",
                       help="writer-lease expiry in seconds (default: 15); "
                            "a dead holder is taken over after this long")
    serve.add_argument("--workers", default=None, metavar="N",
                       help="concurrent job executions (int or 'auto' for one "
                            "per CPU; default: 1).  Each job runs in its own "
                            "isolated subprocess; identical in-flight "
                            "submissions coalesce onto one execution.")
    serve.add_argument("--max-queue", default=None, metavar="N",
                       help="admission bound on queued jobs (int, or 'auto' "
                            "for 4x workers; default: unbounded).  "
                            "Over-capacity submissions get a structured 429 "
                            "with a deterministic Retry-After instead of "
                            "growing the queue without bound.")
    add_execution_args(serve, include_faults=False)
    serve.set_defaults(func=cmd_serve)

    client = sub.add_parser(
        "client", help="client for the repro serve experiment daemon",
    )
    client.add_argument("--url", default=os.environ.get("REPRO_SERVICE_URL",
                                                        DEFAULT_URL),
                        help="daemon base URL (default: $REPRO_SERVICE_URL "
                             f"or {DEFAULT_URL})")
    client.add_argument("--trace", nargs="?", const="", default=None,
                        metavar="ID",
                        help="propagate X-Repro-Trace on every request; "
                             "bare --trace mints a fresh trace id, --trace ID "
                             "joins an existing trace")
    client.add_argument("--retries", type=int, default=0, metavar="N",
                        help="retry 429/503 admission rejections up to N "
                             "times with seeded exponential backoff honoring "
                             "the daemon's Retry-After (default: 0)")
    client.set_defaults(func=cmd_client)
    commands = client.add_subparsers(dest="command", required=True)

    submit = commands.add_parser("submit", help="queue a benchmark-matrix job")
    add_matrix_arguments(submit)
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
    # the daemon's own flags choose its compile cache, so submit takes no
    # cache options; it takes the fault flags only to refuse an armed
    # plan client-side, before any HTTP
    add_jobs_argument(submit)
    add_fault_arguments(submit)
    submit.set_defaults(handler=cmd_submit)

    status = commands.add_parser("status", help="one job's state and stats")
    status.add_argument("job", type=int)
    status.set_defaults(handler=cmd_status)

    result = commands.add_parser("result", help="a finished job's BENCH artifact")
    result.add_argument("job", type=int)
    result.add_argument("--out", default=None, metavar="FILE")
    result.set_defaults(handler=cmd_result)

    trends = commands.add_parser("trends", help="cross-run ratio ladder / metric history")
    add_trend_filters(trends)
    trends.set_defaults(handler=cmd_trends)

    commands.add_parser(
        "stats", help="service counters, compile stats, store counts"
    ).set_defaults(handler=cmd_stats)
    commands.add_parser(
        "metrics", help="raw GET /metrics text exposition (Prometheus format)"
    ).set_defaults(handler=cmd_metrics)

    admin = commands.add_parser("admin", help="daemon administration")
    admin.add_argument("admin_command", choices=["gc"],
                       help="gc: reap orphaned compile-cache temp files")
    admin.set_defaults(handler=cmd_admin)
