"""The experiment daemon: benchmark-as-a-service over the result store.

An :class:`ExperimentService` serves (benchmarks x profiles) matrices
over HTTP from one SQLite experiment store.  Each job collects its
matrix (:mod:`repro.metrics.baseline`) with the store attached, so cells
already on record are **served** (zero compiles, zero guest cycles) and
only novel cells execute; the artifact is byte-identical to a direct
serial run, the daemon-vs-direct identity invariant the tests pin.

This module is the I/O shell.  Every decision about a job — admission
(429 on a full queue, 503 while draining or memo-only), coalescing of
identical in-flight submissions, the queue, follower resolution, the
failure breaker, drain shedding — lives in the socket-free, clock-free
:class:`~repro.service.jobs.JobTable`.  The daemon keeps what needs
sockets, threads, processes or the store:

* the route table :data:`_ROUTES`; read endpoints draw from a
  :class:`~repro.store.StoreReadPool` of read-only WAL connections;
* ``workers`` drain tasks, each running one job at a time.  A job whose
  every cell is on record is served on its executor thread
  (:func:`_serve_in_process`): it executes and compiles nothing, so it
  has nothing to isolate and no deadline to police.  Every other job,
  and every job chaos armed, runs in **its own forked subprocess and
  process group** (:func:`_run_job_subprocess`): executing cells can
  wedge, crash or overrun a deadline, and touches process-global state
  (``COMPILE_STATS``, compile-cache writes); the worker reports its
  compile count over the pipe.  The shepherd polls the pipe in bounded
  steps and kills the group on deadline expiry or when the job's kill
  switch fires (drain, chaos ``job_kill``); every failure reaches the
  daemon as one :class:`JobFailed` with its ``kind``;
* the store's expiring writer lease (:mod:`repro.store.lease`), whose
  fencing token each job's append re-validates: a daemon that lost it
  gets ``lease-lost`` failures and runs memo-only until it re-acquires;
* graceful drain (SIGTERM in ``repro serve``), tracing and metrics.

Chaos is not here: a daemon built with a ``fault_plan`` makes one call
per job to :func:`repro.faults.service_chaos.inject`.  Job state mutates
only on the event-loop thread; executor threads serve a warm job or
shepherd a worker subprocess and touch no job state, so nothing needs
locking.

Every request is traced (:mod:`repro.trace`): ``X-Repro-Trace`` is
parsed off the wire (or minted), an ``http.request`` span roots each
request, and the context flows through the queue, the executor and the
worker subprocess, whose spans come back with its result — one
submission, one span tree.  ``GET /v1/traces/<id>`` serves spans and
``GET /metrics`` the registry in Prometheus text format; all of it is
wall-clock telemetry that never touches measured artifacts.
Connections close after each response unless the client asks for
keep-alive.  Standard library only: asyncio sockets, hand-rolled
HTTP/1.1 framing (:mod:`repro.service.http`), ``multiprocessing``
pipes, ``sqlite3``.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import math
import os
import re
import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Set

from ..metrics.exposition import EXPOSITION_CONTENT_TYPE, render_exposition
from ..metrics.registry import MetricsRegistry
from ..trace import (
    NULL_CONTEXT,
    TRACE_HEADER,
    JsonlSink,
    Span,
    TraceContext,
    Tracer,
    format_trace_header,
    new_span_id,
    new_trace_id,
    parse_trace_header,
)
from .http import HttpError, Request, format_response, read_request
from .jobs import JobTable, Now, Rejected

#: microsecond-scale latency buckets for the service histograms
#: (100us .. ~100s; jobs that execute cells land in the upper decades,
#: memo-served ones in the lower)
LATENCY_BUCKETS_US = (
    100, 1_000, 5_000, 25_000, 100_000, 500_000,
    2_000_000, 10_000_000, 30_000_000, 100_000_000,
)

#: hard ceiling on any job deadline when no service default caps it
DEADLINE_CAP_SECONDS = 3600.0

#: Retry-After is clamped to this window (seconds)
RETRY_AFTER_MIN, RETRY_AFTER_MAX = 1, 120

#: per-process service instance counter feeding lease holder identities
_INSTANCE_IDS = itertools.count(1)

#: why the daemon killed a job's subprocess group -> the job's error
_KILLS = {
    "deadline": "job exceeded its deadline; subprocess group (pid {pid}) "
                "killed",
    "drain": "daemon draining: running job's subprocess group (pid {pid}) "
             "killed after the drain budget",
    "fault": "chaos fault job_kill: subprocess group (pid {pid}) killed "
             "at start",
}


def _now() -> Now:
    return Now(time.time(), time.monotonic())


class JobFailed(Exception):
    """A job failure with its ``kind``: reported by the worker
    (``error`` | ``lease-lost``), a worker that died silently
    (``worker-death``), or a kill of the job's subprocess group
    (``deadline`` | ``drain`` | ``fault``, see :data:`_KILLS`).  The
    message is already formatted, so the daemon surfaces it verbatim."""

    def __init__(self, message: str, kind: str = "error"):
        super().__init__(message)
        self.kind = kind


class _KillSwitch(threading.Event):
    """Set to kill a running job's subprocess group; ``kind`` says why.
    The shepherd thread polls it between pipe polls."""

    kind = "drain"

    def fire(self, kind: str) -> None:
        self.kind = kind
        self.set()


def _job_trace(config: dict):
    """A local tracer and the job's context in it, rooted at the job's
    ``job.execute`` span; its spans travel back with the result."""
    tracer = Tracer()
    return tracer, TraceContext(
        tracer, config["trace_id"] or new_trace_id(), config["parent_span"]
    )


def _job_matrix(request: dict):
    """A job request's resolved ``(profiles, suite)``."""
    from ..metrics import baseline

    return (
        baseline.resolve_profiles(request["profiles"]),
        baseline.resolve_suite(request["benchmarks"], request["scale"]),
    )


def _payload(collection, tracer) -> dict:
    """A job's result as the daemon absorbs it (and a worker pickles it)."""
    return {
        "artifact": collection.artifact,
        "stats": dict(collection.store),
        "spans": [span.to_dict() for span in tracer.snapshot()],
    }


def _collect_in_worker(config: dict) -> dict:
    """The actual collection, running inside the job subprocess.

    Everything process-global is private here: ``COMPILE_STATS``, the
    compile cache writes, the store connection, and the compile count
    the collection measures around its execute step — which is what
    makes per-job compile accounting exact under daemon-level overlap.
    """
    from ..metrics import baseline
    from ..parallel import CompileCache
    from ..store import ExperimentStore

    request = config["request"]
    profiles, suite = _job_matrix(request)
    tracer, ctx = _job_trace(config)
    cache = (
        CompileCache(config["cache_dir"])
        if config["use_compile_cache"]
        else None
    )
    # memo-only jobs (degraded daemon / breaker open / lease lost) serve
    # warm cells through a read-only store handle and append nothing;
    # admission guaranteed every cell is a hit.  Normal jobs arm the
    # daemon's lease fence so an append after losing the lease aborts
    # inside the store transaction instead of interleaving with the
    # new holder's writes.
    memo_only = bool(config.get("memo_only"))
    lease = config.get("lease")
    with ExperimentStore(config["store_path"], read_only=memo_only) as store:
        if lease is not None and not memo_only:
            store.set_write_fence(lease["holder"], lease["token"])
        collection = baseline.run_collection(
            profiles=profiles,
            suite=suite,
            scale=request["scale"],
            git_sha=request["git_sha"],
            jobs=config["jobs"],
            cache=cache,
            store=store,
            trace=ctx,
            record=not memo_only,
        )
    return _payload(collection, tracer)


def _serve_in_process(config: dict, read_pool) -> Optional[dict]:
    """Serve a job whose every cell is on record without a fork; None
    when any cell misses (the job then forks).

    Runs on an executor thread and executes nothing: the cells are
    looked up on a read-pool connection, and a served collection
    compiles nothing by construction.  A normal job appends its run row
    through a write handle of its own with the daemon's lease fence
    armed; a memo-only job records nothing.  A fenced append that finds
    the lease lost fails as ``lease-lost``, as in a forked worker.

    All of it holds ``FORK_LOCK``: a job forked while this thread is
    inside SQLite would inherit the store's write lock or one of
    SQLite's process-wide mutexes held, and hang or fail with
    ``database is locked``.
    """
    from ..metrics import baseline
    from ..store import ExperimentStore, LeaseLost, lease

    request = config["request"]
    profiles, suite = _job_matrix(request)
    tracer, ctx = _job_trace(config)
    stamp = {"scale": request["scale"], "git_sha": request["git_sha"]}
    with lease.FORK_LOCK:
        with read_pool.connection() as reader:
            found = baseline.Lookup(profiles, suite, reader, ctx)
        if not found.warm:
            return None
        if config["memo_only"]:
            return _payload(baseline.serve(found, trace=ctx, **stamp), tracer)
        with ExperimentStore(config["store_path"]) as writer:
            if config["lease"] is not None:
                writer.set_write_fence(
                    config["lease"]["holder"], config["lease"]["token"]
                )
            try:
                collection = baseline.serve(
                    found, record_to=writer, trace=ctx, **stamp
                )
            except LeaseLost as exc:
                raise JobFailed(f"{type(exc).__name__}: {exc}", "lease-lost")
        return _payload(collection, tracer)


def _job_worker(conn, config: dict) -> None:
    """Subprocess entry point: run the collection, ship one message back.

    First act: become a process-group leader, so a deadline/drain kill of
    this job's group reaps every pool worker it forks, never the daemon.
    Failures travel back structured (``{"kind", "message"}``) so the
    daemon can attribute them — a lost lease is ``lease-lost``, anything
    else is ``error``.
    """
    if hasattr(os, "setpgid"):
        try:
            os.setpgid(0, 0)
        except OSError:
            pass
    try:
        message = ("ok", _collect_in_worker(config))
    except BaseException as exc:  # noqa: BLE001 — job isolation boundary
        from ..store.lease import LeaseLost

        kind = "lease-lost" if isinstance(exc, LeaseLost) else "error"
        message = (
            "error",
            {"kind": kind, "message": f"{type(exc).__name__}: {exc}"},
        )
    try:
        conn.send(message)
    finally:
        conn.close()


def _reap_job_process(proc, grace: float = 2.0) -> None:
    """Reap one job subprocess, escalating to a process-group SIGKILL.

    ``join(grace)`` first (a cleanly-exiting child costs nothing); a
    child still alive after the grace — or an intentional kill
    (``grace <= 0``) — gets SIGKILL on its *group*: the job leads its own
    pgid (both sides call ``setpgid``), so pool workers it forked die
    with it instead of orphaning.  Every path ends in ``join()``, so no
    zombie outlives the shepherd thread.
    """
    if proc.pid is None:
        return
    escalate = grace <= 0
    if not escalate:
        proc.join(grace)
        escalate = proc.is_alive()
    if escalate:
        if hasattr(os, "killpg"):
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError, OSError):
                pass
        if proc.is_alive():
            proc.kill()
        proc.join(5.0)
    else:
        proc.join()


def _run_job_subprocess(config: dict) -> dict:
    """Run one job in a fresh subprocess; return its result payload.

    Runs on an executor thread.  Fork context where available (same
    choice as the cell pool); the pipe carries exactly one message.  The
    shepherd never blocks on the pipe: it polls in bounded steps,
    checking the job's kill switch and deadline between polls, so a
    stuck pipe (wedged worker) can never wedge a drain task.  A worker
    that dies without reporting (OOM-kill, hard crash) surfaces as a
    structured job failure, not a daemon crash.

    Shepherd-only keys (stripped before the child sees the config):
    ``_deadline`` (monotonic expiry) and ``_kill`` (the job's
    :class:`_KillSwitch`).
    """
    from ..parallel.pool import _pool_context
    from ..store import lease

    deadline = config.pop("_deadline", None)
    kill = config.pop("_kill", None)

    ctx = _pool_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_job_worker, args=(child_conn, config))
    # never fork while another thread holds the store's write lock in a
    # lease transaction: the child would inherit a phantom writer
    with lease.FORK_LOCK:
        proc.start()
    child_conn.close()
    # parent-side half of the both-sides setpgid idiom: whichever of
    # parent/child runs first makes the child a group leader, so the
    # kill path below can target the group race-free
    if hasattr(os, "setpgid"):
        try:
            os.setpgid(proc.pid, proc.pid)
        except OSError:
            pass
    killed: Optional[str] = None
    kind = payload = None
    try:
        while True:
            if kill is not None and kill.is_set():
                killed = kill.kind
            elif deadline is not None and time.monotonic() >= deadline:
                killed = "deadline"
            if killed is not None:
                _reap_job_process(proc, grace=0.0)
                break
            try:
                if parent_conn.poll(0.05):
                    kind, payload = parent_conn.recv()
                    break
            except (EOFError, OSError):
                break
            if not proc.is_alive():
                # drain any message flushed just before the child exited
                try:
                    if parent_conn.poll(0):
                        kind, payload = parent_conn.recv()
                except (EOFError, OSError):
                    pass
                break
    finally:
        parent_conn.close()
        _reap_job_process(proc)
    if killed is not None:
        raise JobFailed(_KILLS[killed].format(pid=proc.pid), killed)
    if kind is None:
        raise JobFailed(
            f"job worker (pid {proc.pid}) died without reporting "
            f"a result (exit code {proc.exitcode})",
            "worker-death",
        )
    if kind != "ok":
        raise JobFailed(payload["message"], payload["kind"])
    return payload


def _coalesce_key(cell_keys, git_sha) -> str:
    """The submission-identity digest: the sorted content-addressed cell
    keys (already covering compiler version, profile, benchmark and
    resolved params) plus the git SHA stamp, which lives in the artifact
    but not in any cell key.  Two submissions with equal digests are
    guaranteed byte-identical artifacts — the precondition that makes
    coalescing a pure optimization."""
    digest = hashlib.sha256()
    for key in sorted(cell_keys):
        digest.update(key.encode())
        digest.update(b"\x00")
    digest.update(f"git:{git_sha!r}".encode())
    return digest.hexdigest()


#: (method, path pattern, handler method); the first full match routes
#: the request, after any trailing ``/`` is stripped from its path
_ROUTES = [
    (method, re.compile(pattern), handler)
    for method, pattern, handler in (
        ("GET", "/healthz", "_healthz"),
        ("GET", "/metrics", "_metrics"),
        ("POST", "/v1/jobs", "_post_job"),
        ("GET", "/v1/jobs", "_list_jobs"),
        ("GET", "/v1/jobs/(.*)/result", "_job_result"),
        ("GET", "/v1/jobs/(.*)", "_job_status"),
        ("GET", "/v1/traces", "_list_traces"),
        ("GET", "/v1/traces/(.*)", "_one_trace"),
        ("GET", "/v1/stats", "_stats"),
        ("GET", "/v1/trends", "_trends"),
        ("POST", "/v1/admin/gc", "_admin_gc"),
    )
]


class ExperimentService:
    """One daemon instance: an HTTP front end over a store-backed queue."""

    def __init__(
        self,
        store_path: Optional[str] = None,
        *,
        jobs=None,
        workers=None,
        cache_dir: Optional[str] = None,
        use_compile_cache: bool = True,
        registry: Optional[MetricsRegistry] = None,
        trace_log: Optional[str] = None,
        max_queue=None,
        job_deadline: Optional[float] = None,
        degraded: bool = False,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 30.0,
        drain_grace: float = 5.0,
        use_lease: bool = True,
        lease_ttl: Optional[float] = None,
        fault_plan=None,
    ):
        from ..parallel import resolve_jobs
        from ..store import DEFAULT_LEASE_TTL, default_store_path

        self.store_path = store_path or default_store_path()
        self.jobs = jobs
        #: concurrent job executions (``--workers``): N drain tasks over
        #: one queue, each job in its own subprocess
        self.workers = resolve_jobs(workers)
        self.cache_dir = cache_dir
        self.use_compile_cache = use_compile_cache
        #: admission bound on *queued* (not running) jobs; None =
        #: unbounded, "auto" = 4x workers
        if isinstance(max_queue, str):
            text = max_queue.strip().lower()
            if text == "auto":
                max_queue = 4 * self.workers
            else:
                try:
                    max_queue = int(text)
                except ValueError:
                    raise ValueError(f"bad max_queue {max_queue!r}") from None
        if max_queue is not None:
            max_queue = int(max_queue)
            if max_queue < 1:
                raise ValueError("max_queue must be >= 1")
        self.max_queue: Optional[int] = max_queue
        self.table = JobTable(
            max_queue, int(breaker_threshold), float(breaker_cooldown)
        )
        #: default job deadline (seconds) — also the cap on client
        #: overrides; None = no default, overrides capped at
        #: DEADLINE_CAP_SECONDS
        self.job_deadline = None if job_deadline is None else float(job_deadline)
        self.deadline_cap = (
            self.job_deadline
            if self.job_deadline is not None
            else DEADLINE_CAP_SECONDS
        )
        #: operator-forced memo-only mode (vs breaker/lease, which trip it
        #: automatically)
        self.degraded = bool(degraded)
        self.drain_grace = float(drain_grace)
        self.use_lease = bool(use_lease)
        self.lease_ttl = float(lease_ttl) if lease_ttl else DEFAULT_LEASE_TTL
        #: this daemon's lease holder identity — per *instance*, not per
        #: process: two services in one process (tests, embedders) must
        #: not mistake each other's lease for a self-renewal
        self.holder_id = (
            f"{socket.gethostname()}:{os.getpid()}:{next(_INSTANCE_IDS)}"
        )
        #: optional FaultPlan with service sites armed (chaos harness
        #: only; request-level fault plans are still rejected with 409)
        self.fault_plan = fault_plan
        self._rejected: Dict[str, int] = {}
        self._lease = None
        self._lease_held = False
        self._lease_attempts = 0
        self._lease_task: Optional[asyncio.Task] = None
        self.registry = registry if registry is not None else MetricsRegistry()
        self._trace_sink = JsonlSink(trace_log) if trace_log else None
        self.tracer = Tracer(
            sinks=(self._trace_sink,) if self._trace_sink else ()
        )
        #: released once per queued job; a drain task acquires it, then
        #: starts the table's next pending job (if drain has not shed it)
        self._ready = asyncio.Semaphore(0)
        #: kill switch of each running forked job, by job id
        self._kills: Dict[int, _KillSwitch] = {}
        #: daemon-owned compile accounting: the sum of per-job deltas the
        #: workers report — never a snapshot of any process-global
        self._compile_totals: Dict[str, int] = {"compile_source_calls": 0}
        self._server: Optional[asyncio.AbstractServer] = None
        self._drainers: List[asyncio.Task] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._read_pool = None
        self._connections: Set[object] = set()
        self._started_monotonic: Optional[float] = None
        self.swept_tmp_files = 0
        self.journal_mode: Optional[str] = None
        # register the service gauges/histograms/counters up front so a
        # fresh daemon's /metrics already carries the full instrument set
        for name in ("queue_depth", "inflight", "draining", "lease_held"):
            self.registry.gauge(f"service.{name}")
        self.registry.gauge("service.breaker_open").set(0)
        for name in (
            "coalesced_total", "rejected_total", "shed_total",
            "deadline_kills", "drain_kills", "breaker_trips",
            "lease_lost_total", "fault_injections", "jobs_in_process",
        ):
            self.registry.counter(f"service.{name}")
        for name in ("http_latency_us", "job_queue_wait_us", "job_exec_us"):
            self.registry.histogram(f"service.{name}", LATENCY_BUCKETS_US)

    # ------------------------------------------------------------- lifecycle

    def _cache(self):
        if not self.use_compile_cache:
            return None
        from ..parallel import CompileCache

        return CompileCache(self.cache_dir)

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind the listener (port 0 = ephemeral), run startup GC, apply
        store migrations, and start the drain tasks."""
        cache = self._cache()
        if cache is not None:
            # reap compile-cache temp files orphaned by previously killed
            # writers, so a crashed run never bloats the daemon's cache
            self.swept_tmp_files = cache.sweep()
        from ..store import ExperimentStore, StoreReadPool

        # create / migrate / switch to WAL up front, then warm the
        # read-only pool the query endpoints draw from
        store = ExperimentStore(self.store_path)
        self.journal_mode = store.journal_mode
        store.close()
        self._read_pool = StoreReadPool(
            self.store_path, size=max(2, self.workers)
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-job"
        )
        if self.use_lease:
            from ..store import WriterLease

            self._lease = WriterLease(
                self.store_path, holder=self.holder_id, ttl=self.lease_ttl
            )
            self._lease_held = self._lease.try_acquire()
            self.registry.gauge("service.lease_held").set(
                1 if self._lease_held else 0
            )
            self._lease_task = asyncio.ensure_future(self._lease_loop())
        self._server = await asyncio.start_server(self._serve_one, host, port)
        self._drainers = [
            asyncio.ensure_future(self._drain_jobs())
            for _ in range(self.workers)
        ]
        self._started_monotonic = time.monotonic()

    @property
    def address(self):
        """``(host, port)`` actually bound (resolves port 0)."""
        if self._server is None:
            raise RuntimeError("service not started")
        return self._server.sockets[0].getsockname()[:2]

    async def stop(self) -> None:
        tasks = self._drainers + [t for t in (self._lease_task,) if t]
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._drainers, self._lease_task = [], None
        if self._lease is not None:
            try:
                if self._lease_held:
                    self._lease.release()
            finally:
                self._lease.close()
                self._lease = None
                self._lease_held = False
                self.registry.gauge("service.lease_held").set(0)
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        # keep-alive clients may still hold connections open; close them
        # so stop() never blocks on an idle peer
        for writer in list(self._connections):
            writer.close()
        self._connections.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._read_pool is not None:
            self._read_pool.close()
            self._read_pool = None
        if self._trace_sink is not None:
            self._trace_sink.close()
            self._trace_sink = None

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("service not started")
        await self._server.serve_forever()

    # --------------------------------------------------------- writer lease

    async def _lease_loop(self) -> None:
        """Hold the writer lease: renew at ttl/3 while held; when lost,
        retry acquisition on the deterministic jittered backoff schedule
        (memo-only mode covers the gap)."""
        loop = asyncio.get_event_loop()
        while self._lease is not None:
            if self._lease_held:
                await asyncio.sleep(self.lease_ttl / 3.0)
                if self._lease is None:
                    return
                ok = await loop.run_in_executor(None, self._lease.renew)
                if not ok:
                    self._note_lease_lost()
            else:
                delay = self._lease.backoff_delay(self._lease_attempts)
                self._lease_attempts += 1
                await asyncio.sleep(delay)
                if self._lease is None:
                    return
                ok = await loop.run_in_executor(None, self._lease.try_acquire)
                if ok:
                    self._lease_held = True
                    self._lease_attempts = 0
                    self.registry.gauge("service.lease_held").set(1)

    def _note_lease_lost(self) -> None:
        """Event-loop-thread bookkeeping for a lost lease (a refused
        renewal, or a job whose fenced append failed): stop fencing new
        appends (memo-only until re-acquired), count it, and let the
        lease loop race for re-acquisition."""
        if not self._lease_held:
            return
        self._lease_held = False
        self._lease_attempts = 0
        self.registry.counter("service.lease_lost_total").add(1)
        self.registry.gauge("service.lease_held").set(0)

    # ------------------------------------------------------ graceful drain

    def begin_drain(self) -> None:
        """Stop admission *now* and shed every queued job with a
        structured ``shed`` failure (their result polls answer 503).
        Running jobs keep running — :meth:`drain` bounds them."""
        if self.table.draining:
            return
        self.registry.gauge("service.draining").set(1)
        shed = self.table.shed_all(_now())
        self.registry.counter("service.shed_total").add(len(shed))
        self._refresh_gauges()

    async def drain(self, grace: Optional[float] = None) -> None:
        """Graceful shutdown: stop admission, shed the queue, give
        running jobs up to ``grace`` seconds (default ``drain_grace``),
        kill the stragglers' subprocess groups, flush trace sinks,
        release the lease, stop the server."""
        grace = self.drain_grace if grace is None else float(grace)
        self.begin_drain()
        deadline = time.monotonic() + max(0.0, grace)
        while self.table.inflight and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        if self.table.inflight:
            for kill in self._kills.values():
                kill.fire("drain")
                self.registry.counter("service.drain_kills").add(1)
            # the kill switch is polled every 50ms by the shepherds; give
            # the kill+reap path a bounded window to come home
            hard = time.monotonic() + 30.0
            while self.table.inflight and time.monotonic() < hard:
                await asyncio.sleep(0.05)
        self.tracer.flush()
        await self.stop()

    # ------------------------------------------------------------ admission

    def _retry_after(self) -> int:
        """Deterministic Retry-After: how long until the backlog ahead of
        a new submission drains, from queue depth and the measured mean
        job execution latency (1s when no job has completed yet), clamped
        to [1, 120] seconds."""
        hist = self.registry.histogram("service.job_exec_us", LATENCY_BUCKETS_US)
        mean_s = (hist.mean / 1e6) if hist.count else 1.0
        mean_s = max(mean_s, 0.001)
        depth = len(self.table.pending) + self.table.inflight + 1
        estimate = math.ceil(depth * mean_s / max(1, self.workers))
        return max(RETRY_AFTER_MIN, min(RETRY_AFTER_MAX, estimate))

    def _memo_only_reason(self) -> Optional[str]:
        """Why cold work is currently refused (None = full service).
        ``degraded`` is operator-forced; ``lease`` means another daemon
        holds the store's writer lease; ``breaker`` means consecutive
        job-subprocess failures tripped it (half-open after the
        cooldown, when cold probes are admitted again)."""
        if self.degraded:
            return "degraded"
        if self.use_lease and self._lease is not None and not self._lease_held:
            return "lease"
        if self.table.breaker_state(time.monotonic()) == "open":
            return "breaker"
        return None

    def _all_cells_warm(self, cell_keys) -> bool:
        """Memo-only admission check: is every cell already on record?"""
        with self._read_pool.connection() as store:
            return all(store.has_live(key) for key in cell_keys)

    def _submit(self, request: dict, ctx=NULL_CONTEXT) -> dict:
        """Validate one submission (400/409) and hand it to the job table;
        a refusal becomes a structured, Retry-After-bearing 429/503."""
        from ..metrics import baseline

        if request.get("plan") or request.get("faults"):
            raise HttpError(
                409,
                "the service does not accept fault plans: memoized results "
                "must stay perturbation-free (run repro chaos directly)",
            )
        scale = request.get("scale", 1.0)
        if not isinstance(scale, (int, float)) or isinstance(scale, bool):
            raise HttpError(400, f"bad scale {scale!r}")
        # older clients send "dispatch": null; an engine name is refused
        # rather than silently ignored
        if request.get("dispatch") is not None:
            raise HttpError(
                400,
                f"bad dispatch {request['dispatch']!r}: the dispatch field "
                "was removed (every job runs the one engine)",
            )
        try:
            profiles = baseline.resolve_profiles(request.get("profiles"))
            suite = baseline.resolve_suite(request.get("benchmarks"), float(scale))
        except ValueError as exc:
            raise HttpError(400, str(exc))
        deadline = request.get("deadline")
        if deadline is not None:
            if (
                not isinstance(deadline, (int, float))
                or isinstance(deadline, bool)
                or float(deadline) <= 0
            ):
                raise HttpError(400, f"bad deadline {deadline!r}")
            # client-overridable but capped: the service default (when
            # set) is the ceiling, else the global cap
            deadline = min(float(deadline), self.deadline_cap)
        else:
            deadline = self.job_deadline
        from ..store import cell_key

        git_sha = request.get("git_sha")
        cell_keys = [
            cell_key(name, profile.name, overrides=params or None)
            for name, params in suite
            for profile in profiles
        ]
        try:
            job = self.table.submit(
                {
                    "benchmarks": [name for name, _params in suite],
                    "profiles": [p.name for p in profiles],
                    "scale": float(scale),
                    "git_sha": git_sha,
                },
                _coalesce_key(cell_keys, git_sha),
                _now(),
                deadline=deadline,
                trace_id=ctx.trace_id,
                submit_span=ctx.span_id,
                refuse_cold=self._memo_only_reason(),
                warm=lambda: self._all_cells_warm(cell_keys),
            )
        except Rejected as exc:
            self.registry.counter("service.rejected_total").add(1)
            self._rejected[exc.reason] = self._rejected.get(exc.reason, 0) + 1
            retry = self._retry_after()
            raise HttpError(
                exc.status,
                str(exc),
                headers={"Retry-After": str(retry)},
                reason=exc.reason,
                retry_after=retry,
                **exc.fields,
            ) from None
        if job["coalesced_with"] is not None:
            self.registry.counter("service.coalesced_total").add(1)
            if job["trace_id"] is not None:
                self._job_context(job).event(
                    "job.coalesced", job=job["id"], primary=job["coalesced_with"]
                )
        else:
            self._ready.release()
        self.registry.counter("service.jobs").add(1)
        self._refresh_gauges()
        return job

    # ------------------------------------------------------------- job queue

    def _refresh_gauges(self) -> None:
        self.registry.gauge("service.queue_depth").set(len(self.table.pending))
        self.registry.gauge("service.inflight").set(self.table.inflight)

    def _job_context(self, job: dict) -> TraceContext:
        """The trace position job-lifecycle spans hang off — the submit
        request's span when the submission carried one."""
        if job["trace_id"] is None:
            return self.tracer.context()
        return self.tracer.context(
            trace_id=job["trace_id"], parent_id=job["submit_span"]
        )

    def _job_config(self, job: dict, ctx, kill: _KillSwitch) -> dict:
        """Everything a job needs, as plain data (a forked worker gets
        it pickled) — plus the shepherd-only ``_``-prefixed keys the
        executor thread strips before the child sees the config."""
        config = {
            "request": dict(job["request"]),
            "store_path": self.store_path,
            "jobs": self.jobs,
            "cache_dir": self.cache_dir,
            "use_compile_cache": self.use_compile_cache,
            "trace_id": job["trace_id"],
            "parent_span": getattr(ctx, "span_id", None),
            "memo_only": job["memo_only"],
            "lease": (
                {"holder": self._lease.holder, "token": self._lease.token}
                if self._lease is not None
                and self._lease_held
                and self._lease.token is not None
                else None
            ),
            "_kill": kill,
        }
        if job["deadline_seconds"] is not None:
            config["_deadline"] = (
                time.monotonic() + float(job["deadline_seconds"])
            )
        return config

    def _absorb_result(self, job: dict, payload: dict, span) -> None:
        """Fold one worker payload into daemon state (event-loop thread):
        adopt the worker's spans, stats and artifact, accumulate the
        daemon-owned compile totals, bump the service counters."""
        for data in payload.get("spans", ()):
            self.tracer.ingest(Span.from_dict(data))
        stats = payload["stats"]
        job["stats"] = stats
        job["artifact"] = payload["artifact"]
        span.set(
            cells=stats["cells"],
            hits=stats["hits"],
            compile_calls=stats["compile_calls"],
        )
        self._compile_totals["compile_source_calls"] += stats["compile_calls"]
        self.registry.counter("service.cells").add(stats["cells"])
        self.registry.counter("service.cache_hits").add(stats["hits"])
        self.registry.counter("service.cache_misses").add(stats["misses"])
        self.registry.counter("service.cells_executed").add(
            stats["cells_executed"]
        )

    async def _drain_jobs(self) -> None:
        loop = asyncio.get_event_loop()
        while True:
            await self._ready.acquire()
            now = _now()
            job = self.table.start(now)
            if job is None:
                continue  # shed while queued (drain) — already resolved
            queue_wait = now.mono - job["submitted_monotonic"]
            self._refresh_gauges()
            ctx = self._job_context(job)
            ctx.record(
                "job.queue_wait",
                t0=job["submitted_monotonic"],
                dur=queue_wait,
                job=job["id"],
                track="queue",
            )
            self.registry.histogram(
                "service.job_queue_wait_us", LATENCY_BUCKETS_US
            ).observe(queue_wait * 1e6)
            kill = _KillSwitch()
            failure = None
            try:
                if self.fault_plan is not None:
                    from ..faults.service_chaos import inject

                    # keyed by job id through the seeded plan, so a
                    # campaign is reproducible
                    job["fault_site"] = await loop.run_in_executor(
                        None, inject, self.fault_plan, job["id"],
                        self.store_path, self.lease_ttl, kill.fire,
                    )
                    if job["fault_site"] is not None:
                        self.registry.counter("service.fault_injections").add(1)
                with ctx.child(
                    "job.execute", job=job["id"], track="executor"
                ) as span:
                    config = self._job_config(job, span, kill)
                    payload = None
                    if job["fault_site"] is None:
                        payload = await loop.run_in_executor(
                            self._executor, _serve_in_process, config,
                            self._read_pool,
                        )
                    if payload is None:
                        self._kills[job["id"]] = kill
                        payload = await loop.run_in_executor(
                            self._executor, _run_job_subprocess, config
                        )
                    else:
                        self.registry.counter("service.jobs_in_process").add(1)
                    self._absorb_result(job, payload, span)
            except Exception as exc:  # noqa: BLE001 — job isolation boundary
                if isinstance(exc, JobFailed):
                    kind, detail = exc.kind, str(exc)
                else:
                    kind, detail = "error", f"{type(exc).__name__}: {exc}"
                # a chaos kill counts as a worker death, which the breaker
                # counts — that is how chaos exercises the breaker
                failure = {
                    "kind": "worker-death" if kind == "fault" else kind,
                    "detail": detail,
                }
                if kind == "deadline":
                    failure["deadline_seconds"] = job["deadline_seconds"]
                    self.registry.counter("service.deadline_kills").add(1)
                if job["fault_site"] is not None:
                    failure["fault"] = job["fault_site"]
                if kind in _KILLS:
                    ctx.event(
                        "job.killed", job=job["id"], kind=kind,
                        fault=job["fault_site"],
                    )
                if kind == "lease-lost":
                    self._note_lease_lost()
                self.registry.counter("service.job_failures").add(1)
            finally:
                self._kills.pop(job["id"], None)
            if self.table.finish(job, _now(), failure):
                self.registry.counter("service.breaker_trips").add(1)
            self.registry.gauge("service.breaker_open").set(
                0 if self.table.breaker_opened is None else 1
            )
            self._refresh_gauges()
            self.registry.histogram(
                "service.job_exec_us", LATENCY_BUCKETS_US
            ).observe(
                (job["finished_monotonic"] - job["started_monotonic"]) * 1e6
            )

    # ---------------------------------------------------------------- routes

    def _handle(self, request: Request, ctx=NULL_CONTEXT):
        """Route one request through :data:`_ROUTES`; returns ``(status,
        payload)`` or ``(status, payload, content_type)`` for non-JSON
        bodies."""
        path = request.path.rstrip("/") or "/"
        for method, pattern, handler in _ROUTES:
            match = pattern.fullmatch(path)
            if match is not None and method == request.method:
                return getattr(self, handler)(request, ctx, *match.groups())
        raise HttpError(404, f"no route {request.method} {request.path}")

    def _job_view(self, job: dict) -> dict:
        return self.table.view(job, time.monotonic())

    def _find_job(self, job_id: str) -> dict:
        try:
            return self.table.jobs[int(job_id)]
        except (KeyError, ValueError):
            raise HttpError(404, f"no job {job_id!r}")

    def _healthz(self, request, ctx):
        from ..store import SCHEMA_VERSION

        return 200, {
            "ok": True,
            "store": self.store_path,
            "schema_version": SCHEMA_VERSION,
            "workers": self.workers,
            "draining": self.table.draining,
            "memo_only": self._memo_only_reason(),
        }

    def _metrics(self, request, ctx):
        self._refresh_gauges()
        return 200, render_exposition(self.registry), EXPOSITION_CONTENT_TYPE

    def _post_job(self, request, ctx):
        return 202, self._job_view(self._submit(request.json(), ctx))

    def _list_jobs(self, request, ctx):
        return 200, {
            "jobs": [self._job_view(job) for job in self.table.jobs.values()]
        }

    def _job_status(self, request, ctx, job_id):
        return 200, self._job_view(self._find_job(job_id))

    def _job_result(self, request, ctx, job_id):
        job = self._find_job(job_id)
        if job["status"] == "failed":
            failure = job["failure"] or {}
            if failure.get("kind") in ("shed", "drain"):
                # shed/drained work was refused, not broken: resubmit
                # elsewhere (or later) — 503, structured
                raise HttpError(
                    503,
                    job["error"] or "job shed",
                    headers={"Retry-After": str(self._retry_after())},
                    failure=failure,
                )
            extra = {"failure": failure} if failure else {}
            raise HttpError(409, job["error"] or "job failed", **extra)
        if job["status"] != "done":
            raise HttpError(404, f"job {job['id']} is {job['status']}")
        return 200, job["artifact"]

    def _list_traces(self, request, ctx):
        return 200, {"traces": self.tracer.trace_ids()}

    def _one_trace(self, request, ctx, trace_id):
        spans = self.tracer.snapshot(trace_id)
        if not spans:
            raise HttpError(404, f"no trace {trace_id!r}")
        return 200, {"trace": trace_id, "spans": [s.to_dict() for s in spans]}

    def _stats(self, request, ctx):
        with self._read_pool.connection() as store:
            counts = store.counts()
        self._refresh_gauges()
        table = self.table
        return 200, {
            "metrics": self.registry.snapshot(),
            # daemon-owned accumulated per-job deltas — never a snapshot
            # of a live process-global mid-execution
            "compile_stats": dict(self._compile_totals),
            "store": counts,
            "swept_tmp_files": self.swept_tmp_files,
            "queue_depth": len(table.pending),
            "inflight": table.inflight,
            "workers": self.workers,
            "journal_mode": self.journal_mode,
            "coalesced_total": self.registry.value("service.coalesced_total"),
            "read_pool": self._read_pool.stats(),
            "jobs": table.by_status(),
            "admission": {
                "max_queue": self.max_queue,
                "draining": table.draining,
                "memo_only": self._memo_only_reason(),
                "rejected_total": self.registry.value("service.rejected_total"),
                "rejected": dict(self._rejected),
                "shed_total": self.registry.value("service.shed_total"),
                "retry_after_seconds": self._retry_after(),
            },
            "breaker": {
                "state": table.breaker_state(time.monotonic()),
                "consecutive_failures": table.breaker_failures,
                "threshold": table.breaker_threshold,
                "cooldown_seconds": table.breaker_cooldown,
                "trips": self.registry.value("service.breaker_trips"),
            },
            "deadline": {
                "default_seconds": self.job_deadline,
                "cap_seconds": self.deadline_cap,
                "kills": self.registry.value("service.deadline_kills"),
            },
            "lease": (
                None
                if self._lease is None
                else {
                    "held": self._lease_held,
                    "holder": self.holder_id,
                    "token": self._lease.token,
                    "ttl_seconds": self.lease_ttl,
                    "lost_total": self.registry.value(
                        "service.lease_lost_total"
                    ),
                    "row": self._lease.info(),
                }
            ),
            "uptime_seconds": (
                time.monotonic() - self._started_monotonic
                if self._started_monotonic is not None
                else None
            ),
            "trace": {
                "buffered_spans": len(self.tracer.snapshot()),
                "dropped_spans": self.tracer.dropped,
                "log": (
                    self._trace_sink.path
                    if self._trace_sink is not None
                    else None
                ),
            },
        }

    def _trends(self, request, ctx):
        query = request.query
        with self._read_pool.connection() as store:
            if "metric" in query:
                rows = store.metric_trend(
                    query["metric"], benchmark=query.get("benchmark")
                )
            else:
                rows = store.trend(
                    benchmark=query.get("benchmark"),
                    profile=query.get("profile"),
                    ratio_base=query.get("ratio_base"),
                )
        return 200, {"rows": rows}

    def _admin_gc(self, request, ctx):
        cache = self._cache()
        reaped = 0 if cache is None else cache.sweep()
        self.swept_tmp_files += reaped
        self.registry.counter("service.gc_runs").add(1)
        return 200, {
            "reaped_tmp_files": reaped,
            "cache_dir": None if cache is None else cache.root,
        }

    async def _serve_one(self, reader, writer) -> None:
        """One connection: serve requests until the peer closes or a
        request declines keep-alive (the default)."""
        self.registry.counter("service.http_connections").add(1)
        self._connections.add(writer)
        try:
            while await self._serve_request(reader, writer):
                pass
        finally:
            self._connections.discard(writer)
            writer.close()

    async def _serve_request(self, reader, writer) -> bool:
        """Serve one request off the connection; returns True when the
        connection should be kept open for another."""
        t_request = time.monotonic()
        status, payload, content_type = 500, {"error": "internal error"}, None
        extra_headers: Dict[str, str] = {}
        request: Optional[Request] = None
        trace_id = parent = None
        try:
            request = await read_request(reader)
        except HttpError as exc:
            status, payload = exc.status, exc.payload()
            extra_headers = exc.headers
        else:
            if request is None:
                return False  # clean EOF between requests
            trace_id, parent = parse_trace_header(
                request.headers.get(TRACE_HEADER)
            )
        # every response — including protocol errors — carries a trace:
        # the http.request span roots the submission's tree (or is the
        # client's child when the header named a parent span)
        trace_id = trace_id or new_trace_id()
        request_span = new_span_id()
        ctx = TraceContext(self.tracer, trace_id, request_span)
        # keep-alive is strictly opt-in (pooled clients ask for it);
        # protocol errors always close
        keep_alive = request is not None and request.wants_keep_alive()
        if request is not None:
            try:
                result = self._handle(request, ctx)
                status, payload = result[0], result[1]
                content_type = result[2] if len(result) > 2 else None
            except HttpError as exc:
                status, payload = exc.status, exc.payload()
                extra_headers = exc.headers
            except Exception as exc:  # noqa: BLE001 — keep the daemon alive
                status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        response_headers = {
            "X-Repro-Trace": format_trace_header(trace_id, request_span)
        }
        response_headers.update(extra_headers)
        try:
            writer.write(
                format_response(
                    status,
                    payload,
                    content_type=content_type,
                    headers=response_headers,
                    keep_alive=keep_alive,
                )
            )
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            # client went away mid-response; the daemon shrugs
            self.registry.counter("service.client_disconnects").add(1)
            keep_alive = False
        finally:
            now = time.monotonic()
            attrs = {"status": status, "track": "http"}
            if request is not None:
                attrs["method"] = request.method
                attrs["path"] = request.path
            self.tracer.record(
                "http.request",
                trace_id,
                parent_id=parent,
                t0=t_request,
                dur=now - t_request,
                attrs=attrs,
                span_id=request_span,
            )
            self.registry.counter("service.http_requests").add(1)
            if status >= 400:
                self.registry.counter("service.http_errors").add(1)
            self.registry.histogram(
                "service.http_latency_us", LATENCY_BUCKETS_US
            ).observe((now - t_request) * 1e6)
        return keep_alive


def write_port_file(path: str, port: int) -> None:
    """Atomically publish the bound port for readiness polling (CI).

    PID-unique temp name (two daemons racing on one path never clobber
    each other's tmp), fsync before rename so a reader that sees the file
    never sees a torn write.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        handle.write(f"{port}\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
