"""The daemon's job-lifecycle table: every job-state decision, socket-free.

:class:`JobTable` owns the job records, the queue of pending job ids, the
coalesce map (submission digest -> primary job id), follower resolution
and the failure breaker.  Its transitions — :meth:`~JobTable.submit`,
:meth:`~JobTable.start`, :meth:`~JobTable.finish` and
:meth:`~JobTable.shed_all` — take the current time as a :class:`Now`:
the table reads no clock and does no I/O, so tests drive it with plain
numbers.  The daemon (:mod:`repro.service.daemon`) calls them from its
event-loop thread.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional

#: job lifecycle: queued -> running -> done | failed
JOB_STATES = ("queued", "running", "done", "failed")

#: failure kinds the breaker counts: evidence of a broken worker path.
#: Deadline, drain, shed and lease-lost outcomes are administrative.
BREAKER_KINDS = ("error", "worker-death")

SHED_DETAIL = "daemon draining: job shed before execution"


class Now(NamedTuple):
    """One reading of both clocks: ``unix`` for the stamps a job view
    displays, ``mono`` for durations (immune to clock steps)."""

    unix: float
    mono: float


class Rejected(Exception):
    """A refused submission: its HTTP ``status``, the admission
    ``reason`` and any further structured fields of the error body."""

    def __init__(self, status: int, message: str, reason: str, **fields):
        super().__init__(message)
        self.status = status
        self.reason = reason
        self.fields = fields


class JobTable:
    """Job records and the decisions about them, in one place."""

    def __init__(self, max_queue: Optional[int] = None,
                 breaker_threshold: int = 5, breaker_cooldown: float = 30.0):
        #: admission bound on *queued* (not running) jobs; None = unbounded
        self.max_queue = max_queue
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.jobs: Dict[int, dict] = {}
        #: queued primaries' ids in dequeue order — the queue itself, and
        #: the source of ``queue_position``
        self.pending: List[int] = []
        #: coalesce digest -> primary job id, for every queued/running job
        self.inflight_keys: Dict[str, int] = {}
        #: running primaries (followers execute nothing)
        self.inflight = 0
        self.draining = False
        #: consecutive breaker-kind failures of cold jobs
        self.breaker_failures = 0
        #: monotonic time the breaker last (re)opened; None = closed
        self.breaker_opened: Optional[float] = None
        self._next_id = 1

    # ------------------------------------------------------------ transitions

    def submit(
        self,
        request: dict,
        key: str,
        now: Now,
        *,
        deadline: Optional[float] = None,
        trace_id: Optional[str] = None,
        submit_span: Optional[str] = None,
        refuse_cold: Optional[str] = None,
        warm: Callable[[], bool] = lambda: False,
    ) -> dict:
        """Admit one submission and return its job: queued, or attached
        as a follower to the queued/running primary with the same
        coalesce ``key``.  ``refuse_cold`` names why cold work is refused
        right now (``degraded``/``lease``/``breaker``); such a submission
        is still admitted, memo-only, when ``warm()`` says every cell is
        on record.  Raises :class:`Rejected` for a draining daemon, a
        refused cold submission or a full queue; a rejected submission
        leaves no record behind."""
        if self.draining:
            raise Rejected(
                503,
                "daemon is draining: no new submissions are admitted",
                "draining",
            )
        primary = self.jobs.get(self.inflight_keys.get(key, -1))
        memo_only = False
        if primary is None:
            if refuse_cold is not None:
                if not warm():
                    raise Rejected(
                        503,
                        f"daemon is memo-only ({refuse_cold}): this submission "
                        "has cold cells and cold work is refused",
                        refuse_cold,
                        memo_only=True,
                    )
                memo_only = True
            depth = len(self.pending)
            if self.max_queue is not None and depth >= self.max_queue:
                raise Rejected(
                    429,
                    f"job queue is full ({depth}/{self.max_queue} queued)",
                    "queue_full",
                    queue_depth=depth,
                    max_queue=self.max_queue,
                )
        job = {
            "id": self._next_id,
            "status": "queued",
            "request": request,
            "created_unix": now.unix,
            "submitted_monotonic": now.mono,
            "started_unix": None,
            "started_monotonic": None,
            "finished_unix": None,
            "finished_monotonic": None,
            # job spans hang under the submitting request's span
            "trace_id": trace_id,
            "submit_span": submit_span,
            "coalesce_key": key,
            "coalesced_with": None,
            "followers": [],
            "deadline_seconds": deadline,
            "memo_only": memo_only,
            "stats": None,
            "error": None,
            "failure": None,
            "fault_site": None,
        }
        self._next_id += 1
        self.jobs[job["id"]] = job
        if primary is None:
            self.inflight_keys[key] = job["id"]
            self.pending.append(job["id"])
        else:
            # identical in-flight submission: attach, don't re-execute
            job["coalesced_with"] = primary["id"]
            primary["followers"].append(job["id"])
            if primary["status"] == "running":
                job["status"] = "running"
                job["started_unix"], job["started_monotonic"] = now
        return job

    def start(self, now: Now) -> Optional[dict]:
        """Dequeue the next pending job and mark it and its followers
        running; None when nothing is pending."""
        if not self.pending:
            return None
        job = self.jobs[self.pending.pop(0)]
        for running in [job] + [self.jobs[i] for i in job["followers"]]:
            running["status"] = "running"
            running["started_unix"], running["started_monotonic"] = now
        self.inflight += 1
        return job

    def finish(self, job: dict, now: Now, failure: Optional[dict] = None) -> bool:
        """End a primary and its followers: done (the caller has set its
        ``artifact`` and ``stats``), or failed with ``failure``
        (``{"kind", "detail", ...}``; the detail is the job's error).
        Followers take the primary's artifact with zero compiles and zero
        executed cells of their own, or fail naming it.  Returns True when
        this outcome tripped the breaker open."""
        if job["status"] == "running":
            self.inflight -= 1
        job["status"] = "done" if failure is None else "failed"
        if failure is not None:
            job["error"] = failure["detail"]
            job["failure"] = failure
        job["finished_unix"], job["finished_monotonic"] = now
        if self.inflight_keys.get(job["coalesce_key"]) == job["id"]:
            del self.inflight_keys[job["coalesce_key"]]
        for follower_id in job["followers"]:
            follower = self.jobs[follower_id]
            follower["status"] = job["status"]
            follower["finished_unix"], follower["finished_monotonic"] = now
            if failure is None:
                follower["artifact"] = job["artifact"]
                follower["stats"] = dict(
                    job["stats"],
                    hits=job["stats"]["cells"],
                    misses=0,
                    compile_calls=0,
                    cells_executed=0,
                )
            else:
                follower["error"] = (
                    f"coalesced with job {job['id']}, which failed: "
                    f"{job['error']}"
                )
        return self._count_outcome(job, failure, now)

    def shed_all(self, now: Now) -> List[dict]:
        """Drain: refuse every later submission and fail each queued job
        as ``shed``.  Running jobs are left to the caller.  Returns the
        shed jobs."""
        self.draining = True
        shed = [self.jobs[job_id] for job_id in self.pending]
        self.pending.clear()
        for job in shed:
            self.finish(job, now, {"kind": "shed", "detail": SHED_DETAIL})
        return shed

    # ---------------------------------------------------------------- breaker

    def breaker_state(self, now_mono: float) -> str:
        """``closed``; ``open`` (cold work refused); or ``half-open`` once
        the cooldown has passed, when cold probes are admitted again."""
        if self.breaker_opened is None:
            return "closed"
        if now_mono - self.breaker_opened >= self.breaker_cooldown:
            return "half-open"
        return "open"

    def _count_outcome(self, job: dict, failure: Optional[dict], now: Now) -> bool:
        """Breaker accounting for one finished job.  Memo-only jobs do not
        exercise the worker path and never count.  A success closes the
        breaker; the threshold-th consecutive breaker-kind failure opens
        it, and a failed half-open probe re-opens it, restarting the
        cooldown."""
        if job["memo_only"]:
            return False
        if failure is None:
            self.breaker_failures = 0
            self.breaker_opened = None
            return False
        if failure["kind"] not in BREAKER_KINDS:
            return False
        self.breaker_failures += 1
        if not 0 < self.breaker_threshold <= self.breaker_failures:
            return False
        tripped = self.breaker_opened is None
        self.breaker_opened = now.mono
        return tripped

    # ------------------------------------------------------------------ views

    def view(self, job: dict, now_mono: float) -> dict:
        """The job as the HTTP API shows it; a running job's
        ``run_seconds`` counts up to ``now_mono``."""
        queue_wait = run = None
        if job["started_monotonic"] is not None:
            queue_wait = job["started_monotonic"] - job["submitted_monotonic"]
            end = job["finished_monotonic"]
            run = (now_mono if end is None else end) - job["started_monotonic"]
        # position comes from queue membership, not a status scan: failed
        # and dequeued jobs never shift it, and coalesced followers (which
        # are "queued" but never enqueued) hold no position at all
        position = None
        if job["status"] == "queued" and job["id"] in self.pending:
            position = self.pending.index(job["id"]) + 1
        return {
            "id": job["id"],
            "status": job["status"],
            "created_unix": job["created_unix"],
            "submitted_at": job["created_unix"],
            "started_at": job["started_unix"],
            "finished_at": job["finished_unix"],
            "queue_wait_seconds": queue_wait,
            "run_seconds": run,
            "queue_position": position,
            "trace_id": job["trace_id"],
            "coalesced_with": job["coalesced_with"],
            "followers": list(job["followers"]),
            "request": job["request"],
            "stats": job["stats"],
            "error": job["error"],
            "failure": job["failure"],
            "deadline_seconds": job["deadline_seconds"],
            "memo_only": job["memo_only"],
            "fault_site": job["fault_site"],
        }

    def by_status(self) -> Dict[str, int]:
        counts = dict.fromkeys(JOB_STATES, 0)
        for job in self.jobs.values():
            counts[job["status"]] += 1
        return counts
