"""``repro chaos service`` — seeded chaos scenarios against a live daemon.

The harness runs an in-process :class:`~repro.service.ExperimentService`
(event loop on a thread, ephemeral port — the same shape the test suite
uses) and walks a fixed scenario script across every site in
:data:`~repro.faults.plan.SERVICE_SITES` plus overload and deadline
expiry:

* ``baseline`` — an unperturbed job; its artifact must be byte-identical
  to a direct serial :func:`repro.metrics.baseline.collect`.
* ``job_kill`` — the job's subprocess group is SIGKILLed at start; the
  job must end as a structured, fault-attributed failure.
* ``deadline`` — a tiny client-requested deadline expires; the job must
  end as a structured ``deadline`` failure with the kill accounted.
* ``lease_steal`` — a rival steals the writer lease mid-campaign; the
  victim job fails attributed (``lease-lost``), and the daemon must
  reacquire the lease and serve a fresh job afterwards.
* ``store_contention`` — a rival writer holds ``BEGIN IMMEDIATE`` on the
  store; the job must ride it out and still succeed.
* ``connection_drop`` — the client vanishes mid-request (raw socket,
  half a request, hard close); the daemon must stay healthy.
* ``overload`` — a flood of distinct submissions against ``--workers 1
  --max-queue 2``; at least one structured 429 with a valid Retry-After
  must come back, and every accepted job must still finish.

Faults are injected through a seeded :class:`~repro.faults.FaultPlan`
with the relevant site pinned to the scenario's job id, so the campaign
is reproducible for a given ``--seed``.  A daemon built with a plan
makes one call per job, to :func:`inject`, just before the job
executes; this module holds everything the daemon-side sites do.  The exit-code contract is the
same containment policy as ``repro chaos run``: **0** when every
scenario's failures are structured and attributed, **1** otherwise.
"""

from __future__ import annotations

import json
import socket
import sqlite3
import sys
import tempfile
import time
from typing import Callable, List, Optional

from .plan import FaultPlan

SERVICE_CHAOS_SCHEMA = "repro.service-chaos/1"

#: small cold matrix every scenario submits (distinct git_sha per
#: submission keeps them from coalescing or warm-serving each other)
BENCHMARKS = "micro.arith"
PROFILES = "native-c"
SCALE = 0.05


# --------------------------------------------------- daemon-side injection


def inject(
    plan: FaultPlan,
    job_id: int,
    store_path: str,
    lease_ttl: float,
    kill: Callable[[str], None],
) -> Optional[str]:
    """Fire the service site ``plan`` arms for job ``job_id`` and return
    it (None when none is armed).  Runs on an executor thread just before
    the job executes, and returns once the fault is in place: ``job_kill``
    fires the job's kill switch (``kill("fault")``, the switch drain
    uses); ``lease_steal`` has a rival take the lease with a short TTL,
    so the job's fenced append fails ``lease-lost`` and the daemon soon
    re-acquires; ``store_contention`` has a rival hold the write lock for
    a seeded time, which the job must ride out.  ``connection_drop`` is
    client-side, so nothing fires here.
    """
    site = plan.service_fault(job_id)
    if site == "job_kill":
        kill("fault")
    elif site == "lease_steal":
        from ..store import WriterLease

        ttl = min(1.0, lease_ttl / 4.0)
        with WriterLease(
            store_path, holder=f"chaos-thief-{job_id}", ttl=ttl
        ) as thief:
            thief.steal()
    elif site == "store_contention":
        _hold_store(store_path, 0.05 * (1 + plan.service_param(job_id)))
    return site


def _hold_store(path: str, seconds: float) -> None:
    """Start a rival writer holding the store's write lock and return
    once it holds it.  The rival is a *process*, not a thread: job
    subprocesses fork from the daemon, and a fork taken while a local
    connection holds the WAL write lock copies SQLite's per-process lock
    state into the child, which then sees a phantom local writer."""
    from ..parallel.pool import _pool_context

    ctx = _pool_context()
    acquired = ctx.Event()
    proc = ctx.Process(
        target=_hold_store_lock, args=(path, seconds, acquired), daemon=True
    )
    proc.start()
    acquired.wait(5.0)


def _hold_store_lock(path: str, seconds: float, acquired) -> None:
    """The rival writer's body: hold ``BEGIN IMMEDIATE`` on the store for
    ``seconds``, signalling ``acquired`` once the lock is held."""
    conn = sqlite3.connect(path, timeout=5.0)
    try:
        try:
            conn.execute("BEGIN IMMEDIATE")
        except sqlite3.OperationalError:
            return  # store busier than the chaos plan expected; stand down
        acquired.set()
        time.sleep(seconds)
        conn.execute("COMMIT")
    finally:
        conn.close()


def _daemon(tmp: str, name: str, **kwargs):
    """A live in-process daemon on its own store and compile cache."""
    from ..service import BackgroundDaemon

    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("workers", 1)
    return BackgroundDaemon(
        f"{tmp}/{name}.sqlite", cache_dir=f"{tmp}/cache-{name}", **kwargs
    )


def _request(tag: str) -> dict:
    """One submission of the campaign matrix; ``tag`` lands in git_sha
    so submissions never coalesce.  The git SHA is not part of a cell
    key, so the matrix is cold only for the first job that records it
    in a scenario's store."""
    return {
        "benchmarks": BENCHMARKS,
        "profiles": PROFILES,
        "scale": SCALE,
        "git_sha": f"chaos-{tag}",
    }


def _scenario(name: str, ok: bool, **details) -> dict:
    line = "ok" if ok else "FAIL"
    print(f"repro-chaos: service scenario {name}: {line}", file=sys.stderr)
    return {"name": name, "ok": bool(ok), **details}


def _plan(seed: int, site: str, job_id: int = 1) -> FaultPlan:
    """A plan with exactly one service site pinned to one job id — the
    seed still feeds every derived parameter (lock-hold scaling etc.)."""
    return FaultPlan(seed=seed, pinned=((job_id, site),))


# ---------------------------------------------------------------- scenarios


def _run_baseline(tmp: str, seed: int) -> dict:
    from ..metrics import baseline

    with _daemon(tmp, "baseline") as daemon:
        job = daemon.client.submit(_request("baseline"))
        done = daemon.client.wait(job["id"], timeout=300)
        if done["status"] != "done":
            return _scenario("baseline", False, error=done.get("error"))
        served = daemon.client.result(job["id"])
    direct = baseline.collect(
        profiles=baseline.resolve_profiles(PROFILES),
        suite=baseline.resolve_suite(BENCHMARKS, SCALE),
        scale=SCALE,
        git_sha="chaos-baseline",
        jobs=1,
        store=None,
        record=False,
    )
    identical = json.dumps(served, sort_keys=True) == json.dumps(
        direct, sort_keys=True
    )
    return _scenario("baseline", identical, byte_identical=identical)


def _run_job_kill(tmp: str, seed: int) -> dict:
    with _daemon(
        tmp, "kill",
        fault_plan=_plan(seed, "job_kill"),
        breaker_threshold=100,  # one scenario must not trip memo-only
    ) as daemon:
        job = daemon.client.submit(_request("kill"))
        done = daemon.client.wait(job["id"], timeout=120)
        failure = done.get("failure") or {}
        attributed = (
            done["status"] == "failed"
            and failure.get("fault") == "job_kill"
            and done.get("fault_site") == "job_kill"
        )
        healthy = daemon.client.health()["ok"]
        return _scenario(
            "job_kill", attributed and healthy, failure=failure or None
        )


def _run_deadline(tmp: str, seed: int) -> dict:
    with _daemon(tmp, "deadline", breaker_threshold=100) as daemon:
        request = _request("deadline")
        # 1ms: expired before the shepherd's first poll step, so the kill
        # is deterministic regardless of how fast the tiny matrix runs
        request["deadline"] = 0.001
        job = daemon.client.submit(request)
        done = daemon.client.wait(job["id"], timeout=120)
        failure = done.get("failure") or {}
        attributed = (
            done["status"] == "failed" and failure.get("kind") == "deadline"
        )
        kills = daemon.client.stats()["metrics"]["counters"].get(
            "service.deadline_kills", 0
        )
        return _scenario(
            "deadline", attributed and kills >= 1,
            failure=failure or None, deadline_kills=kills,
        )


def _run_lease_steal(tmp: str, seed: int) -> dict:
    with _daemon(
        tmp, "steal",
        fault_plan=_plan(seed, "lease_steal"),
        lease_ttl=1.0,
        breaker_threshold=100,
    ) as daemon:
        job = daemon.client.submit(_request("steal-victim"))
        done = daemon.client.wait(job["id"], timeout=120)
        failure = done.get("failure") or {}
        attributed = (
            done["status"] == "failed"
            and failure.get("kind") == "lease-lost"
        )
        # the daemon's lease loop must take the lease back (the thief's
        # TTL is a fraction of ours) and then serve cold work again
        recovered = False
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if daemon.client.stats()["lease"]["held"]:
                recovered = True
                break
            time.sleep(0.2)
        after = {}
        if recovered:
            job2 = daemon.client.submit(_request("steal-recovery"))
            after = daemon.client.wait(job2["id"], timeout=120)
        return _scenario(
            "lease_steal",
            attributed and recovered and after.get("status") == "done",
            failure=failure or None,
            lease_recovered=recovered,
        )


def _run_store_contention(tmp: str, seed: int) -> dict:
    with _daemon(
        tmp, "contend",
        fault_plan=_plan(seed, "store_contention"),
        breaker_threshold=100,
    ) as daemon:
        job = daemon.client.submit(_request("contend"))
        done = daemon.client.wait(job["id"], timeout=120)
        injections = daemon.client.stats()["metrics"]["counters"].get(
            "service.fault_injections", 0
        )
        # the store's busy timeout must ride out the rival writer
        return _scenario(
            "store_contention",
            done["status"] == "done" and injections >= 1,
            status=done["status"],
            injections=injections,
        )


def _run_connection_drop(tmp: str, seed: int) -> dict:
    with _daemon(tmp, "drop") as daemon:
        # half a POST, then a hard close — the daemon must shrug it off
        for payload in (
            b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 400\r\n"
            b"Content-Type: application/json\r\n\r\n{\"benchmarks\":",
            b"GET /healthz HTTP/1.1\r\nHo",
            b"",
        ):
            sock = socket.create_connection(
                (daemon.host, daemon.port), timeout=5
            )
            try:
                if payload:
                    sock.sendall(payload)
                    time.sleep(0.05)
            finally:
                sock.close()
        healthy = daemon.client.health()["ok"]
        job = daemon.client.submit(_request("after-drop"))
        done = daemon.client.wait(job["id"], timeout=120)
        return _scenario(
            "connection_drop",
            healthy and done["status"] == "done",
            healthy_after=healthy,
        )


def _run_overload(tmp: str, seed: int) -> dict:
    from ..service import ServiceError

    with _daemon(tmp, "overload", workers=1, max_queue=2) as daemon:
        accepted: List[int] = []
        rejections = []
        bad_rejections = 0
        for i in range(8):
            try:
                job = daemon.client.submit(_request(f"flood-{i}"))
                accepted.append(job["id"])
            except ServiceError as exc:
                if exc.status == 429 and isinstance(
                    exc.retry_after, float
                ) and exc.retry_after >= 1:
                    rejections.append(exc.retry_after)
                else:
                    bad_rejections += 1
        finished = 0
        for job_id in accepted:
            done = daemon.client.wait(job_id, timeout=300)
            if done["status"] == "done":
                finished += 1
        counters = daemon.client.stats()["metrics"]["counters"]
        return _scenario(
            "overload",
            bool(rejections)
            and bad_rejections == 0
            and finished == len(accepted)
            and counters.get("service.rejected_total", 0) >= len(rejections),
            accepted=len(accepted),
            rejected_429=len(rejections),
            retry_after=rejections[:3],
        )


# ----------------------------------------------------------------- campaign


def run_service_campaign(seed: int, out: Optional[str] = None) -> int:
    """Run every scenario; write the JSON report; return the containment
    exit code (0 = every failure structured and attributed)."""
    scenarios = []
    with tempfile.TemporaryDirectory(prefix="repro-chaos-service-") as tmp:
        for runner in (
            _run_baseline,
            _run_job_kill,
            _run_deadline,
            _run_lease_steal,
            _run_store_contention,
            _run_connection_drop,
            _run_overload,
        ):
            scenarios.append(runner(tmp, seed))
    contained = all(s["ok"] for s in scenarios)
    report = {
        "schema": SERVICE_CHAOS_SCHEMA,
        "seed": seed,
        "scenarios": scenarios,
        "contained": contained,
    }
    blob = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as handle:
            handle.write(blob)
        print(f"repro-chaos: wrote {out}")
    passed = sum(1 for s in scenarios if s["ok"])
    verdict = "contained" if contained else "UNCONTAINED"
    print(
        f"repro-chaos: service campaign seed {seed}: {passed}/{len(scenarios)} "
        f"scenarios ok — {verdict}"
    )
    for s in scenarios:
        if not s["ok"]:
            print(f"repro-chaos:   FAIL {s['name']}: {json.dumps(s)}")
    return 0 if contained else 1
