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
is reproducible for a given ``--seed``.  The exit-code contract is the
same containment policy as ``repro chaos run``: **0** when every
scenario's failures are structured and attributed, **1** otherwise.
"""

from __future__ import annotations

import asyncio
import json
import socket
import sys
import tempfile
import threading
import time
from typing import List, Optional

from .plan import FaultPlan

SERVICE_CHAOS_SCHEMA = "repro.service-chaos/1"

#: small cold matrix every scenario submits (distinct git_sha per
#: submission keeps them from coalescing or warm-serving each other)
BENCHMARKS = "micro.arith"
PROFILES = "native-c"
SCALE = 0.05


class _Daemon:
    """One live in-process daemon on an ephemeral port."""

    def __init__(self, store_path: str, cache_dir: str, **kwargs):
        from ..service import ExperimentService, ServiceClient

        kwargs.setdefault("jobs", 1)
        kwargs.setdefault("workers", 1)
        self.service = ExperimentService(
            store_path, cache_dir=cache_dir, **kwargs
        )
        self.loop = asyncio.new_event_loop()
        ready = threading.Event()

        def body():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.service.start("127.0.0.1", 0))
            ready.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=body, daemon=True)
        self.thread.start()
        if not ready.wait(30):
            raise RuntimeError("chaos daemon failed to start")
        host, port = self.service.address
        self.host, self.port = host, port
        self.client = ServiceClient(f"http://{host}:{port}")

    def close(self) -> None:
        self.client.close()
        asyncio.run_coroutine_threadsafe(
            self.service.stop(), self.loop
        ).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


def _request(tag: str) -> dict:
    """One cold submission; ``tag`` lands in git_sha so submissions never
    coalesce with (or warm-serve) each other."""
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

    daemon = _Daemon(f"{tmp}/baseline.sqlite", f"{tmp}/cache-baseline")
    try:
        job = daemon.client.submit(_request("baseline"))
        done = daemon.client.wait(job["id"], timeout=300)
        if done["status"] != "done":
            return _scenario("baseline", False, error=done.get("error"))
        served = daemon.client.result(job["id"])
    finally:
        daemon.close()
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
    daemon = _Daemon(
        f"{tmp}/kill.sqlite", f"{tmp}/cache-kill",
        fault_plan=_plan(seed, "job_kill"),
        breaker_threshold=100,  # one scenario must not trip memo-only
    )
    try:
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
    finally:
        daemon.close()


def _run_deadline(tmp: str, seed: int) -> dict:
    daemon = _Daemon(
        f"{tmp}/deadline.sqlite", f"{tmp}/cache-deadline",
        breaker_threshold=100,
    )
    try:
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
    finally:
        daemon.close()


def _run_lease_steal(tmp: str, seed: int) -> dict:
    daemon = _Daemon(
        f"{tmp}/steal.sqlite", f"{tmp}/cache-steal",
        fault_plan=_plan(seed, "lease_steal"),
        lease_ttl=1.0,
        breaker_threshold=100,
    )
    try:
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
    finally:
        daemon.close()


def _run_store_contention(tmp: str, seed: int) -> dict:
    daemon = _Daemon(
        f"{tmp}/contend.sqlite", f"{tmp}/cache-contend",
        fault_plan=_plan(seed, "store_contention"),
        breaker_threshold=100,
    )
    try:
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
    finally:
        daemon.close()


def _run_connection_drop(tmp: str, seed: int) -> dict:
    daemon = _Daemon(f"{tmp}/drop.sqlite", f"{tmp}/cache-drop")
    try:
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
    finally:
        daemon.close()


def _run_overload(tmp: str, seed: int) -> dict:
    from ..service import ServiceError

    daemon = _Daemon(
        f"{tmp}/overload.sqlite", f"{tmp}/cache-overload",
        workers=1, max_queue=2,
    )
    try:
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
    finally:
        daemon.close()


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
