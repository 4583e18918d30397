"""The daemon's overload/robustness surface: admission control (429 +
Retry-After, memo-only degradation, the failure breaker), job deadlines
with process-group reaping, lease-fenced store writes across rival
daemons, graceful drain, and the client's retry/poll-backoff behavior."""

import json
import os
import threading
import time

import pytest

from repro.service import ExperimentService, ServiceClient, ServiceError
from repro.store import ExperimentStore, LeaseLost, WriterLease

from tests.test_service import SMALL, DaemonHarness
from tests.test_store import append_run

#: a second matrix, disjoint from SMALL, so the pair never coalesces
OTHER = {"benchmarks": "micro.loop,scimark.sor",
         "profiles": "clr-1.1,native-c", "scale": 0.0, "git_sha": "cafe"}


def _distinct(tag):
    """A cold SMALL-shaped matrix that coalesces with nothing else."""
    return dict(SMALL, git_sha=f"distinct-{tag}")


@pytest.fixture
def stalled(tmp_path, monkeypatch):
    """A 1-worker daemon whose job executions finish their real work and
    then stall until released — a deterministic saturation window."""
    import repro.service.daemon as daemon_mod

    real = daemon_mod._run_job_subprocess
    running = threading.Event()
    release = threading.Event()

    def slow(config):
        payload = real(config)
        running.set()
        release.wait(60)
        return payload

    monkeypatch.setattr(daemon_mod, "_run_job_subprocess", slow)
    harness = DaemonHarness(tmp_path, workers=1, max_queue=1,
                            drain_grace=10.0)
    harness.running, harness.release = running, release
    yield harness
    release.set()
    harness.close()


# ---------------------------------------------------------------- admission


class TestAdmission:
    def test_max_queue_accepts_cli_strings(self, tmp_path):
        # argparse hands the daemon strings, not ints ("--max-queue 3")
        path = str(tmp_path / "store.db")
        svc = ExperimentService(path, workers=2, max_queue="3")
        assert svc.max_queue == 3
        svc = ExperimentService(path, workers=2, max_queue="auto")
        assert svc.max_queue == 8
        svc = ExperimentService(path, workers=2, max_queue=None)
        assert svc.max_queue is None
        with pytest.raises(ValueError, match="bad max_queue"):
            ExperimentService(path, workers=2, max_queue="bogus")
        with pytest.raises(ValueError, match=">= 1"):
            ExperimentService(path, workers=2, max_queue="0")

    def test_queue_full_rejects_429_with_retry_after(self, stalled):
        client = stalled.client
        primary = client.submit(_distinct("run"))
        assert stalled.running.wait(120), "primary never started"
        queued = client.submit(_distinct("q1"))  # fills max_queue=1
        with pytest.raises(ServiceError) as err:
            client.submit(_distinct("q2"))
        exc = err.value
        assert exc.status == 429
        assert exc.fields["reason"] == "queue_full"
        assert exc.fields["max_queue"] == 1
        # Retry-After is a real header, parseable, and within the clamp
        assert exc.retry_after is not None
        assert 1 <= exc.retry_after <= 120
        stats = client.stats()["admission"]
        assert stats["rejected_total"] >= 1
        assert stats["rejected"]["queue_full"] >= 1
        from repro.metrics import validate_exposition

        parsed = validate_exposition(client.metrics())
        assert dict(parsed["repro_service_rejected_total"])[""] >= 1.0

        stalled.release.set()
        assert client.wait(primary["id"])["status"] == "done"
        assert client.wait(queued["id"])["status"] == "done"

    def test_degraded_daemon_serves_warm_refuses_cold(self, tmp_path):
        warm = DaemonHarness(tmp_path)
        try:
            done = warm.client.wait(warm.client.submit(SMALL)["id"])
            assert done["status"] == "done", done["error"]
        finally:
            warm.close()

        degraded = DaemonHarness(tmp_path, degraded=True)
        try:
            # healthz reports the memo-only *reason* (None when serving
            # cold work normally)
            assert degraded.client.health()["memo_only"] == "degraded"
            # every cell warm: served memo-only, nothing executed
            view = degraded.client.wait(degraded.client.submit(SMALL)["id"])
            assert view["status"] == "done", view["error"]
            assert view["memo_only"] is True
            stats = view["stats"]
            assert stats["hits"] == stats["cells"]
            assert stats["cells_executed"] == 0
            # cold work: structured 503, never enqueued
            with pytest.raises(ServiceError) as err:
                degraded.client.submit(OTHER)
            assert err.value.status == 503
            assert err.value.fields["reason"] == "degraded"
            assert err.value.fields["memo_only"] is True
            assert err.value.retry_after is not None
        finally:
            degraded.close()

    def test_breaker_trips_to_memo_only_after_consecutive_failures(
        self, tmp_path, monkeypatch
    ):
        import repro.service.daemon as daemon_mod

        def boom(config):
            raise daemon_mod.JobFailed("RuntimeError: injected")

        monkeypatch.setattr(daemon_mod, "_run_job_subprocess", boom)
        harness = DaemonHarness(tmp_path, breaker_threshold=2,
                                breaker_cooldown=3600.0)
        try:
            client = harness.client
            for i in range(2):
                view = client.wait(client.submit(_distinct(i))["id"])
                assert view["status"] == "failed"
                assert view["failure"]["kind"] == "error"
            breaker = client.stats()["breaker"]
            assert breaker["state"] == "open"
            assert breaker["trips"] == 1
            with pytest.raises(ServiceError) as err:
                client.submit(_distinct("post-trip"))
            assert err.value.status == 503
            assert err.value.fields["reason"] == "breaker"
            from repro.metrics import validate_exposition

            parsed = validate_exposition(client.metrics())
            assert dict(parsed["repro_service_breaker_open"])[""] == 1.0
        finally:
            harness.close()


# ---------------------------------------------------------------- deadlines


def _pgid_members(pgid):
    """Live pids whose process group is ``pgid`` (via /proc)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            if int(fields[2]) == pgid:  # field 5 overall: pgrp
                members.append(int(entry))
        except (OSError, IndexError, ValueError):
            continue
    return members


class TestDeadlines:
    def test_deadline_kill_is_structured_and_reaps_the_group(
        self, tmp_path, monkeypatch
    ):
        import repro.service.daemon as daemon_mod

        real = daemon_mod._run_job_subprocess
        pids = []

        def spying(config):
            orig_reap = daemon_mod._reap_job_process

            def reap(proc, grace=2.0):
                pids.append(proc.pid)
                return orig_reap(proc, grace)

            monkeypatch.setattr(daemon_mod, "_reap_job_process", reap)
            return real(config)

        monkeypatch.setattr(daemon_mod, "_run_job_subprocess", spying)
        harness = DaemonHarness(tmp_path)
        try:
            # jobs=2 makes the job subprocess fork grandchildren (pool
            # workers), so group reaping actually has something to reap
            request = dict(_distinct("deadline"), deadline=0.001, jobs=2)
            view = harness.client.wait(harness.client.submit(request)["id"])
            assert view["status"] == "failed"
            assert view["failure"]["kind"] == "deadline"
            assert view["failure"]["deadline_seconds"] == 0.001
            assert view["deadline_seconds"] == 0.001
            assert "deadline" in view["error"]
            counters = harness.client.stats()["metrics"]["counters"]
            assert counters["service.deadline_kills"] >= 1
            assert harness.client.stats()["deadline"]["kills"] >= 1
            # the job led its own process group; nothing survives in it
            assert pids, "shepherd never reaped a process"
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                strays = [p for pid in pids for p in _pgid_members(pid)]
                if not strays:
                    break
                time.sleep(0.1)
            assert strays == [], f"stray pids in killed job groups: {strays}"
        finally:
            harness.close()

    def test_client_deadline_capped_by_daemon(self, tmp_path):
        harness = DaemonHarness(tmp_path, job_deadline=50.0)
        try:
            view = harness.client.submit(
                dict(_distinct("cap"), deadline=99999.0)
            )
            assert view["deadline_seconds"] == 50.0
            # daemon default applies when the client names none
            view = harness.client.submit(_distinct("default"))
            assert view["deadline_seconds"] == 50.0
            with pytest.raises(ServiceError) as err:
                harness.client.submit(dict(_distinct("bad"), deadline=-1))
            assert err.value.status == 400
        finally:
            harness.close()


# ------------------------------------------------------------------- client


class _ScriptedWait(ServiceClient):
    """status() returns queued until a wall deadline, counting calls —
    wait()'s polling behavior measured without a daemon."""

    def __init__(self, busy_seconds):
        super().__init__("http://127.0.0.1:9")
        self._until = time.monotonic() + busy_seconds
        self.polls = 0

    def status(self, job_id):
        self.polls += 1
        state = "done" if time.monotonic() >= self._until else "queued"
        return {"id": job_id, "status": state}


class TestClientResilience:
    def test_wait_poll_backoff_cuts_request_count(self):
        fixed = _ScriptedWait(1.5)
        fixed.wait(1, timeout=30, poll=0.1, poll_cap=0.1)  # old behavior
        backoff = _ScriptedWait(1.5)
        backoff.wait(1, timeout=30)  # 0.1 -> 2.0 exponential default
        assert backoff.polls < fixed.polls / 2, (
            f"backoff {backoff.polls} polls vs fixed {fixed.polls}"
        )

    def test_retry_honors_retry_after_and_is_seeded(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:9", max_retries=3,
                               backoff_seed=42)
        calls = {"n": 0}

        def flaky(method, path, payload=None):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise ServiceError(429, "queue full", retry_after=1.25)
            return {"ok": True}

        slept = []
        monkeypatch.setattr(client, "_call_once", flaky)
        monkeypatch.setattr(
            "repro.service.client.time.sleep", slept.append
        )
        assert client._call("POST", "/v1/jobs", {}) == {"ok": True}
        assert client.retries_performed == 2
        assert len(slept) == 2
        for delay in slept:
            assert delay >= 1.25  # Retry-After is the floor
        # deterministic for a seed, desynchronized across seeds
        again = ServiceClient("http://127.0.0.1:9", backoff_seed=42)
        other = ServiceClient("http://127.0.0.1:9", backoff_seed=7)
        assert slept[0] == again._backoff_delay(0, 1.25)
        assert again._backoff_delay(0, 1.25) != other._backoff_delay(0, 1.25)

    def test_non_retryable_status_raises_immediately(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:9", max_retries=5)

        def nope(method, path, payload=None):
            raise ServiceError(400, "bad request")

        monkeypatch.setattr(client, "_call_once", nope)
        with pytest.raises(ServiceError):
            client._call("GET", "/healthz")
        assert client.retries_performed == 0


# ------------------------------------------------------------------- drain


class TestGracefulDrain:
    def test_sigterm_drain_contract(self, tmp_path, monkeypatch):
        """One running + two queued at drain time: the running job
        completes within the grace, the queued jobs become structured
        shed failures served as 503-on-poll, the trace log is flushed
        and parseable, and the lease row is released."""
        import asyncio

        import repro.service.daemon as daemon_mod

        real = daemon_mod._run_job_subprocess
        running = threading.Event()
        release = threading.Event()

        def slow(config):
            payload = real(config)
            running.set()
            release.wait(60)
            return payload

        monkeypatch.setattr(daemon_mod, "_run_job_subprocess", slow)
        trace_log = str(tmp_path / "drain-trace.jsonl")
        harness = DaemonHarness(tmp_path, workers=1, trace_log=trace_log,
                                drain_grace=15.0)
        client = ServiceClient(harness.url)
        try:
            active = client.submit(_distinct("active"))
            assert running.wait(120), "job never started"
            queued = [client.submit(_distinct(f"q{i}")) for i in (1, 2)]

            drain_future = asyncio.run_coroutine_threadsafe(
                harness.service.drain(), harness.loop
            )
            # admission stops the moment drain begins
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                try:
                    client.submit(_distinct("late"))
                except ServiceError as exc:
                    assert exc.status == 503
                    assert exc.fields["reason"] == "draining"
                    break
                time.sleep(0.05)
            else:
                pytest.fail("submissions never started draining")

            # queued jobs were shed with structured, attributed failures
            for job in queued:
                view = client.status(job["id"])
                assert view["status"] == "failed"
                assert view["failure"]["kind"] == "shed"
                with pytest.raises(ServiceError) as err:
                    client.result(job["id"])
                assert err.value.status == 503
                assert err.value.retry_after is not None
                assert err.value.fields["failure"]["kind"] == "shed"

            release.set()
            drain_future.result(60)

            # the running job was allowed to finish inside the grace
            assert harness.service.table.jobs[active["id"]]["status"] == "done"
            # trace sinks were flushed: every line parses, and the drain
            # left job spans on disk
            with open(trace_log) as handle:
                spans = [json.loads(line) for line in handle]
            assert spans, "trace log empty after drain"
            # the lease row was released on the way out
            with WriterLease(harness.store_path, holder="probe") as probe:
                row = probe.info()
            assert row["holder"] is None
        finally:
            release.set()
            client.close()
            harness.loop.call_soon_threadsafe(harness.loop.stop)
            harness.thread.join(10)
            harness.loop.close()


    def test_drain_kills_a_job_still_running_after_the_grace(
        self, tmp_path, monkeypatch
    ):
        """Past the drain budget, the running job's kill switch fires: its
        subprocess group is killed and the job fails as ``drain``."""
        import asyncio

        import repro.service.daemon as daemon_mod

        # the forked job worker inherits this stand-in and wedges
        monkeypatch.setattr(daemon_mod, "_collect_in_worker",
                            lambda config: time.sleep(120))
        harness = DaemonHarness(tmp_path, workers=1)
        try:
            job = harness.client.submit(_distinct("wedged"))
            deadline = time.monotonic() + 60
            while harness.client.status(job["id"])["status"] != "running":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.05)
            asyncio.run_coroutine_threadsafe(
                harness.service.drain(grace=0.2), harness.loop
            ).result(60)
            record = harness.service.table.jobs[job["id"]]
            assert record["status"] == "failed"
            assert record["failure"]["kind"] == "drain"
            assert record["error"].startswith(
                "daemon draining: running job's subprocess group (pid "
            )
            assert record["error"].endswith("killed after the drain budget")
            assert harness.service.registry.value("service.drain_kills") == 1
            assert harness.service.table.inflight == 0
        finally:
            harness.client.close()
            harness.loop.call_soon_threadsafe(harness.loop.stop)
            harness.thread.join(10)
            harness.loop.close()


# -------------------------------------------------------------------- lease


class TestWriterLease:
    def test_job_forked_during_lease_renewal_completes(self, tmp_path):
        """A job forked while a renewal holds the store's write lock would
        inherit SQLite's lock state, see a phantom writer and fail with
        ``database is locked``; the fork now waits for the renewal to
        commit."""
        # a long ttl keeps the lease loop's own renewals out of the way
        harness = DaemonHarness(tmp_path, lease_ttl=120.0)
        inside, release = threading.Event(), threading.Event()
        try:
            lease = harness.service._lease
            real_row = lease._row

            def slow_row():
                row = real_row()
                inside.set()
                release.wait(30)
                return row

            lease._row = slow_row  # the renewal stalls mid-transaction
            renewal = threading.Thread(target=lease.renew)
            renewal.start()
            assert inside.wait(10), "renewal never opened its transaction"
            job = harness.client.submit(_distinct("fork-during-renewal"))
            time.sleep(0.5)  # the job's shepherd reaches its fork
            release.set()
            renewal.join(30)
            assert harness.service._lease.held
            view = harness.client.wait(job["id"])
            assert view["status"] == "done", view["error"]
        finally:
            release.set()
            harness.close()

    def test_acquire_renew_release_cycle(self, tmp_path):
        path = str(tmp_path / "lease.sqlite")
        a = WriterLease(path, holder="a", ttl=30.0)
        b = WriterLease(path, holder="b", ttl=30.0)
        try:
            assert a.try_acquire() is True
            token = a.token
            assert a.held and token >= 1
            assert b.try_acquire() is False and not b.held
            assert a.renew() is True
            assert a.token == token  # renewal keeps the fencing token
            a.release()
            assert not a.held
            assert b.try_acquire() is True
            assert b.token == token + 1  # ownership change bumps it
        finally:
            a.close()
            b.close()

    def test_expired_lease_is_taken_over(self, tmp_path):
        path = str(tmp_path / "lease.sqlite")
        a = WriterLease(path, holder="a", ttl=30.0)
        b = WriterLease(path, holder="b", ttl=30.0)
        try:
            assert a.try_acquire(now=1000.0)
            assert not b.try_acquire(now=1010.0)  # still live
            assert b.try_acquire(now=1031.0)  # expired: takeover
            assert b.token == a.token + 1
            assert a.renew(now=1032.0) is False  # loser learns on renew
            assert not a.held
        finally:
            a.close()
            b.close()

    def test_backoff_delay_is_deterministic_and_capped(self, tmp_path):
        path = str(tmp_path / "lease.sqlite")
        a = WriterLease(path, holder="a")
        b = WriterLease(path, holder="b")
        try:
            assert a.backoff_delay(3) == a.backoff_delay(3)
            assert a.backoff_delay(3) != b.backoff_delay(3)  # jittered
            assert a.backoff_delay(50) <= 30.0
        finally:
            a.close()
            b.close()

    def test_stale_writer_append_refused_inside_transaction(self, tmp_path):
        """The fencing acceptance test: a writer that lost the lease has
        its append aborted by the token check inside record_collection's
        transaction — nothing it wrote survives."""
        path = str(tmp_path / "exp.sqlite")
        lease = WriterLease(path, holder="victim", ttl=30.0)
        thief = WriterLease(path, holder="thief", ttl=30.0)
        try:
            assert lease.try_acquire()
            with ExperimentStore(path) as store:
                store.set_write_fence("victim", lease.token)
                append_run(store, git_sha="fenced-ok")  # fence holds: fine
                thief.steal()  # rival takes over between transactions
                with pytest.raises(LeaseLost):
                    append_run(store, git_sha="fenced-stale")
            with ExperimentStore(path, read_only=True) as check:
                shas = [row["git_sha"] for row in check.runs()]
            assert "fenced-ok" in shas
            assert "fenced-stale" not in shas
        finally:
            lease.close()
            thief.close()

    def test_two_daemons_one_lease_holder_with_takeover(self, tmp_path):
        first = DaemonHarness(tmp_path, lease_ttl=2.0)
        second = None
        try:
            # warm the shared store so the lease loser can still serve
            done = first.client.wait(first.client.submit(SMALL)["id"])
            assert done["status"] == "done", done["error"]

            second = DaemonHarness(tmp_path, lease_ttl=2.0)
            held = [h.client.stats()["lease"]["held"] for h in (first, second)]
            assert held == [True, False], "exactly one daemon holds the lease"

            # the loser is memo-only: warm work served, cold work refused
            view = second.client.wait(second.client.submit(SMALL)["id"])
            assert view["status"] == "done" and view["memo_only"] is True
            with pytest.raises(ServiceError) as err:
                second.client.submit(OTHER)
            assert err.value.status == 503
            assert err.value.fields["reason"] == "lease"

            # holder goes away; the survivor takes over within a few TTLs
            first.close()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if second.client.stats()["lease"]["held"]:
                    break
                time.sleep(0.25)
            else:
                pytest.fail("surviving daemon never took the lease over")
            done = second.client.wait(second.client.submit(OTHER)["id"])
            assert done["status"] == "done", done["error"]
        finally:
            if second is not None:
                second.close()
