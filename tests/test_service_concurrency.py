"""The daemon's concurrency surface: multi-worker execution with per-job
compile isolation, submission coalescing, queue-membership positions,
the pooled keep-alive client, and the N-worker byte-identity invariant
(concurrent mixed submissions serve exactly the artifacts a direct
serial run produces)."""

import json
import threading

import pytest

from repro.metrics import baseline
from repro.service import ServiceClient, ServiceError
from repro.service.jobs import JobTable, Now

from tests.test_service import SMALL, DaemonHarness, _direct

#: a second matrix, disjoint from SMALL, so the pair never coalesces
OTHER = {"benchmarks": "micro.loop,scimark.sor",
         "profiles": "clr-1.1,native-c", "scale": 0.0, "git_sha": "cafe"}


def _blob(client, job_id):
    return json.dumps(client.result(job_id), sort_keys=True)


class TestCompileIsolation:
    def test_concurrent_cold_jobs_report_their_own_compiles(self, tmp_path):
        # reference: each matrix cold, serially, in its own daemon
        serial_dir = tmp_path / "serial"
        serial_dir.mkdir()
        serial = DaemonHarness(serial_dir)
        try:
            expected = {}
            for tag, matrix in (("a", SMALL), ("b", OTHER)):
                done = serial.client.wait(serial.client.submit(matrix)["id"])
                assert done["status"] == "done", done["error"]
                expected[tag] = done["stats"]["compile_calls"]
            assert expected["a"] > 0 and expected["b"] > 0
        finally:
            serial.close()

        # the same two matrices submitted back-to-back against a fresh
        # 2-worker daemon: overlapping executions, yet each job reports
        # exactly its own compile count (measured inside its subprocess),
        # not a smeared sample of a shared counter
        conc_dir = tmp_path / "concurrent"
        conc_dir.mkdir()
        conc = DaemonHarness(conc_dir, workers=2)
        try:
            job_a = conc.client.submit(SMALL)
            job_b = conc.client.submit(OTHER)
            done_a = conc.client.wait(job_a["id"])
            done_b = conc.client.wait(job_b["id"])
            assert done_a["status"] == done_b["status"] == "done"
            assert done_a["stats"]["compile_calls"] == expected["a"]
            assert done_b["stats"]["compile_calls"] == expected["b"]
        finally:
            conc.close()


@pytest.fixture
def stalled(tmp_path, monkeypatch):
    """A 2-worker daemon whose job executions finish their real work and
    then stall until released — a deterministic window in which the
    primary is ``running`` and identical submissions must coalesce."""
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
    harness = DaemonHarness(tmp_path, workers=2)
    harness.running, harness.release = running, release
    yield harness
    release.set()
    harness.close()


class TestCoalescing:
    def test_identical_inflight_submissions_attach_to_one_execution(
        self, stalled
    ):
        client = stalled.client
        primary = client.submit(SMALL)
        assert stalled.running.wait(120), "primary never started"
        followers = [client.submit(SMALL) for _ in range(3)]
        for follower in followers:
            view = client.status(follower["id"])
            assert view["coalesced_with"] == primary["id"]
            assert view["queue_position"] is None
            assert view["status"] == "running"  # tracks the primary
        # a *different* matrix in the same window does not coalesce
        other = client.submit(OTHER)
        assert client.status(other["id"])["coalesced_with"] is None
        # fault-plan submissions are rejected before coalescing sees them
        with pytest.raises(ServiceError) as err:
            client.submit(dict(SMALL, plan={"seed": 1}))
        assert err.value.status == 409

        stalled.release.set()
        done = client.wait(primary["id"], timeout=300)
        assert done["status"] == "done", done["error"]
        reference = _blob(client, primary["id"])
        for follower in followers:
            view = client.wait(follower["id"], timeout=300)
            assert view["status"] == "done"
            assert view["followers"] == []
            # served entirely from the primary's execution: zero
            # compiles, zero guest cycles of their own
            stats = view["stats"]
            assert stats["compile_calls"] == 0
            assert stats["cells_executed"] == 0
            assert stats["hits"] == stats["cells"]
            assert _blob(client, follower["id"]) == reference
        client.wait(other["id"], timeout=300)

        stats = client.stats()
        assert stats["coalesced_total"] == 3
        counters = stats["metrics"]["counters"]
        assert counters["service.coalesced_total"] == 3
        assert counters["service.jobs"] == 5
        # the counter is scrapeable on /metrics too
        from repro.metrics import validate_exposition

        parsed = validate_exposition(client.metrics())
        assert dict(parsed["repro_service_coalesced_total"])[""] == 3.0

    def test_primary_failure_propagates_to_followers(self, stalled, monkeypatch):
        import repro.service.daemon as daemon_mod

        def boom(config):
            stalled.running.set()
            stalled.release.wait(60)
            raise daemon_mod.JobFailed("RuntimeError: injected")

        monkeypatch.setattr(daemon_mod, "_run_job_subprocess", boom)
        client = stalled.client
        primary = client.submit(SMALL)
        assert stalled.running.wait(120)
        follower = client.submit(SMALL)
        assert client.status(follower["id"])["coalesced_with"] == primary["id"]
        stalled.release.set()
        assert client.wait(primary["id"])["status"] == "failed"
        view = client.wait(follower["id"])
        assert view["status"] == "failed"
        assert f"coalesced with job {primary['id']}" in view["error"]
        assert "RuntimeError: injected" in view["error"]


def test_requests_with_equal_cells_but_other_artifacts_do_not_coalesce(
    tmp_path, monkeypatch
):
    # both resolve micro.arith to the same params, so every cell key is
    # shared; the artifacts still differ in scale and profile order
    import repro.service.daemon as daemon_mod

    real = daemon_mod._run_job_subprocess
    running, release = threading.Event(), threading.Event()

    def slow(config):
        running.set()
        release.wait(60)
        return real(config)

    monkeypatch.setattr(daemon_mod, "_run_job_subprocess", slow)
    first = {"benchmarks": "micro.arith", "profiles": "clr-1.1,native-c",
             "scale": 0.0, "git_sha": "cafe"}
    second = dict(first, profiles="native-c,clr-1.1", scale=0.001)
    assert baseline.resolve_suite("micro.arith", 0.0) == baseline.resolve_suite(
        "micro.arith", 0.001)
    with DaemonHarness(tmp_path, workers=1) as harness:
        client = harness.client
        blocker = client.submit(OTHER)
        assert running.wait(120), "blocker never started"
        jobs = [client.submit(matrix) for matrix in (first, second)]
        for job in jobs:
            view = client.status(job["id"])
            assert view["status"] == "queued"
            assert view["coalesced_with"] is None
        release.set()
        assert client.wait(blocker["id"], timeout=300)["status"] == "done"
        for job, matrix in zip(jobs, (first, second)):
            view = client.wait(job["id"], timeout=300)
            assert view["status"] == "done", view["error"]
            assert _blob(client, job["id"]) == _direct(matrix)
        assert client.stats()["coalesced_total"] == 0


class TestQueuePosition:
    """Positions on the job table itself: submissions queue up and
    nothing drains unless the test says so, so positions are
    deterministic."""

    @staticmethod
    def _submit(table, sha):
        return table.submit({"git_sha": sha}, f"key-{sha}", Now(0.0, 0.0))

    def test_position_comes_from_queue_membership(self):
        table = JobTable()
        jobs = [self._submit(table, sha) for sha in ("aaaa", "bbbb", "cccc")]
        assert [table.view(j, 0.0)["queue_position"] for j in jobs] == [1, 2, 3]

        # a drain task picks up job 1 and it fails: an id-order status
        # scan would leave the survivors' positions unshifted (or count
        # the failed job); queue membership gets both right
        assert table.start(Now(1.0, 1.0)) is jobs[0]
        table.finish(jobs[0], Now(2.0, 2.0), {"kind": "error", "detail": "x"})
        assert jobs[0]["status"] == "failed"
        assert table.view(jobs[0], 2.0)["queue_position"] is None
        assert table.view(jobs[1], 2.0)["queue_position"] == 1
        assert table.view(jobs[2], 2.0)["queue_position"] == 2

    def test_coalesced_followers_hold_no_position(self):
        table = JobTable()
        primary = self._submit(table, "aaaa")
        follower = self._submit(table, "aaaa")
        behind = self._submit(table, "bbbb")
        assert follower["coalesced_with"] == primary["id"]
        assert table.view(follower, 0.0)["queue_position"] is None
        # the follower occupies no queue slot, so it shifts nobody
        assert table.view(behind, 0.0)["queue_position"] == 2


class TestClientPool:
    def test_sequential_calls_reuse_one_connection(self, daemon):
        with ServiceClient(daemon.url) as client:
            client.health()
            client.stats()
            client.health()
            stats = client.pool_stats()
            assert stats["created"] == 1
            assert stats["reused"] >= 2
            assert stats["idle"] == 1

    def test_trace_propagates_on_reused_connections(self, daemon):
        with ServiceClient(daemon.url, trace_id="feedface") as client:
            for _ in range(3):
                client.health()
                assert client.last_trace.startswith("feedface:")
            assert client.pool_stats()["created"] == 1

    def test_stale_pooled_connection_retries_fresh(self, tmp_path):
        harness = DaemonHarness(tmp_path)
        client = ServiceClient(harness.url)
        try:
            client.health()
            # daemon restarts on a new port; re-point the client so its
            # pooled (now dead) connection is the thing under test
            harness.close()
            harness = DaemonHarness(tmp_path)
            client._host, client._port = harness.service.address
            assert client.health()["ok"]  # stale conn retried, not fatal
        finally:
            client.close()
            harness.close()


@pytest.fixture
def daemon(tmp_path):
    harness = DaemonHarness(tmp_path)
    yield harness
    harness.close()


class TestFourWorkerIdentity:
    def test_concurrent_mixed_submissions_match_direct_serial_runs(
        self, tmp_path
    ):
        """The acceptance invariant: a 4-worker daemon under eight
        concurrent cold/warm/coalesced submissions serves artifacts
        byte-identical to direct serial runs."""
        harness = DaemonHarness(tmp_path, workers=4)
        try:
            matrices = [SMALL, SMALL, SMALL, OTHER, OTHER, SMALL, OTHER, SMALL]
            results = [None] * len(matrices)

            def submit(slot, matrix):
                job = harness.client.submit(matrix)
                results[slot] = harness.client.wait(job["id"], timeout=600)

            threads = [
                threading.Thread(target=submit, args=(slot, matrix))
                for slot, matrix in enumerate(matrices)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(600)

            direct = {"a": _direct(SMALL), "b": _direct(OTHER)}
            for matrix, view in zip(matrices, results):
                assert view is not None and view["status"] == "done", view
                tag = "a" if matrix is SMALL else "b"
                assert _blob(harness.client, view["id"]) == direct[tag]
                if view["coalesced_with"] is not None:
                    # coalesced duplicates did zero work of their own
                    assert view["stats"]["compile_calls"] == 0
                    assert view["stats"]["cells_executed"] == 0

            stats = harness.client.stats()
            assert stats["workers"] == 4
            assert stats["journal_mode"] == "wal"
            assert stats["jobs"]["done"] == len(matrices)
            assert stats["read_pool"]["created"] >= 1
        finally:
            harness.close()
