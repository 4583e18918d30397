"""The experiment daemon, its client, and the shared execution-args
wiring: daemon-vs-direct byte identity, the zero-work warm path, HTTP
error handling, and cache GC."""

import argparse
import json
import os
import subprocess
import sys

import pytest

from repro.lang.compiler import COMPILE_STATS
from repro.metrics import baseline
from repro.parallel import (
    ExecutionConfig,
    add_execution_args,
    execution_from_args,
)
from repro.service import BackgroundDaemon, ServiceClient, ServiceError


class DaemonHarness(BackgroundDaemon):
    """One live daemon on an ephemeral port, on a store and compile cache
    under ``tmp_path``."""

    def __init__(self, tmp_path, **kwargs):
        self.store_path = str(tmp_path / "exp.sqlite")
        self.cache_dir = str(tmp_path / "cache")
        kwargs.setdefault("jobs", 1)
        kwargs.setdefault("cache_dir", self.cache_dir)
        super().__init__(self.store_path, **kwargs)


@pytest.fixture
def daemon(tmp_path):
    harness = DaemonHarness(tmp_path)
    yield harness
    harness.close()


SMALL = {"benchmarks": "micro.arith,grande.sieve",
         "profiles": "clr-1.1,native-c", "scale": 0.0, "git_sha": "cafe"}


class TestDaemon:
    def test_health_and_stats_shape(self, daemon):
        health = daemon.client.health()
        assert health["ok"] and health["store"] == daemon.store_path
        stats = daemon.client.stats()
        assert set(stats) >= {"metrics", "compile_stats", "store", "queue_depth"}

    def test_full_matrix_matches_direct_serial_run(self, daemon):
        request = {"scale": 0.0, "git_sha": "cafe"}  # full suite, all profiles
        job = daemon.client.submit(request)
        done = daemon.client.wait(job["id"], timeout=600)
        assert done["status"] == "done", done["error"]
        served = daemon.client.result(job["id"])
        direct = baseline.collect(
            profiles=baseline.resolve_profiles(None),
            suite=baseline.resolve_suite(None, 0.0),
            scale=0.0, git_sha="cafe", jobs=1,
        )
        assert json.dumps(served, sort_keys=True) == json.dumps(direct, sort_keys=True)

    def test_repeat_submission_executes_nothing(self, daemon):
        cold = daemon.client.wait(daemon.client.submit(SMALL)["id"])
        assert cold["stats"]["hits"] == 0
        before = COMPILE_STATS["compile_source_calls"]
        warm = daemon.client.wait(daemon.client.submit(SMALL)["id"])
        stats = warm["stats"]
        assert stats["hits"] == stats["cells"] == 4
        assert stats["cells_executed"] == 0
        assert stats["compile_calls"] == 0
        assert COMPILE_STATS["compile_source_calls"] == before
        blob = lambda j: json.dumps(daemon.client.result(j["id"]), sort_keys=True)
        assert blob(cold) == blob(warm)
        counters = daemon.client.stats()["metrics"]["counters"]
        assert counters["service.cache_hits"] == 4
        assert counters["service.jobs"] == 2

    def test_null_dispatch_is_the_same_job(self, daemon):
        # older clients send "dispatch": null; it is served, and it is
        # the same submission as one without the field
        legacy = daemon.client.wait(
            daemon.client.submit({**SMALL, "dispatch": None})["id"]
        )
        assert legacy["status"] == "done", legacy["error"]
        plain = daemon.client.wait(daemon.client.submit(SMALL)["id"])
        assert plain["stats"]["hits"] == plain["stats"]["cells"] == 4
        jobs = daemon.service.table.jobs
        assert jobs[legacy["id"]]["coalesce_key"] == jobs[plain["id"]]["coalesce_key"]
        blob = lambda j: json.dumps(daemon.client.result(j["id"]), sort_keys=True)
        assert blob(legacy) == blob(plain)

    def test_trends_reflect_recorded_runs(self, daemon):
        daemon.client.wait(daemon.client.submit(SMALL)["id"])
        rows = daemon.client.trends(benchmark="micro.arith",
                                    profile="native-c")["rows"]
        assert len(rows) == 1 and rows[0]["ratio"] is not None

    def test_error_statuses(self, daemon):
        with pytest.raises(ServiceError) as err:
            daemon.client.submit({"benchmarks": "no.such"})
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            daemon.client.submit({"profiles": "no-such"})
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            daemon.client.submit({"dispatch": "warp-drive"})
        assert err.value.status == 400
        # ratios use the gate's anchor; the removed knob is refused
        with pytest.raises(ServiceError, match="ratio_base") as err:
            daemon.client.trends(ratio_base="mono-0.23")
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            daemon.client.submit({"plan": {"seed": 1}})
        assert err.value.status == 409
        with pytest.raises(ServiceError) as err:
            daemon.client.status(999)
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            daemon.client.result(999)
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            daemon.client._call("GET", "/v1/nonsense")
        assert err.value.status == 404

    def test_result_before_done_is_404_not_crash(self, daemon):
        job = daemon.client.submit(SMALL)
        try:
            daemon.client.result(job["id"])
        except ServiceError as err:
            # job was still queued/running — the route answers 404, the
            # daemon stays up (the wait below proves it)
            assert err.status == 404
        final = daemon.client.wait(job["id"])
        assert final["status"] == "done"


def _forbid_fork(monkeypatch):
    """Fail any job that forks, so a job that completes was served in
    the daemon process."""
    import repro.service.daemon as daemon_mod

    def forked(config):
        raise daemon_mod.JobFailed("RuntimeError: job forked")

    monkeypatch.setattr(daemon_mod, "_run_job_subprocess", forked)


def _run_rows(store_path):
    """Every run row's memo columns, in id order."""
    import sqlite3

    with sqlite3.connect(store_path) as conn:
        return conn.execute(
            "SELECT git_sha, scale, profiles, suite, store_hits, cell_keys,"
            " lease_token FROM runs ORDER BY id"
        ).fetchall()


def _in_process(daemon):
    return daemon.client.stats()["metrics"]["counters"]["service.jobs_in_process"]


class TestInProcessServing:
    """A job whose every cell is on record is served on the daemon's
    executor, without a fork; everything else still forks."""

    def test_warm_repeat_needs_no_fork(self, daemon, monkeypatch):
        cold = daemon.client.wait(daemon.client.submit(SMALL)["id"])
        assert cold["status"] == "done", cold["error"]
        compile_stats = daemon.client.stats()["compile_stats"]
        assert compile_stats["compile_source_calls"] > 0
        _forbid_fork(monkeypatch)
        warm = daemon.client.wait(daemon.client.submit(SMALL)["id"])
        assert warm["status"] == "done", warm["error"]
        stats = warm["stats"]
        assert stats["hits"] == stats["cells"] == 4
        assert stats["cells_executed"] == 0
        assert stats["compile_calls"] == 0
        direct = baseline.collect(
            profiles=baseline.resolve_profiles(SMALL["profiles"]),
            suite=baseline.resolve_suite(SMALL["benchmarks"], SMALL["scale"]),
            scale=SMALL["scale"], git_sha=SMALL["git_sha"], jobs=1,
        )
        served = daemon.client.result(warm["id"])
        assert json.dumps(served, sort_keys=True) == json.dumps(
            direct, sort_keys=True)
        assert daemon.client.stats()["compile_stats"] == compile_stats
        assert _in_process(daemon) == 1

    def test_served_job_appends_the_run_row_a_forked_one_does(
        self, daemon, monkeypatch
    ):
        import repro.service.daemon as daemon_mod

        assert _run_rows(daemon.store_path) == []
        daemon.client.wait(daemon.client.submit(SMALL)["id"])
        assert len(_run_rows(daemon.store_path)) == 1
        # the same warm job once forked, once served in process
        with monkeypatch.context() as patch:
            patch.setattr(daemon_mod, "_serve_in_process",
                          lambda config, read_pool: None)
            forked = daemon.client.wait(daemon.client.submit(SMALL)["id"])
        assert forked["status"] == "done", forked["error"]
        assert len(_run_rows(daemon.store_path)) == 2
        _forbid_fork(monkeypatch)
        served = daemon.client.wait(daemon.client.submit(SMALL)["id"])
        assert served["status"] == "done", served["error"]
        rows = _run_rows(daemon.store_path)
        assert len(rows) == 3
        assert rows[2] == rows[1]
        assert rows[2][4] == 4  # store_hits
        assert served["stats"] == dict(forked["stats"], run_id=3)
        assert _in_process(daemon) == 1

    def test_a_cell_missing_at_start_forks(self, daemon, monkeypatch):
        import repro.service.daemon as daemon_mod

        daemon.client.wait(daemon.client.submit(SMALL)["id"])
        real = daemon_mod._run_job_subprocess
        forks = []

        def spying(config):
            forks.append(config["request"]["profiles"])
            return real(config)

        monkeypatch.setattr(daemon_mod, "_run_job_subprocess", spying)
        wider = dict(SMALL, profiles="clr-1.1,native-c,mono-0.23")
        view = daemon.client.wait(daemon.client.submit(wider)["id"])
        assert view["status"] == "done", view["error"]
        assert forks == [["clr-1.1", "native-c", "mono-0.23"]]
        stats = view["stats"]
        assert (stats["cells"], stats["hits"], stats["cells_executed"]) == (
            6, 4, 2)
        assert _in_process(daemon) == 0

    def test_memo_only_warm_job_records_nothing(self, tmp_path, monkeypatch):
        with DaemonHarness(tmp_path) as warm:
            warm.client.wait(warm.client.submit(SMALL)["id"])
        rows = _run_rows(str(tmp_path / "exp.sqlite"))
        assert len(rows) == 1
        _forbid_fork(monkeypatch)
        with DaemonHarness(tmp_path, degraded=True) as degraded:
            view = degraded.client.wait(degraded.client.submit(SMALL)["id"])
            assert view["status"] == "done", view["error"]
            assert view["memo_only"] is True
            assert view["stats"]["hits"] == view["stats"]["cells"]
            assert view["stats"]["run_id"] is None
            assert _in_process(degraded) == 1
            assert _run_rows(degraded.store_path) == rows

    def test_chaos_armed_warm_job_forks(self, tmp_path):
        from repro.faults import FaultPlan

        with DaemonHarness(tmp_path) as warm:
            warm.client.wait(warm.client.submit(SMALL)["id"])
        plan = FaultPlan(seed=1, pinned=((1, "job_kill"),))
        with DaemonHarness(tmp_path, fault_plan=plan) as armed:
            view = armed.client.wait(armed.client.submit(SMALL)["id"])
            assert view["status"] == "failed"
            assert view["failure"]["fault"] == "job_kill"
            assert view["error"].startswith("chaos fault job_kill")
            assert _in_process(armed) == 0


def test_daemon_reads_the_store_only_under_the_fork_lock(tmp_path, monkeypatch):
    """A thread inside SQLite when a job forks would leave the child a
    process-wide SQLite mutex held: memo-only admission, ``/v1/stats``
    and ``/v1/trends`` read the store under ``FORK_LOCK``, like a job
    served in process."""
    from repro.store import lease

    with DaemonHarness(tmp_path) as warm:
        warm.client.wait(warm.client.submit(SMALL)["id"])
    with DaemonHarness(tmp_path, degraded=True) as degraded:
        pool = degraded.service._read_pool
        connection = pool.connection
        reads = []

        def locked_connection():
            assert lease.FORK_LOCK.locked(), "store read outside FORK_LOCK"
            reads.append(1)
            return connection()

        monkeypatch.setattr(pool, "connection", locked_connection)
        view = degraded.client.wait(degraded.client.submit(SMALL)["id"])
        assert view["status"] == "done", view["error"]
        assert view["memo_only"] is True
        assert degraded.client.stats()["store"]
        assert degraded.client.trends()["rows"]
        assert len(reads) >= 4  # admission, the served job, stats, trends


def _adopted(daemon):
    return daemon.client.stats()["metrics"]["counters"][
        "service.templates_adopted"]


def _direct(matrix):
    """The matrix run directly and serially — the identity reference."""
    return json.dumps(baseline.collect(
        profiles=baseline.resolve_profiles(matrix["profiles"]),
        suite=baseline.resolve_suite(matrix["benchmarks"], matrix["scale"]),
        scale=matrix["scale"], git_sha=matrix["git_sha"], jobs=1,
    ), sort_keys=True)


#: two cold ``micro.loop`` jobs of one shape: the scales set different
#: ``Reps``, so the second has no cell on record and forks too
LOOP = {"benchmarks": "micro.loop", "profiles": "clr-1.1,mono-0.23,native-c",
        "scale": 0.05, "git_sha": "cafe"}
LOOP_AGAIN = dict(LOOP, scale=0.03)


class TestWarmForks:
    """A cold job forks from a warm daemon: the daemon adopts the
    dispatch templates each job compiled, so a later fork inherits them,
    and it loads the benchmark registry before the first fork."""

    def test_second_cold_job_of_a_shape_adopts_nothing(
        self, tmp_path, monkeypatch
    ):
        from repro.vm import dispatch

        monkeypatch.setattr(dispatch, "_TEMPLATES", {})
        with DaemonHarness(tmp_path) as daemon:
            assert _adopted(daemon) == 0
            views = []
            for matrix in (LOOP, LOOP_AGAIN):
                view = daemon.client.wait(daemon.client.submit(matrix)["id"])
                assert view["status"] == "done", view["error"]
                assert view["stats"]["cells_executed"] == 3
                views.append((view, _adopted(daemon)))
            (first, after_first), (second, after_second) = views
            assert after_first > 0
            assert after_second == after_first
            assert len(dispatch._TEMPLATES) == after_first
            for view, matrix in ((first, LOOP), (second, LOOP_AGAIN)):
                served = json.dumps(daemon.client.result(view["id"]),
                                    sort_keys=True)
                assert served == _direct(matrix)

    def test_adopted_template_equals_one_compiled_in_process(
        self, tmp_path, monkeypatch
    ):
        from repro.vm import dispatch

        monkeypatch.setattr(dispatch, "_TEMPLATES", {})
        with DaemonHarness(tmp_path) as daemon:
            view = daemon.client.wait(daemon.client.submit(LOOP)["id"])
            assert view["status"] == "done", view["error"]
        adopted = dispatch._TEMPLATES
        assert adopted
        monkeypatch.setattr(dispatch, "_TEMPLATES", {})
        monkeypatch.setattr(dispatch, "_HOT_CODE", {})
        _direct(LOOP)
        assert dispatch._TEMPLATES == adopted

    def test_adoption_respects_the_cache_bound(self, monkeypatch):
        from repro.vm import dispatch

        monkeypatch.setattr(dispatch, "_TEMPLATES", {})
        for n in range(5):
            dispatch._TEMPLATES[(n, "i4", None)] = compile(
                f"x = {n}", "<t>", "exec")
        blob = dispatch.export_templates({(0, "i4", None)})
        monkeypatch.setattr(dispatch, "_TEMPLATES", {(9, "i4", None): None})
        monkeypatch.setattr(dispatch, "_TEMPLATE_LIMIT", 2)
        assert dispatch.adopt_templates(blob) == 4
        assert list(dispatch._TEMPLATES) == [(3, "i4", None), (4, "i4", None)]
        assert dispatch._TEMPLATES[(4, "i4", None)] == compile(
            "x = 4", "<t>", "exec")

    def test_started_daemon_has_loaded_every_module_a_job_imports(self):
        script = "\n".join([
            "import asyncio, os, sys, tempfile",
            "from repro.metrics import baseline",
            "from repro.service import ExperimentService",
            "work = tempfile.mkdtemp()",
            "service = ExperimentService(os.path.join(work, 'exp.sqlite'),",
            "    use_lease=False, cache_dir=os.path.join(work, 'cache'))",
            "loop = asyncio.new_event_loop()",
            "loop.run_until_complete(service.start())",
            "before = set(sys.modules)",
            "baseline.collect(profiles=baseline.resolve_profiles('clr-1.1'),",
            "    suite=baseline.resolve_suite('micro.loop', 0.0), scale=0.0,",
            "    git_sha='cafe', jobs=1, cache=None)",
            "loop.run_until_complete(service.stop())",
            "print(sorted(m for m in set(sys.modules) - before",
            "             if m.split('.')[0] == 'repro'))",
        ])
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"


class TestJobTiming:
    def test_finished_job_carries_lifecycle_stamps(self, daemon):
        done = daemon.client.wait(daemon.client.submit(SMALL)["id"])
        assert done["submitted_at"] <= done["started_at"] <= done["finished_at"]
        assert done["queue_wait_seconds"] >= 0.0
        assert done["run_seconds"] > 0.0
        assert done["queue_position"] is None
        assert done["trace_id"]  # daemon-minted even without a client header

    def test_queued_job_reports_its_position(self, daemon):
        first = daemon.client.submit(SMALL)
        second = daemon.client.submit(dict(SMALL, scale=0.0, git_sha="beef"))
        view = daemon.client.status(second["id"])
        if view["status"] == "queued":  # first may already have drained
            assert view["queue_position"] >= 1
            assert view["started_at"] is None and view["finished_at"] is None
        daemon.client.wait(first["id"])
        daemon.client.wait(second["id"])

    def test_status_cli_prints_timing_line(self, daemon, capsys):
        from repro.cli import main

        daemon.client.wait(daemon.client.submit(SMALL)["id"])
        assert main(["client", "--url", daemon.url, "status", "1"]) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout stays machine-readable
        assert "job 1 done" in captured.err
        assert "ran" in captured.err and "trace" in captured.err


class TestMetricsEndpoint:
    def test_exposition_is_valid_and_counters_move(self, daemon):
        from repro.metrics import validate_exposition

        cold = validate_exposition(daemon.client.metrics())
        # the request counter lands *after* each response is written, so
        # the very first scrape may or may not see itself — only movement
        # is asserted
        cold_http = dict(
            cold.get("repro_service_http_requests", [("", 0.0)])
        ).get("", 0.0)
        daemon.client.wait(daemon.client.submit(SMALL)["id"])
        daemon.client.wait(daemon.client.submit(SMALL)["id"])
        warm = validate_exposition(daemon.client.metrics())
        assert dict(warm["repro_service_cells"])[""] == 8.0
        assert dict(warm["repro_service_cache_hits"])[""] == 4.0
        assert dict(warm["repro_service_jobs"])[""] == 2.0
        assert (dict(warm["repro_service_http_requests"])[""]
                > cold_http)
        # latency histograms observed every request and both job phases
        assert dict(warm["repro_service_http_latency_us_count"])[""] >= 4.0
        assert dict(warm["repro_service_job_exec_us_count"])[""] == 2.0
        assert dict(warm["repro_service_job_queue_wait_us_count"])[""] == 2.0
        buckets = warm["repro_service_http_latency_us_bucket"]
        assert any('le="+Inf"' in labels for labels, _v in buckets)

    def test_content_type_is_prometheus_text(self, daemon):
        import urllib.request

        from repro.metrics import EXPOSITION_CONTENT_TYPE

        with urllib.request.urlopen(daemon.url + "/metrics", timeout=10) as rsp:
            assert rsp.headers["Content-Type"] == EXPOSITION_CONTENT_TYPE

    def test_stats_carries_job_and_trace_summary(self, daemon):
        daemon.client.wait(daemon.client.submit(SMALL)["id"])
        stats = daemon.client.stats()
        assert stats["jobs"]["done"] == 1
        assert stats["inflight"] == 0
        assert stats["uptime_seconds"] > 0.0
        assert stats["trace"]["buffered_spans"] > 0
        assert stats["trace"]["dropped_spans"] == 0

    def test_metrics_cli_prints_exposition(self, daemon, capsys):
        from repro.metrics import validate_exposition
        from repro.cli import main

        assert main(["client", "--url", daemon.url, "metrics"]) == 0
        validate_exposition(capsys.readouterr().out)


def _raw_request(url: str, blob: bytes) -> bytes:
    """Speak raw bytes to the daemon (malformed-input tests bypass urllib)."""
    import socket
    from urllib.parse import urlsplit

    parts = urlsplit(url)
    with socket.create_connection((parts.hostname, parts.port), timeout=10) as s:
        try:
            s.sendall(blob)
        except (BrokenPipeError, ConnectionResetError):
            pass  # daemon may answer-and-close before we finish sending
        response = b""
        while True:
            try:
                chunk = s.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            response += chunk
    return response


class TestHttpRobustness:
    def test_malformed_request_line_gets_400(self, daemon):
        response = _raw_request(daemon.url, b"GARBAGE\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 400")
        assert b"x-repro-trace:" in response.lower()

    def test_oversized_header_block_gets_400(self, daemon):
        blob = (b"GET /healthz HTTP/1.1\r\nX-Junk: " + b"a" * 70_000)
        response = _raw_request(daemon.url, blob)
        assert response.startswith(b"HTTP/1.1 400")

    def test_oversized_body_gets_400(self, daemon):
        blob = (b"POST /v1/jobs HTTP/1.1\r\n"
                b"Content-Length: 9000000\r\n\r\n")
        response = _raw_request(daemon.url, blob)
        assert response.startswith(b"HTTP/1.1 400")
        assert b"body too large" in response

    def test_bad_content_length_gets_400(self, daemon):
        blob = (b"POST /v1/jobs HTTP/1.1\r\n"
                b"Content-Length: banana\r\n\r\n")
        response = _raw_request(daemon.url, blob)
        assert response.startswith(b"HTTP/1.1 400")

    def test_disconnect_mid_request_leaves_daemon_healthy(self, daemon):
        import socket
        from urllib.parse import urlsplit

        parts = urlsplit(daemon.url)
        for _ in range(3):
            s = socket.create_connection((parts.hostname, parts.port),
                                         timeout=10)
            s.sendall(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\n")
            s.close()  # hang up before the body arrives
        assert daemon.client.health()["ok"]

    def test_error_responses_carry_trace_ids(self, daemon):
        with pytest.raises(ServiceError):
            daemon.client.status(999)
        assert daemon.client.last_trace  # 404 still echoes X-Repro-Trace
        client = ServiceClient(daemon.url, trace_id="feedface")
        with pytest.raises(ServiceError):
            client.status(999)
        assert client.last_trace.startswith("feedface:")


class TestCacheGc:
    def _orphan(self, cache_dir):
        path = os.path.join(cache_dir, "asm", "de", "adbeef.tmp")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write("torn write")
        return path

    def test_startup_sweep_reaps_orphans(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        orphan = self._orphan(cache_dir)
        harness = DaemonHarness(tmp_path)
        try:
            assert not os.path.exists(orphan)
            assert harness.service.swept_tmp_files == 1
        finally:
            harness.close()

    def test_admin_gc_reaps_orphans(self, daemon):
        orphan = self._orphan(daemon.cache_dir)
        payload = daemon.client.admin_gc()
        assert payload["reaped_tmp_files"] == 1
        assert not os.path.exists(orphan)
        counters = daemon.client.stats()["metrics"]["counters"]
        assert counters["service.gc_runs"] == 1


class TestClientCli:
    def test_submit_wait_out_and_result(self, daemon, tmp_path, capsys):
        from repro.cli import main

        cold = str(tmp_path / "cold.json")
        warm = str(tmp_path / "warm.json")
        base = ["client", "--url", daemon.url, "submit",
                "--benchmarks", "micro.arith", "--profiles", "clr-1.1,native-c",
                "--scale", "0.0", "--git-sha", "cafe", "--wait"]
        assert main(base + ["--out", cold]) == 0
        assert main(base + ["--out", warm]) == 0
        assert open(cold, "rb").read() == open(warm, "rb").read()
        assert main(["client", "--url", daemon.url, "status", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "done"
        assert main(["client", "--url", daemon.url, "result", "2"]) == 0
        artifact = json.loads(capsys.readouterr().out)
        assert artifact == json.load(open(cold))

    def test_trends_text_matches_store_trends(self, daemon, capsys):
        from repro.cli import main

        daemon.client.wait(daemon.client.submit(SMALL)["id"])
        # cycle rows (the clr-1.1 anchor has no ratio), ratio rows, and
        # metric rows print the same through the daemon and the store
        for filters in ([], ["--metric", "heap.allocations"]):
            assert main(["client", "--url", daemon.url, "trends", *filters]) == 0
            served = capsys.readouterr().out
            assert main(["store", "--db", daemon.store_path, "trends",
                         *filters]) == 0
            direct = capsys.readouterr().out
            assert served == direct
            assert len(served.splitlines()) == 4

    def test_bare_trace_flag_before_subcommand(self, daemon, capsys):
        # argparse's nargs="?" would otherwise eat "stats" as the trace id
        from repro.cli import main

        assert main(["client", "--url", daemon.url, "--trace", "stats"]) == 0
        captured = capsys.readouterr()
        assert "repro-client: trace " in captured.err
        minted = captured.err.split("repro-client: trace ")[1].split()[0]
        assert len(minted) == 32  # a fresh full trace id was minted
        json.loads(captured.out)  # stats still ran and printed JSON

        # an explicit id is passed through untouched
        assert main(
            ["client", "--url", daemon.url, "--trace", "feedface", "stats"]) == 0
        assert "repro-client: trace feedface" in capsys.readouterr().err

    def test_armed_fault_plan_fails_before_http(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="fault plans"):
            main(["client", "--url", "http://127.0.0.1:1", "submit",
                  "--fault-seed", "3", "--wait"])

    def test_submit_takes_no_cache_options(self):
        # the daemon's own flags choose its compile cache
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["client", "--url", "http://127.0.0.1:1", "submit",
                  "--no-compile-cache"])
        assert exc.value.code == 2

    def test_unreachable_daemon_is_a_clean_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="cannot reach"):
            main(["client", "--url", "http://127.0.0.1:1", "stats"])


class TestExecutionArgs:
    def _parse(self, argv, **kwargs):
        parser = argparse.ArgumentParser()
        add_execution_args(parser, **kwargs)
        return parser.parse_args(argv)

    def test_defaults_round_trip(self):
        execution = execution_from_args(self._parse([]))
        assert isinstance(execution, ExecutionConfig)
        assert execution.jobs is None
        assert execution.use_compile_cache and execution.cache is not None
        assert execution.plan is None

    def test_flags_map_through(self, tmp_path):
        execution = execution_from_args(self._parse([
            "--jobs", "4", "--cache-dir", str(tmp_path),
            "--fault-seed", "7", "--fault-sites", "alloc_oom",
        ]))
        assert execution.jobs == "4"
        assert execution.cache.root.startswith(str(tmp_path))
        assert execution.plan is not None and execution.plan.seed == 7

    def test_no_compile_cache_disables_cache(self):
        execution = execution_from_args(self._parse(["--no-compile-cache"]))
        assert execution.cache is None

    def test_bare_fault_prefix(self):
        args = self._parse(["--seed", "3"], fault_prefix="")
        assert execution_from_args(args).plan.seed == 3

    def test_include_faults_false_has_no_plan(self):
        execution = execution_from_args(self._parse([], include_faults=False))
        assert execution.plan is None

    def test_as_request_rejects_armed_plan(self):
        execution = execution_from_args(self._parse(["--fault-seed", "1"]))
        with pytest.raises(ValueError):
            execution.as_request()

    @pytest.mark.parametrize("build, argv", [
        ("repro.metrics.cli", ["bench", "run", "--jobs", "2",
                               "--fault-seed", "5", "--store", "x.sqlite"]),
        ("repro.faults.cli", ["chaos", "run", "--seed", "5", "--jobs", "2"]),
        ("repro.service.cli", ["client", "submit", "--jobs", "2",
                               "--fault-seed", "5"]),
    ])
    def test_every_cli_accepts_the_shared_flags(self, build, argv):
        from repro.cli import parse_args

        args = parse_args(argv)
        assert args.func.__module__ == build
        execution = execution_from_args(args)
        assert execution.jobs == "2"
        assert execution.plan is not None

    def test_hpcnet_run_accepts_the_shared_flags(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["run", "micro.arith", "--profiles", "clr-1.1",
                   "--param", "Reps=50", "--jobs", "1",
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        assert "micro.arith" in capsys.readouterr().out
