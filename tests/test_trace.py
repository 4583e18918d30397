"""The wall-clock tracing layer: ids and header propagation, the tracer
and its sinks, Chrome two-clock-domain export, Prometheus exposition,
pool/collect span structure, and the end-to-end daemon invariants
(>= 95% wall coverage, zero orphan spans, zero artifact perturbation)."""

import json
import socket
import time
import urllib.request

import pytest

from repro.metrics import baseline
from repro.metrics.exposition import (
    parse_exposition,
    render_exposition,
    validate_exposition,
)
from repro.metrics.registry import MetricsRegistry
from repro.observe.timeline import Timeline
from repro.trace import (
    NULL_CONTEXT,
    TRACE_HEADER,
    JsonlSink,
    Span,
    Tracer,
    covered_seconds,
    format_trace_header,
    load_jsonl,
    merge_chrome_trace,
    new_span_id,
    new_trace_id,
    orphan_spans,
    parse_trace_header,
    spans_to_events,
)

from tests.test_service import SMALL, DaemonHarness


class TestIdsAndHeader:
    def test_id_shapes(self):
        trace_id, span_id = new_trace_id(), new_span_id()
        assert len(trace_id) == 32 and len(span_id) == 16
        int(trace_id, 16), int(span_id, 16)
        assert new_trace_id() != trace_id

    def test_header_round_trip(self):
        assert parse_trace_header(format_trace_header("abc123")) == ("abc123", None)
        assert parse_trace_header(format_trace_header("abc123", "def9")) == (
            "abc123", "def9",
        )

    @pytest.mark.parametrize("value", [
        None, "", "not-hex", "xyz:123", "g" * 32, "a" * 65,
    ])
    def test_hostile_headers_rejected(self, value):
        assert parse_trace_header(value) == (None, None)

    def test_bad_parent_is_dropped_not_fatal(self):
        assert parse_trace_header("abc123:not-hex") == ("abc123", None)


class TestTracer:
    def test_record_and_snapshot(self):
        tracer = Tracer()
        span = tracer.record("work", "t1", t0=1.0, dur=0.5, attrs={"k": "v"})
        assert span.span_id and span.trace_id == "t1"
        assert [s.name for s in tracer.snapshot("t1")] == ["work"]
        assert tracer.snapshot("other") == []
        assert tracer.trace_ids() == ["t1"]

    def test_ring_buffer_bounds_memory(self):
        tracer = Tracer(max_spans=3)
        for index in range(5):
            tracer.record(f"s{index}", "t1")
        assert len(tracer.snapshot()) == 3 and tracer.dropped == 2

    def test_child_nesting_links_parents(self):
        tracer = Tracer()
        ctx = tracer.context()
        with ctx.child("outer") as outer:
            with outer.child("inner", depth=2) as inner:
                inner.set(extra=True)
        spans = {s.name: s for s in tracer.snapshot()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None
        assert spans["inner"].attrs == {"depth": 2, "extra": True}
        assert spans["inner"].t0 >= spans["outer"].t0
        assert orphan_spans(spans.values()) == []

    def test_events_are_zero_duration_points(self):
        tracer = Tracer()
        ctx = tracer.context()
        ctx.event("retry", attempt=1)
        (span,) = tracer.snapshot()
        assert span.kind == "event" and span.dur == 0.0

    def test_null_context_is_inert(self):
        assert not NULL_CONTEXT.enabled
        with NULL_CONTEXT.child("x", a=1) as child:
            assert child is NULL_CONTEXT
        NULL_CONTEXT.record("y", t0=0.0, dur=1.0)
        NULL_CONTEXT.event("z")
        NULL_CONTEXT.set(k="v")
        assert NULL_CONTEXT.header() is None

    def test_span_dict_round_trip(self):
        span = Span("t", "s", "p", "n", 1.5, 0.25, "event", {"a": 1})
        clone = Span.from_dict(json.loads(json.dumps(span.to_dict())))
        assert clone.to_dict() == span.to_dict()


class TestJsonlSink:
    def test_sink_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "sub" / "trace.jsonl")
        sink = JsonlSink(path)
        tracer = Tracer(sinks=(sink,))
        ctx = tracer.context()
        with ctx.child("outer"):
            pass
        ctx.event("mark", note="hi")
        sink.close()
        spans = load_jsonl(path)
        assert [s.name for s in spans] == ["outer", "mark"]
        assert spans[0].to_dict() == tracer.snapshot()[0].to_dict()

    def test_concurrent_writers_never_interleave_lines(self, tmp_path):
        # daemon executor threads and the event loop both flush spans
        # through one sink; under the lock every JSONL line must stay a
        # complete, parseable record with no torn or interleaved writes
        import threading

        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        tracer = Tracer(max_spans=10_000, sinks=(sink,))
        threads_n, spans_n = 8, 200

        def body(worker):
            ctx = tracer.context()
            for index in range(spans_n):
                ctx.event(f"w{worker}.s{index}", worker=worker)

        threads = [
            threading.Thread(target=body, args=(worker,))
            for worker in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        sink.close()
        with open(path) as handle:
            lines = handle.read().splitlines()
        assert len(lines) == threads_n * spans_n
        names = {json.loads(line)["name"] for line in lines}  # every line parses
        assert names == {
            f"w{worker}.s{index}"
            for worker in range(threads_n)
            for index in range(spans_n)
        }


class TestAnalysis:
    def test_orphans_flagged_per_trace(self):
        ok = Span("t1", "a", None, "root", 0, 1)
        child = Span("t1", "b", "a", "child", 0, 1)
        orphan = Span("t1", "c", "missing", "lost", 0, 1)
        cross = Span("t2", "d", "a", "wrong-trace", 0, 1)
        assert {s.span_id for s in orphan_spans([ok, child, orphan, cross])} == {
            "c", "d",
        }

    def test_covered_seconds_unions_overlaps(self):
        spans = [
            Span("t", "a", None, "x", 0.0, 2.0),
            Span("t", "b", None, "y", 1.0, 2.0),  # overlaps [1,2]
            Span("t", "c", None, "z", 5.0, 1.0),  # gap [3,5]
        ]
        assert covered_seconds(spans, 0.0, 6.0) == pytest.approx(4.0)
        # clamped at the window edges: [2.5,3] from b plus [5,5.5] from c
        assert covered_seconds(spans, 2.5, 5.5) == pytest.approx(1.0)
        assert covered_seconds([], 0.0, 1.0) == 0.0


class TestChromeMerge:
    def _spans(self):
        return [
            Span("t", "a", None, "http.request", 10.0, 0.5,
                 attrs={"track": "http"}),
            Span("t", "b", "a", "cell:x@y", 10.1, 0.2,
                 attrs={"track": "worker-42"}),
            Span("t", "c", "a", "retry", 10.3, 0.0, kind="event",
                 attrs={"track": "worker-42"}),
        ]

    def test_spans_to_events_tracks_and_phases(self):
        events = spans_to_events(self._spans())
        named = [e for e in events if e["ph"] == "M"]
        assert {e["args"]["name"] for e in named} == {"http", "worker-42"}
        xs = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {"http.request", "cell:x@y"}
        assert all(e["pid"] == 2 for e in events)
        instant = next(e for e in events if e["ph"] == "I")
        assert instant["name"] == "retry" and "dur" not in instant
        root = next(e for e in xs if e["name"] == "http.request")
        assert root["ts"] == 0.0 and root["dur"] == pytest.approx(0.5e6)

    def test_merge_keeps_domains_in_separate_pids(self):
        timeline = Timeline()
        timeline.complete("guest", 0, 100, tid=0)
        sim = timeline.to_chrome_trace(1e6, {"label": "micro.arith@clr-1.1"})
        merged = merge_chrome_trace(self._spans(), [sim])
        pids = {e.get("pid") for e in merged["traceEvents"]}
        assert pids == {2, 10}
        names = {
            e["args"]["name"]
            for e in merged["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {
            "service (wall clock)",
            "micro.arith@clr-1.1 (simulated clock)",
        }
        domains = merged["otherData"]["clock_domains"]
        assert set(domains) == {"pid 2", "pid 10"}
        assert "1e+06" in domains["pid 10"] or "1000000" in domains["pid 10"]

    def test_legacy_timeline_export_is_unchanged(self):
        timeline = Timeline()
        timeline.begin("m", 0, tid=0)
        timeline.end("m", 10, tid=0)
        trace = timeline.to_chrome_trace(1e6)
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert "label" not in trace["otherData"]
        assert all(e["pid"] == 1 for e in trace["traceEvents"])
        labelled = timeline.to_chrome_trace(1e6, {"label": "x"})
        assert all(e["pid"] == 1 for e in labelled["traceEvents"])
        assert labelled["otherData"]["label"] == "x"


class TestExposition:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("service.jobs").add(3)
        registry.gauge("service.queue_depth").set(2)
        hist = registry.histogram("service.http_latency_us", (10, 100))
        hist.observe(5)
        hist.observe(50)
        hist.observe(5000)
        return registry

    def test_render_is_valid_and_parses_back(self):
        text = render_exposition(self._registry())
        samples = validate_exposition(text)
        assert samples["repro_service_jobs"] == [("", 3.0)]
        assert samples["repro_service_queue_depth"] == [("", 2.0)]
        buckets = dict(samples["repro_service_http_latency_us_bucket"])
        assert buckets['le="10.0"'] == 1.0
        assert buckets['le="100.0"'] == 2.0
        assert buckets['le="+Inf"'] == 3.0
        assert samples["repro_service_http_latency_us_count"] == [("", 3.0)]
        assert samples["repro_service_http_latency_us_sum"] == [("", 5055.0)]

    def test_hierarchical_names_flatten(self):
        text = render_exposition(self._registry())
        assert "service.jobs" not in text.split("# HELP")[0]
        assert "repro_service_jobs 3" in text

    @pytest.mark.parametrize("bad", [
        "not a metric line\n",
        "# BOGUS comment\n",
        'x_bucket{le="+Inf"} 1\n# TYPE x histogram\n',  # missing _sum/_count
        "# TYPE x gizmo\n",
    ])
    def test_invalid_documents_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_exposition(bad)

    def test_non_cumulative_histogram_rejected(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1.0"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 9\n"
            "h_count 3\n"
        )
        with pytest.raises(ValueError, match="cumulative"):
            parse_exposition(text)


class TestPoolSpans:
    def _spec(self):
        return {"kind": "harness", "metrics": True, "cache_dir": None,
                "plan": None, "cell_timeout": None}

    def _cells(self):
        suite = baseline.resolve_suite("micro.arith,grande.sieve", 0.0)
        return [
            (name, params or None, profile)
            for name, params in suite
            for profile in ("clr-1.1", "native-c")
        ]

    def test_serial_fanout_records_cell_spans(self):
        from repro.parallel import run_cells

        tracer = Tracer()
        ctx = tracer.context()
        payloads, _report = run_cells(self._spec(), self._cells(), jobs=1,
                                      trace=ctx)
        spans = tracer.snapshot()
        assert orphan_spans(spans) == []
        pool = next(s for s in spans if s.name == "pool.run_cells")
        cell_spans = [s for s in spans if s.name.startswith("cell:")]
        assert len(cell_spans) == len(payloads) == 4
        assert {s.name for s in cell_spans} == {
            "cell:micro.arith@clr-1.1", "cell:micro.arith@native-c",
            "cell:grande.sieve@clr-1.1", "cell:grande.sieve@native-c",
        }
        for span in cell_spans:
            assert span.parent_id == pool.span_id
            assert span.attrs["track"] == "serial"
            assert pool.t0 <= span.t0 and span.dur > 0

    def test_parallel_fanout_stamps_worker_tracks(self):
        from repro.parallel import run_cells

        tracer = Tracer()
        payloads, report = run_cells(self._spec(), self._cells(), jobs=2,
                                     trace=tracer.context())
        assert report.jobs == 2
        spans = tracer.snapshot()
        assert orphan_spans(spans) == []
        cell_spans = [s for s in spans if s.name.startswith("cell:")]
        assert len(cell_spans) == 4
        tracks = {s.attrs["track"] for s in cell_spans}
        assert all(t.startswith("worker-") for t in tracks)
        # worker-stamped monotonic starts land inside the pool span
        pool = next(s for s in spans if s.name == "pool.run_cells")
        for span in cell_spans:
            assert pool.t0 <= span.t0 <= pool.t0 + pool.dur

    def test_untraced_run_is_byte_identical(self):
        suite = baseline.resolve_suite("micro.arith", 0.0)
        profiles = baseline.resolve_profiles("clr-1.1,native-c")
        plain = baseline.collect(profiles=profiles, suite=suite, scale=0.0,
                                 git_sha="cafe", jobs=2)
        tracer = Tracer()
        traced = baseline.collect(profiles=profiles, suite=suite, scale=0.0,
                                  git_sha="cafe", jobs=2,
                                  trace=tracer.context())
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            traced, sort_keys=True
        )
        assert any(s.name.startswith("cell:") for s in tracer.snapshot())


#: big enough (~1.5s of execution) that fixed client-side slop — connect
#: overhead plus one poll interval after completion — stays under the 5%
#: the coverage gate allows
MEDIUM = {
    "benchmarks": "micro.arith,grande.sieve,scimark.sor,scimark.fft",
    "scale": 0.5,
    "git_sha": "cafe",
}


class TestDaemonTracing:
    def test_submission_trace_covers_wall_time(self, tmp_path):
        log = str(tmp_path / "trace.jsonl")
        harness = DaemonHarness(tmp_path, trace_log=log)
        try:
            trace_id = new_trace_id()
            from repro.service import ServiceClient

            client = ServiceClient(harness.url, trace_id=trace_id)
            t0 = time.monotonic()
            job = client.submit(MEDIUM)
            done = client.wait(job["id"], poll=0.02)
            client.result(job["id"])
            t1 = time.monotonic()
            assert done["status"] == "done"
            assert done["trace_id"] == trace_id
            assert client.last_trace.startswith(trace_id)

            spans = self._settled_spans(log, trace_id, t1)
            assert orphan_spans(spans) == []
            names = {s.name for s in spans}
            assert {"http.request", "job.queue_wait", "job.execute",
                    "store.lookup", "pool.run_cells", "store.record"} <= names
            assert sum(1 for s in spans if s.name.startswith("cell:")) == 32
            coverage = covered_seconds(
                [s for s in spans if s.kind == "span"], t0, t1
            ) / (t1 - t0)
            assert coverage >= 0.95, f"trace covers only {coverage:.1%}"

            # the server-side buffer serves the same trace over HTTP; it
            # is read later than the JSONL snapshot, so it may have
            # accumulated extra poll-request spans in between
            served = client.trace(trace_id)
            assert {s.span_id for s in spans} <= {
                s["span"] for s in served["spans"]
            }
        finally:
            harness.close()

    @staticmethod
    def _settled_spans(log, trace_id, t1, timeout=5.0):
        """Spans for one trace once the daemon has flushed everything up
        to the client-observed end (the final http.request span lands
        just *after* the client reads its response)."""
        deadline = time.monotonic() + timeout
        while True:
            spans = [s for s in load_jsonl(log) if s.trace_id == trace_id]
            latest = max((s.t0 + s.dur for s in spans), default=0.0)
            if latest >= t1 - 0.05 or time.monotonic() > deadline:
                return spans
            time.sleep(0.05)

    def test_warm_submission_traces_memo_path(self, tmp_path):
        log = str(tmp_path / "trace.jsonl")
        harness = DaemonHarness(tmp_path, trace_log=log)
        try:
            from repro.service import ServiceClient

            cold_id, warm_id = new_trace_id(), new_trace_id()
            cold = ServiceClient(harness.url, trace_id=cold_id)
            cold.wait(cold.submit(SMALL)["id"], poll=0.02)
            warm = ServiceClient(harness.url, trace_id=warm_id)
            done = warm.wait(warm.submit(SMALL)["id"], poll=0.02)
            assert done["stats"]["hits"] == 4
            time.sleep(0.2)
            spans = [s for s in load_jsonl(log) if s.trace_id == warm_id]
            lookup = next(s for s in spans if s.name == "store.lookup")
            assert lookup.attrs["hits"] == 4
            pool = next(s for s in spans if s.name == "pool.run_cells")
            assert pool.attrs["memoized"] == 4
            # memo-served cells execute nothing, so no cell spans
            assert not any(s.name.startswith("cell:") for s in spans)
        finally:
            harness.close()

    def test_artifacts_byte_identical_with_and_without_tracing(self, tmp_path):
        traced = DaemonHarness(tmp_path / "a",
                               trace_log=str(tmp_path / "a" / "t.jsonl"))
        plain = DaemonHarness(tmp_path / "b")
        try:
            from repro.service import ServiceClient

            client_a = ServiceClient(traced.url, trace_id=new_trace_id())
            client_b = plain.client
            job_a = client_a.wait(client_a.submit(SMALL)["id"])
            job_b = client_b.wait(client_b.submit(SMALL)["id"])
            blob_a = json.dumps(client_a.result(job_a["id"]), sort_keys=True)
            blob_b = json.dumps(client_b.result(job_b["id"]), sort_keys=True)
            assert blob_a == blob_b
        finally:
            traced.close()
            plain.close()

    def test_trace_endpoints(self, daemon):
        daemon.client.health()
        traces = daemon.client._call("GET", "/v1/traces")["traces"]
        assert traces, "healthz request should have left a trace"
        payload = daemon.client.trace(traces[0])
        assert payload["spans"][0]["trace"] == traces[0]
        with pytest.raises(Exception) as err:
            daemon.client.trace("feedfeedfeedfeed")
        assert getattr(err.value, "status", None) == 404

    def test_response_carries_trace_header(self, daemon):
        request = urllib.request.Request(daemon.url + "/healthz")
        with urllib.request.urlopen(request, timeout=10) as response:
            value = response.headers.get(TRACE_HEADER)
        trace_id, parent = parse_trace_header(value)
        assert trace_id and parent  # daemon minted both ids


@pytest.fixture
def daemon(tmp_path):
    harness = DaemonHarness(tmp_path)
    yield harness
    harness.close()


class TestPortFile:
    def test_port_file_is_atomic_and_clean(self, tmp_path):
        from repro.service.daemon import write_port_file

        path = str(tmp_path / "port")
        write_port_file(path, 8642)
        assert open(path).read() == "8642\n"
        write_port_file(path, 9000)  # overwrite is atomic too
        assert open(path).read() == "9000\n"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "port"]
        assert leftovers == []


class TestTraceCli:
    def _write_log(self, tmp_path):
        log = str(tmp_path / "trace.jsonl")
        tracer = Tracer(sinks=(JsonlSink(log),))
        ctx = tracer.context()
        with ctx.child("http.request", track="http") as request_span:
            with request_span.child("job.execute", track="executor"):
                time.sleep(0.01)
        return log, ctx.trace_id

    def test_ls_and_show(self, tmp_path, capsys):
        from repro.cli import main

        log, trace_id = self._write_log(tmp_path)
        assert main(["trace", "ls", log]) == 0
        out = capsys.readouterr().out
        assert trace_id in out and "http.request" in out
        assert main(["trace", "show", log, "--trace", trace_id[:8]]) == 0
        out = capsys.readouterr().out
        assert "job.execute" in out and "ORPHANED" not in out

    def test_export_merges_observe_traces(self, tmp_path, capsys):
        from repro.cli import main

        log, _trace_id = self._write_log(tmp_path)
        timeline = Timeline()
        timeline.complete("guest", 0, 500, tid=0)
        sim_path = str(tmp_path / "sim.json")
        with open(sim_path, "w") as handle:
            json.dump(timeline.to_chrome_trace(1e6, {"label": "cell"}), handle)
        out_path = str(tmp_path / "merged.json")
        assert main(["trace", "export", log, "--observe", sim_path,
                     "--out", out_path]) == 0
        merged = json.load(open(out_path))
        pids = {e.get("pid") for e in merged["traceEvents"]}
        assert pids == {2, 10}
        assert set(merged["otherData"]["clock_domains"]) == {"pid 2", "pid 10"}

    def test_export_names_a_prof_export_after_its_run(self, tmp_path, capsys):
        from repro.cli import main

        log, _trace_id = self._write_log(tmp_path)
        sim_path = str(tmp_path / "sim.json")
        assert main(["prof", "export", "micro.arith", "--runtime", "clr-1.1",
                     "--param", "Reps=60", "--out", sim_path]) == 0
        out_path = str(tmp_path / "merged.json")
        assert main(["trace", "export", log, "--observe", sim_path,
                     "--out", out_path]) == 0
        merged = json.load(open(out_path))
        names = {
            e["pid"]: e["args"]["name"]
            for e in merged["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names[10] == "micro.arith@clr-1.1 (simulated clock)"

    def test_unknown_trace_errors(self, tmp_path):
        from repro.cli import main

        log, _ = self._write_log(tmp_path)
        with pytest.raises(SystemExit, match="no spans"):
            main(["trace", "show", log, "--trace", "feedbead"])
