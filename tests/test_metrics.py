"""Tests for the repro.metrics subsystem.

Same load-bearing property as the profiler: **zero perturbation** —
attaching a :class:`~repro.metrics.MachineMetrics` must leave cycles,
instructions, and results bit-identical to a bare run.  On top of that:
the registry semantics, the telemetry the hooks actually record
(allocation, GC, exceptions, contention, scheduler), the deterministic
flamegraph sampler, and the ``repro prof flame`` CLI.
"""

import json
from pathlib import Path

import pytest

from repro.harness.runner import Runner
from repro.lang import compile_source
from repro.metrics import (
    MachineMetrics,
    MetricsError,
    MetricsRegistry,
    StackSampler,
)
from repro.metrics.sampler import RUNTIME_FRAME
from repro.cli import main
from repro.runtimes import CLR11, MICRO_PROFILES, MONO023
from repro.vm.loader import LoadedAssembly
from repro.vm.machine import Machine

CORPUS = Path(__file__).parent / "fuzz_corpus"
CORPUS_FILES = sorted(CORPUS.glob("*.cs"))

#: benchmark -> shrunk-but-representative parameter overrides (mirrors
#: tests/test_observe.py so the two subsystems cover the same ground)
BENCH_CASES = {
    "micro.arith": {"Reps": 300},
    "grande.sieve": {"Limit": 600, "Reps": 1},
    "scimark.sor": {"N": 10, "Iters": 2},
}


def bench_pair(name, profile, overrides, **kwargs):
    runner = Runner()
    plain = runner.run_on(name, profile, overrides)
    instrumented = runner.run_on(name, profile, overrides, **kwargs)
    return plain, instrumented


def machine_for(source, observer=None, profile=CLR11):
    return Machine(
        LoadedAssembly(compile_source(source)), profile, observer=observer
    )


# ------------------------------------------------------------------ registry


class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry()
        c = reg.counter("a.count")
        c.inc()
        c.add(4)
        c.add(-2)  # compensating charges are legal
        assert c.value == 3
        g = reg.gauge("a.gauge")
        g.set(7)
        g.set(5)
        assert g.value == 5
        h = reg.histogram("a.hist", (10, 100))
        for v in (3, 30, 300, 7):
            h.observe(v)
        assert h.count == 4 and h.total == 340
        assert h.min == 3 and h.max == 300
        assert h.mean == pytest.approx(85.0)
        assert h.bucket_counts == [2, 1, 1]  # <=10, <=100, overflow

    def test_create_or_get_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        reg.counter("x").inc(5)
        assert reg.value("x") == 5
        assert reg.value("never-registered", default=-1) == -1

    def test_type_conflict_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("dual")
        with pytest.raises(MetricsError, match="already registered as counter"):
            reg.gauge("dual")
        with pytest.raises(MetricsError):
            reg.histogram("dual")

    def test_histogram_bounds_must_ascend(self):
        with pytest.raises(MetricsError, match="ascending"):
            MetricsRegistry().histogram("bad", (100, 10))

    def test_snapshot_shape_and_determinism(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("b").inc(2)
            reg.counter("a").inc(1)
            reg.gauge("g").set(9)
            reg.histogram("h", (10,)).observe(4)
            return reg.snapshot()

        snap = build()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert list(snap["counters"]) == ["a", "b"]  # sorted
        assert snap["gauges"]["g"] == 9
        assert snap["histograms"]["h"]["count"] == 1
        # identical construction -> byte-identical serialization
        assert json.dumps(build(), sort_keys=True) == json.dumps(
            snap, sort_keys=True
        )


# --------------------------------------------------------- zero perturbation


class TestZeroPerturbation:
    @pytest.mark.parametrize("profile", MICRO_PROFILES, ids=lambda p: p.name)
    @pytest.mark.parametrize("bench", sorted(BENCH_CASES))
    def test_metrics_runs_bit_identical(self, bench, profile):
        plain, metered = bench_pair(
            bench, profile, BENCH_CASES[bench], metrics=True
        )
        assert metered.total_cycles == plain.total_cycles
        assert metered.instructions == plain.instructions
        assert metered.stdout == plain.stdout
        for name, sec in plain.sections.items():
            msec = metered.sections[name]
            assert msec.cycles == sec.cycles
            assert msec.results == sec.results
            assert msec.ops == sec.ops
        assert metered.metrics is not None

    @pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
    def test_fuzz_corpus_replay_bit_identical(self, path):
        source = path.read_text()
        plain = machine_for(source)
        plain_result = plain.run()
        metrics = MachineMetrics()
        metered = machine_for(source, observer=metrics)
        metered_result = metered.run()
        assert metered_result == plain_result
        assert metered.cycles == plain.cycles
        assert metered.instructions == plain.instructions

    def test_sampler_runs_bit_identical(self):
        plain, sampled = bench_pair(
            "scimark.sor", CLR11, BENCH_CASES["scimark.sor"],
            observe=StackSampler(period=500),
        )
        assert sampled.total_cycles == plain.total_cycles
        assert sampled.instructions == plain.instructions

    def test_observer_and_metrics_together_rejected(self):
        runner = Runner()
        with pytest.raises(ValueError, match="not both"):
            runner.run_on("micro.arith", CLR11, {"Reps": 60},
                          observe=True, metrics=True)

    def test_metrics_observer_is_single_machine(self):
        metrics = MachineMetrics()
        src = "class P { static int Main() { return 7; } }"
        machine_for(src, observer=metrics).run()
        with pytest.raises(ValueError):
            machine_for(src, observer=metrics)


# -------------------------------------------------------------- telemetry


class TestTelemetry:
    def test_allocation_metrics_match_machine(self):
        metrics = MachineMetrics()
        m = machine_for(
            """
            class Node { Node next; int pad; }
            class P { static Node head;
                static void Main() {
                    for (int i = 0; i < 50; i++) {
                        Node n = new Node(); n.next = head; head = n;
                    }
                }
            }""",
            observer=metrics,
        )
        m.run()
        snap = metrics.snapshot()
        assert m.allocated_bytes > 0
        assert snap["counters"]["heap.allocated_bytes"] == m.allocated_bytes
        assert snap["gauges"]["machine.allocated_bytes"] == m.allocated_bytes
        assert snap["counters"]["heap.allocations"] >= 50
        hist = snap["histograms"]["heap.alloc_bytes"]
        assert hist["count"] == snap["counters"]["heap.allocations"]
        assert hist["total"] == m.allocated_bytes

    def test_gc_metrics(self):
        metrics = MachineMetrics()
        m = machine_for(
            """
            class Node { Node next; }
            class P { static Node head;
                static void Main() {
                    for (int i = 0; i < 30; i++) {
                        Node n = new Node(); n.next = head; head = n;
                    }
                    GC.Collect();
                    GC.Collect();
                }
            }""",
            observer=metrics,
        )
        m.run()
        snap = metrics.snapshot()
        assert m.gc_collections == 2
        assert snap["counters"]["gc.collections"] == 2
        assert snap["gauges"]["machine.gc_collections"] == 2
        assert snap["gauges"]["gc.live_objects"] == m.gc_live_objects
        assert snap["gauges"]["machine.gc_live_objects"] == m.gc_live_objects
        pause = snap["histograms"]["gc.pause_cycles"]
        assert pause["count"] == 2 and pause["total"] > 0

    def test_exception_metrics(self):
        plain, metered = bench_pair(
            "micro.exception", CLR11, {"Reps": 40, "Depth": 4}, metrics=True
        )
        assert metered.total_cycles == plain.total_cycles
        counters = metered.metrics["counters"]
        assert counters["exceptions.thrown"] >= 40
        # deep throws unwind at least one frame per throw
        assert (
            counters["exceptions.frames_unwound"] >= counters["exceptions.thrown"]
        )

    def test_switch_and_quanta_metrics(self):
        plain, metered = bench_pair(
            "threads.lock", CLR11, {"Reps": 60, "ContendedReps": 40},
            metrics=True,
        )
        assert metered.total_cycles == plain.total_cycles
        counters = metered.metrics["counters"]
        gauges = metered.metrics["gauges"]
        assert counters["threads.started"] >= 2
        assert counters["sched.switches"] > 0
        assert gauges["threads.switches"] == counters["sched.switches"]
        assert gauges["threads.quanta"] >= counters["sched.quanta"] > 0
        hist = metered.metrics["histograms"]["sched.quantum_cycles"]
        assert hist["count"] == counters["sched.quanta"]

    #: holds the lock across a yield, so the spawned thread must block on
    #: Monitor.Enter (threads.lock's contenders release before yielding and
    #: therefore never actually contend under cooperative scheduling)
    CONTENTION_SRC = """
    class L { int x; }
    class W { L l;
        virtual void Run() { lock (l) { l.x = l.x + 1; } }
    }
    class P { static int Main() {
        L l = new L();
        W w = new W(); w.l = l;
        int t = Thread.Create(w);
        lock (l) {
            Thread.Start(t);
            Thread.Yield();
            Thread.Yield();
        }
        Thread.Join(t);
        return l.x;
    } }"""

    def test_contention_metric(self):
        metrics = MachineMetrics()
        m = machine_for(self.CONTENTION_SRC, observer=metrics)
        assert m.run() == 1
        snap = metrics.snapshot()
        assert snap["counters"]["monitor.contended"] >= 1
        assert snap["counters"]["threads.started"] == 1

    def test_guest_thread_counters_maintained_unobserved(self):
        # quanta/switches live on the thread records for every run,
        # observed or not — the metrics layer only reads them
        m = machine_for(self.CONTENTION_SRC)
        assert m.run() == 1
        assert len(m.threads) == 2
        assert sum(t.quanta for t in m.threads) > 0
        assert sum(t.switches for t in m.threads) > 0

    def test_jit_and_cycle_category_metrics(self):
        _plain, metered = bench_pair(
            "scimark.sor", CLR11, BENCH_CASES["scimark.sor"], metrics=True
        )
        counters = metered.metrics["counters"]
        gauges = metered.metrics["gauges"]
        assert counters["jit.methods_compiled"] > 0
        assert counters["jit.instrs_lowered"] >= counters["jit.instrs_final"] > 0
        assert counters["jit.pass.enregister.runs"] == counters["jit.methods_compiled"]
        assert counters["jit.inline_requests"] >= counters["jit.inline_available"]
        assert gauges["jit.compile_cycles"] > 0
        # dyn-cycle categories + dispatch must account for real cycles
        cycle_counters = {
            k: v for k, v in counters.items() if k.startswith("cycles.")
        }
        assert cycle_counters and all(v >= 0 for v in cycle_counters.values())

    def test_jit_counters_derive_from_the_compile_records(self):
        metrics = MachineMetrics()
        machine_for("""
        class C { static int Add(int a, int b) { return a + b; }
            static int Main() { int s = 0;
                for (int i = 0; i < 10; i++) { s = C.Add(s, i); }
                return s; } }""", observer=metrics).run()
        methods = metrics.jit.methods
        counters = metrics.snapshot()["counters"]
        assert counters["jit.methods_compiled"] == len(methods) > 0
        assert counters["jit.instrs_final"] == sum(r.final_instrs for r in methods)
        decisions = [d for r in methods for d in r.inline_decisions]
        assert counters["jit.inline_requests"] == len(decisions) > 0
        assert counters["jit.inline_available"] == sum(d.available for d in decisions)
        assert counters["jit.pass.enregister.runs"] == len(methods)

    def test_snapshot_is_idempotent(self):
        metrics = MachineMetrics()
        machine_for(self.CONTENTION_SRC, observer=metrics).run()
        first = metrics.snapshot()
        assert metrics.snapshot() == first
        assert first["counters"]["jit.methods_compiled"] > 0

    def test_metrics_in_profile_run_fields(self):
        runner = Runner()
        run = runner.run_on("micro.arith", CLR11, {"Reps": 300}, metrics=True)
        assert run.metrics is not None
        assert run.metrics["gauges"]["machine.cycles"] == run.total_cycles
        assert run.metrics["gauges"]["machine.instructions"] == run.instructions
        bare = runner.run_on("micro.arith", CLR11, {"Reps": 300})
        assert bare.metrics is None

    def test_run_all_profiles_with_metrics(self):
        from repro.parallel import run_cells

        runs, _report = run_cells(
            {"kind": "harness", "metrics": True},
            [("micro.arith", {"Reps": 300}, p.name) for p in (CLR11, MONO023)],
        )
        assert all(r.metrics is not None for r in runs)
        snaps = [r.metrics for r in runs]
        assert snaps[0] is not snaps[1]


# -------------------------------------------------------------------- sampler


class TestSampler:
    def _sample(self, period=500, bench="scimark.sor", profile=CLR11):
        sampler = StackSampler(period=period)
        runner = Runner()
        run = runner.run_on(bench, profile, BENCH_CASES.get(bench), observe=sampler)
        return sampler, run

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            StackSampler(period=0)

    def test_total_samples_track_total_cycles(self):
        sampler, run = self._sample(period=500)
        # exact tick accounting: one sample per period boundary crossed
        assert sampler.total_samples == run.total_cycles // 500

    def test_collapsed_format(self):
        sampler, _run = self._sample()
        folded = sampler.collapsed()
        lines = folded.splitlines()
        assert lines == sorted(lines)
        for line in lines:
            stack, _, weight = line.rpartition(" ")
            assert int(weight) > 0
            frames = stack.split(";")
            assert frames[0] == "main"  # root frame is the thread name
        assert any("SOR::Execute" in line for line in lines)

    def test_deterministic_across_runs(self):
        a, _ = self._sample()
        b, _ = self._sample()
        assert a.collapsed() == b.collapsed()
        assert a.weights == b.weights

    def test_runtime_frame_for_unattributed_time(self):
        # a threaded run has scheduler time with no managed frame on stack
        sampler = StackSampler(period=200)
        runner = Runner()
        runner.run_on("threads.lock", CLR11,
                      {"Reps": 60, "ContendedReps": 40}, observe=sampler)
        assert sampler.total_samples > 0
        names = {key[0] for key in sampler.weights}
        assert "main" in names
        flat = {frame for key in sampler.weights for frame in key}
        assert RUNTIME_FRAME in flat or len(flat) > 1

    def test_flame_cli_writes_folded_file(self, tmp_path, capsys):
        out = tmp_path / "sor.folded"
        rc = main([
            "prof", "flame", "scimark.sor", "--runtime", "clr11",
            "--param", "N=10", "--param", "Iters=2",
            "--period", "500", "--out", str(out),
        ])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        text = out.read_text().strip()
        assert text
        sampler, _run = self._sample(period=500)
        assert text == sampler.collapsed()

    def test_flame_cli_stdout(self, capsys):
        rc = main([
            "prof", "flame", "micro.arith", "--runtime", "clr-1.1",
            "--param", "Reps=300",
        ])
        assert rc == 0
        text = capsys.readouterr().out.strip()
        assert "ArithBench" in text
