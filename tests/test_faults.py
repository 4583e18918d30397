"""Deterministic fault injection and the resilient experiment harness.

Three contracts under test:

* **Determinism from the plan.**  Every fault decision is a pure function
  of (seed, cell index, site), so an identical FaultPlan produces a
  byte-identical failure-annotation report at ``--jobs`` 1, 2 and 4 —
  including under injected worker crashes and hangs.
* **Containment.**  Guest resource limits surface as *guest* exceptions
  through the real two-pass unwind path (catchable by guest handlers);
  every cell-level failure crosses the pool boundary as a structured
  :class:`CellFailure`, never an unhandled exception.
* **Zero perturbation.**  With no plan (or an armed-but-unfired spec),
  cycles, instructions, and results are bit-identical to a machine built
  without the fault layer.
"""

import json

import pytest

from repro.errors import CellTimeout, JitError, ManagedException, VMError
from repro.faults import (
    ALL_SITES,
    CellFailure,
    FaultPlan,
    MachineFaults,
    annotate_cells,
    load_report,
)
from repro.fuzz.oracle import run_campaign
from repro.harness.runner import Runner
from repro.lang import compile_source
from repro.metrics import baseline
from repro.parallel import run_cells
from repro.parallel.cache import CompileCache
from repro.runtimes import CLR11, MONO023
from repro.vm.loader import LoadedAssembly
from repro.vm.machine import Machine
from tests.conftest import use_engine


def run_machine(source, faults=None, profile=CLR11):
    machine = Machine(LoadedAssembly(compile_source(source)), profile, faults=faults)
    return machine.run(), machine


# ------------------------------------------------------------------ the plan


class TestFaultPlan:
    def test_decisions_are_pure_functions_of_seed(self):
        a = FaultPlan(seed=11, sites=("alloc_oom", "worker_crash"), rate=0.5)
        b = FaultPlan(seed=11, sites=("alloc_oom", "worker_crash"), rate=0.5)
        c = FaultPlan(seed=12, sites=("alloc_oom", "worker_crash"), rate=0.5)
        picture = lambda p: [
            (i, s, p.site_armed(i, s)) for i in range(40) for s in ALL_SITES
        ]
        assert picture(a) == picture(b)
        assert picture(a) != picture(c)
        armed = sum(1 for _i, _s, on in picture(a) if on)
        assert 0 < armed < 80  # rate-gated, not all-or-nothing

    def test_pinned_overrides_rate(self):
        plan = FaultPlan(seed=1, rate=0.0, pinned=((3, "worker_hang"),))
        assert plan.site_armed(3, "worker_hang")
        assert not plan.site_armed(2, "worker_hang")

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=1, sites=("no_such_site",))
        with pytest.raises(ValueError):
            FaultPlan(seed=1, rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(seed=1, max_retries=-1)

    def test_fault_record_outcomes_split_by_budget(self):
        plan = FaultPlan(seed=5, sites=("worker_crash",), rate=1.0, max_retries=1)
        outcomes = set()
        for i in range(30):
            record = plan.fault_record(i)
            assert record is not None
            assert 1 <= record.fail_attempts <= plan.max_retries + 1
            assert record.retries == min(record.fail_attempts, plan.max_retries)
            outcomes.add(record.outcome)
        assert outcomes == {"recovered", "quarantined"}

    def test_machine_faults_none_when_nothing_armed(self):
        plan = FaultPlan(seed=1, sites=("worker_crash",), rate=1.0)
        assert plan.machine_faults(0) is None  # worker site only
        limited = FaultPlan(seed=1, cycle_limit=1000)
        spec = limited.machine_faults(0)
        assert spec is not None and spec.cycle_limit == 1000


# ------------------------------------------------- guest limits & injection


class TestGuestLimits:
    def test_guest_oom_caught_by_guest_handler(self):
        # the injected OOM travels the real two-pass unwind path, so an
        # ordinary guest catch clause contains it
        source = """
        class P { static int Main() {
            int caught = 0;
            try {
                int[] a = new int[64];
                a[0] = 1;
            } catch (OutOfMemoryException e) { caught = 1; }
            return caught;
        } }"""
        result, machine = run_machine(source, MachineFaults(oom_at_alloc=1))
        assert result == 1
        assert machine.faults.fired == {"alloc_oom": 1}

    def test_heap_limit_raises_guest_oom(self):
        source = """
        class P { static int Main() {
            long[] a = new long[4096];
            return a.Length;
        } }"""
        machine = Machine(
            LoadedAssembly(compile_source(source)),
            CLR11,
            faults=MachineFaults(heap_limit=128),
        )
        with pytest.raises(ManagedException) as info:
            machine.run()
        assert info.value.type_name == "OutOfMemoryException"
        assert machine.faults.fired == {"heap_limit": 1}

    def test_stack_limit_raises_guest_stackoverflow(self):
        source = """
        class P {
            static int Deep(int n) { if (n <= 0) { return 0; } return 1 + P.Deep(n - 1); }
            static int Main() {
                int caught = 0;
                try { int r = P.Deep(1000); } catch (StackOverflowException e) { caught = 1; }
                return caught;
            }
        }"""
        result, machine = run_machine(source, MachineFaults(stack_limit=16))
        assert result == 1
        assert machine.faults.fired == {"stack_limit": 1}

    def test_cycle_watchdog_is_structured_cell_timeout(self):
        source = """
        class P { static int Main() {
            int i = 0;
            while (true) { i = i + 1; }
            return i;
        } }"""
        with pytest.raises(CellTimeout) as info:
            run_machine(source, MachineFaults(cycle_limit=50_000))
        assert isinstance(info.value, VMError)  # legacy handlers still catch it
        assert info.value.limit == 50_000
        assert info.value.cycles > 50_000

    def test_oom_during_unwind_replaces_inflight_exception(self):
        # nested try/finally; the in-flight ArgumentException is replaced
        # by the injected OOM while the first unwind finally runs, so the
        # outer OOM handler (not the ArgumentException one) takes it and
        # the outer finally still executes
        source = """
        class P {
            static int Leak;
            static void Inner() {
                try {
                    try { throw new ArgumentException("original"); }
                    finally { P.Leak = P.Leak + 1; }
                } finally { P.Leak = P.Leak + 10; }
            }
            static int Main() {
                int caught = 0;
                try { P.Inner(); }
                catch (OutOfMemoryException e) { caught = 1; }
                catch (ArgumentException e) { caught = 2; }
                return caught * 100 + P.Leak;
            }
        }"""
        plain, _machine = run_machine(source)
        assert plain == 211  # no injection: both finallies ran
        result, machine = run_machine(source, MachineFaults(throw_during_unwind=1))
        assert result == 110  # replaced mid-unwind; outer finally ran
        assert machine.faults.fired == {"unwind_throw": 1}

    def test_monitor_and_compile_injection(self):
        runner = Runner()
        with pytest.raises(ManagedException) as info:
            runner.run_on("threads.lock", CLR11, faults=MachineFaults(monitor_fail_at=1))
        assert info.value.type_name == "SynchronizationException"
        with pytest.raises(JitError) as jit_info:
            Runner().run_on("micro.arith", CLR11, faults=MachineFaults(compile_fail_at=1))
        assert jit_info.value.fault_fired == {"compile_fail": 1}

    def test_armed_but_unfired_is_zero_perturbation(self):
        plain = Runner().run_on("micro.exception", CLR11)
        armed = Runner().run_on(
            "micro.exception",
            CLR11,
            faults=MachineFaults(
                heap_limit=10**15, stack_limit=10**6, cycle_limit=10**15
            ),
        )
        assert armed.total_cycles == plain.total_cycles
        assert armed.instructions == plain.instructions
        assert armed.faults is None


# ------------------------------------------------------------- cell failures


class TestCellFailure:
    def test_classification(self):
        timeout = CellFailure.from_exception(0, CellTimeout(100, 50))
        assert timeout.status == "cell_timeout"
        guest = CellFailure.from_exception(1, ManagedException("OutOfMemoryException"))
        assert guest.status == "guest_exception"
        assert guest.exception == "OutOfMemoryException"
        compile_fault = CellFailure.from_exception(2, JitError("injected"))
        assert compile_fault.status == "compile_fault"
        assert not compile_fault.attributed  # nothing fired, no worker fault
        exc = ManagedException("OutOfMemoryException")
        exc.fault_fired = {"alloc_oom": 1}
        attributed = CellFailure.from_exception(3, exc)
        assert attributed.attributed
        assert attributed.fired == (("alloc_oom", 1),)


# --------------------------------------------------------- resilient fan-out

CELLS = [
    ("micro.arith", {"Reps": 60}, "clr-1.1"),
    ("micro.arith", {"Reps": 60}, "mono-0.23"),
    ("micro.exception", {"Reps": 12, "Depth": 4}, "clr-1.1"),
    ("micro.exception", {"Reps": 12, "Depth": 4}, "mono-0.23"),
    ("micro.create", {"Reps": 40}, "clr-1.1"),
    ("micro.create", {"Reps": 40}, "mono-0.23"),
]
META = [(bench, profile) for bench, _params, profile in CELLS]


def chaos_report(plan, jobs, cell_timeout=3.0):
    spec = {
        "kind": "harness",
        "metrics": False,
        "plan": plan,
        "cell_timeout": cell_timeout,
    }
    payloads, pool_report = run_cells(spec, CELLS, jobs=jobs)
    return annotate_cells(META, payloads, plan), pool_report


class TestResilientPool:
    def test_machine_fault_contained_as_cell_failure(self):
        plan = FaultPlan(seed=3, pinned=((4, "alloc_oom"),))
        report, _pool = chaos_report(plan, jobs=1)
        cell = report.cells[4]
        assert cell["status"] == "guest_exception"
        assert cell["exception"] == "OutOfMemoryException"
        assert report.contained
        assert [c["status"] for c in report.cells].count("ok") == 5

    def test_worker_crash_recovers_or_quarantines_identically(self):
        plan = FaultPlan(
            seed=9,
            sites=("worker_crash",),
            rate=0.6,
            pinned=((1, "worker_crash"),),
            max_retries=1,
        )
        blobs = {}
        for jobs in (1, 2, 4):
            report, _pool = chaos_report(plan, jobs=jobs)
            blobs[jobs] = report.to_json()
        assert blobs[1] == blobs[2] == blobs[4]
        data = json.loads(blobs[1])
        assert data["contained"]
        # every cell's outcome is exactly what the plan dictates
        for cell in data["cells"]:
            record = plan.fault_record(cell["index"])
            if record is None:
                assert cell["status"] == "ok" and cell["retries"] == 0
            elif record.outcome == "quarantined":
                assert cell["status"] == "quarantined"
                assert cell["retries"] == plan.max_retries
            else:
                assert cell["status"] == "ok"
                assert cell["retries"] == record.retries

    def test_crash_hang_and_guest_oom_matrix_is_deterministic(self):
        plan = FaultPlan(
            seed=21,
            pinned=((0, "worker_crash"), (3, "worker_hang"), (4, "alloc_oom")),
            max_retries=1,
        )
        blobs = {}
        for jobs in (1, 2, 4):
            report, _pool = chaos_report(plan, jobs=jobs, cell_timeout=2.0)
            blobs[jobs] = report.to_json()
        assert blobs[1] == blobs[2] == blobs[4]
        data = json.loads(blobs[1])
        assert data["contained"]
        by_index = {c["index"]: c for c in data["cells"]}
        assert by_index[0]["fault"] == "worker_crash"
        assert by_index[3]["fault"] == "worker_hang"
        assert by_index[4]["status"] == "guest_exception"
        for cell in data["cells"]:
            if cell["fault"] and cell["status"] == "quarantined":
                assert cell["retries"] == plan.max_retries
                assert cell["backoff_cycles"] > 0

    def test_dispatch_engines_chaos_parity_jobs_1_and_2(self):
        """The threaded engine is invisible to the fault layer: a pinned
        plan covering guest OOM, stack overflow, and a cycle-budget
        timeout produces byte-identical failure-annotation reports under
        ``classic`` and ``threaded`` at ``--jobs`` 1 and 2 — same fire
        sites, same counts, same annotations.  (With a fault injector
        armed the fuser stands down entirely, so every pc stays an
        individually attributable fire site.)"""
        cells = [
            ("micro.arith", {"Reps": 60}, "clr-1.1"),
            ("micro.create", {"Reps": 40}, "clr-1.1"),
            ("micro.exception", {"Reps": 12, "Depth": 4}, "clr-1.1"),
            ("micro.exception", {"Reps": 2, "Depth": 40}, "mono-0.23"),
            ("grande.sieve", {"Limit": 200, "Reps": 1}, "sscli-1.0"),
        ]
        meta = [(bench, profile) for bench, _params, profile in cells]
        plan = FaultPlan(seed=17, pinned=((1, "alloc_oom"),),
                         stack_limit=20, cycle_limit=400_000, max_retries=0)
        blobs = {}
        for engine in ("classic", "threaded"):
            for jobs in (1, 2):
                spec = {"kind": "harness", "metrics": False, "plan": plan,
                        "cell_timeout": 10.0}
                # pool workers fork inside the block and build the
                # engine's machine class
                with use_engine(engine):
                    payloads, _pool = run_cells(spec, cells, jobs=jobs)
                report = annotate_cells(meta, payloads, plan)
                blobs[(engine, jobs)] = report.to_json()
        assert len(set(blobs.values())) == 1, sorted(blobs)
        data = json.loads(blobs[("classic", 1)])
        by_index = {c["index"]: c for c in data["cells"]}
        assert by_index[1]["exception"] == "OutOfMemoryException"
        assert by_index[2]["status"] == "cell_timeout"
        assert by_index[3]["fired"] == {"stack_limit": 2}

    def test_dispatch_engines_unwind_injection_parity(self):
        """No benchmark has ``finally`` blocks, so the unwind-injection
        site is differenced at machine level: the injected mid-unwind OOM
        fires at the same finally, replaces the same in-flight exception,
        and leaves identical cycles under every dispatch engine."""
        source = """
        class P {
            static int Leak;
            static void Inner() {
                try {
                    try { throw new ArgumentException("original"); }
                    finally { P.Leak = P.Leak + 1; }
                } finally { P.Leak = P.Leak + 10; }
            }
            static int Main() {
                int caught = 0;
                try { P.Inner(); }
                catch (OutOfMemoryException e) { caught = 1; }
                catch (ArgumentException e) { caught = 2; }
                return caught * 100 + P.Leak;
            }
        }"""
        assembly = compile_source(source)
        prints = {}
        for engine in ("classic", "threaded", "unfused"):
            with use_engine(engine) as machine_class:
                machine = machine_class(
                    LoadedAssembly(assembly), CLR11,
                    faults=MachineFaults(throw_during_unwind=1),
                )
                result = machine.run()
            prints[engine] = (result, dict(machine.faults.fired),
                              repr(machine.cycles), machine.instructions)
        assert prints["classic"][0] == 110
        assert prints["classic"][1] == {"unwind_throw": 1}
        assert prints["threaded"] == prints["classic"]
        assert prints["unfused"] == prints["classic"]

    def test_no_plan_pool_payloads_unchanged(self):
        spec = {"kind": "harness", "metrics": False}
        payloads, _report = run_cells(spec, CELLS[:2], jobs=2)
        assert all(not isinstance(p, CellFailure) for p in payloads)
        serial_payloads, _r = run_cells(spec, CELLS[:2], jobs=1)
        assert [p.total_cycles for p in payloads] == [
            p.total_cycles for p in serial_payloads
        ]


# ------------------------------------------------------ cache fault injection


class TestCacheFaults:
    SOURCE = "class T { static int Main() { return 40 + 2; } }"

    def test_injected_corrupt_load_is_miss_and_counted(self, tmp_path):
        warm = CompileCache(str(tmp_path))
        warm.get_or_compile(self.SOURCE, assembly_name="t")
        cache = CompileCache(str(tmp_path), corrupt_loads=(1,))
        cache.get_or_compile(self.SOURCE, assembly_name="t")
        assert cache.misses == 1 and cache.corrupted == 1
        assert cache.stats()["corrupted"] == 1
        # the corrupted read repaired the entry; next load is clean
        cache.get_or_compile(self.SOURCE, assembly_name="t")
        assert cache.hits == 1

    def test_plan_derives_corrupt_loads(self):
        plan = FaultPlan(seed=2, sites=("cache_corrupt",))
        loads = plan.cache_corrupt_loads()
        assert loads and all(n >= 1 for n in loads)
        assert FaultPlan(seed=2, sites=("alloc_oom",)).cache_corrupt_loads() == ()


# ----------------------------------------------------- partial bench artifact


class TestPartialArtifact:
    def test_collect_returns_partial_results_with_failures(self, tmp_path):
        plan = FaultPlan(seed=4, pinned=((0, "worker_crash"),), max_retries=0)
        suite = [("micro.arith", {"Reps": 60}), ("micro.loop", {"Reps": 200})]
        profiles = [CLR11, MONO023]
        artifact = baseline.collect(
            profiles=profiles, suite=suite, git_sha="test", plan=plan
        )
        assert baseline.collect.last_faults is not None
        failures = artifact["failures"]
        assert [f["index"] for f in failures] == [0]
        assert failures[0]["status"] == "quarantined"
        # the failed (benchmark, profile) cell is absent; the rest survive
        arith = artifact["benchmarks"]["micro.arith"]["profiles"]
        assert "clr-1.1" not in arith and "mono-0.23" in arith
        loop = artifact["benchmarks"]["micro.loop"]["profiles"]
        assert set(loop) == {"clr-1.1", "mono-0.23"}
        assert baseline.collect.last_faults.contained

    def test_collect_without_plan_has_no_failures_key(self):
        suite = [("micro.arith", {"Reps": 60})]
        artifact = baseline.collect(profiles=[CLR11], suite=suite, git_sha="test")
        assert "failures" not in artifact


# ----------------------------------------------------------- fuzz + deadline


class TestFuzzDeadline:
    def test_expired_budget_is_structured_deadline_not_tuple(self):
        result = run_campaign(seed=7, count=3, jobs=2, time_limit=0.0)
        # every cell hit the deadline: nothing executed, nothing raised
        assert result.executed == 0
        assert result.failures == [] and result.compile_failures == []


# -------------------------------------------------------------- repro-chaos


class TestChaosCli:
    def test_run_writes_report_and_exit_policy(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        code = main([
            "chaos", "run", "--seed", "6",
            "--pin", "0:worker_crash",
            "--max-retries", "0",
            "--benchmarks", "micro.arith",
            "--scale", "0.02",
            "--no-compile-cache",
            "--out", str(out),
        ])
        assert code == 0  # quarantine is attributed -> contained
        report = load_report(str(out))
        assert report.contained
        assert report.cells[0]["status"] == "quarantined"

        # blank the attribution: the same failures become uncontained
        data = json.loads(out.read_text())
        for cell in data["cells"]:
            cell["fault"] = ""
            cell.pop("fired", None)
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(data))
        assert main(["chaos", "check", str(doctored)]) == 1
        assert main(["chaos", "check", str(out)]) == 0
        capsys.readouterr()

    def test_report_roundtrip_and_schema_guard(self, tmp_path):
        plan = FaultPlan(seed=1, pinned=((1, "worker_crash"),), max_retries=0)
        report, _pool = chaos_report(plan, jobs=1)
        path = tmp_path / "r.json"
        path.write_text(report.to_json())
        loaded = load_report(str(path))
        assert loaded.contained == report.contained
        assert len(loaded.cells) == len(report.cells)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(ValueError):
            load_report(str(bad))


# ---------------------------------------------------------- hpcnet fault run


class TestHarnessCliFaults:
    def test_run_with_plan_reports_partial_results(self, capsys):
        from repro.cli import main

        code = main([
            "run", "micro.arith",
            "--param", "Reps=60",
            "--profiles", "clr-1.1", "mono-0.23",
            "--fault-seed", "8",
            "--fault-pin", "0:worker_crash",
            "--max-retries", "0",
            "--no-compile-cache",
        ])
        out = capsys.readouterr().out
        assert code == 0  # contained
        assert "quarantined" in out
        assert "mono-0.23" in out  # surviving profile still charted
