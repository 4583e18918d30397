"""Parallel experiment-matrix execution and the persistent compile cache.

The contract under test is stronger than "parallel is probably fine":
because every measured number lives on the simulated clock and the pool
shards cells statically and merges by index, a parallel run must be
**bit-identical** to a serial run — the full graph-experiment matrix and a
fuzz campaign are compared as serialized bytes at ``--jobs 2`` and
``--jobs 4``.  The compile cache carries the same burden the other way
around: a warm rerun must be byte-identical to a cold one while performing
*zero* ``compile_source`` calls (asserted via the compiler's call counter).
"""

import json

import pytest

from repro.cil import cts
from repro.cil.metadata import Assembly
from repro.errors import CilError
from repro.fuzz.oracle import run_campaign
from repro.harness.runner import Runner
from repro.lang import compile_source
from repro.lang.compiler import COMPILE_STATS
from repro.metrics import MetricsRegistry, baseline
from repro.parallel import CompileCache, PoolError, resolve_jobs, run_cells
from repro.parallel.pool import PoolReport
from repro.runtimes import ALL_PROFILES, CLR11
from repro.vm.loader import LoadedAssembly
from repro.vm.machine import Machine


def campaign_fingerprint(result):
    """Everything comparable about a campaign (order included), minus the
    operational pool report."""
    return (
        result.campaign_seed,
        result.budget,
        result.executed,
        tuple(result.compile_failures),
        tuple(
            (pr.seed, pr.source, tuple(str(d) for d in pr.divergences))
            for pr in result.failures
        ),
    )


# ------------------------------------------------------- assembly round-trip


class TestAssemblyRoundTrip:
    def test_execution_is_bit_identical_after_roundtrip(self):
        from repro.benchmarks import get as get_benchmark

        bench = get_benchmark("micro.arith")
        source = bench.build_source({"Reps": 60})
        assembly = compile_source(source, assembly_name="micro.arith")
        clone = Assembly.from_bytes(assembly.to_bytes())
        a = Machine(LoadedAssembly(assembly), CLR11)
        b = Machine(LoadedAssembly(clone), CLR11)
        a.run()
        b.run()
        assert a.cycles == b.cycles
        assert a.instructions == b.instructions
        assert list(a.stdout) == list(b.stdout)

    def test_roundtrip_reinterns_types(self):
        source = """
        struct Pt { int x; }
        class T {
            static Pt[] grid;
            static int Main() { grid = new Pt[3]; double d = 1.5; return grid.Length; }
        }
        """
        assembly = compile_source(source, assembly_name="interned")
        clone = Assembly.from_bytes(assembly.to_bytes())
        for method in clone.all_methods():
            for t in list(method.param_types) + [method.return_type]:
                if isinstance(t, cts.PrimitiveType):
                    assert t is cts.BY_NAME[t.name]
                elif isinstance(t, cts.NamedType):
                    assert t is cts.named(t.name)
        # the struct hint survives into the interned instance: value-type
        # array semantics in the engines depend on it
        pt = cts.named("Pt")
        assert pt.value_type_hint is True

    def test_bad_payloads_rejected(self):
        with pytest.raises(CilError):
            Assembly.from_bytes(b"definitely not an assembly")
        import pickle

        from repro.cil.metadata import ASSEMBLY_WIRE_FORMAT

        with pytest.raises(CilError):
            Assembly.from_bytes(ASSEMBLY_WIRE_FORMAT + pickle.dumps({"not": "asm"}))
        with pytest.raises(CilError):
            Assembly.from_bytes(ASSEMBLY_WIRE_FORMAT + b"\x80corrupt")


# ------------------------------------------------------------- compile cache


class TestCompileCache:
    SOURCE = "class T { static int Main() { return 40 + 2; } }"

    def test_miss_then_hit_and_persistence(self, tmp_path):
        cache = CompileCache(str(tmp_path / "cc"))
        a = cache.get_or_compile(self.SOURCE, assembly_name="t")
        assert (cache.hits, cache.misses) == (0, 1)
        b = cache.get_or_compile(self.SOURCE, assembly_name="t")
        assert (cache.hits, cache.misses) == (1, 1)
        assert b.name == a.name
        # a fresh instance over the same directory is warm too
        fresh = CompileCache(str(tmp_path / "cc"))
        before = COMPILE_STATS["compile_source_calls"]
        fresh.get_or_compile(self.SOURCE, assembly_name="t")
        assert (fresh.hits, fresh.misses) == (1, 0)
        assert COMPILE_STATS["compile_source_calls"] == before

    def test_key_separates_source_name_and_version(self, tmp_path, monkeypatch):
        cache = CompileCache(str(tmp_path))
        base = cache.key_for(self.SOURCE, "t")
        assert cache.key_for(self.SOURCE + " ", "t") != base
        assert cache.key_for(self.SOURCE, "u") != base
        from repro.lang import compiler

        monkeypatch.setattr(compiler, "COMPILER_VERSION", "kernel-cs/next")
        assert cache.key_for(self.SOURCE, "t") != base

    def test_corrupt_entry_reads_as_miss_and_is_repaired(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        key = cache.key_for(self.SOURCE, "t")
        cache.get_or_compile(self.SOURCE, assembly_name="t")
        path = cache._path(key)
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        assert cache.load(key) is None
        cache.get_or_compile(self.SOURCE, assembly_name="t")
        assert cache.misses == 2
        assert cache.load(key) is not None

    def test_runner_uses_cache(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        Runner(compile_cache=cache).run_on("micro.arith", CLR11, {"Reps": 50})
        assert (cache.hits, cache.misses) == (0, 1)
        # a *new* runner (fresh in-memory dict) hits the persistent layer
        before = COMPILE_STATS["compile_source_calls"]
        run = Runner(compile_cache=cache).run_on(
            "micro.arith", CLR11, {"Reps": 50}
        )
        assert cache.hits == 1
        assert COMPILE_STATS["compile_source_calls"] == before
        assert run.total_cycles > 0


# ------------------------------------------------------------------ the pool


class TestPool:
    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs("4") == 4
        assert resolve_jobs("auto") >= 1
        assert resolve_jobs(-1) >= 1
        with pytest.raises(ValueError):
            resolve_jobs("many")

    def test_worker_crash_surfaces_as_pool_error(self):
        spec = {"kind": "no-such-kind"}
        with pytest.raises(PoolError):
            run_cells(spec, [1, 2], jobs=2)

    def test_report_records_into_registry(self):
        report = PoolReport(cells=4, jobs=2, wall_seconds=2.0,
                            worker_pids=(11, 12, 11), cache_hits=3,
                            cache_misses=1, cell_wall=[0.5, 0.5, 0.5, 0.5])
        registry = MetricsRegistry()
        report.record(registry)
        assert registry.value("parallel.cells") == 4
        assert registry.value("parallel.cache.hits") == 3
        assert registry.value("parallel.cache.misses") == 1
        assert registry.value("parallel.jobs") == 2
        assert registry.value("parallel.workers") == 2
        assert registry.get("parallel.cell_wall_us").count == 4
        assert report.cells_per_sec == 2.0
        summary = report.summary()
        assert "cells/sec" in summary and "cache 3 hits / 1 misses" in summary


# ----------------------------------------------- bit-identity: graph matrix


class TestBenchMatrixBitIdentity:
    """Full graph-experiment suite x all 8 profiles (80 cells) at floor
    problem sizes: serial, --jobs 2 and --jobs 4 must serialize to the
    same bytes, and a warm-cache rerun to the same bytes as a cold run."""

    @pytest.fixture(scope="class")
    def suite(self):
        return baseline.graph_suite(0.0)  # every benchmark at its floor size

    @pytest.fixture(scope="class")
    def serial(self, suite):
        return baseline.collect(
            profiles=ALL_PROFILES, suite=suite, scale=0.0, git_sha="parallel-test"
        )

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_matches_serial_bytes(self, suite, serial, jobs, tmp_path):
        cache = CompileCache(str(tmp_path / f"cc{jobs}"))
        parallel = baseline.collect(
            profiles=ALL_PROFILES, suite=suite, scale=0.0,
            git_sha="parallel-test", jobs=jobs, cache=cache,
        )
        assert json.dumps(parallel, sort_keys=True) == json.dumps(
            serial, sort_keys=True
        )
        report = baseline.collect.last_report
        assert report is not None
        assert report.cells == len(suite) * len(ALL_PROFILES)
        # the acceptance criterion: cells actually fanned out to >1 worker
        assert report.workers_used > 1
        assert report.cache_misses > 0

    def test_warm_cache_rerun_is_byte_identical_with_zero_compiles(
        self, suite, serial, tmp_path
    ):
        cache = CompileCache(str(tmp_path / "warm"))
        cold = baseline.collect(
            profiles=ALL_PROFILES, suite=suite, scale=0.0,
            git_sha="parallel-test", cache=cache,
        )
        assert baseline.collect.last_report.cache_misses == len(suite)
        before = COMPILE_STATS["compile_source_calls"]
        warm = baseline.collect(
            profiles=ALL_PROFILES, suite=suite, scale=0.0,
            git_sha="parallel-test", cache=cache,
        )
        assert COMPILE_STATS["compile_source_calls"] == before, (
            "a warm compile cache must eliminate every compile_source call"
        )
        assert baseline.collect.last_report.cache_hits == len(suite)
        assert json.dumps(warm, sort_keys=True) == json.dumps(cold, sort_keys=True)
        assert json.dumps(warm, sort_keys=True) == json.dumps(serial, sort_keys=True)


# --------------------------------------------- bit-identity: fuzz campaign


class TestFuzzCampaignBitIdentity:
    SEED, COUNT, BUDGET = 42, 25, 25

    @pytest.fixture(scope="class")
    def serial(self):
        return run_campaign(seed=self.SEED, count=self.COUNT, budget=self.BUDGET)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_campaign_matches_serial(self, serial, jobs, tmp_path):
        cache = CompileCache(str(tmp_path / "cc"))
        parallel = run_campaign(
            seed=self.SEED, count=self.COUNT, budget=self.BUDGET,
            jobs=jobs, cache=cache,
        )
        assert campaign_fingerprint(parallel) == campaign_fingerprint(serial)
        assert parallel.report is not None
        assert parallel.report.workers_used > 1

    def test_on_program_order_matches_serial(self):
        serial_order = []
        run_campaign(seed=self.SEED, count=8, budget=self.BUDGET,
                     on_program=lambda pr: serial_order.append(pr.seed))
        parallel_order = []
        run_campaign(seed=self.SEED, count=8, budget=self.BUDGET, jobs=2,
                     on_program=lambda pr: parallel_order.append(pr.seed))
        assert parallel_order == serial_order

    def test_warm_cache_campaign_recompiles_nothing(self, tmp_path):
        cache = CompileCache(str(tmp_path / "cc"))
        cold = run_campaign(seed=self.SEED, count=8, budget=self.BUDGET, cache=cache)
        assert cache.misses == 8 and cache.hits == 0
        before = COMPILE_STATS["compile_source_calls"]
        warm = run_campaign(seed=self.SEED, count=8, budget=self.BUDGET, cache=cache)
        assert COMPILE_STATS["compile_source_calls"] == before
        assert cache.hits == 8
        assert campaign_fingerprint(warm) == campaign_fingerprint(cold)

    def test_injected_bug_detected_through_the_pool(self, tmp_path):
        """The mutation check holds under parallel execution: pool workers
        apply the pass bug themselves (a parent-side context manager cannot
        reach a forked-before or spawned worker deterministically)."""
        result = run_campaign(seed=7, count=6, budget=30, jobs=2,
                              inject_bug="simplify")
        assert result.failures, "injected simplify bug went undetected via pool"
        serial = run_campaign(seed=7, count=6, budget=30, inject_bug="simplify")
        assert campaign_fingerprint(result) == campaign_fingerprint(serial)


# ------------------------------------------------------ repro run --jobs


class TestHarnessCliParallel:
    def test_run_jobs_matches_serial_output(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        argv = ["run", "micro.arith", "--param", "Reps=60", "--csv",
                "--cache-dir", str(tmp_path / "cc")]
        assert cli_main(argv) == 0
        serial_csv = capsys.readouterr().out
        assert cli_main(argv + ["--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        # identical CSV body after the pool's operational summary line
        parallel_csv = "\n".join(
            line for line in parallel_out.splitlines()
            if not line.startswith("hpcnet: parallel")
        ) + "\n"
        assert parallel_csv == serial_csv

    def test_bench_cli_jobs_writes_identical_artifact(self, tmp_path, capsys):
        from repro.cli import main

        common = ["bench", "run", "--scale", "0.01",
                  "--profiles", "clr-1.1,mono-0.23",
                  "--benchmarks", "micro.arith", "--git-sha", "t",
                  "--cache-dir", str(tmp_path / "cc")]
        assert main(common + ["--out", str(tmp_path / "a")]) == 0
        assert main(common + ["--out", str(tmp_path / "b"), "--jobs", "2"]) == 0
        capsys.readouterr()
        a = (tmp_path / "a" / "BENCH_0.json").read_bytes()
        b = (tmp_path / "b" / "BENCH_0.json").read_bytes()
        assert a == b

# -------------------------------------------------- cache crash consistency


class TestCacheCrashConsistency:
    """A worker killed mid-store must never poison the cache: at worst an
    orphaned ``*.tmp`` remains, which load() cannot see and sweep() reaps."""

    SOURCE = TestCompileCache.SOURCE

    def test_writer_killed_mid_store_leaves_no_partial_entry(self, tmp_path):
        import glob
        import os
        import signal
        import subprocess
        import sys
        import textwrap

        root = str(tmp_path / "cc")
        # the child reproduces store() up to (but not including) os.replace,
        # then SIGKILLs itself: exactly the on-disk state a kill can leave
        child = textwrap.dedent(
            f"""
            import os, signal, tempfile
            from repro.lang import compile_source
            from repro.parallel import CompileCache

            source = {self.SOURCE!r}
            cache = CompileCache({root!r})
            path = cache._path(cache.key_for(source, "t"))
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
            payload = compile_source(source, assembly_name="t").to_bytes()
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload[: len(payload) // 2])
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", child], env=dict(os.environ), timeout=120
        )
        assert proc.returncode == -signal.SIGKILL

        cache = CompileCache(root)
        key = cache.key_for(self.SOURCE, "t")
        assert cache.load(key) is None  # the orphan is invisible
        orphans = glob.glob(os.path.join(root, "asm", "**", "*.tmp"), recursive=True)
        assert len(orphans) == 1
        assert cache.sweep() == 1
        assert not glob.glob(os.path.join(root, "asm", "**", "*.tmp"), recursive=True)
        # the next writer repairs the entry
        cache.get_or_compile(self.SOURCE, assembly_name="t")
        assert cache.load(key) is not None

    def test_truncated_final_entry_reads_as_miss(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        key = cache.key_for(self.SOURCE, "t")
        cache.get_or_compile(self.SOURCE, assembly_name="t")
        path = cache._path(key)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])  # torn storage
        fresh = CompileCache(str(tmp_path))
        fresh.get_or_compile(self.SOURCE, assembly_name="t")
        assert (fresh.hits, fresh.misses, fresh.corrupted) == (0, 1, 1)
        assert fresh.load(key) is not None  # repaired in place

    def test_store_failure_leaves_no_stray_tmp(self, tmp_path, monkeypatch):
        import glob
        import os

        def refuse(_src, _dst):
            raise OSError("simulated ENOSPC")

        monkeypatch.setattr(os, "replace", refuse)
        cache = CompileCache(str(tmp_path))
        key = cache.key_for(self.SOURCE, "t")
        cache.get_or_compile(self.SOURCE, assembly_name="t")  # store swallowed
        monkeypatch.undo()
        assert cache.load(key) is None  # nothing reached the final path
        assert not glob.glob(
            os.path.join(str(tmp_path), "asm", "**", "*.tmp"), recursive=True
        )
