"""The SQLite experiment store: migrations, append-only enforcement,
memoization identity, import/export round-trips, concurrency and crash
consistency."""

import json
import multiprocessing
import os
import sqlite3
import subprocess
import sys

import pytest

from repro.lang.compiler import COMPILE_STATS
from repro.metrics import baseline
from repro.store import (
    MIGRATIONS,
    RECORD_SCHEMA,
    SCHEMA_VERSION,
    ExperimentStore,
    StoreError,
    StoreReadPool,
    apply_migrations,
    cell_key,
    entry_from_record,
    run_from_record,
    run_to_record,
    schema_version,
)


def fake_record(bench="micro.arith", profile="clr-1.1", cycles=1000):
    return {
        "schema": RECORD_SCHEMA,
        "benchmark": bench,
        "profile": profile,
        "clock_hz": 1.0e9,
        "total_cycles": cycles,
        "allocated_bytes": 64,
        "instructions": cycles // 2,
        "gc_collections": 0,
        "gc_live_objects": 3,
        "stdout": ["ok"],
        "metrics": {"counters": {"vm.instructions": float(cycles // 2)},
                    "gauges": {"heap.bytes": 64.0}, "histograms": {}},
        "faults": None,
        "sections": {
            "main": {"cycles": cycles, "ops": 10, "flops": 0,
                     "ops_per_sec": 123.5, "mflops": 0.0,
                     "seconds": 0.25, "results": [42]},
        },
    }


def append_run(store, git_sha="aaaa", bench="micro.arith",
               profiles=("clr-1.1", "native-c"), cycles=(1000, 250)):
    novel = []
    cell_keys = {}
    for profile, cyc in zip(profiles, cycles):
        key = cell_key(bench, profile, {"N": 4})
        cell_keys[f"{bench}@{profile}"] = key
        novel.append({"key": key, "benchmark": bench, "profile": profile,
                      "params": {"N": 4},
                      "record": fake_record(bench, profile, cyc)})
    return store.record_collection(
        git_sha=git_sha, scale=0.0, profiles=list(profiles),
        suite=[(bench, {"N": 4})], cell_keys=cell_keys, novel=novel,
    )


class TestMigrations:
    def test_fresh_store_is_at_head(self, tmp_path):
        with ExperimentStore(str(tmp_path / "e.sqlite")) as store:
            assert store.version == SCHEMA_VERSION

    @pytest.mark.parametrize("start", [v for v, _ in MIGRATIONS])
    def test_upgrade_from_every_historical_version(self, tmp_path, start):
        path = str(tmp_path / "e.sqlite")
        conn = sqlite3.connect(path)
        apply_migrations(conn, target=start)
        assert schema_version(conn) == start
        conn.close()
        # opening the store applies the remaining migrations
        with ExperimentStore(path) as store:
            assert store.version == SCHEMA_VERSION
            append_run(store)
        # idempotent: a second open re-applies nothing and data survives
        with ExperimentStore(path) as store:
            assert store.version == SCHEMA_VERSION
            assert store.counts()["cells"] == 2

    def test_newer_store_than_build_is_refused(self, tmp_path):
        path = str(tmp_path / "e.sqlite")
        ExperimentStore(path).close()
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE schema_meta SET version = ?",
                         (SCHEMA_VERSION + 1,))
        conn.close()
        with pytest.raises(StoreError):
            ExperimentStore(path)


class TestAppendOnly:
    @pytest.mark.parametrize("statement", [
        "UPDATE cells SET record = '{}' WHERE id = 1",
        "DELETE FROM cells WHERE id = 1",
        "UPDATE runs SET git_sha = 'rewritten' WHERE id = 1",
        "DELETE FROM runs WHERE id = 1",
    ])
    def test_mutation_is_rejected(self, tmp_path, statement):
        path = str(tmp_path / "e.sqlite")
        with ExperimentStore(path) as store:
            append_run(store)
        conn = sqlite3.connect(path)
        with pytest.raises(sqlite3.IntegrityError):
            conn.execute(statement)
        conn.close()


class TestCellKey:
    def test_param_types_do_not_collide(self):
        keys = {
            cell_key("micro.arith", "clr-1.1", {"N": 1}),
            cell_key("micro.arith", "clr-1.1", {"N": 1.0}),
            cell_key("micro.arith", "clr-1.1", {"N": True}),
        }
        assert len(keys) == 3

    def test_keys_of_stored_records_are_stable(self):
        # digests frozen while the engine was still a cell_key argument
        # (an unset engine keyed as "classic"): every record stored then
        # must stay addressable.  Only a COMPILER_VERSION bump may move
        # them, and it orphans every record on purpose.
        assert cell_key("micro.arith", "clr-1.1") == (
            "4c12e748d9f31bc5d16f1bdfa58c51b0604f0ae57f67f22d95999de0db32257e"
        )
        assert cell_key(
            "scimark.lu", "mono-0.23", {"N": 8, "Reps": 1, "Seed": 101010}
        ) == "32a604887d09a13edbf620ed3b176edc84e085eab3ec335e0801759e32ff70a9"
        assert cell_key("scimark.sor", "sscli-1.0", {"N": 8, "Omega": 1.25}) == (
            "8ab45f2064ae2775d2dc0e8bdebfff67f8970d28a8037e356214400534b301e7"
        )

    def test_profile_benchmark_seed_separate(self):
        assert cell_key("b", "p1") != cell_key("b", "p2")
        assert cell_key("b1", "p") != cell_key("b2", "p")


class TestCodec:
    def test_record_round_trip_and_entry_agreement(self):
        from repro.harness.runner import Runner
        from repro.runtimes import get_profile

        suite = baseline.resolve_suite("micro.arith", 0.0)
        name, params = suite[0]
        run = Runner().run_on(name, get_profile("clr-1.1"), params or None,
                              metrics=True)
        record = run_to_record(run)
        # the record survives a JSON wire trip exactly
        wired = json.loads(json.dumps(record))
        rebuilt = run_from_record(wired)
        assert run_to_record(rebuilt) == record
        # and the artifact entry derived either way is identical
        assert entry_from_record(wired) == baseline.entry_from_run(run)


class TestMemoization:
    def test_warm_collection_serves_all_cells_with_zero_compiles(self, tmp_path):
        store = ExperimentStore(str(tmp_path / "e.sqlite"))
        profiles = baseline.resolve_profiles("clr-1.1,native-c")
        suite = baseline.resolve_suite("micro.arith,grande.sieve", 0.0)
        cold = baseline.run_collection(profiles=profiles, suite=suite,
                                       scale=0.0, git_sha="cafe", store=store)
        assert cold.store["misses"] == 4
        before = COMPILE_STATS["compile_source_calls"]
        warm = baseline.run_collection(profiles=profiles, suite=suite,
                                       scale=0.0, git_sha="cafe", store=store)
        assert COMPILE_STATS["compile_source_calls"] == before, (
            "a warm store collection must not compile anything"
        )
        assert warm.store["hits"] == 4 and warm.store["misses"] == 0
        # zero guest cycles: every cell was merged from the memo
        assert warm.report.memoized == 4
        direct = baseline.collect(profiles=profiles, suite=suite, scale=0.0,
                                  git_sha="cafe")
        blob = lambda a: json.dumps(a, sort_keys=True)
        assert blob(cold.artifact) == blob(direct)
        assert blob(warm.artifact) == blob(direct)
        store.close()

    def test_cold_pool_collection_counts_its_workers_compiles(self, tmp_path):
        # the cells compile in the pool workers, not in this process
        store = ExperimentStore(str(tmp_path / "e.sqlite"))
        result = baseline.run_collection(
            profiles=baseline.resolve_profiles("clr-1.1,native-c"),
            suite=baseline.resolve_suite("micro.arith,grande.sieve", 0.0),
            scale=0.0, git_sha="cafe", store=store, jobs=2,
        )
        assert result.report.jobs == 2 and result.store["misses"] == 4
        assert result.store["compile_calls"] > 0
        assert result.store["compile_calls"] == result.report.compile_calls
        store.close()

    def test_store_with_fault_plan_is_rejected(self, tmp_path):
        from repro.faults import FaultPlan

        store = ExperimentStore(str(tmp_path / "e.sqlite"))
        with pytest.raises(ValueError):
            baseline.collect(
                profiles=baseline.resolve_profiles("clr-1.1"),
                suite=baseline.resolve_suite("micro.arith", 0.0),
                scale=0.0, git_sha="x", store=store,
                plan=FaultPlan(seed=1, sites=("alloc_oom",)),
            )
        store.close()

    def test_imported_records_are_never_served(self, tmp_path):
        store = ExperimentStore(str(tmp_path / "e.sqlite"))
        profiles = baseline.resolve_profiles("clr-1.1")
        suite = baseline.resolve_suite("micro.arith", 0.0)
        artifact = baseline.collect(profiles=profiles, suite=suite, scale=0.0,
                                    git_sha="cafe")
        store.import_artifact(artifact)
        result = baseline.run_collection(profiles=profiles, suite=suite,
                                         scale=0.0, git_sha="cafe", store=store)
        # partial imported records must not satisfy the memo lookup
        assert result.store["hits"] == 0
        store.close()


class TestImportExport:
    def test_export_after_import_is_byte_identical(self, tmp_path):
        profiles = baseline.resolve_profiles("clr-1.1,native-c")
        suite = baseline.resolve_suite("micro.arith", 0.0)
        artifact = baseline.collect(profiles=profiles, suite=suite, scale=0.0,
                                    git_sha="feedface")
        artifact["seq"] = 7
        src = tmp_path / "BENCH_7.json"
        with open(src, "w") as handle:
            json.dump(artifact, handle, indent=1, sort_keys=True)
            handle.write("\n")
        db = str(tmp_path / "e.sqlite")
        out = str(tmp_path / "exported.json")
        env = dict(os.environ, PYTHONPATH="src")
        subprocess.run(
            [sys.executable, "-m", "repro", "store", "--db", db,
             "import", str(src)],
            check=True, env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
        )
        subprocess.run(
            [sys.executable, "-m", "repro", "store", "--db", db,
             "export", "--seq", "7", "--out", out],
            check=True, env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
        )
        assert open(out, "rb").read() == open(src, "rb").read()

    def test_round_trip_preserves_failures_block(self, tmp_path):
        artifact = baseline.collect(
            profiles=baseline.resolve_profiles("clr-1.1"),
            suite=baseline.resolve_suite("micro.arith", 0.0),
            scale=0.0, git_sha="feedface",
        )
        artifact["seq"] = 1
        artifact["failures"] = [
            {"index": 3, "benchmark": "micro.exception", "profile": "mono-0.23",
             "status": "fault", "error": "OutOfMemoryException", "fired": True},
        ]
        blob = json.dumps(artifact, indent=1, sort_keys=True) + "\n"
        with ExperimentStore(str(tmp_path / "e.sqlite")) as store:
            run_id = store.import_artifact(json.loads(blob))
            exported = store.export_artifact(run_id)
        assert json.dumps(exported, indent=1, sort_keys=True) + "\n" == blob

    def test_import_rejects_foreign_schema(self, tmp_path):
        with ExperimentStore(str(tmp_path / "e.sqlite")) as store:
            with pytest.raises(StoreError):
                store.import_artifact({"schema": "something/else"})


def _writer(path, tag, count):
    with ExperimentStore(path) as store:
        for i in range(count):
            append_run(store, git_sha=f"{tag}-{i}")


class TestConcurrencyAndCrashes:
    def test_two_interleaved_writers_both_land(self, tmp_path):
        path = str(tmp_path / "e.sqlite")
        ExperimentStore(path).close()
        procs = [
            multiprocessing.Process(target=_writer, args=(path, tag, 8))
            for tag in ("left", "right")
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
            assert p.exitcode == 0
        with ExperimentStore(path) as store:
            shas = [r["git_sha"] for r in store.runs()]
            assert sorted(shas) == sorted(
                [f"left-{i}" for i in range(8)] + [f"right-{i}" for i in range(8)]
            )
            assert store.counts()["cells"] == 32

    def test_kill_mid_commit_leaves_store_readable(self, tmp_path):
        path = str(tmp_path / "e.sqlite")
        with ExperimentStore(path) as store:
            append_run(store, git_sha="survivor")
        script = (
            "import sqlite3, os, sys\n"
            "conn = sqlite3.connect(sys.argv[1])\n"
            "conn.execute('BEGIN')\n"
            "conn.execute(\"INSERT INTO runs (git_sha, scale, bench_schema,"
            " profiles, suite, cell_keys, source, store_hits, created_unix)"
            " VALUES ('torn', 0.0, 's', '[]', '[]', '{}', 'live', 0, 0)\")\n"
            "os._exit(9)\n"  # die inside the open transaction
        )
        proc = subprocess.run([sys.executable, "-c", script, path])
        assert proc.returncode == 9
        with ExperimentStore(path) as store:
            shas = [r["git_sha"] for r in store.runs()]
            assert shas == ["survivor"], "the torn transaction must roll back"
            append_run(store, git_sha="after")  # still writable


class TestBaselineSelection:
    def test_latest_run_filters(self, tmp_path):
        with ExperimentStore(str(tmp_path / "e.sqlite")) as store:
            assert store.latest_run() is None
            first = append_run(store, git_sha="aaa")
            second = append_run(store, git_sha="bbb")
            third = append_run(store, git_sha="bbb")
            assert store.latest_run() == third
            assert store.latest_run(git_sha="bbb") == third
            assert store.latest_run(git_sha="aaa") == first
            # a rerun of HEAD gates against the last *different* revision
            assert store.latest_run(exclude_sha="bbb") == first
            assert store.latest_run(git_sha="zzz") is None
            assert second < third

    def test_resolve_cells_follows_memo_keys(self, tmp_path):
        with ExperimentStore(str(tmp_path / "e.sqlite")) as store:
            append_run(store, git_sha="cold", cycles=(1000, 250))
            # a fully-warm run records no cells of its own, only the keys
            cell_keys = {
                f"micro.arith@{profile}": cell_key("micro.arith", profile,
                                                   {"N": 4})
                for profile in ("clr-1.1", "native-c")
            }
            warm = store.record_collection(
                git_sha="warm", scale=0.0,
                profiles=["clr-1.1", "native-c"],
                suite=[("micro.arith", {"N": 4})],
                cell_keys=cell_keys, novel=[], store_hits=2,
            )
            resolved = store.resolve_cells(warm)
            assert set(resolved) == {("micro.arith", "clr-1.1"),
                                     ("micro.arith", "native-c")}
            assert resolved[("micro.arith", "clr-1.1")]["total_cycles"] == 1000
            assert resolved[("micro.arith", "native-c")]["total_cycles"] == 250

    def test_unknown_run_raises(self, tmp_path):
        with ExperimentStore(str(tmp_path / "e.sqlite")) as store:
            with pytest.raises(StoreError):
                store.resolve_cells(99)
            with pytest.raises(StoreError):
                store.attribute(1, 99)


class TestAttribution:
    def test_injected_regression_names_cell_and_movers(self, tmp_path):
        with ExperimentStore(str(tmp_path / "e.sqlite")) as store:
            base = append_run(store, git_sha="base", cycles=(1000, 250))
            # clr-1.1 grows 10% (and with it vm.instructions); native-c flat
            new = append_run(store, git_sha="new", cycles=(1100, 250))
            attribution = store.attribute(base, new)
        assert attribution["base_sha"] == "base"
        assert attribution["new_sha"] == "new"
        assert attribution["flagged_cells"] == ["micro.arith@clr-1.1"]
        cell = next(b for b in attribution["cells"]
                    if b["profile"] == "clr-1.1")
        delta = cell["deltas"]["total_cycles"]
        assert delta["flagged"] and delta["rel"] == pytest.approx(0.10)
        assert delta["base"] == 1000 and delta["new"] == 1100
        # the metric-snapshot evidence names what moved inside the cell
        assert [m["metric"] for m in cell["movers"]] == ["vm.instructions"]
        assert cell["movers"][0]["rel"] == pytest.approx(0.10)
        # the unflagged sibling carries deltas but no movers
        flat = next(b for b in attribution["cells"]
                    if b["profile"] == "native-c")
        assert not flat["flagged"] and flat["movers"] == []
        # the anchored ratio drifted (two-sided: improvement counts too)
        assert attribution["flagged_ratios"] == ["micro.arith@native-c"]
        (ratio,) = attribution["ratios"]
        assert ratio["base_ratio"] == pytest.approx(0.25)
        assert ratio["new_ratio"] == pytest.approx(250 / 1100)
        assert ratio["rel"] == pytest.approx(-1 / 11)

    def test_identical_runs_flag_nothing(self, tmp_path):
        with ExperimentStore(str(tmp_path / "e.sqlite")) as store:
            base = append_run(store, git_sha="one")
            new = append_run(store, git_sha="two")
            attribution = store.attribute(base, new)
        assert attribution["flagged_cells"] == []
        assert attribution["flagged_ratios"] == []
        assert all(not block["flagged"] for block in attribution["cells"])

    def test_within_tolerance_growth_is_not_flagged(self, tmp_path):
        with ExperimentStore(str(tmp_path / "e.sqlite")) as store:
            base = append_run(store, cycles=(1000, 250))
            new = append_run(store, cycles=(1010, 250))  # +1% < 2% bound
            attribution = store.attribute(base, new)
        assert attribution["flagged_cells"] == []
        # ...and a custom tolerance tightens the gate
        with ExperimentStore(str(tmp_path / "e.sqlite")) as store:
            tightened = store.attribute(base, new,
                                        tolerances={"cycles": 0.005})
        assert tightened["flagged_cells"] == ["micro.arith@clr-1.1"]

    def test_coverage_changes_are_reported(self, tmp_path):
        with ExperimentStore(str(tmp_path / "e.sqlite")) as store:
            base = append_run(store, bench="micro.arith", git_sha="b1")
            new = append_run(store, bench="grande.sieve", git_sha="b2")
            attribution = store.attribute(base, new)
        assert attribution["cells"] == [] and attribution["ratios"] == []
        assert attribution["only_in_base"] == [
            "micro.arith@clr-1.1", "micro.arith@native-c"]
        assert attribution["only_in_new"] == [
            "grande.sieve@clr-1.1", "grande.sieve@native-c"]


def record_cells(store, git_sha, profiles, cells, benches):
    """Append a run over ``benches`` x ``profiles`` recording ``cells``
    (``{(bench, profile): (cycles, instructions)}``); a cell left out is
    absent from the run, like a failed one."""
    suite = [(bench, {"N": 4}) for bench in benches]
    novel, cell_keys = [], {}
    for bench, params in suite:
        for profile in profiles:
            if (bench, profile) not in cells:
                continue
            cycles, instructions = cells[(bench, profile)]
            record = fake_record(bench, profile, cycles)
            record["instructions"] = instructions
            key = cell_key(bench, profile, params)
            cell_keys[f"{bench}@{profile}"] = key
            novel.append({"key": key, "benchmark": bench, "profile": profile,
                          "params": params, "record": record})
    return store.record_collection(
        git_sha=git_sha, scale=0.0, profiles=list(profiles), suite=suite,
        cell_keys=cell_keys, novel=novel,
    )


def gate_verdicts(base, new):
    """What ``repro bench compare`` decides about two artifacts, in the
    shape of an attribution's verdict fields."""
    rows = baseline.compare(base, new)
    bad = baseline.regressions(rows)

    def coverage(status, side):
        names = set()
        for row in rows:
            if row["status"] == status:
                profiles = (side["benchmarks"][row["benchmark"]]["profiles"]
                            if row["profile"] == "*" else [row["profile"]])
                names |= {f"{row['benchmark']}@{p}" for p in profiles}
        return sorted(names)

    return {
        "flagged_cells": sorted({f"{r['benchmark']}@{r['profile']}"
                                 for r in bad
                                 if r["metric"] in ("cycles", "instructions")}),
        "flagged_ratios": sorted(
            f"{r['benchmark']}@{r['profile'].split('/')[0]}"
            for r in bad if r["metric"] == "ratio"),
        "only_in_base": coverage("removed", base),
        "only_in_new": coverage("added", new),
    }


class TestOnePolicy:
    """Attribution and the regression gate read one policy: for seeded
    perturbations of two recorded runs, the cells and ratios
    ``attribute`` flags are exactly the gate's regression rows."""

    BENCHES = ("micro.arith", "micro.loop", "grande.sieve")

    @pytest.mark.parametrize("profiles", [
        ("native-c", "clr-1.1", "mono-0.23"),
        # no CLR 1.1: every ratio anchors on native-c, as in the artifact
        ("native-c", "mono-0.23", "sun-1.4"),
    ])
    @pytest.mark.parametrize("seed", range(4))
    def test_attribution_flags_what_the_gate_flags(self, tmp_path, profiles,
                                                   seed):
        import random

        rng = random.Random(seed)
        base_cells = {}
        for bench in self.BENCHES:
            for profile in profiles:
                cycles = rng.randint(1000, 5000)
                base_cells[(bench, profile)] = (cycles, cycles // 2)
        dropped = rng.choice(self.BENCHES)
        grown_bench, missing_bench = rng.sample(
            [b for b in self.BENCHES if b != dropped], 2)
        new_cells = {}
        for (bench, profile), (cycles, instructions) in base_cells.items():
            if bench == dropped:
                continue
            # noise on both sides of the tolerances, in both directions
            cycles = int(cycles * (1 + rng.choice([-0.1, -0.01, 0, 0.01, 0.03])))
            instructions = int(instructions * (1 + rng.choice([-0.03, 0, 0.03])))
            new_cells[(bench, profile)] = (cycles, instructions)
        grown = (grown_bench, rng.choice(profiles))
        cycles, instructions = base_cells[grown]
        new_cells[grown] = (int(cycles * 1.1), instructions)
        del new_cells[(missing_bench, rng.choice(profiles))]
        new_benches = [b for b in self.BENCHES if b != dropped]
        with ExperimentStore(str(tmp_path / "e.sqlite")) as store:
            base = record_cells(store, "base", profiles, base_cells,
                                self.BENCHES)
            new = record_cells(store, "new", profiles, new_cells, new_benches)
            # a fully warm rerun of new: no cells of its own, only keys
            warm = store.record_collection(
                git_sha="warm", scale=0.0, profiles=list(profiles),
                suite=[(b, {"N": 4}) for b in new_benches],
                cell_keys={f"{b}@{p}": cell_key(b, p, {"N": 4})
                           for b, p in new_cells},
                novel=[], store_hits=len(new_cells),
            )
            for base_id, new_id in ((base, new), (new, base), (base, warm)):
                attribution = store.attribute(base_id, new_id)
                expected = gate_verdicts(store.export_artifact(base_id),
                                         store.export_artifact(new_id))
                assert {key: sorted(attribution[key])
                        for key in expected} == expected
            forward = store.attribute(base, new)
        assert f"{grown[0]}@{grown[1]}" in forward["flagged_cells"]
        assert forward["flagged_ratios"] and forward["only_in_base"]
        assert forward["ratio_base"] == (
            "clr-1.1" if "clr-1.1" in profiles else "native-c")


class TestReportCli:
    def _seed(self, db):
        with ExperimentStore(db) as store:
            append_run(store, git_sha="r1", cycles=(1000, 250))
            append_run(store, git_sha="r2", cycles=(1000, 200))
            append_run(store, git_sha="r3", cycles=(1100, 200))

    def test_sparkline_shapes(self):
        from repro.store.cli import SPARK_BLOCKS, sparkline

        assert sparkline([]) == ""
        assert sparkline([5.0, 5.0]) == SPARK_BLOCKS[3] * 2  # flat != bottom
        ramp = sparkline([0.0, 0.5, 1.0])
        assert ramp[0] == SPARK_BLOCKS[0] and ramp[-1] == SPARK_BLOCKS[-1]

    def test_report_renders_trend_ladder(self, tmp_path, capsys):
        from repro.cli import main
        from repro.store.cli import SPARK_BLOCKS

        db = str(tmp_path / "e.sqlite")
        self._seed(db)
        assert main(["store", "--db", db, "report"]) == 0
        out = capsys.readouterr().out
        assert "anchored-ratio trend" in out
        assert "micro.arith/native-c" in out
        assert any(block in out for block in SPARK_BLOCKS)
        assert "over 3 runs" in out
        # the raw-cycles ladder is a different lens over the same runs
        assert main(["store", "--db", db, "report", "--cycles"]) == 0
        out = capsys.readouterr().out
        assert "cycles trend" in out and " cycles " in out
        assert "micro.arith/clr-1.1" in out  # the anchor rows appear here

    def test_report_keeps_each_ratio_series_to_one_anchor(self, tmp_path, capsys):
        from repro.cli import main

        db = str(tmp_path / "e.sqlite")
        with ExperimentStore(db) as store:
            for sha, mono in (("r1", 2000), ("r2", 2100)):
                append_run(store, git_sha=sha, profiles=("clr-1.1", "mono-0.23"),
                           cycles=(1000, mono))
            # no CLR 1.1: this run's ratios anchor on native-c
            append_run(store, git_sha="r3",
                       profiles=("native-c", "mono-0.23", "sun-1.4"),
                       cycles=(250, 2000, 1500))
        assert main(["store", "--db", db, "report",
                     "--benchmark", "micro.arith"]) == 0
        mono = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()
                if "micro.arith/mono-0.23" in line]
        assert len(mono) == 2, mono
        assert mono[0].startswith("micro.arith/mono-0.23 ")
        assert mono[0].endswith(" 2 -> 2.1 (+5.0% over 2 runs)")
        assert mono[1].startswith("micro.arith/mono-0.23 vs native-c ")
        assert mono[1].endswith(" 8 -> 8 (+0.0% over 1 runs)")

    def test_report_attributes_injected_regression(self, tmp_path, capsys):
        from repro.cli import main

        db = str(tmp_path / "e.sqlite")
        self._seed(db)
        assert main(["store", "--db", db, "report",
                     "--attribute", "1", "3"]) == 0
        out = capsys.readouterr().out
        assert "attribution: run 1" in out
        assert "REGRESSED micro.arith@clr-1.1" in out
        assert "total_cycles: 1000 -> 1100 (+10.00%)" in out
        assert "mover vm.instructions" in out
        assert "RATIO DRIFT micro.arith@native-c" in out

    def test_report_clean_pair_says_so(self, tmp_path, capsys):
        from repro.cli import main

        db = str(tmp_path / "e.sqlite")
        with ExperimentStore(db) as store:
            append_run(store, git_sha="r1")
            append_run(store, git_sha="r2")
        assert main(["store", "--db", db, "report",
                     "--attribute", "1", "2"]) == 0
        assert "no cell exceeds the tolerance policy" in capsys.readouterr().out

    def test_report_json_contract(self, tmp_path, capsys):
        from repro.cli import main

        db = str(tmp_path / "e.sqlite")
        self._seed(db)
        assert main(["store", "--db", db, "report", "--json",
                     "--attribute", "1", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"rows", "attribution"}
        assert payload["attribution"]["flagged_cells"] == [
            "micro.arith@clr-1.1"]
        assert payload["rows"]  # trend rows ride along for tooling

    def test_report_unknown_run_is_a_clean_error(self, tmp_path):
        from repro.cli import main

        db = str(tmp_path / "e.sqlite")
        self._seed(db)
        with pytest.raises(SystemExit, match="no run"):
            main(["store", "--db", db, "report", "--attribute", "1", "99"])


class TestQueries:
    def test_trend_ratio_ladder(self, tmp_path):
        with ExperimentStore(str(tmp_path / "e.sqlite")) as store:
            append_run(store, git_sha="r1", cycles=(1000, 250))
            append_run(store, git_sha="r2", cycles=(1000, 200))
            rows = store.trend(benchmark="micro.arith", profile="native-c")
            assert [row["ratio"] for row in rows] == [0.25, 0.2]
            base_rows = store.trend(profile="clr-1.1")
            assert all(row["ratio"] is None for row in base_rows)

    def test_trend_anchors_like_the_artifact(self, tmp_path):
        with ExperimentStore(str(tmp_path / "e.sqlite")) as store:
            # no CLR 1.1 in the run: both anchor on its first profile
            run = append_run(store, profiles=("native-c", "mono-0.23"),
                             cycles=(250, 1000))
            rows = store.trend()
            ratios = store.export_artifact(run)["benchmarks"][
                "micro.arith"]["ratios"]
        assert ratios == {"mono-0.23/native-c": 4.0}
        assert [(row["profile"], row["ratio"], row["anchor"]) for row in rows] == [
            ("native-c", None, "native-c"), ("mono-0.23", 4.0, "native-c")]

    def test_metric_trend(self, tmp_path):
        with ExperimentStore(str(tmp_path / "e.sqlite")) as store:
            append_run(store, git_sha="r1", cycles=(1000, 250))
            rows = store.metric_trend("vm.instructions", benchmark="micro.arith")
            assert [row["value"] for row in rows] == [500.0, 125.0]


class TestWalAndReadOnly:
    def test_store_opens_in_wal_mode(self, tmp_path):
        path = str(tmp_path / "e.sqlite")
        with ExperimentStore(path) as store:
            assert store.journal_mode == "wal"
        # the mode is persistent: a raw reopen still reports WAL
        conn = sqlite3.connect(path)
        try:
            assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        finally:
            conn.close()

    def test_read_only_reader_sees_committed_writes(self, tmp_path):
        path = str(tmp_path / "e.sqlite")
        with ExperimentStore(path) as writer:
            append_run(writer, git_sha="r1")
            with ExperimentStore(path, read_only=True) as reader:
                assert len(reader.runs()) == 1
                # a write landing while the reader is open becomes
                # visible on its next query (WAL snapshot semantics)
                append_run(writer, git_sha="r2", cycles=(1000, 200))
                assert len(reader.runs()) == 2

    def test_read_only_refuses_writes_and_missing_files(self, tmp_path):
        path = str(tmp_path / "e.sqlite")
        with pytest.raises(StoreError, match="read-only"):
            ExperimentStore(path, read_only=True)  # refuses to create
        with ExperimentStore(path) as writer:
            append_run(writer)
        with ExperimentStore(path, read_only=True) as reader:
            with pytest.raises(StoreError, match="read-only"):
                append_run(reader)

    def test_read_only_refuses_future_schema(self, tmp_path):
        path = str(tmp_path / "e.sqlite")
        with ExperimentStore(path) as store:
            store._conn.execute(
                "UPDATE schema_meta SET version = ?", (SCHEMA_VERSION + 1,)
            )
            store._conn.commit()
        with pytest.raises(StoreError, match="newer"):
            ExperimentStore(path, read_only=True)


class TestStoreReadPool:
    def test_connections_are_reused_and_counted(self, tmp_path):
        path = str(tmp_path / "e.sqlite")
        with ExperimentStore(path) as writer:
            append_run(writer)
        pool = StoreReadPool(path, size=2)
        try:
            for _ in range(3):
                with pool.connection() as store:
                    assert store.read_only
                    assert len(store.runs()) == 1
            stats = pool.stats()
            assert stats["created"] == 1
            assert stats["reused"] == 2
            assert stats["idle"] == 1
        finally:
            pool.close()

    def test_burst_beyond_size_degrades_without_blocking(self, tmp_path):
        path = str(tmp_path / "e.sqlite")
        with ExperimentStore(path) as writer:
            append_run(writer)
        pool = StoreReadPool(path, size=1)
        try:
            first = pool.acquire()
            second = pool.acquire()  # over the cap: opened fresh, not queued
            assert pool.stats()["created"] == 2
            pool.release(first)
            pool.release(second)  # idle cap reached — closed, not pooled
            assert pool.stats()["idle"] == 1
        finally:
            pool.close()
        with pytest.raises(StoreError, match="closed"):
            pool.acquire()

    def test_handles_share_decoded_runs(self, tmp_path):
        path = str(tmp_path / "e.sqlite")
        profiles = baseline.resolve_profiles("clr-1.1")
        suite = baseline.resolve_suite("micro.arith", 0.0)
        with ExperimentStore(path) as writer:
            baseline.collect(profiles=profiles, suite=suite, scale=0.0,
                             git_sha="cafe", store=writer)
            key = cell_key("micro.arith", "clr-1.1", overrides=suite[0][1])
            # a plain handle decodes a fresh run per lookup
            assert writer.lookup_run(key) is not writer.lookup_run(key)
            record = writer.lookup(key)
        pool = StoreReadPool(path, size=1)
        try:
            first = pool.acquire()
            second = pool.acquire()  # over the cap: a second connection
            run = first.lookup_run(key)
            assert run_to_record(run) == record
            assert second.lookup_run(key) is run
            assert (first.hits, second.hits) == (1, 1)
            assert second.lookup_run("no-such-key") is None
            assert second.misses == 1
            pool.release(first)
            pool.release(second)
        finally:
            pool.close()

    def test_lent_handle_works_on_another_thread(self, tmp_path):
        import threading

        path = str(tmp_path / "e.sqlite")
        with ExperimentStore(path) as writer:
            append_run(writer)
        pool = StoreReadPool(path, size=1)
        try:
            with pool.connection():
                pass  # opened on this thread, lent to the next
            seen = []

            def read():
                with pool.connection() as lent:
                    seen.append(lent.counts()["runs"])

            worker = threading.Thread(target=read)
            worker.start()
            worker.join(10)
            assert seen == [1]
        finally:
            pool.close()
