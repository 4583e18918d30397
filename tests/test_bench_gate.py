"""Tests for the BENCH_* benchmark-trajectory artifacts and regression gate.

The engine is deterministic, so the gate's contract is exact: collecting
twice at the same commit produces artifacts that self-compare clean, and
any injected drift beyond tolerance must flip ``repro bench compare`` to a
nonzero exit with a table naming the benchmark, profile, and metric.
"""

import copy
import json

import pytest

from repro.metrics import baseline
from repro.metrics.baseline import (
    BENCH_SCHEMA,
    DEFAULT_TOLERANCES,
    compare,
    graph_suite,
    load_artifact,
    next_seq,
    regressions,
    render_compare,
    write_artifact,
)
from repro.cli import main
from repro.runtimes import ALL_PROFILES, CLR11, MONO023

#: one tiny real collection shared by the whole module (deterministic, so
#: collecting once is enough to exercise self-compare)
SUITE = [("micro.arith", {"Reps": 120}), ("grande.sieve", {"Limit": 300, "Reps": 1})]


@pytest.fixture(scope="module")
def artifact():
    return baseline.collect(
        profiles=[CLR11, MONO023], suite=SUITE, scale=0.01, git_sha="testsha"
    )


def perturbed(artifact, bench, profile, factor):
    """Deep copy with one profile's cycles scaled, ratios recomputed the
    way collect() computes them."""
    art = copy.deepcopy(artifact)
    entry = art["benchmarks"][bench]
    entry["profiles"][profile]["cycles"] = int(
        entry["profiles"][profile]["cycles"] * factor
    )
    base_name = "clr-1.1" if "clr-1.1" in entry["profiles"] else art["profiles"][0]
    base_cycles = entry["profiles"][base_name]["cycles"]
    entry["ratios"] = {
        f"{p}/{base_name}": e["cycles"] / base_cycles
        for p, e in entry["profiles"].items()
        if p != base_name
    }
    return art


class TestArtifact:
    def test_schema_and_coverage(self, artifact):
        assert artifact["schema"] == BENCH_SCHEMA
        assert artifact["git_sha"] == "testsha"
        assert artifact["profiles"] == ["clr-1.1", "mono-0.23"]
        assert sorted(artifact["benchmarks"]) == ["grande.sieve", "micro.arith"]
        for bench in artifact["benchmarks"].values():
            assert set(bench["profiles"]) == {"clr-1.1", "mono-0.23"}
            assert list(bench["ratios"]) == ["mono-0.23/clr-1.1"]
            for entry in bench["profiles"].values():
                assert entry["cycles"] > 0
                assert entry["instructions"] > 0
                assert entry["metrics"]["gauges"]["machine.cycles"] == entry["cycles"]
                assert entry["sections"]

    def test_collection_is_deterministic(self, artifact):
        again = baseline.collect(
            profiles=[CLR11, MONO023], suite=SUITE, scale=0.01, git_sha="testsha"
        )
        assert json.dumps(again, sort_keys=True) == json.dumps(
            artifact, sort_keys=True
        )

    def test_graph_suite_covers_every_default_profile(self):
        # the real (scale=1) suite must exist in the benchmark registry
        from repro.benchmarks import get as get_benchmark

        suite = graph_suite()
        assert len(suite) >= 8
        for name, params in suite:
            bench = get_benchmark(name)  # raises on unknown name
            assert bench is not None
            assert params
        assert len(ALL_PROFILES) == 8  # artifact spans all runtimes by default

    def test_write_and_load_roundtrip(self, artifact, tmp_path):
        out = str(tmp_path)
        assert next_seq(out) == 0
        path = write_artifact(artifact, out)
        assert path.endswith("BENCH_0.json")
        assert next_seq(out) == 1
        path2 = write_artifact(artifact, out)
        assert path2.endswith("BENCH_1.json")
        loaded = load_artifact(path)
        assert loaded["seq"] == 0
        assert loaded["benchmarks"].keys() == artifact["benchmarks"].keys()

    def test_load_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "BENCH_9.json"
        bad.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError, match="repro.bench/1"):
            load_artifact(str(bad))


class TestCompare:
    def test_self_compare_is_clean(self, artifact):
        rows = compare(artifact, artifact)
        assert rows
        assert not regressions(rows)
        assert all(r["status"] == "ok" for r in rows)
        text = render_compare(rows, artifact, artifact)
        assert "VERDICT: ok" in text
        assert "0 regressed" in text

    def test_regression_beyond_tolerance_flagged(self, artifact):
        worse = perturbed(artifact, "micro.arith", "mono-0.23", 1.20)
        rows = compare(artifact, worse)
        bad = regressions(rows)
        assert bad
        flagged = {(r["benchmark"], r["profile"], r["metric"]) for r in bad}
        assert ("micro.arith", "mono-0.23", "cycles") in flagged
        # the cross-runtime ratio moved too
        assert ("micro.arith", "mono-0.23/clr-1.1", "ratio") in flagged
        text = render_compare(rows, artifact, worse)
        assert "REGRESSION" in text
        assert "micro.arith" in text and "mono-0.23" in text

    def test_within_tolerance_passes(self, artifact):
        slightly = perturbed(artifact, "micro.arith", "mono-0.23", 1.005)
        assert not regressions(compare(artifact, slightly))

    def test_improvement_never_fails_the_gate(self, artifact):
        faster = perturbed(artifact, "micro.arith", "mono-0.23", 0.5)
        rows = compare(artifact, faster, tolerances={"ratio": 10.0})
        assert not regressions(rows)
        assert any(r["status"] == "improved" for r in rows)

    def test_ratio_shift_is_two_sided(self, artifact):
        # a big speedup on one runtime shifts the paper's ratio: flagged
        faster = perturbed(artifact, "micro.arith", "mono-0.23", 0.5)
        rows = compare(artifact, faster)
        assert any(
            r["metric"] == "ratio" and r["status"] == "regression" for r in rows
        )

    def test_removed_benchmark_is_coverage_regression(self, artifact):
        shrunk = copy.deepcopy(artifact)
        del shrunk["benchmarks"]["grande.sieve"]
        rows = compare(artifact, shrunk)
        bad = regressions(rows)
        assert any(
            r["benchmark"] == "grande.sieve" and r["status"] == "removed"
            for r in bad
        )
        # the reverse direction is informational, not failing
        rows = compare(shrunk, artifact)
        assert not regressions(rows)
        assert any(r["status"] == "added" for r in rows)

    def test_tolerance_overrides(self, artifact):
        worse = perturbed(artifact, "micro.arith", "mono-0.23", 1.20)
        relaxed = compare(
            artifact, worse, tolerances={"cycles": 0.5, "ratio": 0.5}
        )
        assert not regressions(relaxed)
        with pytest.raises(ValueError, match="unknown tolerance"):
            compare(artifact, worse, tolerances={"nope": 0.1})
        assert DEFAULT_TOLERANCES["cycles"] < 0.5  # overrides actually relaxed


class TestCli:
    def test_run_writes_artifact_and_compare_gates(self, tmp_path, capsys):
        out = str(tmp_path / "bench")
        argv_common = [
            "--out", out, "--scale", "0.01",
            "--profiles", "clr-1.1,mono-0.23",
            "--benchmarks", "micro.arith",
            "--git-sha", "cli-test",
        ]
        assert main(["bench", "run"] + argv_common) == 0
        assert main(["bench", "run"] + argv_common) == 0
        capsys.readouterr()
        base = f"{out}/BENCH_0.json"
        new = f"{out}/BENCH_1.json"
        data = load_artifact(base)
        assert data["git_sha"] == "cli-test"
        assert data["schema"] == BENCH_SCHEMA

        # identical collections: the gate passes
        assert main(["bench", "compare", base, new]) == 0
        assert "VERDICT: ok" in capsys.readouterr().out

        # inject a regression: the gate fails with a readable table
        art = perturbed(load_artifact(new), "micro.arith", "mono-0.23", 1.25)
        doctored = tmp_path / "BENCH_bad.json"
        doctored.write_text(json.dumps(art))
        assert main(["bench", "compare", base, str(doctored)]) == 1
        text = capsys.readouterr().out
        assert "REGRESSION" in text and "micro.arith" in text

        # ...unless tolerances say otherwise
        assert main([
            "bench", "compare", base, str(doctored),
            "--tolerance", "cycles=0.5", "--tolerance", "ratio=0.5",
        ]) == 0

    def test_run_rejects_unknown_benchmark(self, tmp_path):
        with pytest.raises(SystemExit, match="not in the graph suite"):
            main([
                "bench", "run", "--out", str(tmp_path), "--benchmarks", "micro.nope",
            ])

    def test_compare_rejects_bad_tolerance_syntax(self, tmp_path, artifact):
        path = write_artifact(artifact, str(tmp_path))
        with pytest.raises(SystemExit, match="tolerance"):
            main(["bench", "compare", path, path, "--tolerance", "cycles"])


class TestStoreGate:
    """``compare --store``: gate a candidate artifact directly against
    store history instead of a checked-in BENCH file."""

    def _run(self, out, db, sha):
        assert main([
            "bench", "run", "--out", out, "--scale", "0.01",
            "--profiles", "clr-1.1,mono-0.23", "--benchmarks", "micro.arith",
            "--git-sha", sha, "--store", db,
        ]) == 0

    def _history(self, tmp_path):
        out, db = str(tmp_path / "bench"), str(tmp_path / "exp.sqlite")
        self._run(out, db, "shaA")  # store run 1
        self._run(out, db, "shaB")  # store run 2 (all memo hits)
        return out, db

    def test_clean_candidate_passes_and_skips_own_sha(self, tmp_path, capsys):
        out, db = self._history(tmp_path)
        candidate = f"{out}/BENCH_1.json"  # git_sha shaB
        assert main(["bench", "compare", candidate, "--store", db]) == 0
        captured = capsys.readouterr()
        # the rerun-of-HEAD rule: shaB's own run is skipped as baseline
        assert "baseline = store run 1 (git shaA)" in captured.err
        assert "VERDICT: ok" in captured.out

    def test_base_sha_pins_the_baseline(self, tmp_path, capsys):
        out, db = self._history(tmp_path)
        candidate = f"{out}/BENCH_0.json"
        assert main(["bench", "compare", candidate, "--store", db,
                     "--base-sha", "shaB"]) == 0
        assert "baseline = store run 2 (git shaB)" in capsys.readouterr().err
        with pytest.raises(SystemExit, match="no run with git sha"):
            main(["bench", "compare", candidate, "--store", db,
                  "--base-sha", "nope"])

    def test_injected_regression_fails_the_gate(self, tmp_path, capsys):
        out, db = self._history(tmp_path)
        doctored = perturbed(
            load_artifact(f"{out}/BENCH_1.json"), "micro.arith", "mono-0.23",
            1.25,
        )
        doctored["git_sha"] = "shaC"
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps(doctored))
        assert main(["bench", "compare", str(bad), "--store", db]) == 1
        captured = capsys.readouterr()
        assert "baseline = store run 2" in captured.err  # latest non-shaC run
        assert "REGRESSION" in captured.out
        assert "micro.arith" in captured.out

    def test_argument_errors(self, tmp_path, artifact):
        path = write_artifact(artifact, str(tmp_path))
        db = str(tmp_path / "exp.sqlite")
        with pytest.raises(SystemExit, match="takes one artifact"):
            main(["bench", "compare", path, path, "--store", db])
        with pytest.raises(SystemExit, match="needs BASE.json"):
            main(["bench", "compare", path])

    def test_empty_store_is_a_clean_error(self, tmp_path, artifact):
        from repro.store import ExperimentStore

        path = write_artifact(artifact, str(tmp_path))
        db = str(tmp_path / "exp.sqlite")
        ExperimentStore(db).close()
        with pytest.raises(SystemExit, match="no runs"):
            main(["bench", "compare", path, "--store", db])
