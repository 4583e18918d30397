"""Tests for the harness layer: runner, charts, experiment plumbing, CLI."""

import pytest

from repro.harness.charts import bar_chart, format_sci, table, to_csv
from repro.cli import main as cli_main
from repro.harness.results import ExperimentCheck, ExperimentResult
from repro.harness.runner import Runner, plan, profile_cells, profile_runs
from repro.runtimes import CLR11, IBM131, SSCLI10


@pytest.fixture(scope="module")
def runner():
    return Runner(clock_hz=2.8e9)


class TestRunner:
    def test_compile_is_cached(self, runner):
        a = runner.compile_benchmark("micro.loop", {"Reps": 100})
        b = runner.compile_benchmark("micro.loop", {"Reps": 100})
        assert a is b
        c = runner.compile_benchmark("micro.loop", {"Reps": 200})
        assert c is not a

    def test_run_produces_all_sections(self):
        cells = profile_cells("micro.loop", {"Reps": 500}, [CLR11, SSCLI10], 2.8e9)
        runs = profile_runs(plan(cells), cells)
        assert set(runs) == {"clr-1.1", "sscli-1.0"}
        for run in runs.values():
            assert {"Loop:For", "Loop:ReverseFor", "Loop:While"} <= set(run.sections)
            for section in run.sections.values():
                assert section.cycles > 0
                assert section.ops_per_sec > 0

    def test_cross_runtime_result_mismatch_detected(self):
        # same benchmark: results agree, so no error
        plan(profile_cells("scimark.montecarlo", {"Samples": 300},
                           [CLR11, SSCLI10], 2.8e9))

    def test_clock_override_scales_rates(self):
        fast = ("micro.loop", {"Reps": 500}, "clr-1.1", 2.8e9)
        slow = ("micro.loop", {"Reps": 500}, "clr-1.1", 1.4e9)
        runs = plan([fast, slow])
        a = profile_runs(runs, [fast])["clr-1.1"].section("Loop:For")
        b = profile_runs(runs, [slow])["clr-1.1"].section("Loop:For")
        assert a.ops_per_sec == pytest.approx(2 * b.ops_per_sec)

    def test_missing_section_raises_keyerror(self, runner):
        run = runner.run_on("micro.loop", CLR11, {"Reps": 100})
        with pytest.raises(KeyError, match="no section"):
            run.section("Nope")

    def test_deterministic_cycles(self):
        r1 = Runner().run_on("micro.cast", IBM131, {"Reps": 300})
        r2 = Runner().run_on("micro.cast", IBM131, {"Reps": 300})
        assert r1.total_cycles == r2.total_cycles
        for s in r1.sections:
            assert r1.sections[s].cycles == r2.sections[s].cycles


class TestPlanner:
    """Experiments declare cells; ``plan`` runs each distinct cell once."""

    def test_declared_cells_dedupe_without_executing(self, monkeypatch):
        from repro.harness.experiments import ALL_EXPERIMENTS, renders
        from repro.harness.runner import cell_key

        def refuse(*_args, **_kwargs):
            raise AssertionError("declaring cells must execute nothing")

        monkeypatch.setattr(Runner, "run_on", refuse)
        cells = [
            cell
            for name, module in ALL_EXPERIMENTS.items()
            for kwargs in renders(name)
            for cell in module.cells(1.0, **kwargs)
        ]
        assert len(cells) == 181
        assert len({cell_key(cell) for cell in cells}) == 97
        # Graph 11 is the large model: the CLI renders both
        assert renders("graph10-11") == [{"model": "small"}, {"model": "large"}]

    def test_shared_cells_run_once_and_evaluate_matches_run(self, monkeypatch):
        from repro.harness.experiments import graph01_02_int_arith, graph03_fp_arith
        from repro.store import run_to_record

        modules = (graph01_02_int_arith, graph03_fp_arith)
        standalone = [module.run(scale=0.05) for module in modules]
        calls = []
        run_on = Runner.run_on

        def counted(self, name, profile, *args, **kwargs):
            calls.append((name, profile.name))
            return run_on(self, name, profile, *args, **kwargs)

        monkeypatch.setattr(Runner, "run_on", counted)
        runs = plan([cell for module in modules for cell in module.cells(0.05)])
        assert sorted(calls) == sorted(
            ("micro.arith", profile) for profile in
            ("ibm-1.3.1", "clr-1.1", "mono-0.23", "sscli-1.0")
        )
        before = {key: run_to_record(run) for key, run in runs.items()}
        for module, alone in zip(modules, standalone):
            shared = module.evaluate(runs, 0.05)
            assert shared.series == alone.series
            assert shared.checks == alone.checks
            assert shared.text == alone.text
        # evaluate reads the shared ProfileRuns and never mutates them
        assert {key: run_to_record(run) for key, run in runs.items()} == before


class TestCharts:
    SERIES = {
        "SectionA": {"vm1": 100.0, "vm2": 50.0},
        "SectionB": {"vm1": 10.0, "vm2": 80.0},
    }

    def test_bar_chart_contains_all(self):
        text = bar_chart(self.SERIES, unit="widgets/sec", title="Demo")
        assert "Demo" in text
        assert "SectionA" in text and "SectionB" in text
        assert "vm1" in text and "vm2" in text
        assert "widgets/sec" in text

    def test_bar_chart_scales_to_peak(self):
        text = bar_chart(self.SERIES)
        lines = [l for l in text.splitlines() if "vm1" in l and "#" in l]
        peak_bar = max(l.count("#") for l in lines)
        assert peak_bar >= 40  # peak value fills most of the bar width

    def test_table_alignment_and_missing_cells(self):
        rows = {"r1": {"c1": 1.5}, "r2": {"c1": 2.0, "c2": 3.0}}
        text = table(rows, columns=["c1", "c2"])
        assert "1.50" in text and "3.00" in text
        assert "-" in text  # missing r1/c2

    def test_to_csv(self):
        csv = to_csv(self.SERIES, profile_order=["vm1", "vm2"])
        lines = csv.splitlines()
        assert lines[0] == "section,vm1,vm2"
        assert lines[1].startswith("SectionA,")

    def test_format_sci(self):
        assert format_sci(0) == "0"
        assert format_sci(123456789.0) == "1.23e+8"


class TestExperimentResult:
    def test_all_passed(self):
        r = ExperimentResult(experiment="x", title="t")
        r.checks.append(ExperimentCheck("ok", True))
        assert r.all_passed
        r.checks.append(ExperimentCheck("bad", False, "why"))
        assert not r.all_passed
        rendered = r.checks[1].render()
        assert "FAIL" in rendered and "why" in rendered


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "scimark.fft" in out and "micro.arith" in out

    def test_profiles(self, capsys):
        assert cli_main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "clr-1.1" in out and "sscli-1.0" in out

    def test_run_with_params(self, capsys):
        code = cli_main([
            "run", "micro.loop", "--profiles", "clr-1.1", "--param", "Reps=300",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Loop:For" in out

    def test_experiment_tables(self, capsys):
        assert cli_main(["experiment", "tables5-8"]) == 0
        out = capsys.readouterr().out
        assert "idiv" in out and "ldc.i4" in out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            cli_main(["experiment", "graph99"])

    def test_bad_param_format(self):
        with pytest.raises(SystemExit, match="bad --param"):
            cli_main(["run", "micro.loop", "--param", "Oops"])

    def test_run_profile_writes_artifacts_serially(self, tmp_path, capsys):
        code = cli_main([
            "run", "micro.loop", "--profiles", "clr-1.1", "mono-0.23",
            "--param", "Reps=200", "--profile",
            "--profile-dir", str(tmp_path), "--no-compile-cache",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "hpcnet: parallel" not in out
        for runtime in ("clr-1.1", "mono-0.23"):
            for suffix in ("profile.json", "trace.json", "report.txt"):
                path = tmp_path / f"micro.loop.{runtime}.{suffix}"
                assert path.exists(), path
                assert f"wrote {suffix.split('.')[0]}: {path}" in out
        assert "Loop:For" in out

    def test_parse_overrides(self):
        from repro.harness.cli import _parse_overrides

        assert _parse_overrides([]) is None
        assert _parse_overrides(["N=3", "X=0.5", "S=abc"]) == {
            "N": 3, "X": 0.5, "S": "abc",
        }

    def test_disasm(self, capsys):
        assert cli_main(["experiment", "tables5-8"]) == 0
        out = capsys.readouterr().out
        assert "Table 8" in out


class TestCliCsv:
    def test_run_csv_output(self, capsys):
        code = cli_main([
            "run", "micro.loop", "--profiles", "clr-1.1", "ibm-1.3.1",
            "--param", "Reps=300", "--csv",
        ])
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines[0] == "section,clr-1.1,ibm-1.3.1"
        assert any(l.startswith("Loop:For,") for l in lines)


class TestCompileKey:
    """Regression for the runner's memo key: ``tuple(sorted(dict.items()))``
    raised an opaque TypeError on unhashable override values and collided
    1 / 1.0 / True.  ``compile_key`` canonicalizes values and names the
    offending key when one genuinely cannot be cached."""

    def test_unhashable_value_raises_named_error(self):
        from repro.errors import BenchmarkError
        from repro.harness.runner import compile_key

        with pytest.raises(BenchmarkError, match=r"'Reps'"):
            compile_key("micro.arith", {"Reps": {"nested": 1}})
        with pytest.raises(BenchmarkError, match="micro.arith"):
            compile_key("micro.arith", {"Reps": {"nested": 1}})

    def test_numeric_types_do_not_collide(self):
        from repro.harness.runner import compile_key

        keys = {
            compile_key("b", {"X": 1}),
            compile_key("b", {"X": 1.0}),
            compile_key("b", {"X": True}),
        }
        assert len(keys) == 3

    def test_list_values_are_keyable_and_order_sensitive(self):
        from repro.harness.runner import compile_key

        a = compile_key("b", {"Xs": [1, 2, 3]})
        assert a == compile_key("b", {"Xs": [1, 2, 3]})
        assert a == compile_key("b", {"Xs": (1, 2, 3)})  # canon form is a tuple
        assert a != compile_key("b", {"Xs": [3, 2, 1]})

    def test_key_is_order_insensitive_over_params(self):
        from repro.harness.runner import compile_key

        assert compile_key("b", {"A": 1, "B": 2}) == compile_key(
            "b", {"B": 2, "A": 1}
        )

    def test_runner_surfaces_the_same_error(self):
        from repro.errors import BenchmarkError

        runner = Runner()
        with pytest.raises(BenchmarkError, match=r"'Reps'"):
            runner.compile_benchmark("micro.arith", {"Reps": [1, [2, {"x": 3}]]})
