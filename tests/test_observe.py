"""Tests for the repro.observe subsystem.

The load-bearing property is **zero perturbation**: attaching an
:class:`~repro.observe.Observer` must never change a machine's cycles,
instructions, or results — observed and unobserved runs are bit-identical.
The rest checks that what the observer records is complete (>= 95% cycle
attribution; in practice 100%), well-formed (Chrome trace structure,
balanced begin/end spans), and usable (report/diff text, CLI, harness
plumbing).
"""

import json
from pathlib import Path

import pytest

from repro.benchmarks import get as get_benchmark
from repro.harness.runner import Runner
from repro.lang import compile_source
from repro.observe import (
    CATEGORIES,
    Observer,
    coverage,
    diff_categories,
    profile_from_path,
    profile_to_dict,
    render_diff,
    render_diff_markdown,
    render_report,
)
from repro.cli import main
from repro.observe.cli import resolve_profile
from repro.runtimes import CLR11, MICRO_PROFILES, MONO023
from repro.vm.loader import LoadedAssembly
from repro.vm.machine import Machine

CORPUS = Path(__file__).parent / "fuzz_corpus"
CORPUS_FILES = sorted(CORPUS.glob("*.cs"))

#: benchmark -> shrunk-but-representative parameter overrides
BENCH_CASES = {
    "micro.arith": {"Reps": 300},
    "grande.sieve": {"Limit": 600, "Reps": 1},
    "scimark.sor": {"N": 10, "Iters": 2},
}


def run_pair(assembly_source, profile, quantum=50_000):
    """Run one program observed and unobserved; return (plain, observed, obs)."""
    plain = Machine(
        LoadedAssembly(compile_source(assembly_source)), profile, quantum=quantum
    )
    plain_result = plain.run()
    obs = Observer()
    watched = Machine(
        LoadedAssembly(compile_source(assembly_source)),
        profile,
        quantum=quantum,
        observer=obs,
    )
    watched_result = watched.run()
    return plain, plain_result, watched, watched_result, obs


def bench_pair(name, profile, overrides):
    runner = Runner()
    plain = runner.run_on(name, profile, overrides)
    watched = runner.run_on(name, profile, overrides, observe=True)
    return plain, watched


class TestZeroPerturbation:
    @pytest.mark.parametrize("profile", MICRO_PROFILES, ids=lambda p: p.name)
    @pytest.mark.parametrize("bench", sorted(BENCH_CASES))
    def test_benchmarks_bit_identical(self, bench, profile):
        plain, watched = bench_pair(bench, profile, BENCH_CASES[bench])
        assert watched.total_cycles == plain.total_cycles
        assert watched.instructions == plain.instructions
        assert watched.stdout == plain.stdout
        for name, sec in plain.sections.items():
            wsec = watched.sections[name]
            assert wsec.cycles == sec.cycles
            assert wsec.results == sec.results
            assert wsec.ops == sec.ops

    @pytest.mark.parametrize(
        "path", CORPUS_FILES, ids=lambda p: p.stem
    )
    def test_fuzz_corpus_replay_bit_identical(self, path):
        source = path.read_text()
        plain, plain_result, watched, watched_result, _obs = run_pair(
            source, CLR11
        )
        assert watched_result == plain_result
        assert watched.cycles == plain.cycles
        assert watched.instructions == plain.instructions

    @pytest.mark.parametrize("profile", MICRO_PROFILES, ids=lambda p: p.name)
    def test_attribution_covers_all_cycles(self, profile):
        _plain, watched = bench_pair("micro.arith", profile, {"Reps": 300})
        profile_dict = profile_to_dict(watched.observation)
        assert coverage(profile_dict) >= 0.95
        # in practice the recorder accounts for every single cycle
        assert profile_dict["attributed_cycles"] == profile_dict["total_cycles"]
        assert sum(profile_dict["categories"].values()) == profile_dict["total_cycles"]

    def test_observer_instruction_count_matches_machine(self):
        _plain, watched = bench_pair("grande.sieve", CLR11, BENCH_CASES["grande.sieve"])
        obs = watched.observation
        assert obs.cycles.instructions() == obs.machine.instructions

    def test_observer_is_single_machine(self):
        obs = Observer()
        src = "class P { static int Main() { return 7; } }"
        Machine(LoadedAssembly(compile_source(src)), CLR11, observer=obs).run()
        with pytest.raises(ValueError):
            Machine(LoadedAssembly(compile_source(src)), CLR11, observer=obs)


class TestTimeline:
    def _trace(self, bench="micro.arith", profile=CLR11, overrides=None):
        _plain, watched = bench_pair(bench, profile, overrides or {"Reps": 300})
        obs = watched.observation
        return obs, obs.timeline.to_chrome_trace(profile.clock_hz, {"benchmark": bench})

    def test_chrome_trace_structure(self):
        obs, trace = self._trace()
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert trace["displayTimeUnit"] == "ms"
        assert trace["otherData"]["clock_hz"] == CLR11.clock_hz
        assert trace["traceEvents"], "timeline should not be empty"
        for ev in trace["traceEvents"]:
            assert ev["ph"] in ("B", "E", "I", "X")
            assert ev["ts"] >= 0
            assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
        # must survive a JSON round-trip (what chrome://tracing loads)
        assert json.loads(json.dumps(trace)) == trace

    def test_begin_end_balanced_per_thread(self):
        obs, trace = self._trace(
            bench="scimark.sor", overrides=BENCH_CASES["scimark.sor"]
        )
        assert obs.timeline.open_spans() == 0
        depth = {}
        for ev in trace["traceEvents"]:
            if ev["ph"] == "B":
                depth[ev["tid"]] = depth.get(ev["tid"], 0) + 1
            elif ev["ph"] == "E":
                depth[ev["tid"]] = depth.get(ev["tid"], 0) - 1
                assert depth[ev["tid"]] >= 0, "E without matching B"
        assert all(v == 0 for v in depth.values()), depth

    def test_event_cap_drops_pairs_not_ends(self):
        # virtual Step() defeats inlining, so every iteration is a real call
        src = """
        class C {
            virtual int Step(int x) { return x + 1; }
            static int Main() {
                C c = new C();
                int s = 0;
                for (int i = 0; i < 100; i++) { s = c.Step(s); }
                return s;
            }
        }"""
        obs = Observer(max_events=8)
        machine = Machine(
            LoadedAssembly(compile_source(src)), CLR11, observer=obs
        )
        assert machine.run() == 100
        assert obs.timeline.dropped > 0
        phases = [e[0] for e in obs.timeline.events]
        assert phases.count("B") == phases.count("E")  # never a lone end
        assert obs.timeline.open_spans() == 0


class TestJitTrace:
    def test_pass_sequence_and_inlining_recorded(self):
        _plain, watched = bench_pair("scimark.sor", CLR11, BENCH_CASES["scimark.sor"])
        trace = watched.observation.jit
        rec = trace.find("SOR::Execute")
        assert rec is not None
        pass_names = [p.name for p in rec.passes]
        assert "enregister" in pass_names
        assert "constant_fold" in pass_names
        assert rec.final_instrs > 0 and rec.lowered_instrs > 0
        assert rec.n_vregs >= rec.enregistered >= 0
        # clr-1.1 inlines: some method somewhere asked for candidates
        assert any(r.inline_decisions for r in trace.methods)
        # serialization is JSON-clean (force_spill sets become lists)
        json.dumps(trace.to_list())

    def test_tracing_does_not_change_generated_code(self):
        src = (CORPUS / "simplify_virtual_call.cs").read_text()
        plain, plain_result, watched, watched_result, obs = run_pair(src, MONO023)
        assert watched_result == plain_result
        assert watched.cycles == plain.cycles
        assert obs.jit.methods, "compilations should have been traced"


class TestReportAndDiff:
    def _profiles(self):
        _pa, wa = bench_pair("grande.sieve", CLR11, BENCH_CASES["grande.sieve"])
        _pb, wb = bench_pair("grande.sieve", MONO023, BENCH_CASES["grande.sieve"])
        return profile_to_dict(wa.observation), profile_to_dict(wb.observation)

    def test_report_text(self):
        a, _b = self._profiles()
        text = render_report(a)
        assert "cycle-attribution profile: grande.sieve @ clr-1.1" in text
        assert "by cost category:" in text
        assert "hot methods" in text
        assert "JIT compilation trace:" in text
        assert "100.00% of total" in text

    def test_diff_ranks_categories_by_gap(self):
        a, b = self._profiles()
        rows = diff_categories(a, b)
        assert rows, "diff should produce category rows"
        deltas = [abs(r["delta"]) for r in rows]
        assert deltas == sorted(deltas, reverse=True)
        gap = b["total_cycles"] - a["total_cycles"]
        assert sum(r["delta"] for r in rows) == gap
        assert all(r["category"] in CATEGORIES for r in rows)
        text = render_diff(a, b)
        assert "clr-1.1 vs mono-0.23" in text
        assert "gap share" in text
        md = render_diff_markdown(a, b)
        assert md.startswith("| category |")
        assert "**total**" in md

    def test_profile_json_round_trip(self, tmp_path):
        a, _b = self._profiles()
        path = tmp_path / "x.profile.json"
        path.write_text(json.dumps(a))
        loaded = profile_from_path(str(path))
        assert loaded["total_cycles"] == a["total_cycles"]
        assert loaded["categories"] == a["categories"]
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(ValueError, match="schema"):
            profile_from_path(str(bad))


class TestHarnessPlumbing:
    def test_run_on_observe_true_attaches(self):
        runner = Runner()
        run = runner.run_on("micro.arith", CLR11, {"Reps": 300}, observe=True)
        assert run.observation is not None
        assert run.observation.benchmark == "micro.arith"
        assert run.observation.machine is not None
        assert run.observation.machine.cycles == run.total_cycles

    def test_run_observe_gives_each_profile_its_own_observer(self):
        from repro.parallel import run_cells

        runs, _report = run_cells(
            {"kind": "harness", "observe": True},
            [("micro.arith", {"Reps": 300}, p.name) for p in (CLR11, MONO023)],
        )
        observers = [r.observation for r in runs]
        assert all(o is not None for o in observers)
        assert observers[0] is not observers[1]

    def test_unobserved_run_has_no_observation(self):
        runner = Runner()
        run = runner.run_on("micro.arith", CLR11, {"Reps": 300})
        assert run.observation is None

    def test_disabled_passes_flow_into_machine(self):
        base = Runner().run_on("scimark.sor", CLR11,
                                               BENCH_CASES["scimark.sor"])
        ablated_runner = Runner(disabled_passes=("enregister",))
        ablated = ablated_runner.run_on("scimark.sor", CLR11,
                                        BENCH_CASES["scimark.sor"])
        # semantics preserved, costs changed
        for name, sec in base.sections.items():
            assert ablated.sections[name].results == sec.results
        assert ablated.total_cycles != base.total_cycles
        # per-call override beats the runner-wide setting
        override = ablated_runner.run_on(
            "scimark.sor", CLR11, BENCH_CASES["scimark.sor"], disabled_passes=()
        )
        assert override.total_cycles == base.total_cycles

    def test_section_seconds(self):
        run = Runner().run_on("micro.arith", CLR11, {"Reps": 300})
        for sec in run.sections.values():
            assert sec.seconds == pytest.approx(sec.cycles / run.clock_hz)


class TestCli:
    def test_resolve_profile_loose_names(self):
        assert resolve_profile("clr11") is CLR11
        assert resolve_profile("CLR-1.1") is CLR11
        assert resolve_profile("mono023") is MONO023
        with pytest.raises(SystemExit):
            resolve_profile("hotspot-99")

    def test_report_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        rc = main([
            "prof", "report", "micro.arith", "--runtime", "clr11",
            "--param", "Reps=300", "--out", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "cycle-attribution profile" in text
        prof = out / "micro.arith.clr-1.1.profile.json"
        trace = out / "micro.arith.clr-1.1.trace.json"
        report = out / "micro.arith.clr-1.1.report.txt"
        assert prof.exists() and trace.exists() and report.exists()
        data = json.loads(prof.read_text())
        assert data["schema"] == "repro.observe/1"
        assert data["runtime"] == "clr-1.1"
        tdata = json.loads(trace.read_text())
        assert tdata["traceEvents"]
        assert tdata["otherData"]["label"] == "micro.arith@clr-1.1"

    def test_diff_live_and_saved(self, tmp_path, capsys):
        rc = main([
            "prof", "diff", "clr11", "mono023",
            "--benchmark", "grande.sieve",
            "--param", "Limit=600", "--param", "Reps=1",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "clr-1.1 vs mono-0.23" in text
        assert "categories ranked by contribution" in text

    def test_export_trace(self, tmp_path, capsys):
        out = tmp_path / "t.trace.json"
        rc = main([
            "prof", "export", "micro.arith", "--runtime", "clr-1.1",
            "--param", "Reps=300", "--out", str(out),
        ])
        assert rc == 0
        trace = json.loads(out.read_text())
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
