"""Self-test of the wall-clock benchmark, at smoke size.

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Outside tier-1's ``testpaths``.  Runs every workload twice through
``run.py`` (untraced with seed 0, traced with seed 1) and checks that
every metric ``BENCHMARK.json`` names is emitted with its unit, that the
seed moves only the inputs of ``churn`` and ``service``, that span self
times are sane, and that ``compare.py`` flags a 20% slowdown.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ("paper", "churn", "suite", "service")
SEEDED = {"churn", "service"}


def run_bench(workload, seed, out_dir, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--size", "smoke",
               "--trace", "1" if trace else "0", "--out", str(out_dir)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(out_dir, "results.json"), encoding="utf-8") as handle:
        results = json.load(handle)
    return final, results


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request, tmp_path_factory):
    workload = request.param
    plain = run_bench(workload, 0, tmp_path_factory.mktemp(f"{workload}-plain"), False)
    traced_dir = tmp_path_factory.mktemp(f"{workload}-traced")
    traced = run_bench(workload, 1, traced_dir, True)
    return workload, plain, traced, traced_dir


def test_every_benchmark_metric_is_emitted_with_its_unit(runs, spec):
    _workload, (plain, _), (traced, _), _dir = runs
    for final, metrics in ((plain, spec["end_to_end"]), (traced, spec["per_layer"])):
        assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
        assert set(final["metrics"]) == {m["name"] for m in metrics}
        for metric in metrics:
            assert final["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert all(plain["metrics"][m["name"]]["value"] > 0 for m in spec["end_to_end"])


def test_seed_moves_only_churn_and_service_inputs(runs):
    workload, (_, plain), (_, traced), _dir = runs
    seed0 = plain["workloads"][workload]["repeats"][0]["digest"]
    seed1 = traced["workloads"][workload]["repeats"][0]["digest"]
    assert (seed0 != seed1) == (workload in SEEDED)


def test_self_times_are_non_negative_and_within_the_parent(runs):
    workload, _plain, _traced, traced_dir = runs
    with open(os.path.join(traced_dir, f"{workload}.spans.jsonl"), encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    assert spans
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] = children.get(span["parent"], 0.0) + span["end"] - span["start"]
    slack = 1e-6
    for span in spans:
        duration = span["end"] - span["start"]
        assert duration >= 0
        assert children.get(span["id"], 0.0) <= duration + slack
        parent = span["parent"]
        if parent is not None:
            outer = spans[parent]
            assert outer["start"] <= span["start"] and span["end"] <= outer["end"] + slack


def test_compare_flags_an_injected_slowdown(runs, tmp_path):
    workload, (_, plain), _traced, _dir = runs
    slower = copy.deepcopy(plain)
    for repeat in slower["workloads"][workload]["repeats"]:
        repeat["metrics"]["wall_s"] *= 1.2
    rows = {(w, name): verdict for w, name, _p, _c, _d, verdict
            in compare.compare(plain, slower, compare.load_bounds())}
    assert rows[(workload, "wall_s")] == "regressed"
    assert rows[(workload, "op_p50_ms")] == "ok"
    parent_file, change_file = tmp_path / "parent.json", tmp_path / "change.json"
    parent_file.write_text(json.dumps(plain))
    change_file.write_text(json.dumps(slower))
    assert compare.main([str(parent_file), str(change_file)]) == 1
    assert compare.main([str(parent_file), str(parent_file)]) == 0
