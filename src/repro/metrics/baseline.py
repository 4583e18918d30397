"""Benchmark-trajectory artifacts: collect, serialize, and compare.

The paper's argument is comparative (CLR vs Mono vs Rotor vs the JVMs) and
this repo's engine is deterministic, so a perf baseline can be an *exact*
artifact: ``BENCH_<seq>.json`` records, for every graph-suite benchmark on
every runtime profile, the simulated cycles, instruction counts, metric
snapshots, and the cross-runtime cycle ratios — keyed by schema version and
git SHA.  ``repro bench compare`` diffs two artifacts under per-metric
tolerances and exits nonzero on regression; CI runs it between the base
ref's artifact and the PR's, so a JIT or cost-model change that silently
shifts a runtime ratio fails the gate instead of shipping unnoticed.

Tolerance policy:

* ``cycles`` and ``instructions`` are **one-sided**: getting slower beyond
  the tolerance is a regression, getting faster is reported as improvement
  (and never fails the gate).  The engine is deterministic, so any drift at
  all means the generated code or cost model changed; the small default
  tolerance leaves room for intentional cost-model tweaks.
* ``ratio`` (per-benchmark cycles relative to the reference runtime,
  CLR 1.1 when present) is **two-sided**: the ratios *are* the paper's
  claims, so a shift in either direction beyond tolerance is flagged.

A benchmark or profile that disappears from the new artifact is a
regression (coverage loss); a new one is informational.  This module is
the only place the policy and the ratio anchor live: :func:`attribute`
(behind ``repro store report --attribute``) reads :func:`compare`'s
verdicts, and the store's trend ladder anchors through
:func:`anchored_ratios`, as :func:`build_artifact` does.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
from typing import Dict, Iterable, List, Optional, Tuple

BENCH_SCHEMA = "repro.bench/1"

#: artifact filename pattern: BENCH_<seq>.json
ARTIFACT_RE = re.compile(r"^BENCH_(\d+)\.json$")

#: default per-metric relative tolerances (fractions, not percent)
DEFAULT_TOLERANCES: Dict[str, float] = {
    "cycles": 0.02,
    "instructions": 0.02,
    "ratio": 0.05,
}

#: runtime whose cycles anchor the per-benchmark ratio series
RATIO_BASE = "clr-1.1"


def graph_suite(scale: float = 1.0) -> List[Tuple[str, Dict[str, object]]]:
    """The graph-experiment benchmarks captured per artifact, with sizes
    scaled by ``scale`` (1.0 = the CI gate's sizes; tests use far less).

    Each entry maps onto the paper's figures: graphs 1-3 (arith), 4
    (loops), 5 (exceptions), 6-8 (math), 9-11 (SciMark kernels), 12
    (matrix styles), plus one threaded benchmark so scheduler/monitor
    metrics have a trajectory too.
    """

    def reps(base: int, floor: int) -> int:
        return max(floor, int(base * scale))

    return [
        ("micro.arith", {"Reps": reps(3000, 50)}),
        ("micro.loop", {"Reps": reps(15000, 200)}),
        ("micro.exception", {"Reps": reps(200, 10), "Depth": 6}),
        ("micro.math", {"Reps": reps(800, 20)}),
        ("grande.sieve", {"Limit": reps(5000, 200), "Reps": 1}),
        ("scimark.sor", {"N": 16, "Iters": reps(4, 1), "Seed": 101010}),
        ("scimark.fft", {"N": 64, "Reps": 1, "Seed": 101010}),
        ("scimark.montecarlo", {"Samples": reps(1500, 100), "Seed": 101010}),
        ("clispec.matrix", {"N": 12, "Reps": reps(3, 1)}),
        ("threads.sync", {"Threads": 4, "Reps": reps(40, 5)}),
    ]


def resolve_profiles(spec=None):
    """Normalize a profile selection — ``None`` (all), a comma-separated
    string, or an iterable of names — to RuntimeProfile objects.  Shared
    by ``repro bench`` and the experiment service so a submission and a
    direct run resolve identically.  Unknown names raise ValueError."""
    from ..runtimes import ALL_PROFILES, BY_NAME, get_profile

    if not spec:
        return list(ALL_PROFILES)
    if isinstance(spec, str):
        spec = [name.strip() for name in spec.split(",") if name.strip()]
    unknown = [name for name in spec if name not in BY_NAME]
    if unknown:
        raise ValueError(
            f"unknown profiles {', '.join(unknown)} "
            f"(known: {', '.join(BY_NAME)})"
        )
    return [get_profile(name) for name in spec]


def resolve_suite(spec=None, scale: float = 1.0):
    """Normalize a benchmark selection to ``[(name, params), ...]``.

    ``None`` means the full graph suite at ``scale``; a comma-separated
    string or list of names selects a scaled subset; a list entry may
    also be an explicit ``(name, params)`` pair.  Unknown names raise
    ValueError naming the available suite."""
    suite = graph_suite(scale)
    if not spec:
        return suite
    if isinstance(spec, str):
        spec = [name.strip() for name in spec.split(",") if name.strip()]
    by_name = dict(suite)
    out = []
    missing = []
    for entry in spec:
        if isinstance(entry, str):
            if entry in by_name:
                out.append((entry, by_name[entry]))
            else:
                missing.append(entry)
        else:
            name, params = entry
            out.append((name, dict(params or {})))
    if missing:
        raise ValueError(
            f"not in the graph suite: {', '.join(missing)} "
            f"(available: {', '.join(name for name, _ in suite)})"
        )
    return out


def current_git_sha(cwd: Optional[str] = None) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except OSError:
        return "unknown"


# --------------------------------------------------------- artifact assembly


def entry_from_run(run) -> dict:
    """The per-profile artifact entry of one ProfileRun — the exact data a
    ``BENCH_*.json`` records per (benchmark, profile).  Must agree field
    for field with :func:`repro.store.entry_from_record` (tested), since
    store-served and freshly-executed cells land in the same artifact."""
    return {
        "cycles": run.total_cycles,
        "instructions": run.instructions,
        "allocated_bytes": run.allocated_bytes,
        "gc_collections": run.gc_collections,
        "sections": {
            s: {"cycles": sec.cycles, "ops": sec.ops, "flops": sec.flops}
            for s, sec in run.sections.items()
        },
        "metrics": run.metrics,
    }


def ratio_anchor(profiles: Iterable[str]) -> Optional[str]:
    """The anchor rule behind every cross-runtime ratio: of the profiles
    that ran a benchmark in one run, in run order, CLR 1.1 when it is
    among them, else the first (None when there are none)."""
    profiles = list(profiles)
    if RATIO_BASE in profiles:
        return RATIO_BASE
    return profiles[0] if profiles else None


def anchored_ratios(
    cycles: Dict[str, float],
) -> Tuple[Optional[str], Dict[str, float]]:
    """One benchmark's ``{profile: cycles}`` of one run, in run order, as
    ``(anchor, {profile: cycles / anchor cycles})`` under
    :func:`ratio_anchor`, the anchor itself left out."""
    anchor = ratio_anchor(cycles)
    if anchor is None:
        return None, {}
    base = cycles[anchor]
    return anchor, {
        pname: value / base if base else 0.0
        for pname, value in cycles.items()
        if pname != anchor
    }


def build_artifact(
    suite,
    profile_names,
    entries_by_bench: Dict[str, Dict[str, dict]],
    *,
    scale: float,
    git_sha: str,
) -> dict:
    """Assemble the BENCH artifact dict from per-profile entries.

    Shared by :func:`collect` (entries from live ProfileRuns) and
    :meth:`repro.store.ExperimentStore.export_artifact` (entries from
    stored records), so an export can be byte-identical to the original
    collection.  Ratios are recomputed here — cycle values round-trip
    JSON exactly, so recomputation is exact too."""
    benchmarks: Dict[str, dict] = {}
    for name, params in suite:
        entries = entries_by_bench.get(name, {})
        per_profile = {
            pname: entries[pname] for pname in profile_names if pname in entries
        }
        anchor, ratios = anchored_ratios(
            {pname: entry["cycles"] for pname, entry in per_profile.items()}
        )
        benchmarks[name] = {
            "params": dict(params),
            "profiles": per_profile,
            "ratios": {
                f"{pname}/{anchor}": ratio for pname, ratio in ratios.items()
            },
        }
    return {
        "schema": BENCH_SCHEMA,
        "git_sha": git_sha,
        "scale": scale,
        "profiles": list(profile_names),
        "benchmarks": benchmarks,
    }


# ------------------------------------------------------------------ collect


class Collection:
    """What one collection produced: the artifact plus the operational
    reports around it (wall-clock telemetry that never enters the
    artifact).

    ``report`` is the cell fan-out's :class:`repro.parallel.PoolReport`,
    ``faults`` the :class:`repro.faults.FaultMatrixReport`, and
    ``store`` the store-memoization accounting (``{"cells", "hits",
    "misses", "run_id", "compile_calls", "cells_executed"}``; None when
    no store was looked up)."""

    def __init__(self, artifact: dict, report, faults,
                 store: Optional[dict] = None) -> None:
        self.artifact = artifact
        self.report = report
        self.faults = faults
        self.store = store


class Lookup:
    """The store-lookup step of a collection: its (benchmark x profile)
    ``cells`` in order and, with ``store``, their content ``keys``
    (:func:`repro.store.cell_key`) and the runs already on record by cell
    index (``served``), looked up inside a ``store.lookup`` span.  Without
    a store both are None."""

    def __init__(self, profiles, suite, store=None, trace=None) -> None:
        from ..trace import NULL_CONTEXT

        self.profiles = list(profiles)
        self.suite = list(suite)
        self.cells = [
            (name, params or None, profile.name)
            for name, params in self.suite
            for profile in self.profiles
        ]
        self.keys: Optional[list] = None
        self.served: Optional[Dict[int, object]] = None
        if store is None:
            return
        from ..store import cell_key

        trace = trace if trace is not None else NULL_CONTEXT
        with trace.child("store.lookup", cells=len(self.cells),
                         track="store") as lookup_span:
            self.keys = [
                cell_key(name, pname, overrides=params)
                for name, params, pname in self.cells
            ]
            self.served = {}
            for index, key in enumerate(self.keys):
                run = store.lookup_run(key)
                if run is not None:
                    self.served[index] = run
            lookup_span.set(hits=len(self.served))

    @property
    def warm(self) -> bool:
        """Whether every cell is on record, so nothing need execute."""
        return self.served is not None and len(self.served) == len(self.cells)


def _run(found: Lookup, trace, jobs=None, cache=None, plan=None,
         cell_timeout=None):
    """The execute step: every cell not served runs through
    :func:`repro.parallel.run_cells`; served cells merge in place."""
    from ..parallel import run_cells

    spec = {
        "kind": "harness",
        "metrics": True,
        "cache_dir": None if cache is None else cache.root,
        "plan": plan,
        "cell_timeout": cell_timeout,
    }
    return run_cells(
        spec, found.cells, jobs=jobs, precomputed=found.served, trace=trace
    )


def _assemble(
    found: Lookup,
    payloads,
    report,
    *,
    scale: float,
    git_sha: Optional[str],
    plan=None,
    record_to=None,
    compile_calls: int = 0,
    trace=None,
) -> Collection:
    """The assemble-and-record step: check the cross-profile results,
    annotate failures, append the collection to ``record_to`` (a writable
    store, or None to record nothing) inside a ``store.record`` span, and
    build the artifact, stamped with ``git_sha`` (None: the checkout's
    HEAD)."""
    # imported here: the harness imports repro.metrics in turn
    from ..faults.report import CellFailure, annotate_cells
    from ..harness.runner import check_cross_profile_results
    from ..trace import NULL_CONTEXT

    trace = trace if trace is not None else NULL_CONTEXT
    git_sha = git_sha if git_sha is not None else current_git_sha()
    cells = found.cells
    runs_by_bench: Dict[str, Dict[str, object]] = {}
    for (name, _params, pname), run in zip(cells, payloads):
        if not isinstance(run, CellFailure):
            runs_by_bench.setdefault(name, {})[pname] = run
    for name, runs in runs_by_bench.items():
        check_cross_profile_results(name, runs)
    faults_report = annotate_cells(
        [(name, pname) for name, _params, pname in cells], payloads, plan
    )
    stats = None
    if found.served is not None:
        hits = len(found.served)
        run_id = None
        if record_to is not None:
            from ..store import run_to_record

            novel = [
                {
                    "key": found.keys[index],
                    "benchmark": cells[index][0],
                    "profile": cells[index][2],
                    "params": cells[index][1],
                    "record": run_to_record(payloads[index]),
                }
                for index in range(len(cells))
                if index not in found.served
                and not isinstance(payloads[index], CellFailure)
            ]
            with trace.child("store.record", novel=len(novel),
                             track="store") as record_span:
                run_id = record_to.record_collection(
                    git_sha=git_sha,
                    scale=scale,
                    profiles=[p.name for p in found.profiles],
                    suite=found.suite,
                    store_hits=hits,
                    cell_keys={
                        f"{name}@{pname}": found.keys[index]
                        for index, (name, _params, pname) in enumerate(cells)
                    },
                    novel=novel,
                    failures=faults_report.failures,
                )
                record_span.set(run_id=run_id)
        stats = {
            "cells": len(cells),
            "hits": hits,
            "misses": len(cells) - hits,
            "run_id": run_id,
            "compile_calls": compile_calls,
            "cells_executed": len(cells) - hits,
        }

    entries_by_bench = {
        name: {pname: entry_from_run(run) for pname, run in runs.items()}
        for name, runs in runs_by_bench.items()
    }
    artifact = build_artifact(
        found.suite,
        [p.name for p in found.profiles],
        entries_by_bench,
        scale=scale,
        git_sha=git_sha,
    )
    if faults_report.failures:
        # present only on faulted collections, so clean artifacts stay
        # byte-identical to the pre-fault-injection layout
        artifact["failures"] = faults_report.failures
    return Collection(artifact, report, faults_report, stats)


def serve(found: Lookup, *, scale: float, git_sha: Optional[str],
          record_to=None, trace=None) -> Collection:
    """Assemble a collection whose every cell ``found`` served, skipping
    the execute step: the pool only merges the served runs, so nothing
    compiles and ``compile_calls`` is 0 by construction."""
    if not found.warm:
        raise ValueError("serve needs every cell on record")
    payloads, report = _run(found, trace)
    return _assemble(found, payloads, report, scale=scale, git_sha=git_sha,
                     record_to=record_to, trace=trace)


def run_collection(
    profiles=None,
    suite: Optional[Iterable[Tuple[str, Dict[str, object]]]] = None,
    scale: float = 1.0,
    git_sha: Optional[str] = None,
    progress=None,
    jobs=None,
    cache=None,
    plan=None,
    cell_timeout: Optional[float] = None,
    store=None,
    trace=None,
    record: bool = True,
) -> Collection:
    """Run the suite on every profile with metrics attached; return the
    :class:`Collection` (its artifact is pure data, JSON-ready).

    Every (benchmark x profile) cell runs through
    :func:`repro.parallel.run_cells`.  ``jobs`` (int or ``"auto"``) fans
    the cells out over a process pool; the merge is keyed by cell index,
    so the artifact is bit-identical to a serial (in-process)
    collection.  ``Collection.report`` is the operational report,
    including the compile-cache hit/miss counts.  ``cache`` is an
    optional :class:`repro.parallel.CompileCache` whose directory every
    run shares.

    A failed cell comes back as a structured failure instead of
    aborting the collection — the artifact then carries a ``failures``
    key, failed (benchmark, profile) entries are simply absent from
    ``profiles`` / ``ratios``, and ``Collection.faults`` is the full
    :class:`repro.faults.FaultMatrixReport`.  ``plan`` is an optional
    :class:`repro.faults.FaultPlan` that injects such failures.  A clean
    artifact is byte-identical to one collected before fault injection
    existed.

    ``store`` is an optional :class:`repro.store.ExperimentStore`: every
    cell is first looked up (:class:`Lookup`) and a hit is served from
    the store with zero compiles and zero guest cycles — the served
    artifact is byte-identical to a fresh serial collection because
    stored records round-trip ProfileRuns exactly.  Novel cells execute
    as usual and are appended to the store, together with a run row
    recording the collection; memo accounting lands on
    ``Collection.store``.  Its ``compile_calls`` is the compile count of
    the execute step: this process's own, plus what the pool workers
    report when the cells run in them.
    Memoization records only clean runs, so it cannot be combined with
    a fault plan.

    ``record=False`` serves store hits without appending the collection
    (the daemon's degraded *memo-only* mode).

    ``trace`` is an optional :class:`repro.trace.TraceContext` (the
    daemon threads one through): ``store.lookup``, the pool fan-out, and
    ``store.record`` each open wall-clock spans in the submission's
    trace.  Tracing is operational telemetry only — it never changes a
    single byte of the artifact.
    """
    from ..lang.compiler import COMPILE_STATS
    from ..runtimes import ALL_PROFILES

    profiles = list(profiles or ALL_PROFILES)
    suite = list(suite if suite is not None else graph_suite(scale))
    if store is not None and plan is not None:
        raise ValueError(
            "store memoization records only clean runs and cannot be "
            "combined with a fault plan"
        )
    found = Lookup(profiles, suite, store, trace)
    if progress is not None:
        if store is not None:
            progress(
                f"{len(found.served)}/{len(found.cells)} cells served from "
                f"the store ({store.path})"
            )
        progress(f"{len(found.cells)} cells across jobs={jobs}")
    # measured in the processes that execute, so a daemon's forked job
    # reports its own compiles, not a sample of a global other jobs share
    compiles_before = COMPILE_STATS["compile_source_calls"]
    payloads, report = _run(found, trace, jobs, cache, plan, cell_timeout)
    compiles = COMPILE_STATS["compile_source_calls"] - compiles_before
    return _assemble(
        found,
        payloads,
        report,
        scale=scale,
        git_sha=git_sha,
        plan=plan,
        record_to=store if record else None,
        compile_calls=compiles + report.compile_calls,
        trace=trace,
    )


def collect(*args, **kwargs) -> dict:
    """:func:`run_collection`, returning just the artifact and leaving the
    pool report on ``collect.last_report`` for callers that still read it
    there."""
    collect.last_report = None
    result = run_collection(*args, **kwargs)
    collect.last_report = result.report
    return result.artifact


#: the last collection's repro.parallel.PoolReport
collect.last_report = None


# ---------------------------------------------------------------- serialize


def load_artifact(path: str) -> dict:
    with open(path) as handle:
        data = json.load(handle)
    if data.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: not a {BENCH_SCHEMA} artifact (schema={data.get('schema')!r})"
        )
    return data


def next_seq(out_dir: str) -> int:
    """The next free BENCH_<seq> number in ``out_dir`` (0 when empty)."""
    taken = [-1]
    if os.path.isdir(out_dir):
        for entry in os.listdir(out_dir):
            match = ARTIFACT_RE.match(entry)
            if match:
                taken.append(int(match.group(1)))
    return max(taken) + 1


def write_artifact(artifact: dict, out_dir: str, seq: Optional[int] = None) -> str:
    os.makedirs(out_dir, exist_ok=True)
    if seq is None:
        seq = next_seq(out_dir)
    path = os.path.join(out_dir, f"BENCH_{seq}.json")
    payload = dict(artifact, seq=seq)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


# ------------------------------------------------------------------ compare


def _rel_delta(base: float, new: float) -> float:
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    return (new - base) / base


def _tolerances(overrides: Optional[Dict[str, float]]) -> Dict[str, float]:
    """The default tolerances with ``overrides`` applied; an unknown
    metric name raises ValueError."""
    tol = dict(DEFAULT_TOLERANCES)
    if overrides:
        unknown = set(overrides) - set(tol)
        if unknown:
            raise ValueError(
                f"unknown tolerance metrics {sorted(unknown)}; "
                f"known: {sorted(tol)}"
            )
        tol.update(overrides)
    return tol


def compare(
    base: dict,
    new: dict,
    tolerances: Optional[Dict[str, float]] = None,
) -> List[dict]:
    """Row-per-comparison diff of two artifacts.

    Each row: ``{benchmark, profile, metric, base, new, delta, tolerance,
    status}`` with status one of ``ok`` / ``improved`` / ``regression`` /
    ``removed`` / ``added``.  ``delta`` is relative (fraction of base) for
    cycles, instructions and ratios.
    """
    tol = _tolerances(tolerances)
    rows: List[dict] = []

    def row(benchmark, profile, metric, b, n, delta, tolerance, status):
        rows.append(
            {
                "benchmark": benchmark,
                "profile": profile,
                "metric": metric,
                "base": b,
                "new": n,
                "delta": delta,
                "tolerance": tolerance,
                "status": status,
            }
        )

    base_benches = base.get("benchmarks", {})
    new_benches = new.get("benchmarks", {})
    for bench in sorted(set(base_benches) | set(new_benches)):
        b_entry = base_benches.get(bench)
        n_entry = new_benches.get(bench)
        if n_entry is None:
            row(bench, "*", "coverage", 1, 0, None, None, "removed")
            continue
        if b_entry is None:
            row(bench, "*", "coverage", 0, 1, None, None, "added")
            continue
        b_profiles = b_entry["profiles"]
        n_profiles = n_entry["profiles"]
        for pname in sorted(set(b_profiles) | set(n_profiles)):
            bp = b_profiles.get(pname)
            np = n_profiles.get(pname)
            if np is None:
                row(bench, pname, "coverage", 1, 0, None, None, "removed")
                continue
            if bp is None:
                row(bench, pname, "coverage", 0, 1, None, None, "added")
                continue
            for metric in ("cycles", "instructions"):
                delta = _rel_delta(bp[metric], np[metric])
                if delta > tol[metric]:
                    status = "regression"
                elif delta < -tol[metric]:
                    status = "improved"
                else:
                    status = "ok"
                row(bench, pname, metric, bp[metric], np[metric],
                    delta, tol[metric], status)
        # cross-runtime ratios: two-sided
        b_ratios = b_entry.get("ratios", {})
        n_ratios = n_entry.get("ratios", {})
        for key in sorted(set(b_ratios) & set(n_ratios)):
            br, nr = b_ratios[key], n_ratios[key]
            delta = _rel_delta(br, nr)
            status = "regression" if abs(delta) > tol["ratio"] else "ok"
            row(bench, key, "ratio", br, nr, delta, tol["ratio"], status)
    return rows


def regressions(rows: List[dict]) -> List[dict]:
    return [r for r in rows if r["status"] in ("regression", "removed")]


def _rel(base_value: float, new_value: float) -> Optional[float]:
    return (new_value - base_value) / base_value if base_value else None


def attribute(
    base: dict,
    new: dict,
    tolerances: Optional[Dict[str, float]] = None,
) -> dict:
    """Break the delta between two artifacts down to the responsible cells.

    Every verdict is a :func:`compare` row, so attribution and the gate
    cannot disagree: a cell is flagged when its cycles or instructions
    row regressed, a ratio when its row did, and ``only_in_base`` /
    ``only_in_new`` spell out the ``removed`` / ``added`` coverage rows.
    Each cell in both artifacts carries its raw-metric deltas and, when
    flagged, the five largest counter/gauge moves of its metric snapshot
    — the "what inside the cell moved" evidence.
    """
    rows = compare(base, new, tolerances)
    regressed = {
        (r["benchmark"], r["profile"], r["metric"])
        for r in rows
        if r["status"] == "regression"
    }
    cells: List[dict] = []
    coverage: Dict[str, List[str]] = {"removed": [], "added": []}
    for r in rows:
        bench, pname = r["benchmark"], r["profile"]
        if r["metric"] == "coverage":
            side = base if r["status"] == "removed" else new
            names = (side["benchmarks"][bench]["profiles"] if pname == "*"
                     else [pname])
            coverage[r["status"]] += [f"{bench}@{p}" for p in names]
        if r["metric"] != "cycles":
            continue
        b = base["benchmarks"][bench]["profiles"][pname]
        n = new["benchmarks"][bench]["profiles"][pname]
        deltas = {}
        for field in ("cycles", "instructions", "allocated_bytes",
                      "gc_collections"):
            key = "total_cycles" if field == "cycles" else field
            deltas[key] = {"base": b[field], "new": n[field],
                           "delta": n[field] - b[field],
                           "rel": _rel(b[field], n[field])}
            if (bench, pname, field) in regressed:
                deltas[key]["flagged"] = True
        flagged = any(delta.get("flagged") for delta in deltas.values())
        cells.append({
            "benchmark": bench, "profile": pname, "deltas": deltas,
            "flagged": flagged,
            "movers": (_metric_movers(b["metrics"], n["metrics"])
                       if flagged else []),
        })
    ratios = sorted(
        (
            {"benchmark": r["benchmark"],
             "profile": r["profile"].split("/")[0],
             "base_ratio": r["base"], "new_ratio": r["new"],
             "rel": r["delta"], "flagged": r["status"] == "regression"}
            for r in rows
            if r["metric"] == "ratio"
        ),
        key=lambda entry: (entry["benchmark"], entry["profile"]),
    )
    return {
        "base_sha": base.get("git_sha"),
        "new_sha": new.get("git_sha"),
        "ratio_base": ratio_anchor(new.get("profiles", ())),
        "tolerances": _tolerances(tolerances),
        "cells": cells,
        "ratios": ratios,
        "flagged_cells": [
            f"{c['benchmark']}@{c['profile']}" for c in cells if c["flagged"]
        ],
        "flagged_ratios": [
            f"{r['benchmark']}@{r['profile']}" for r in ratios if r["flagged"]
        ],
        "only_in_base": sorted(coverage["removed"]),
        "only_in_new": sorted(coverage["added"]),
    }


def _metric_movers(base_snapshot: Optional[dict],
                   new_snapshot: Optional[dict]) -> List[dict]:
    """A flagged cell's five largest relative counter/gauge moves — names
    the subsystem (gc, jit, dispatch...) that moved."""
    moves: List[dict] = []
    for kind in ("counters", "gauges"):
        base_values = (base_snapshot or {}).get(kind) or {}
        new_values = (new_snapshot or {}).get(kind) or {}
        for name in sorted(set(base_values) | set(new_values)):
            b, n = base_values.get(name, 0), new_values.get(name, 0)
            if b != n:
                moves.append({"metric": name, "kind": kind[:-1], "base": b,
                              "new": n, "delta": n - b, "rel": _rel(b, n)})
    moves.sort(
        key=lambda m: float("inf") if m["rel"] is None else abs(m["rel"]),
        reverse=True,
    )
    return moves[:5]


def render_compare(rows: List[dict], base: dict, new: dict,
                   show_ok: bool = False) -> str:
    """Readable fixed-width comparison table plus a verdict line."""

    def fmt_val(v) -> str:
        if v is None:
            return "-"
        if isinstance(v, float) and not v.is_integer():
            return f"{v:.4f}"
        return f"{int(v):,}"

    lines = [
        "benchmark trajectory compare: "
        f"{base.get('git_sha', '?')[:12]} -> {new.get('git_sha', '?')[:12]}",
        f"  {'benchmark':<20} {'profile':<24} {'metric':<12} "
        f"{'base':>16} {'new':>16} {'delta':>9} {'tol':>7}  status",
    ]
    flagged = [r for r in rows if r["status"] != "ok"]
    shown = rows if show_ok else flagged
    for r in shown:
        delta = "-" if r["delta"] is None else f"{100 * r['delta']:+8.2f}%"
        tolerance = "-" if r["tolerance"] is None else f"{100 * r['tolerance']:.1f}%"
        status = r["status"].upper() if r["status"] != "ok" else "ok"
        lines.append(
            f"  {r['benchmark']:<20} {r['profile']:<24} {r['metric']:<12} "
            f"{fmt_val(r['base']):>16} {fmt_val(r['new']):>16} {delta:>9} "
            f"{tolerance:>7}  {status}"
        )
    bad = regressions(rows)
    improved = sum(1 for r in rows if r["status"] == "improved")
    ok = sum(1 for r in rows if r["status"] == "ok")
    if not shown:
        lines.append("  (all comparisons within tolerance)")
    lines.append(
        f"  {len(rows)} comparisons: {ok} ok, {improved} improved, "
        f"{len(bad)} regressed"
    )
    lines.append(
        "VERDICT: REGRESSION" if bad else "VERDICT: ok — no regressions"
    )
    return "\n".join(lines)
