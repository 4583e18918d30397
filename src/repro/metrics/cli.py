"""``repro bench``: benchmark-trajectory artifacts and the regression gate.

::

    repro bench run [--out DIR] [--seq N] [--scale S]
                    [--profiles a,b] [--benchmarks x,y] [--git-sha SHA]
                    [--jobs N|auto] [--cache-dir DIR] [--no-compile-cache]
    repro bench compare BASE.json NEW.json [--tolerance metric=frac ...]
                    [--show-ok]
    repro bench compare NEW.json --store DB [--base-sha SHA]

``run`` executes the graph suite on every runtime profile with the metrics
registry attached and writes ``BENCH_<seq>.json`` (sequence auto-increments
per output directory).  ``compare`` diffs two artifacts under the tolerance
policy documented in :mod:`repro.metrics.baseline` and exits 1 when any
regression (or coverage loss) is found — that exit code *is* the CI gate.
Artifacts carry simulated numbers only: no host wall clock enters them.
"""

from __future__ import annotations

import sys
from typing import Dict, List

from . import baseline


def _parse_tolerances(pairs: List[str]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(
                f"repro-bench: bad --tolerance {pair!r} (expected metric=fraction)"
            )
        key, _, value = pair.partition("=")
        try:
            out[key.strip()] = float(value)
        except ValueError:
            raise SystemExit(
                f"repro-bench: bad --tolerance value {value!r} for {key!r}"
            )
    return out


def cmd_run(args) -> int:
    from ..parallel import execution_from_args

    try:
        profiles = baseline.resolve_profiles(args.profiles)
        suite = baseline.resolve_suite(args.benchmarks, args.scale)
    except ValueError as exc:
        raise SystemExit(f"repro-bench: {exc}")
    execution = execution_from_args(args)
    store = None
    if args.store:
        from ..store import ExperimentStore

        store = ExperimentStore(args.store)
    try:
        artifact = baseline.collect(
            profiles=profiles,
            suite=suite,
            scale=args.scale,
            git_sha=args.git_sha,
            progress=lambda msg: print(f"repro-bench: {msg}", file=sys.stderr),
            jobs=execution.jobs,
            cache=execution.cache,
            plan=execution.plan,
            cell_timeout=execution.cell_timeout,
            store=store,
        )
    except ValueError as exc:
        raise SystemExit(f"repro-bench: {exc}")
    finally:
        if store is not None:
            store.close()
    path = baseline.write_artifact(artifact, args.out, seq=args.seq)
    benches = artifact["benchmarks"]
    print(
        f"repro-bench: wrote {path} "
        f"({len(benches)} benchmarks x {len(artifact['profiles'])} profiles, "
        f"git {artifact['git_sha'][:12]})"
    )
    print(f"repro-bench: parallel {baseline.collect.last_report.summary()}")
    store_stats = baseline.collect.last_store
    if store_stats is not None:
        print(
            f"repro-bench: store {store_stats['hits']} hits / "
            f"{store_stats['misses']} misses over {store_stats['cells']} cells"
        )
    faults_report = baseline.collect.last_faults
    if faults_report is not None and faults_report.failures:
        print(f"repro-bench: {faults_report.summary()}")
        for line in faults_report.failure_lines():
            print(f"repro-bench:   {line}")
        return 0 if faults_report.contained else 1
    return 0


def cmd_compare(args) -> int:
    if args.store:
        if args.new is not None:
            raise SystemExit(
                "repro-bench: compare --store takes one artifact "
                "(the candidate); the baseline comes from store history"
            )
        new = baseline.load_artifact(args.base)  # sole positional = candidate
        base = _store_baseline(args, new)
    else:
        if args.new is None:
            raise SystemExit(
                "repro-bench: compare needs BASE.json and NEW.json "
                "(or --store DB with one candidate artifact)"
            )
        base = baseline.load_artifact(args.base)
        new = baseline.load_artifact(args.new)
    tolerances = _parse_tolerances(args.tolerance)
    try:
        rows = baseline.compare(base, new, tolerances)
    except ValueError as exc:
        raise SystemExit(f"repro-bench: {exc}")
    print(baseline.render_compare(rows, base, new, show_ok=args.show_ok))
    return 1 if baseline.regressions(rows) else 0


def _store_baseline(args, new: dict) -> dict:
    """Gate directly against store history: baseline = the export of the
    latest recorded run — pinned to ``--base-sha`` when given, otherwise
    the latest run not stamped with the candidate's own SHA (so a rerun
    of HEAD still gates against the last *different* revision)."""
    from ..store import ExperimentStore
    from ..store.schema import StoreError

    with ExperimentStore(args.store) as store:
        if args.base_sha:
            run_id = store.latest_run(git_sha=args.base_sha)
            if run_id is None:
                raise SystemExit(
                    f"repro-bench: no run with git sha {args.base_sha!r} "
                    f"in {store.path}"
                )
        else:
            run_id = store.latest_run(exclude_sha=new.get("git_sha"))
            if run_id is None:
                run_id = store.latest_run()
            if run_id is None:
                raise SystemExit(
                    f"repro-bench: store {store.path} has no runs to "
                    "gate against"
                )
        try:
            base = store.export_artifact(run_id)
        except StoreError as exc:
            raise SystemExit(f"repro-bench: {exc}")
    print(
        f"repro-bench: baseline = store run {run_id} "
        f"(git {base.get('git_sha', 'unknown')[:12]}) from {args.store}",
        file=sys.stderr,
    )
    return base


def register(sub) -> None:
    """Declare ``repro bench run|compare`` on the root subparsers."""
    from ..parallel.execargs import add_execution_args, add_matrix_arguments

    bench = sub.add_parser(
        "bench", help="benchmark-trajectory artifacts and regression gate",
    ).add_subparsers(dest="command", required=True)

    run = bench.add_parser("run", help="collect a BENCH_<seq>.json artifact")
    run.add_argument("--out", default="bench", help="output directory (default: bench/)")
    run.add_argument("--seq", type=int, default=None,
                     help="artifact sequence number (default: next free)")
    add_matrix_arguments(run)
    run.add_argument("--git-sha", default=None,
                     help="override the recorded git SHA (default: git rev-parse HEAD)")
    run.add_argument("--store", default=None, metavar="DB",
                     help="also record the collection into this SQLite "
                          "experiment store (and serve repeat cells from it)")
    add_execution_args(run)
    run.set_defaults(func=cmd_run)

    compare = bench.add_parser("compare", help="diff two artifacts; exit 1 on regression")
    compare.add_argument("base", help="baseline BENCH_*.json (with --store: "
                                      "the candidate artifact)")
    compare.add_argument("new", nargs="?", default=None,
                         help="candidate BENCH_*.json (omitted with --store)")
    compare.add_argument("--store", default=None, metavar="DB",
                         help="gate against store history: baseline = the "
                              "latest recorded run's export (see --base-sha)")
    compare.add_argument("--base-sha", default=None, metavar="SHA",
                         help="with --store, pin the baseline to the latest "
                              "run recorded for this git SHA")
    compare.add_argument("--tolerance", action="append", default=[],
                         metavar="METRIC=FRAC",
                         help="override a tolerance, e.g. cycles=0.05 (repeatable)")
    compare.add_argument("--show-ok", action="store_true",
                         help="also list within-tolerance comparisons")
    compare.set_defaults(func=cmd_compare)
