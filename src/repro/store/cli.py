"""``repro store`` — inspect, backfill and export the experiment store.

::

    repro store [--db DB] import BENCH_1.json [BENCH_2.json ...]
    repro store [--db DB] export (--run ID | --seq N) [--out FILE]
    repro store [--db DB] runs
    repro store [--db DB] trends [--benchmark B] [--profile P] [--metric M]
    repro store [--db DB] report [--benchmark B] [--profile P]
                [--attribute BASE NEW] [--json]

``import`` backfills point-in-time ``BENCH_<seq>.json`` artifacts into
the append-only store (as ``imported`` records — trend and export
fodder, never served by the memo cache).  ``export`` reconstructs a
run's artifact byte-identically to what ``repro bench run`` wrote, so
BENCH JSON is now an interchange format, not the substrate.  ``report``
renders the cross-run anchored-ratio history as sparkline trend ladders
(one per benchmark x profile) and, with ``--attribute BASE NEW``, breaks
the delta between two runs down per profile x benchmark x metric
snapshot to name the cells responsible for a flagged regression.  Ratios
and regression verdicts follow the ``repro bench compare`` gate's policy
(:mod:`repro.metrics.baseline`); the anchor is not selectable.
"""

from __future__ import annotations

import json
import sys
from typing import List

from .schema import StoreError
from .store import ExperimentStore


def _dump(payload: dict) -> str:
    # the exact repro.metrics.baseline.write_artifact framing, so
    # export-after-import round-trips byte for byte
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _open_for_read(db) -> ExperimentStore:
    """A read-only store when the database exists — so ``runs``/``trends``
    /``report`` against a live daemon's WAL store never take a write lock
    or attempt a migration.  Falls back to a normal open (which creates
    the file) for the empty-store listing paths."""
    try:
        return ExperimentStore(db, read_only=True)
    except StoreError:
        return ExperimentStore(db)


def cmd_import(args) -> int:
    with ExperimentStore(args.db) as store:
        for path in args.files:
            try:
                with open(path) as handle:
                    artifact = json.load(handle)
                run_id = store.import_artifact(artifact)
            except (OSError, ValueError, KeyError, StoreError) as exc:
                raise SystemExit(f"repro-store: {path}: {exc}")
            print(f"repro-store: imported {path} as run {run_id}")
    return 0


def cmd_export(args) -> int:
    with _open_for_read(args.db) as store:
        run_id = args.run
        if run_id is None:
            matches = [r["id"] for r in store.runs() if r["seq"] == args.seq]
            if not matches:
                raise SystemExit(f"repro-store: no run with seq {args.seq}")
            run_id = matches[-1]
        try:
            artifact = store.export_artifact(run_id)
        except StoreError as exc:
            raise SystemExit(f"repro-store: {exc}")
    blob = _dump(artifact)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(blob)
        print(f"repro-store: wrote {args.out}", file=sys.stderr)
    else:
        print(blob, end="")
    return 0


def cmd_runs(args) -> int:
    with _open_for_read(args.db) as store:
        rows = store.runs()
    print(f"{'run':>4} {'seq':>4} {'git':<12} {'scale':>6} {'source':<7} "
          f"{'cells':>5} {'hits':>5} {'fails':>5}")
    for row in rows:
        seq = "-" if row["seq"] is None else row["seq"]
        print(f"{row['id']:>4} {seq:>4} {row['git_sha'][:12]:<12} "
              f"{row['scale']:>6g} {row['source']:<7} {row['cells']:>5} "
              f"{row['store_hits']:>5} {row['failures']:>5}")
    if not rows:
        print("repro-store: empty store", file=sys.stderr)
    return 0


def cmd_trends(args) -> int:
    with _open_for_read(args.db) as store:
        if args.metric:
            rows = store.metric_trend(args.metric, benchmark=args.benchmark)
        else:
            rows = store.trend(benchmark=args.benchmark, profile=args.profile)
    if args.json:
        print(_dump({"rows": rows}), end="")
        return 0
    for row in rows:
        print(format_trend_row(row))
    if not rows:
        print("repro-store: no trend rows", file=sys.stderr)
    return 0


def format_trend_row(row: dict) -> str:
    """One trend row as text — a metric row (``value``) or a cycle row
    with its ratio when it has one; ``repro client trends`` prints the
    daemon's rows through it too."""
    if "value" in row:
        tail = f"value {row['value']:g}"
    else:
        tail = f"{row['cycles']} cycles"
        if row["ratio"] is not None:
            tail += f" ratio {row['ratio']:.3f}"
    return (f"run {row['run']} ({row['git_sha'][:12]}) "
            f"{row['benchmark']}/{row['profile']}: {tail}")


#: eight-level block ramp for the text trend ladders
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: List[float]) -> str:
    """Values as one block character each, min..max normalized; a flat
    series renders mid-ramp so 'no movement' is visually distinct from
    'bottomed out'."""
    if not values:
        return ""
    low, high = min(values), max(values)
    if high == low:
        return SPARK_BLOCKS[3] * len(values)
    span = high - low
    return "".join(
        SPARK_BLOCKS[
            min(len(SPARK_BLOCKS) - 1,
                int((value - low) / span * len(SPARK_BLOCKS)))
        ]
        for value in values
    )


def _render_report(rows: List[dict], metric: str) -> List[str]:
    """Sparkline trend ladders: one line per (benchmark, profile) series,
    in run order, with first/last values and the relative move.  Ratio
    series split by anchor; one not anchored on CLR 1.1 names its anchor."""
    from ..metrics.baseline import RATIO_BASE

    series: dict = {}
    for row in rows:
        value = row.get("ratio") if metric == "ratio" else row.get("cycles")
        if value is None:
            continue
        anchor = row["anchor"] if metric == "ratio" else RATIO_BASE
        series.setdefault((row["benchmark"], row["profile"], anchor), []).append(
            (row["run"], value)
        )
    lines = []
    for (bench, profile, anchor), points in sorted(series.items()):
        points.sort()
        values = [value for _run, value in points]
        first, last = values[0], values[-1]
        move = (last - first) / first if first else 0.0
        unit = "" if metric == "ratio" else " cycles"
        label = f"{bench}/{profile}"
        if anchor != RATIO_BASE:
            label += f" vs {anchor}"
        lines.append(
            f"{label:<28} {sparkline(values)} "
            f"{first:>12g} -> {last:>12g}{unit} "
            f"({move:+.1%} over {len(values)} runs)"
        )
    return lines


def _render_attribution(attribution: dict) -> List[str]:
    lines = [
        f"attribution: run {attribution['base_run']} "
        f"({attribution['base_sha'][:12]}) -> run {attribution['new_run']} "
        f"({attribution['new_sha'][:12]})"
    ]
    flagged = {cell for cell in attribution["flagged_cells"]}
    for block in attribution["cells"]:
        name = f"{block['benchmark']}@{block['profile']}"
        if name not in flagged:
            continue
        lines.append(f"  REGRESSED {name}:")
        for metric, delta in sorted(block["deltas"].items()):
            if not delta.get("flagged"):
                continue
            lines.append(
                f"    {metric}: {delta['base']:g} -> {delta['new']:g} "
                f"({delta['rel']:+.2%})"
            )
        for mover in block["movers"]:
            rel = "new" if mover["rel"] is None else f"{mover['rel']:+.2%}"
            lines.append(
                f"    mover {mover['metric']}: {mover['base']:g} -> "
                f"{mover['new']:g} ({rel})"
            )
    for entry in attribution["ratios"]:
        if entry["flagged"]:
            lines.append(
                f"  RATIO DRIFT {entry['benchmark']}@{entry['profile']}: "
                f"{entry['base_ratio']:.3f} -> {entry['new_ratio']:.3f} "
                f"({entry['rel']:+.2%} vs {attribution['ratio_base']})"
            )
    if not flagged and not attribution["flagged_ratios"]:
        lines.append("  no cell exceeds the tolerance policy")
    for key in ("only_in_base", "only_in_new"):
        if attribution[key]:
            lines.append(f"  {key.replace('_', ' ')}: "
                         + ", ".join(attribution[key]))
    return lines


def cmd_report(args) -> int:
    with _open_for_read(args.db) as store:
        rows = store.trend(benchmark=args.benchmark, profile=args.profile)
        attribution = None
        if args.attribute:
            base_id, new_id = args.attribute
            try:
                attribution = store.attribute(base_id, new_id)
            except StoreError as exc:
                raise SystemExit(f"repro-store: {exc}")
    if args.json:
        payload: dict = {"rows": rows}
        if attribution is not None:
            payload["attribution"] = attribution
        print(_dump(payload), end="")
        return 0
    metric = "ratio" if not args.cycles else "cycles"
    lines = _render_report(rows, metric)
    header = ("anchored-ratio trend" if metric == "ratio"
              else "cycles trend")
    if lines:
        print(f"{header} ({len(lines)} series):")
        for line in lines:
            print(f"  {line}")
    else:
        print("repro-store: no trend series", file=sys.stderr)
    if attribution is not None:
        for line in _render_attribution(attribution):
            print(line)
    return 0


def register(sub) -> None:
    """Declare ``repro store import|export|runs|trends|report`` on the root
    subparsers."""
    from ..parallel.execargs import add_trend_filters

    store = sub.add_parser(
        "store", help="SQLite experiment store: backfill, export, trends",
    )
    store.add_argument("--db", default=None, metavar="DB",
                       help="store path (default: $REPRO_STORE or "
                            "experiments.sqlite)")
    commands = store.add_subparsers(dest="command", required=True)

    imp = commands.add_parser("import", help="backfill BENCH_*.json artifacts")
    imp.add_argument("files", nargs="+", metavar="BENCH.json")
    imp.set_defaults(func=cmd_import)

    exp = commands.add_parser("export", help="reconstruct one run's BENCH artifact")
    group = exp.add_mutually_exclusive_group(required=True)
    group.add_argument("--run", type=int, default=None, help="run id")
    group.add_argument("--seq", type=int, default=None,
                       help="artifact sequence number (latest run wins)")
    exp.add_argument("--out", default=None, metavar="FILE")
    exp.set_defaults(func=cmd_export)

    commands.add_parser("runs", help="list recorded runs").set_defaults(func=cmd_runs)

    trends = commands.add_parser("trends", help="cross-run ratio ladder / metric history")
    add_trend_filters(trends)
    trends.set_defaults(func=cmd_trends)

    report = commands.add_parser(
        "report",
        help="sparkline trend ladders + two-run regression attribution",
    )
    add_trend_filters(report, metric=False)
    report.add_argument("--cycles", action="store_true",
                        help="ladder raw cycles instead of anchored ratios")
    report.add_argument("--attribute", nargs=2, type=int, default=None,
                        metavar=("BASE", "NEW"),
                        help="attribute the BASE->NEW run delta to "
                             "responsible cells")
    report.set_defaults(func=cmd_report)
