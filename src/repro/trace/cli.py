"""``repro trace`` — inspect and export service trace logs.

::

    repro trace ls LOG.jsonl
    repro trace show LOG.jsonl [--trace ID]
    repro trace export LOG.jsonl [--trace ID] [--observe SIM.json ...]
                [--out MERGED.json]

``ls`` lists the traces in a JSONL span log with span counts and
end-to-end wall time; ``show`` prints one trace as an indented span
tree; ``export`` renders the wall-clock spans — optionally merged with
simulated-clock timelines from ``repro prof export`` — into a single
Chrome trace-event file (two clock domains, one file; see
:mod:`repro.trace.chrome`).
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional

from .chrome import merge_chrome_trace
from .tracer import Span, load_jsonl, orphan_spans


def _load(args) -> List[Span]:
    try:
        spans = load_jsonl(args.log)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro-trace: {args.log}: {exc}")
    if getattr(args, "trace", None):
        spans = [s for s in spans if s.trace_id.startswith(args.trace)]
        if not spans:
            raise SystemExit(f"repro-trace: no spans for trace {args.trace!r}")
    return spans


def cmd_ls(args) -> int:
    spans = _load(args)
    by_trace: Dict[str, List[Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    print(f"{'trace':<32} {'spans':>6} {'events':>6} {'wall':>9}  roots")
    for trace_id, group in by_trace.items():
        timed = [s for s in group if s.kind == "span"]
        wall = (
            max(s.t0 + s.dur for s in timed) - min(s.t0 for s in timed)
            if timed else 0.0
        )
        roots = sorted({s.name for s in group if s.parent_id is None})
        print(f"{trace_id:<32} {sum(1 for s in group if s.kind == 'span'):>6} "
              f"{sum(1 for s in group if s.kind == 'event'):>6} "
              f"{wall:>8.3f}s  {', '.join(roots)}")
    return 0


def _render_tree(spans: List[Span], out) -> None:
    children: Dict[Optional[str], List[Span]] = {}
    t_base = min(s.t0 for s in spans)
    for span in sorted(spans, key=lambda s: s.t0):
        children.setdefault(span.parent_id, []).append(span)
    known = {s.span_id for s in spans}

    def walk(span: Span, depth: int) -> None:
        marker = "*" if span.kind == "event" else ""
        attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
        print(
            f"  {(span.t0 - t_base) * 1e3:9.2f}ms {span.dur * 1e3:9.2f}ms "
            f"{'  ' * depth}{span.name}{marker}"
            + (f"  [{attrs}]" if attrs else ""),
            file=out,
        )
        for child in children.get(span.span_id, []):
            walk(child, depth + 1)

    roots = [s for s in spans
             if s.parent_id is None or s.parent_id not in known]
    print(f"  {'start':>11} {'dur':>11}", file=out)
    for root in sorted(roots, key=lambda s: s.t0):
        walk(root, 0)


def cmd_show(args) -> int:
    spans = _load(args)
    by_trace: Dict[str, List[Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    for trace_id, group in by_trace.items():
        orphans = orphan_spans(group)
        print(f"trace {trace_id}: {len(group)} spans"
              + (f", {len(orphans)} ORPHANED" if orphans else ""))
        _render_tree(group, sys.stdout)
    return 0


def cmd_export(args) -> int:
    spans = _load(args)
    observe_traces = []
    for path in args.observe:
        try:
            with open(path) as handle:
                trace = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro-trace: {path}: {exc}")
        if "traceEvents" not in trace:
            raise SystemExit(f"repro-trace: {path}: not a trace-event file")
        observe_traces.append(trace)
    merged = merge_chrome_trace(spans, observe_traces)
    blob = json.dumps(merged, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(blob)
        wall = sum(1 for e in merged["traceEvents"]
                   if e.get("pid") == 2 and e["ph"] != "M")
        sim = sum(1 for e in merged["traceEvents"]
                  if e.get("pid", 0) >= 10 and e["ph"] != "M")
        print(f"repro-trace: wrote {args.out} "
              f"({wall} wall-clock + {sim} simulated events)", file=sys.stderr)
    else:
        print(blob, end="")
    return 0


def register(sub) -> None:
    """Declare ``repro trace ls|show|export`` on the root subparsers."""
    trace = sub.add_parser(
        "trace", help="inspect / export service trace JSONL logs",
    ).add_subparsers(dest="command", required=True)

    ls = trace.add_parser("ls", help="list traces in a span log")
    ls.add_argument("log", help="JSONL span log (repro serve --trace-log)")
    ls.set_defaults(func=cmd_ls)

    show = trace.add_parser("show", help="print a trace as a span tree")
    show.add_argument("log")
    show.add_argument("--trace", default=None, help="trace id (prefix ok)")
    show.set_defaults(func=cmd_show)

    export = trace.add_parser(
        "export", help="Chrome trace-event export (wall + simulated domains)"
    )
    export.add_argument("log")
    export.add_argument("--trace", default=None, help="trace id (prefix ok)")
    export.add_argument("--observe", action="append", default=[],
                        metavar="SIM.json",
                        help="simulated-clock trace file(s) from repro prof "
                             "export to merge in (repeatable)")
    export.add_argument("--out", default=None, metavar="FILE")
    export.set_defaults(func=cmd_export)
