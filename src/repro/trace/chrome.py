"""Chrome trace-event export merging two clock domains into one file.

The repo already exports *simulated*-clock timelines
(:meth:`repro.observe.Timeline.to_chrome_trace`: guest cycles converted
to microseconds at a nominal clock).  The service tracer records
*wall*-clock spans.  This module renders both into a single trace-event
JSON file that loads in Perfetto / ``chrome://tracing``, keeping the
domains honest by separating them into distinct *processes*:

* ``pid 2`` — "service (wall clock)": tracer spans, ``ts`` relative to
  the earliest span.
* ``pid 10+i`` — one process per attached simulated timeline, its events
  re-pid'd from the Timeline's fixed ``pid 1`` so multiple cells'
  simulated traces can ride along without colliding.

Timestamps across the two domains are **not** commensurable (a simulated
microsecond is not a wall microsecond); the merge is for side-by-side
structure, and ``otherData.clock_domains`` says so explicitly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .tracer import Span

#: process ids of the merged file's clock domains
WALL_PID = 2
SIM_PID_BASE = 10


def spans_to_events(spans: Iterable[Span], t_base: Optional[float] = None,
                    pid: int = WALL_PID) -> List[dict]:
    """Tracer spans as complete ('X') / instant ('I') trace events.

    Tracks (``tid``) group spans by their ``track`` attr — the pool sets
    per-worker tracks, the daemon per-subsystem ones — falling back to
    one shared track.  ``ts`` is microseconds since ``t_base`` (default:
    the earliest span).
    """
    spans = list(spans)
    if not spans:
        return []
    if t_base is None:
        t_base = min(s.t0 for s in spans)
    tracks = sorted({str(s.attrs.get("track", "main")) for s in spans})
    tid_of = {track: index for index, track in enumerate(tracks)}
    events: List[dict] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": track},
        }
        for track, tid in tid_of.items()
    ]
    for span in spans:
        tid = tid_of[str(span.attrs.get("track", "main"))]
        event = {
            "name": span.name,
            "ph": "I" if span.kind == "event" else "X",
            "ts": (span.t0 - t_base) * 1e6,
            "pid": pid,
            "tid": tid,
            "cat": "service",
        }
        if event["ph"] == "X":
            event["dur"] = span.dur * 1e6
        args = {"trace": span.trace_id, "span": span.span_id}
        if span.parent_id:
            args["parent"] = span.parent_id
        args.update(span.attrs)
        event["args"] = args
        events.append(event)
    return events


def merge_chrome_trace(
    spans: Iterable[Span],
    observe_traces: Iterable[dict] = (),
    meta: Optional[dict] = None,
) -> dict:
    """One trace-event JSON object holding both clock domains.

    ``observe_traces`` are trace dicts as produced by
    :meth:`repro.observe.Timeline.to_chrome_trace` (or loaded from a
    ``repro prof export`` file); their events keep their own timestamps
    but move to a dedicated pid so the wall-clock events never interleave
    with them on a track.
    """
    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": WALL_PID,
            "args": {"name": "service (wall clock)"},
        }
    ]
    events.extend(spans_to_events(spans))
    domains: Dict[str, object] = {
        f"pid {WALL_PID}": "wall clock (monotonic seconds -> us)",
    }
    for index, trace in enumerate(observe_traces):
        pid = SIM_PID_BASE + index
        other = trace.get("otherData", {})
        label = other.get("label") or f"simulated #{index}"
        clock_hz = other.get("clock_hz")
        name = f"{label} (simulated clock)"
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid,
             "args": {"name": name}}
        )
        for event in trace.get("traceEvents", []):
            moved = dict(event)
            moved["pid"] = pid
            events.append(moved)
        domains[f"pid {pid}"] = (
            f"simulated cycles at {clock_hz:g} Hz -> us"
            if clock_hz else "simulated clock -> us"
        )
    merged: dict = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock_domains": domains,
            "note": (
                "wall and simulated timestamps are not commensurable; "
                "domains are separated per process"
            ),
        },
    }
    if meta:
        merged["otherData"].update(meta)
    return merged
