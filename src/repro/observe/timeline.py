"""Event timeline on the simulated clock, exportable as Chrome trace JSON.

Events carry raw *cycle* timestamps while recording (the machine's only
clock); :meth:`Timeline.to_chrome_trace` converts to microseconds at a
nominal clock so the file loads directly in Perfetto / ``chrome://tracing``
(the JSON Object Format: ``{"traceEvents": [...]}``).

Recording is bounded: past ``max_events`` method-level begin/end pairs are
dropped (counted in ``dropped``) so a hot benchmark cannot produce an
unboundedly large trace; coarse events (scheduling quanta, GC, thread
starts) are always kept.  The owner (:class:`~repro.observe.recorder.
Observer`) guarantees begin/end nesting per track, dropping the *pair* —
never a lone end — so the exported trace always balances.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class Timeline:
    #: synthetic track ids for non-thread events (guest tids start at 0)
    SCHEDULER_TRACK = 1000
    GC_TRACK = 1001

    def __init__(self, max_events: int = 100_000) -> None:
        self.max_events = max_events
        #: event records: [ph, name, ts_cycles, tid, cat, dur_or_args]
        self.events: List[tuple] = []
        self.dropped = 0

    # ------------------------------------------------------------- recording

    def begin(self, name: str, ts, tid: int, cat: str = "") -> bool:
        """Open a duration event; returns False when over budget (the
        caller must then skip the matching :meth:`end`)."""
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return False
        self.events.append(("B", name, ts, tid, cat, None))
        return True

    def end(self, name: str, ts, tid: int, cat: str = "") -> None:
        self.events.append(("E", name, ts, tid, cat, None))

    def instant(self, name: str, ts, tid: int, cat: str = "") -> None:
        self.events.append(("I", name, ts, tid, cat, None))

    def complete(
        self, name: str, start, end, tid: int, cat: str = "", args: Optional[dict] = None
    ) -> None:
        self.events.append(("X", name, start, tid, cat, (end - start, args)))

    # -------------------------------------------------------------- queries

    def open_spans(self) -> int:
        """Begin events without a matching end (0 after a completed run)."""
        depth = 0
        for ph, *_rest in self.events:
            if ph == "B":
                depth += 1
            elif ph == "E":
                depth -= 1
        return depth

    # --------------------------------------------------------------- export

    def to_chrome_trace(
        self, clock_hz: float, meta: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        """The trace-event JSON object; ``ts`` in microseconds at
        ``clock_hz`` (Perfetto's expected unit), every event on ``pid`` 1.

        ``meta`` is merged into ``otherData``; its ``label`` key names the
        process when :func:`repro.trace.merge_chrome_trace` re-homes the
        timeline next to wall-clock service spans.
        """
        scale = 1e6 / clock_hz
        out: List[dict] = []
        for ph, name, ts, tid, cat, payload in self.events:
            event = {
                "name": name,
                "ph": ph,
                "ts": ts * scale,
                "pid": 1,
                "tid": tid,
            }
            if cat:
                event["cat"] = cat
            if ph == "X":
                dur, args = payload
                event["dur"] = dur * scale
                if args:
                    event["args"] = args
            out.append(event)
        trace: Dict[str, object] = {
            "traceEvents": out,
            "displayTimeUnit": "ms",
            "otherData": {
                "clock_hz": clock_hz,
                "timestamps": "simulated cycles / clock_hz",
                "dropped_events": self.dropped,
            },
        }
        if meta:
            trace["otherData"].update(meta)
        return trace
