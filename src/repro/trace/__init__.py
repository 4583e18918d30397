"""``repro.trace`` — wall-clock, span-structured service tracing.

The second clock domain next to :mod:`repro.observe` (simulated cycles):
spans follow one submission end-to-end across the client, the daemon's
HTTP framing, the job queue, the executor, the :mod:`repro.parallel`
fan-out, and the store — propagated via the ``X-Repro-Trace`` header and
a :class:`TraceContext` threaded through ``baseline.collect`` and
``run_cells``.  Sinks: an in-memory ring buffer, a JSONL event log, and
Chrome trace-event export merging both clock domains into one file
(:mod:`repro.trace.chrome`; ``repro trace`` is the CLI).
"""

from .chrome import SIM_PID_BASE, WALL_PID, merge_chrome_trace, spans_to_events
from .tracer import (
    NULL_CONTEXT,
    TRACE_HEADER,
    JsonlSink,
    Span,
    TraceContext,
    Tracer,
    covered_seconds,
    format_trace_header,
    load_jsonl,
    new_span_id,
    new_trace_id,
    orphan_spans,
    parse_trace_header,
)

__all__ = [
    "JsonlSink",
    "NULL_CONTEXT",
    "SIM_PID_BASE",
    "Span",
    "TRACE_HEADER",
    "TraceContext",
    "Tracer",
    "WALL_PID",
    "covered_seconds",
    "format_trace_header",
    "load_jsonl",
    "merge_chrome_trace",
    "new_span_id",
    "new_trace_id",
    "orphan_spans",
    "parse_trace_header",
    "spans_to_events",
]
