"""Structured cell failures and the failure-annotation matrix report.

The resilience contract of the harness is: *no cell failure escapes as an
unhandled exception; every failure comes back as data*.  The data shapes:

* :class:`CellFailure` — one cell's contained failure, produced inside the
  pool worker (or the serial path, same code) the moment a
  :class:`~repro.errors.ReproError` crosses the cell boundary.  Picklable,
  so it travels the same queue as a successful ``ProfileRun``.
* :class:`FaultMatrixReport` — the merged benchmark × profile × fault →
  outcome view built by :func:`annotate_cells`.  Its JSON serialization is
  deliberately derived only from plan-seeded data and deterministic guest
  state, so the same plan seed yields **byte-identical** reports at any
  ``--jobs`` count.

A failure is *attributed* when the report can explain it: a fault site
actually fired inside the machine (``fired``), a worker-level fault was
armed by the plan (``fault``), or it is a fuzz-budget ``deadline`` skip.
``contained`` means every failure is attributed — the exit-code policy of
``repro chaos`` (and the fault modes of ``repro run`` / ``repro bench
run``): 0 when contained, 1 when any failure lacks an explanation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import CellTimeout, CompileError, JitError, ManagedException
from .plan import FaultPlan

#: report schema tag (bumped on incompatible layout changes)
FAULTS_SCHEMA = "repro.faults/1"

#: CellFailure.status values
STATUSES = (
    "guest_exception",  # a managed exception escaped the guest program
    "cell_timeout",     # the per-cell cycle watchdog expired
    "compile_fault",    # JIT/front-end failure (incl. injected compile_fail)
    "engine_error",     # any other host-side ReproError
    "quarantined",      # worker kept dying; retry budget exhausted
    "deadline",         # fuzz time budget expired before the cell ran
)


@dataclass(frozen=True)
class CellFailure:
    """One experiment cell's contained, structured failure (picklable)."""

    index: int
    status: str
    #: host-side message (exception repr, quarantine reason, ...)
    error: str = ""
    #: guest exception class name when status == guest_exception
    exception: str = ""
    #: machine fault sites that fired, as sorted (site, count) pairs
    fired: Tuple[Tuple[str, int], ...] = ()
    #: worker-level fault site (pool attribution), when armed
    fault: str = ""
    retries: int = 0
    backoff_cycles: int = 0

    @property
    def attributed(self) -> bool:
        return bool(self.fault or self.fired) or self.status == "deadline"

    @classmethod
    def from_exception(cls, index: int, exc: BaseException) -> "CellFailure":
        """Classify a ReproError that crossed the cell boundary.  The
        machine attaches its fired-site dict to the exception as
        ``fault_fired`` (see Runner.run_on), which becomes the attribution.
        """
        fired = tuple(sorted(getattr(exc, "fault_fired", {}).items()))
        exception = ""
        if isinstance(exc, CellTimeout):
            status = "cell_timeout"
        elif isinstance(exc, ManagedException):
            status = "guest_exception"
            exception = exc.type_name
        elif isinstance(exc, (JitError, CompileError)):
            status = "compile_fault"
        else:
            status = "engine_error"
        return cls(
            index=index,
            status=status,
            error=f"{type(exc).__name__}: {exc}",
            exception=exception,
            fired=fired,
        )


@dataclass
class FaultMatrixReport:
    """benchmark × profile × fault → outcome, in cell-index order."""

    plan: Optional[FaultPlan]
    cells: List[dict] = field(default_factory=list)

    @property
    def failures(self) -> List[dict]:
        return [c for c in self.cells if c["status"] != "ok"]

    @staticmethod
    def cell_attributed(cell: dict) -> bool:
        return (
            bool(cell.get("fault") or cell.get("fired"))
            or cell["status"] == "deadline"
        )

    @property
    def contained(self) -> bool:
        """Every failure is explained by the plan or by fired guest limits."""
        return all(self.cell_attributed(c) for c in self.failures)

    def to_dict(self) -> dict:
        return {
            "schema": FAULTS_SCHEMA,
            "plan": None if self.plan is None else self.plan.to_dict(),
            "contained": self.contained,
            "cells": self.cells,
        }

    def to_json(self) -> str:
        """Deterministic serialization: byte-identical for identical plan
        seeds regardless of job count (the ``repro chaos verify`` check)."""
        return json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"

    def failure_lines(self) -> List[str]:
        lines = []
        for cell in self.failures:
            tag = "contained" if self.cell_attributed(cell) else "UNATTRIBUTED"
            detail = cell.get("exception") or cell.get("error", "")
            attribution = cell.get("fault", "")
            fired = cell.get("fired")
            if fired:
                shots = ",".join(f"{s}x{n}" for s, n in sorted(fired.items()))
                attribution = f"{attribution}+{shots}" if attribution else shots
            lines.append(
                f"cell {cell['index']} {cell['benchmark']}@{cell['profile']}: "
                f"{cell['status']} [{tag}]"
                + (f" fault={attribution}" if attribution else "")
                + (f" retries={cell['retries']}" if cell.get("retries") else "")
                + (f" — {detail}" if detail else "")
            )
        return lines

    def summary(self) -> str:
        n_ok = len(self.cells) - len(self.failures)
        n_attr = sum(1 for c in self.failures if self.cell_attributed(c))
        line = (
            f"{len(self.cells)} cells: {n_ok} ok, {len(self.failures)} failed "
            f"({n_attr} attributed)"
        )
        recovered = sum(
            1
            for c in self.cells
            if c["status"] == "ok" and c.get("retries")
        )
        if recovered:
            line += f", {recovered} recovered after retry"
        return line + (" — contained" if self.contained else " — UNCONTAINED")


def annotate_cells(
    meta: Sequence[Tuple[str, str]],
    payloads: Sequence[object],
    plan: Optional[FaultPlan] = None,
) -> FaultMatrixReport:
    """Merge pool payloads (ProfileRun | CellFailure, cell-index order)
    into the deterministic failure-annotation report.

    ``meta[i]`` is cell ``i``'s ``(benchmark, profile)``.  Worker-level
    retry/backoff fields come from the *plan* (deterministic), never from
    observed scheduling; machine-level attribution comes from the fired
    sites the (deterministic) machine recorded.
    """
    cells: List[dict] = []
    for index, ((benchmark, profile), payload) in enumerate(zip(meta, payloads)):
        record = plan.fault_record(index) if plan is not None else None
        cell: Dict[str, object] = {
            "index": index,
            "benchmark": benchmark,
            "profile": profile,
            "fault": "" if record is None else record.site,
            "retries": 0 if record is None else record.retries,
            "backoff_cycles": 0 if record is None else record.backoff_cycles,
        }
        if isinstance(payload, CellFailure):
            cell["status"] = payload.status
            cell["error"] = payload.error
            if payload.exception:
                cell["exception"] = payload.exception
            if payload.fired:
                cell["fired"] = dict(payload.fired)
            if payload.fault and not cell["fault"]:
                cell["fault"] = payload.fault
        else:
            cell["status"] = "ok"
            cell["cycles"] = payload.total_cycles
            fired = getattr(payload, "faults", None)
            if fired:
                cell["fired"] = dict(fired)
        cells.append(cell)
    return FaultMatrixReport(plan=plan, cells=cells)


def load_report(path: str) -> FaultMatrixReport:
    """Rehydrate a written report (``repro chaos check``); the plan is kept
    as raw dict data — containment is recomputed from the cells alone."""
    with open(path) as handle:
        data = json.load(handle)
    if data.get("schema") != FAULTS_SCHEMA:
        raise ValueError(
            f"{path}: not a {FAULTS_SCHEMA} report (schema={data.get('schema')!r})"
        )
    report = FaultMatrixReport(plan=None, cells=data["cells"])
    return report
