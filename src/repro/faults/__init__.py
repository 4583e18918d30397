"""``repro.faults`` — deterministic fault injection + resilient harness.

Three cooperating pieces:

* :mod:`repro.faults.plan` — the seeded :class:`FaultPlan` (which cells
  fail, where, how often) plus the per-machine :class:`MachineFaults` spec
  and its runtime :class:`FaultInjector`.  Every decision is a SHA-256
  function of (seed, cell index, site), so failure reports are
  byte-identical across ``--jobs`` counts.
* :mod:`repro.faults.report` — :class:`CellFailure` (a cell's contained,
  structured failure; travels the pool queue like a result) and
  :class:`FaultMatrixReport` (benchmark × profile × fault → outcome, with
  the attribution/containment exit-code policy).
* :mod:`repro.faults.cli` — the ``repro chaos`` campaigns (the shared
  ``--fault-*`` options live in :mod:`repro.parallel.execargs`).
"""

from .plan import (
    ALL_SITES,
    CACHE_SITES,
    FaultInjector,
    FaultPlan,
    FaultRecord,
    MACHINE_SITES,
    SERVICE_SITES,
    MachineFaults,
    WORKER_SITES,
)
from .report import (
    CellFailure,
    FAULTS_SCHEMA,
    FaultMatrixReport,
    annotate_cells,
    load_report,
)

__all__ = [
    "ALL_SITES",
    "CACHE_SITES",
    "MACHINE_SITES",
    "SERVICE_SITES",
    "WORKER_SITES",
    "FAULTS_SCHEMA",
    "CellFailure",
    "FaultInjector",
    "FaultMatrixReport",
    "FaultPlan",
    "FaultRecord",
    "MachineFaults",
    "annotate_cells",
    "load_report",
]
