"""Seeded, clock-deterministic fault plans.

A :class:`FaultPlan` is the single source of truth for an entire chaos
campaign: which experiment cells get which faults, at what point inside the
cell they fire, how many worker attempts fail, and how much deterministic
backoff each retry records.  Every decision is a pure function of
``(plan seed, cell index, site name)`` via SHA-256 — never of worker
arrival order, process ids, or wall clock — so the failure-annotation
report built from a plan is byte-identical at ``--jobs 1``, ``2``, and
``4`` (asserted by ``repro chaos verify`` and ``tests/test_faults.py``).

Three layers consume a plan:

* the :class:`~repro.vm.machine.Machine` takes a per-cell
  :class:`MachineFaults` spec (guest limits + in-VM injection points),
  wrapped at runtime in a :class:`FaultInjector` holding mutable counters;
* the :mod:`repro.parallel.pool` takes worker-level sites
  (``worker_crash`` / ``worker_hang``) plus the retry/quarantine budget;
* the :class:`~repro.parallel.cache.CompileCache` takes injected
  corrupt-load indices (``cache_corrupt``).

With no plan (and no :class:`MachineFaults`) every hook below is a single
``is None`` test — the zero-perturbation invariant the observer layer
already obeys extends to fault injection: cycles, instructions, and
results are bit-identical to a build without this module.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: injection sites that fire inside the measured machine
MACHINE_SITES = ("alloc_oom", "unwind_throw", "monitor_fail", "compile_fail")

#: injection sites that fire at the pool-worker level
WORKER_SITES = ("worker_crash", "worker_hang")

#: injection sites that fire inside the compile cache
CACHE_SITES = ("cache_corrupt",)

#: injection sites that fire at the experiment-service level, keyed by
#: *job id*, not cell index.  ``connection_drop`` is client-side (the
#: ``repro chaos service`` harness drops the socket mid-request); the
#: other three fire daemon-side just before the job executes, through
#: :func:`repro.faults.service_chaos.inject`.
SERVICE_SITES = (
    "job_kill",           # SIGKILL the job's subprocess group at start
    "store_contention",   # a rival writer holds BEGIN IMMEDIATE
    "lease_steal",        # a rival daemon steals the writer lease
    "connection_drop",    # the client vanishes mid-request
)

ALL_SITES = MACHINE_SITES + WORKER_SITES + CACHE_SITES + SERVICE_SITES

#: where a seeded site parameter lands, per site (1-based "fire at the Nth
#: event" spans; small enough that tiny test cells still reach the event)
_PARAM_SPANS = {
    "alloc_oom": 200,      # Nth allocation
    "unwind_throw": 4,     # Nth finally entered during exception dispatch
    "monitor_fail": 8,     # Nth Monitor.Enter
    "compile_fail": 12,    # Nth unique method compiled
    "cache_corrupt": 8,    # Nth cache load per worker
    "store_contention": 8,  # scales the rival writer's lock-hold time
}


@dataclass(frozen=True)
class MachineFaults:
    """Per-cell fault spec consumed by one Machine (immutable, picklable).

    ``None`` disables a limit/site.  The three limits are guest-visible
    resource ceilings; the ``*_at`` fields are seeded injection points
    ("fire at the Nth event").
    """

    heap_limit: Optional[int] = None
    stack_limit: Optional[int] = None
    cycle_limit: Optional[int] = None
    oom_at_alloc: Optional[int] = None
    throw_during_unwind: Optional[int] = None
    monitor_fail_at: Optional[int] = None
    compile_fail_at: Optional[int] = None

    def any_armed(self) -> bool:
        return any(
            getattr(self, f) is not None
            for f in (
                "heap_limit",
                "stack_limit",
                "cycle_limit",
                "oom_at_alloc",
                "throw_during_unwind",
                "monitor_fail_at",
                "compile_fail_at",
            )
        )


@dataclass(frozen=True)
class FaultRecord:
    """The plan-derived outcome of one worker-level fault (deterministic:
    computed from the plan alone, never from observed pids or wall clock,
    so serial and parallel runs report identical records)."""

    index: int
    site: str
    #: attempts the plan makes fail before the cell would succeed
    fail_attempts: int
    #: retries actually performed under the budget (= min(fail_attempts,
    #: max_retries))
    retries: int
    #: total deterministic backoff recorded on the simulated clock
    backoff_cycles: int
    #: ``recovered`` (a retry succeeded) or ``quarantined`` (budget spent)
    outcome: str


@dataclass(frozen=True)
class FaultPlan:
    """One seeded chaos campaign over an experiment matrix."""

    seed: int
    #: sites armed probabilistically (per cell, gated by ``rate``)
    sites: Tuple[str, ...] = ()
    #: arming probability per (cell, site); resolution is 1e-6
    rate: float = 0.25
    #: explicitly armed (cell index, site) pairs, rate-independent —
    #: used to guarantee scenario coverage (e.g. "one hung cell")
    pinned: Tuple[Tuple[int, str], ...] = ()
    heap_limit: Optional[int] = None
    stack_limit: Optional[int] = None
    cycle_limit: Optional[int] = None
    #: worker-level retry budget; a cell is quarantined after
    #: ``max_retries + 1`` failed attempts
    max_retries: int = 2
    #: first retry's backoff in simulated cycles; doubles per attempt
    backoff_base: int = 1024

    def __post_init__(self) -> None:
        unknown = set(self.sites) - set(ALL_SITES)
        unknown |= {site for _i, site in self.pinned} - set(ALL_SITES)
        if unknown:
            raise ValueError(
                f"unknown fault sites {sorted(unknown)}; known: {list(ALL_SITES)}"
            )
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")

    # ------------------------------------------------------------ derivation

    def _digest(self, *parts: object) -> int:
        text = ":".join(str(p) for p in (self.seed,) + parts)
        raw = hashlib.sha256(text.encode()).digest()
        return int.from_bytes(raw[:8], "big")

    def site_armed(self, index: int, site: str) -> bool:
        """Is ``site`` armed for cell ``index``?  Pure function of the plan."""
        if (index, site) in self.pinned:
            return True
        if site not in self.sites:
            return False
        return self._digest(index, site, "armed") % 1_000_000 < int(
            self.rate * 1_000_000
        )

    def _param(self, index: int, site: str) -> int:
        return 1 + self._digest(index, site, "param") % _PARAM_SPANS[site]

    # ------------------------------------------------------------- consumers

    def machine_faults(self, index: int) -> Optional[MachineFaults]:
        """The per-cell spec handed to the Machine, or None when nothing in
        the plan touches cell ``index``'s guest execution."""
        spec = MachineFaults(
            heap_limit=self.heap_limit,
            stack_limit=self.stack_limit,
            cycle_limit=self.cycle_limit,
            oom_at_alloc=(
                self._param(index, "alloc_oom")
                if self.site_armed(index, "alloc_oom")
                else None
            ),
            throw_during_unwind=(
                self._param(index, "unwind_throw")
                if self.site_armed(index, "unwind_throw")
                else None
            ),
            monitor_fail_at=(
                self._param(index, "monitor_fail")
                if self.site_armed(index, "monitor_fail")
                else None
            ),
            compile_fail_at=(
                self._param(index, "compile_fail")
                if self.site_armed(index, "compile_fail")
                else None
            ),
        )
        return spec if spec.any_armed() else None

    def worker_fault(self, index: int) -> Optional[Tuple[str, int]]:
        """``(site, fail_attempts)`` for cell ``index``, or None.  A crash
        takes precedence when both worker sites are armed."""
        for site in WORKER_SITES:
            if self.site_armed(index, site):
                attempts = 1 + self._digest(index, site, "attempts") % (
                    self.max_retries + 1
                )
                return site, attempts
        return None

    def fault_record(self, index: int) -> Optional[FaultRecord]:
        wf = self.worker_fault(index)
        if wf is None:
            return None
        site, fail_attempts = wf
        retries = min(fail_attempts, self.max_retries)
        backoff = sum(self.backoff_base << a for a in range(retries))
        outcome = "quarantined" if fail_attempts > self.max_retries else "recovered"
        return FaultRecord(index, site, fail_attempts, retries, backoff, outcome)

    def service_fault(self, job_id: int) -> Optional[str]:
        """The service-level site armed for job ``job_id``, or None.
        First site in :data:`SERVICE_SITES` order wins when several are
        armed — deterministic, like every other plan decision."""
        for site in SERVICE_SITES:
            if self.site_armed(job_id, site):
                return site
        return None

    def service_param(self, job_id: int) -> int:
        """Seeded magnitude parameter for service sites that need one
        (lock-hold scaling for ``store_contention``)."""
        return self._param(job_id, "store_contention")

    def cache_corrupt_loads(self) -> Tuple[int, ...]:
        """Cache-load ordinals (1-based, per worker cache instance) whose
        entry reads back truncated.  The cache already treats corruption as
        a miss, so results are unperturbed; the injection proves it."""
        if "cache_corrupt" not in self.sites and not any(
            site == "cache_corrupt" for _i, site in self.pinned
        ):
            return ()
        return (1 + self._digest("cache", "load") % _PARAM_SPANS["cache_corrupt"],)

    def to_dict(self) -> dict:
        """JSON-ready description, embedded in failure-annotation reports."""
        return {
            "seed": self.seed,
            "sites": list(self.sites),
            "rate": self.rate,
            "pinned": [[i, s] for i, s in self.pinned],
            "heap_limit": self.heap_limit,
            "stack_limit": self.stack_limit,
            "cycle_limit": self.cycle_limit,
            "max_retries": self.max_retries,
            "backoff_base": self.backoff_base,
        }


class FaultInjector:
    """Mutable per-machine runtime state for one :class:`MachineFaults`.

    The Machine holds one of these (or None); hot paths read plain int
    attributes (``-1`` = disarmed) so the armed checks are single compares.
    ``fired`` records every fault that actually triggered, keyed by site —
    it is the ground-truth attribution that flows into ``faults.*`` metrics
    and failure annotations.
    """

    __slots__ = (
        "spec",
        "heap_limit",
        "stack_limit",
        "cycle_limit",
        "oom_at_alloc",
        "throw_during_unwind",
        "monitor_fail_at",
        "compile_fail_at",
        "allocs",
        "unwind_entries",
        "monitor_enters",
        "compiles",
        "pending",
        "fired",
    )

    def __init__(self, spec: MachineFaults) -> None:
        def arm(value: Optional[int]) -> int:
            return -1 if value is None else value

        self.spec = spec
        self.heap_limit = arm(spec.heap_limit)
        self.stack_limit = arm(spec.stack_limit)
        self.cycle_limit = arm(spec.cycle_limit)
        self.oom_at_alloc = arm(spec.oom_at_alloc)
        self.throw_during_unwind = arm(spec.throw_during_unwind)
        self.monitor_fail_at = arm(spec.monitor_fail_at)
        self.compile_fail_at = arm(spec.compile_fail_at)
        self.allocs = 0
        self.unwind_entries = 0
        self.monitor_enters = 0
        self.compiles = 0
        #: (thread, exception class, message) to raise at the next executor
        #: frame-bind on that thread — how "exception during unwind" enters
        #: the two-pass machinery without bypassing it
        self.pending: Optional[Tuple[object, str, str]] = None
        self.fired: Dict[str, int] = {}

    def record(self, site: str) -> None:
        self.fired[site] = self.fired.get(site, 0) + 1

    def enter_unwind_finally(self, thread) -> None:
        """Called each time exception dispatch enters a finally handler;
        arms the pending injected throw when the seeded entry is reached."""
        self.unwind_entries += 1
        if self.unwind_entries == self.throw_during_unwind:
            self.record("unwind_throw")
            self.pending = (
                thread,
                "OutOfMemoryException",
                "injected allocation failure during unwind",
            )

    def take_pending(self, thread) -> Optional[Tuple[str, str]]:
        """Claim the pending injected exception if it targets ``thread``."""
        if self.pending is not None and self.pending[0] is thread:
            _t, class_name, message = self.pending
            self.pending = None
            return class_name, message
        return None
