"""Deterministic, fault-resilient process-pool fan-out over experiment cells.

The experiment matrices this repo runs — (benchmark x runtime profile) in
the harness and ``repro bench``, (program x profile x pass-ablation) in the
differential fuzzer — are embarrassingly parallel by construction: every
cell compiles-or-loads the same immutable CIL image and executes on its own
:class:`~repro.vm.machine.Machine` on the *simulated* clock.  Wall-clock
parallelism therefore cannot perturb any measured number, which lets this
layer promise something stronger than most pools: **the merged output of a
parallel run is bit-identical to the serial run**.

Three design rules make that promise enforceable rather than probabilistic:

* *Static sharding.*  Each dispatch round sends cell ``i`` of the round's
  pending list to worker ``i % jobs``; there is no work-stealing queue
  whose scheduling could reorder anything.
* *Indexed merge.*  Workers stream ``(index, payload)`` pairs and the
  parent reassembles strictly by index, so arrival order is irrelevant.
* *Plan-derived outcomes.*  Under a :class:`~repro.faults.FaultPlan`,
  which attempts fail, how many retries a cell gets, and whether it ends
  quarantined are pure functions of ``(plan seed, cell index)`` — never of
  observed pids, arrival order, or wall clock — so failure annotations are
  byte-identical at any ``--jobs`` count.

Resilience contract: a cell-level :class:`~repro.errors.ReproError` (guest
exception, injected OOM, cycle-watchdog timeout, compile failure) comes
back as a structured :class:`~repro.faults.CellFailure` payload in the
merged result list, never as a raised exception.  A worker that dies or
hangs forfeits only its *unreported* cells: the first of them is charged
one retry attempt (it is the cell the worker was executing — everything
before it was already streamed), the rest requeue penalty-free, and a cell
whose attempts exceed the retry budget is quarantined.  Only host-side
bugs (a worker body raising a non-Repro exception) still raise
:class:`PoolError`.

Workers are plain ``multiprocessing`` processes (fork where available,
spawn otherwise); payloads are picklable result records (``ProfileRun``,
``CellFailure``, divergence lists), never live machines.  Per-cell wall
clock, worker utilisation, and compile-cache hit/miss counts are folded
into a :class:`~repro.metrics.MetricsRegistry` — wall time is
*operational* telemetry about the pool and never enters a measured
artifact.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..faults.report import CellFailure
from ..trace import NULL_CONTEXT

#: retry budget when no FaultPlan supplies one (real worker deaths are
#: still retried and quarantined without any injection armed)
DEFAULT_MAX_RETRIES = 2

#: silence watchdog (seconds without any worker message before alive,
#: unfinished workers are presumed hung) when a plan is active but the
#: caller set no explicit cell timeout
DEFAULT_CELL_TIMEOUT = 20.0

#: parent poll interval while draining the worker queue
_POLL_SECONDS = 0.25


class PoolError(ReproError):
    """A pool worker died with an unexpected host-side error."""


# ------------------------------------------------------------------ job count


def resolve_jobs(jobs) -> int:
    """Normalize a ``--jobs`` value to a worker count (>= 1).

    ``None``/``0``/``1`` mean serial; ``"auto"`` (or any negative count)
    means one worker per CPU; anything else must be a positive int.
    """
    if jobs is None:
        return 1
    if isinstance(jobs, str):
        if jobs.strip().lower() == "auto":
            return max(1, multiprocessing.cpu_count())
        try:
            jobs = int(jobs)
        except ValueError:
            raise ValueError(f"bad jobs value {jobs!r}; expected an int or 'auto'")
    if jobs < 0:
        return max(1, multiprocessing.cpu_count())
    return max(1, jobs)


# ------------------------------------------------------------------- reports


@dataclass
class PoolReport:
    """Operational summary of one fan-out (never part of measured output)."""

    cells: int = 0
    jobs: int = 1
    #: cells satisfied from a caller-supplied memo (experiment store hits);
    #: they execute nothing and charge 0.0 wall
    memoized: int = 0
    wall_seconds: float = 0.0
    worker_pids: Tuple[int, ...] = ()
    cache_hits: int = 0
    cache_misses: int = 0
    cache_corrupted: int = 0
    #: front-end compiles the pool workers made (cells run in-process
    #: compile in the caller's process, which counts its own)
    compile_calls: int = 0
    #: per-cell wall seconds, in cell-index order
    cell_wall: List[float] = field(default_factory=list)
    #: plan-derived worker-fault accounting (identical serial/parallel)
    worker_faults: int = 0
    retries: int = 0
    quarantined: int = 0
    #: observed (not plan-derived) worker deaths/kills; operational only
    crashes_observed: int = 0
    hangs_observed: int = 0

    @property
    def workers_used(self) -> int:
        return len(set(self.worker_pids))

    @property
    def cells_per_sec(self) -> float:
        return self.cells / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def record(self, registry) -> None:
        """Fold the report into a :class:`repro.metrics.MetricsRegistry`.

        The ``faults.*`` counters are only touched when nonzero so a run
        with no plan (and no real worker death) produces a registry
        snapshot bit-identical to one taken before this layer existed.
        """
        registry.counter("parallel.cells").add(self.cells)
        registry.counter("parallel.cache.hits").add(self.cache_hits)
        registry.counter("parallel.cache.misses").add(self.cache_misses)
        if self.memoized:
            registry.counter("parallel.memoized").add(self.memoized)
        registry.gauge("parallel.jobs").set(self.jobs)
        registry.gauge("parallel.workers").set(self.workers_used)
        hist = registry.histogram("parallel.cell_wall_us")
        for seconds in self.cell_wall:
            hist.observe(int(seconds * 1e6))
        if self.worker_faults:
            registry.counter("faults.worker_faults").add(self.worker_faults)
        if self.retries:
            registry.counter("faults.worker_retries").add(self.retries)
        if self.quarantined:
            registry.counter("faults.quarantined").add(self.quarantined)
        if self.crashes_observed:
            registry.counter("faults.worker_crashes").add(self.crashes_observed)
        if self.hangs_observed:
            registry.counter("faults.worker_hangs").add(self.hangs_observed)
        if self.cache_corrupted:
            registry.counter("faults.cache_corrupt").add(self.cache_corrupted)

    def summary(self) -> str:
        line = (
            f"{self.cells} cells in {self.wall_seconds:.2f}s "
            f"({self.cells_per_sec:.1f} cells/sec, jobs={self.jobs}, "
            f"workers={self.workers_used}"
        )
        if self.memoized:
            line += f", {self.memoized} memoized"
        if self.cache_hits or self.cache_misses:
            line += f", cache {self.cache_hits} hits / {self.cache_misses} misses"
        if self.cache_corrupted:
            line += f" ({self.cache_corrupted} corrupt)"
        if self.worker_faults:
            line += (
                f", worker faults {self.worker_faults} "
                f"({self.retries} retries, {self.quarantined} quarantined)"
            )
        return line + ")"


# ------------------------------------------------------------- worker bodies
#
# One module-level function per cell kind so the pool works under the spawn
# start method too (workers re-import this module and unpickle plain data).


def _make_state(spec: dict) -> dict:
    """Per-worker-process state, built once before its chunk runs."""
    from .cache import CompileCache

    plan = spec.get("plan")
    state: dict = {}
    if spec.get("cache_dir"):
        corrupt = plan.cache_corrupt_loads() if plan is not None else ()
        state["cache"] = CompileCache(spec["cache_dir"], corrupt_loads=corrupt)
    else:
        state["cache"] = None
    if spec["kind"] == "harness":
        from ..harness.runner import Runner

        state["runner"] = Runner(
            clock_hz=spec.get("clock_hz"), compile_cache=state["cache"]
        )
    elif spec["kind"] == "fuzz":
        from ..runtimes import get_profile
        from ..fuzz.oracle import AblationPoint

        state["matrix"] = [
            AblationPoint(get_profile(name), frozenset(disabled))
            for name, disabled in spec["matrix_spec"]
        ]
    else:
        raise PoolError(f"unknown cell kind {spec['kind']!r}")
    return state


def _run_cell(state: dict, spec: dict, cell, index: int) -> object:
    """Run one cell; a :class:`ReproError` crossing this boundary becomes a
    structured :class:`CellFailure` payload (the containment contract)."""
    plan = spec.get("plan")
    if spec["kind"] == "harness":
        from ..runtimes import get_profile

        bench, params, profile_name = cell
        faults = plan.machine_faults(index) if plan is not None else None
        try:
            return state["runner"].run_on(
                bench,
                get_profile(profile_name),
                params,
                # a live Observer does not pickle: only the in-process
                # jobs=1 path may ask for one
                observe=True if spec.get("observe") else None,
                metrics=True if spec.get("metrics") else None,
                faults=faults,
            )
        except ReproError as exc:
            return CellFailure.from_exception(index, exc)
    # fuzz: one generated (or replayed) program through the whole matrix
    from contextlib import nullcontext

    from ..fuzz.genprog import generate_program, program_seed
    from ..fuzz.oracle import run_program

    deadline = spec.get("deadline")
    if deadline is not None and time.monotonic() > deadline:
        return CellFailure(
            index=index,
            status="deadline",
            error="time budget exhausted before cell ran",
        )
    pseed = program_seed(spec["seed"], index)
    prog = generate_program(pseed, budget=spec["budget"])
    inject = spec.get("inject_bug")
    if inject:
        from ..fuzz.oracle import inject_pass_bug

        ctx = inject_pass_bug(inject)
    else:
        ctx = nullcontext()
    try:
        with ctx:
            divergences = run_program(
                prog.source,
                state["matrix"],
                assembly_name=f"fuzz{index}",
                cache=state["cache"],
            )
    except ReproError as exc:
        return ("compile_failure", pseed, f"{type(exc).__name__}: {exc}")
    return ("result", pseed, prog.source, divergences)


def _apply_worker_fault(plan, index: int, attempt: int, queue) -> None:
    """Execute the plan's worker-level fault for ``(cell, attempt)``:
    hard-exit for ``worker_crash``, sleep forever for ``worker_hang`` (the
    parent's silence watchdog kills us).  No-op once ``attempt`` reaches
    the plan's fail count — that attempt succeeds."""
    fault = plan.worker_fault(index)
    if fault is None or attempt >= fault[1]:
        return
    if fault[0] == "worker_crash":
        # flush earlier cells' streamed results so the parent's penalty
        # lands on this cell, not a completed one whose message was still
        # buffered in the feeder thread
        queue.close()
        queue.join_thread()
        os._exit(70)
    while True:  # worker_hang
        time.sleep(3600)


def _worker_main(spec: dict, chunk: Sequence[Tuple[int, object, int]], queue) -> None:
    """Stream one ``("cell", pid, index, payload, wall, t0)`` message per
    cell, then ``("done", pid, hits, misses, corrupted, compiles,
    templates)``, where ``compiles`` counts the front-end compiles this
    worker made and ``templates`` are the dispatch templates it compiled
    and did not inherit, for the parent to adopt.  Streaming
    (rather than batching the chunk) is what makes the parent's penalty
    rule sound: when this process dies, exactly the unreported cells are
    outstanding and the first of them is the one being executed.  ``t0``
    is the worker's ``time.monotonic()`` at cell start — comparable
    across processes on one host, so the parent can fold the cell into
    the submission's wall-clock trace as a span with a real start time.
    """
    from ..lang.compiler import COMPILE_STATS
    from ..vm import dispatch

    inherited = dispatch.template_keys()
    compiles_before = COMPILE_STATS["compile_source_calls"]
    try:
        state = _make_state(spec)
        plan = spec.get("plan")
        pid = os.getpid()
        for index, cell, attempt in chunk:
            if plan is not None:
                _apply_worker_fault(plan, index, attempt, queue)
            t0_mono = time.monotonic()
            t0 = time.perf_counter()
            payload = _run_cell(state, spec, cell, index)
            queue.put(
                ("cell", pid, index, payload, time.perf_counter() - t0, t0_mono)
            )
        cache = state.get("cache")
        counts = (
            (0, 0, 0) if cache is None
            else (cache.hits, cache.misses, cache.corrupted)
        )
        compiles = COMPILE_STATS["compile_source_calls"] - compiles_before
        queue.put(("done", pid, *counts, compiles,
                   dispatch.export_templates(inherited)))
    except BaseException:
        queue.put(("error", os.getpid(), traceback.format_exc()))


# ----------------------------------------------------------------- the pool


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _quarantine_failure(index: int, attempts: int, max_retries: int, plan) -> CellFailure:
    """The structured outcome of a cell whose retry budget is spent.
    Built from plan-derived fields when the plan armed a fault here (so
    serial and parallel runs agree byte-for-byte); a quarantine with no
    armed fault keeps ``fault=""`` and therefore reads as UNATTRIBUTED."""
    record = plan.fault_record(index) if plan is not None else None
    if record is not None and record.outcome == "quarantined":
        return CellFailure(
            index=index,
            status="quarantined",
            error=(
                f"worker fault {record.site}: {record.fail_attempts} failed "
                f"attempts exhausted retry budget {max_retries}"
            ),
            fault=record.site,
            retries=record.retries,
            backoff_cycles=record.backoff_cycles,
        )
    return CellFailure(
        index=index,
        status="quarantined",
        error=(
            f"worker died {attempts} times on this cell; "
            f"retry budget {max_retries} exhausted"
        ),
        retries=max_retries,
    )


def _cell_label(spec: dict, cell, index: int) -> str:
    """Human-readable span name for one cell: ``cell:bench@profile`` for
    harness matrices, ``cell:<index>`` for fuzz programs."""
    if spec.get("kind") == "harness":
        try:
            bench, _params, profile_name = cell
            return f"cell:{bench}@{profile_name}"
        except (TypeError, ValueError):
            pass
    return f"cell:{index}"


def _run_serial(spec: dict, indexed, outcomes, report: PoolReport,
                trace=NULL_CONTEXT) -> None:
    """The jobs=1 path.  Worker-level faults are *simulated* from the plan
    (failed attempts are skipped, not executed) so the final outcome of
    every cell — recovered cells run once, quarantined cells never run —
    is identical to what the parallel retry machinery converges to."""
    state = _make_state(spec)
    plan = spec.get("plan")
    max_retries = plan.max_retries if plan is not None else DEFAULT_MAX_RETRIES
    for index, cell in indexed:
        record = plan.fault_record(index) if plan is not None else None
        if record is not None and record.outcome == "quarantined":
            outcomes[index] = (
                _quarantine_failure(index, record.fail_attempts, max_retries, plan),
                0.0,
            )
            trace.event(
                "cell.quarantined", index=index, cell=_cell_label(spec, cell, index),
            )
            continue
        t0_mono = time.monotonic()
        t0 = time.perf_counter()
        payload = _run_cell(state, spec, cell, index)
        wall = time.perf_counter() - t0
        outcomes[index] = (payload, wall)
        trace.record(
            _cell_label(spec, cell, index), t0=t0_mono, dur=wall,
            index=index, track="serial",
        )
    cache = state.get("cache")
    if cache is not None:
        report.cache_hits, report.cache_misses = cache.hits, cache.misses
        report.cache_corrupted = cache.corrupted
    report.worker_pids = (os.getpid(),)


def _run_parallel(spec: dict, indexed, njobs: int, outcomes, report: PoolReport,
                  trace=NULL_CONTEXT) -> None:
    """Dispatch rounds of workers until every cell has an outcome.

    Per round: shard the pending cells statically, stream results, and
    watch for worker death (process exited without ``done``) and hangs
    (no message from anyone for the silence timeout while unfinished
    workers are alive).  A dead/hung worker charges one retry attempt to
    the first unreported cell of its chunk — the cell it was executing —
    and requeues the rest penalty-free; cells over the retry budget are
    quarantined between rounds.  Every round either finishes cells or
    charges at least one attempt, so the loop terminates.
    """
    plan = spec.get("plan")
    max_retries = plan.max_retries if plan is not None else DEFAULT_MAX_RETRIES
    cell_timeout = spec.get("cell_timeout")
    if cell_timeout is None and plan is not None:
        cell_timeout = DEFAULT_CELL_TIMEOUT

    from ..vm.dispatch import adopt_templates

    ctx = _pool_context()
    queue = ctx.Queue()
    attempts: Dict[int, int] = {index: 0 for index, _ in indexed}
    labels = {index: _cell_label(spec, cell, index) for index, cell in indexed}
    pids: List[int] = []
    host_errors: List[str] = []

    while True:
        pending = [(i, c) for i, c in indexed if i not in outcomes]
        for index, _cell in pending:
            if attempts[index] > max_retries:
                outcomes[index] = (
                    _quarantine_failure(index, attempts[index], max_retries, plan),
                    0.0,
                )
                trace.event(
                    "cell.quarantined", index=index, cell=labels[index],
                    attempts=attempts[index],
                )
        pending = [(i, c) for i, c in pending if i not in outcomes]
        if not pending or host_errors:
            break

        chunks = [
            [(index, cell, attempts[index]) for index, cell in pending[w::njobs]]
            for w in range(njobs)
        ]
        workers = []
        for chunk in chunks:
            if not chunk:
                continue
            proc = ctx.Process(
                target=_worker_main, args=(spec, chunk, queue), daemon=True
            )
            proc.start()
            workers.append(
                {"proc": proc, "chunk": chunk, "reported": set(), "done": False}
            )
        by_pid = {w["proc"].pid: w for w in workers}
        pids.extend(by_pid)
        last_message = time.monotonic()

        def penalize(worker) -> None:
            unreported = [
                index for index, _c, _a in worker["chunk"]
                if index not in worker["reported"]
            ]
            if unreported:
                attempts[unreported[0]] += 1
                trace.event(
                    "cell.retry", index=unreported[0],
                    cell=labels[unreported[0]],
                    attempt=attempts[unreported[0]],
                    worker=worker["proc"].pid,
                )

        while any(not w["done"] for w in workers):
            try:
                message = queue.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                message = None
            if message is not None:
                last_message = time.monotonic()
                kind = message[0]
                worker = by_pid.get(message[1])
                if kind == "cell":
                    _k, pid, index, payload, wall, t0_mono = message
                    if worker is not None:
                        worker["reported"].add(index)
                    if index not in outcomes:
                        outcomes[index] = (payload, wall)
                        trace.record(
                            labels[index], t0=t0_mono, dur=wall,
                            index=index, worker=pid, track=f"worker-{pid}",
                        )
                elif kind == "done":
                    _k, _pid, hits, misses, corrupted, compiles, templates = message
                    adopt_templates(templates)
                    report.cache_hits += hits
                    report.cache_misses += misses
                    report.cache_corrupted += corrupted
                    report.compile_calls += compiles
                    if worker is not None:
                        worker["done"] = True
                else:  # host-side bug in the worker body
                    host_errors.append(f"worker {message[1]}:\n{message[2]}")
                    if worker is not None:
                        worker["done"] = True
                continue

            # no message this poll: look for crashed workers...
            for worker in workers:
                if not worker["done"] and not worker["proc"].is_alive():
                    report.crashes_observed += 1
                    penalize(worker)
                    worker["done"] = True
            # ...then for a pool-wide hang
            if (
                cell_timeout is not None
                and time.monotonic() - last_message > cell_timeout
            ):
                for worker in workers:
                    if not worker["done"] and worker["proc"].is_alive():
                        report.hangs_observed += 1
                        worker["proc"].terminate()
                        worker["proc"].join()
                        penalize(worker)
                        worker["done"] = True

        for worker in workers:
            worker["proc"].join()

    report.worker_pids = tuple(pids)
    if host_errors:
        raise PoolError(
            f"{len(host_errors)} pool worker(s) failed:\n" + "\n".join(host_errors)
        )


def run_cells(
    spec: dict,
    cells: Sequence[object],
    jobs=None,
    registry=None,
    precomputed=None,
    trace=None,
) -> Tuple[List[object], PoolReport]:
    """Run every cell and return ``(payloads_in_cell_order, report)``.

    ``spec`` describes the cell kind plus its immutable per-run
    configuration (everything picklable); see :func:`_run_cell`.  Optional
    fault-injection keys: ``spec["plan"]`` (a
    :class:`~repro.faults.FaultPlan`) and ``spec["cell_timeout"]`` (wall
    seconds of pool-wide silence before unfinished workers are presumed
    hung).  With a resolved job count of 1 the cells run in-process
    through the *same* cell code path, so serial-vs-parallel comparisons
    always compare like with like; each payload is either the cell's
    result record or a :class:`CellFailure`.

    ``precomputed`` maps cell index to an already-known payload (an
    experiment-store memo hit).  Those cells are merged into the output
    in place without executing anything — a fully-precomputed call
    compiles nothing and runs zero guest cycles.

    ``trace`` is a :class:`~repro.trace.TraceContext` (or None): the
    fan-out opens a ``pool.run_cells`` span with one child span per
    executed cell (worker-stamped start times under parallel runs) plus
    retry/quarantine events.  Tracing is wall-clock telemetry only —
    payloads, the report's measured fields, and artifacts are identical
    with or without it.
    """
    trace = trace if trace is not None else NULL_CONTEXT
    njobs = resolve_jobs(jobs)
    started = time.perf_counter()
    indexed = list(enumerate(cells))
    outcomes: Dict[int, Tuple[object, float]] = {}
    report = PoolReport(cells=len(indexed), jobs=njobs)

    if precomputed:
        for index, payload in precomputed.items():
            outcomes[int(index)] = (payload, 0.0)
        report.memoized = len(precomputed)

    plan = spec.get("plan")
    if plan is not None:
        for index, _cell in indexed:
            record = plan.fault_record(index)
            if record is not None:
                report.worker_faults += 1
                report.retries += record.retries
                if record.outcome == "quarantined":
                    report.quarantined += 1

    pending = [(index, cell) for index, cell in indexed if index not in outcomes]
    with trace.child(
        "pool.run_cells", cells=len(indexed), jobs=njobs,
        memoized=report.memoized, track="pool",
    ) as pool_trace:
        if not pending:
            pass
        elif njobs <= 1 or len(pending) <= 1:
            _run_serial(spec, pending, outcomes, report, trace=pool_trace)
        else:
            _run_parallel(spec, pending, njobs, outcomes, report,
                          trace=pool_trace)

    report.wall_seconds = time.perf_counter() - started
    ordered = [outcomes[index] for index, _ in indexed]
    report.cell_wall = [wall for _, wall in ordered]
    if registry is not None:
        report.record(registry)
    return [payload for payload, _ in ordered], report
