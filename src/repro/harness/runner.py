"""Benchmark runner: compile once, execute on every runtime profile.

This is the paper's methodology made executable: "we use a single compiler
[...] to generate the intermediate code, and this code is then executed on
each of the different runtimes."  One :class:`~repro.cil.metadata.Assembly`
is produced per (benchmark, parameter set); each profile gets a fresh
loader (fresh statics) over that same image.  :func:`plan` runs a list of
declared cells, deduped, through ``repro.parallel.run_cells``.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Optional, Tuple

from ..benchmarks import get as get_benchmark
from ..cil.metadata import Assembly
from ..errors import BenchmarkError, ReproError
from ..lang import compile_source
from ..metrics import MachineMetrics
from ..observe import Observer
from ..runtimes import RuntimeProfile
from ..vm.loader import LoadedAssembly
from ..vm.machine import Machine
from .results import ProfileRun, SectionResult


def _canon_param(value: object) -> object:
    """Canonical hashable form of one override value (same type-tagging
    discipline as ``repro.fuzz.oracle._canon``: 1, 1.0 and True must not
    collide as cache keys, and float NaNs compare bit-for-bit)."""
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    if isinstance(value, int):
        return ("i", value)
    if isinstance(value, (list, tuple)):
        return tuple(_canon_param(v) for v in value)
    return value


def compile_key(
    name: str, overrides: Optional[Dict[str, object]] = None
) -> Tuple[str, Tuple[Tuple[str, object], ...]]:
    """The canonical cache key for one (benchmark, overrides) compilation.

    Values are canonicalized before keying; an override whose value cannot
    be made hashable raises :class:`~repro.errors.BenchmarkError` naming
    the offending key, instead of the opaque ``TypeError`` a raw
    ``tuple(sorted(overrides.items()))`` key would hit.
    """
    items = []
    for key in sorted(overrides or {}, key=str):
        value = overrides[key]
        canon = _canon_param(value)
        try:
            hash(canon)
        except TypeError:
            raise BenchmarkError(
                f"{name}: override {key!r} has an uncacheable value of type "
                f"{type(value).__name__}: {value!r}"
            ) from None
        items.append((str(key), canon))
    return (name, tuple(items))


class Runner:
    def __init__(
        self,
        clock_hz: Optional[float] = None,
        quantum: int = 50_000,
        disabled_passes: Iterable[str] = (),
        compile_cache=None,
    ) -> None:
        #: override the nominal clock (the paper uses 2.8 GHz for micro,
        #: 2.2 GHz for the SciMark machine)
        self.clock_hz = clock_hz
        self.quantum = quantum
        #: JIT passes disabled on every machine this runner builds
        #: (see ``repro.jit.pipeline.ABLATABLE_PASSES``)
        self.disabled_passes: Tuple[str, ...] = tuple(disabled_passes)
        #: optional persistent :class:`repro.parallel.CompileCache`; the
        #: in-memory dict below still short-circuits repeat compiles within
        #: this runner's lifetime either way
        self.compile_cache = compile_cache
        self._compiled: Dict[Tuple[str, Tuple[Tuple[str, object], ...]], Assembly] = {}

    def compile_benchmark(
        self, name: str, overrides: Optional[Dict[str, object]] = None
    ) -> Assembly:
        key = compile_key(name, overrides)
        assembly = self._compiled.get(key)
        if assembly is None:
            bench = get_benchmark(name)
            source = bench.build_source(overrides)
            if self.compile_cache is not None:
                assembly = self.compile_cache.get_or_compile(source, assembly_name=name)
            else:
                assembly = compile_source(source, assembly_name=name)
            self._compiled[key] = assembly
        return assembly

    def run_on(
        self,
        name: str,
        profile: RuntimeProfile,
        overrides: Optional[Dict[str, object]] = None,
        observe=None,
        disabled_passes: Optional[Iterable[str]] = None,
        metrics=None,
        faults=None,
    ) -> ProfileRun:
        """Run one benchmark on one profile.

        ``observe`` may be True (build a fresh :class:`repro.observe.Observer`)
        or an unattached Observer instance; either way the observer lands on
        the returned run's ``observation`` field.  ``metrics`` may be True
        (fresh :class:`repro.metrics.MachineMetrics`) or an unattached
        MachineMetrics; its finalized snapshot lands on the run's
        ``metrics`` field.  The machine has one observer slot, so giving
        both raises :class:`ValueError`.
        ``disabled_passes`` overrides the runner-wide setting for this run
        only.  ``faults`` is an optional
        :class:`repro.faults.MachineFaults` spec; when a fault fires the
        escaping :class:`~repro.errors.ReproError` carries the machine's
        fired-site counters as ``exc.fault_fired`` so merge paths can
        attribute the failure.
        """
        if observe is not None and metrics is not None:
            raise ValueError("run_on takes an observer or metrics, not both")
        assembly = self.compile_benchmark(name, overrides)
        if observe is True:
            observe = Observer()
        if metrics is True:
            metrics = MachineMetrics()
        observer = metrics if observe is None else observe
        if observer is not None:
            observer.benchmark = name
        disabled = (
            self.disabled_passes if disabled_passes is None else tuple(disabled_passes)
        )
        machine = Machine(
            LoadedAssembly(assembly),
            profile,
            quantum=self.quantum,
            disabled_passes=disabled,
            observer=observer,
            faults=faults,
        )
        try:
            machine.run()
            machine.bench.require_valid()
        except ReproError as exc:
            if machine.faults is not None and machine.faults.fired:
                exc.fault_fired = dict(machine.faults.fired)
            raise
        fired = None
        if machine.faults is not None and machine.faults.fired:
            fired = dict(machine.faults.fired)
            if metrics is not None:
                for site, count in sorted(fired.items()):
                    metrics.registry.counter(f"faults.{site}").add(count)
        clock = self.clock_hz or profile.clock_hz
        run = ProfileRun(
            benchmark=name,
            profile=profile.name,
            clock_hz=clock,
            total_cycles=machine.cycles,
            stdout=list(machine.stdout),
            allocated_bytes=machine.allocated_bytes,
            instructions=machine.instructions,
            gc_collections=machine.gc_collections,
            gc_live_objects=machine.gc_live_objects,
            observation=observe,
            metrics=None if metrics is None else metrics.snapshot(),
            faults=fired,
        )
        for section_name, section in machine.bench.sections.items():
            run.sections[section_name] = SectionResult(
                section=section_name,
                cycles=section.total_cycles,
                ops=section.ops,
                flops=section.flops,
                ops_per_sec=section.ops_per_sec(clock),
                mflops=section.mflops(clock),
                seconds=section.seconds(clock),
                results=list(section.results),
            )
        return run


def check_cross_profile_results(name: str, runs: Dict[str, ProfileRun]) -> None:
    """Assert the paper's cross-runtime invariant over a set of per-profile
    runs: every profile recorded identical computation results.  Shared by
    :func:`plan` and the ``run_cells`` merge paths (``repro run``,
    ``repro bench run``), so no way of running cells can skip the check."""
    reference: Optional[ProfileRun] = None
    for run in runs.values():
        if reference is None:
            reference = run
            continue
        for s, sec in run.sections.items():
            ref = reference.sections[s]
            if sec.results != ref.results:
                raise AssertionError(
                    f"{name}:{s}: results differ between "
                    f"{reference.profile} and {run.profile}: "
                    f"{ref.results} vs {sec.results}"
                )


# ------------------------------------------------------------------ planner
#
# A cell is ``(benchmark, overrides, profile name, clock_hz)``: one
# benchmark with its parameters on one profile, read at one clock.


def cell_key(cell) -> tuple:
    """The dedupe key of one cell; overrides are keyed by
    :func:`compile_key`, so 1, 1.0 and True never collide."""
    name, overrides, profile, clock_hz = cell
    return (compile_key(name, overrides), profile, clock_hz)


def profile_cells(name: str, overrides, profiles, clock_hz: Optional[float]):
    """One benchmark's cells on each of ``profiles``, in profile order."""
    return [(name, overrides, profile.name, clock_hz) for profile in profiles]


def profile_runs(runs, cells) -> Dict[str, ProfileRun]:
    """The planned runs of ``cells`` keyed by profile name, in cell order."""
    return {cell[2]: runs[cell_key(cell)] for cell in cells}


def section_series(runs, cells, sections) -> Dict[str, Dict[str, float]]:
    """``{section: {profile: ops/sec}}`` over the planned runs of ``cells``."""
    by_profile = profile_runs(runs, cells)
    return {
        section: {name: run.section(section).ops_per_sec for name, run in by_profile.items()}
        for section in sections
    }


def plan(cells) -> Dict[tuple, ProfileRun]:
    """Run every distinct cell once; return ``{cell_key(cell): ProfileRun}``.

    Duplicate cells share one ProfileRun, which readers must not mutate.
    The dedupe table lives for this call only: calling ``plan`` again runs
    everything again.  Cells run in declaration order, one in-process
    ``run_cells`` call per clock; each (benchmark, overrides, clock) group
    is checked for identical results across profiles.  A failed cell raises.
    """
    # imported here: repro.parallel builds Runners in turn
    from ..faults.report import CellFailure
    from ..parallel import run_cells

    by_clock: Dict[Optional[float], Dict[tuple, tuple]] = {}
    for cell in cells:
        by_clock.setdefault(cell[3], {}).setdefault(cell_key(cell), cell)
    runs: Dict[tuple, ProfileRun] = {}
    for clock_hz, unique in by_clock.items():
        spec = {"kind": "harness", "clock_hz": clock_hz}
        payloads, _report = run_cells(
            spec, [cell[:3] for cell in unique.values()], jobs=1
        )
        for key, cell, run in zip(unique, unique.values(), payloads):
            if isinstance(run, CellFailure):
                raise ReproError(f"{cell[0]}@{cell[2]}: {run.error}")
            runs[key] = run
    groups: Dict[tuple, Dict[str, ProfileRun]] = {}
    for (bench_key, profile, clock_hz), run in runs.items():
        groups.setdefault((bench_key, clock_hz), {})[profile] = run
    for (bench_key, _clock_hz), group in groups.items():
        check_cross_profile_results(bench_key[0], group)
    return runs
