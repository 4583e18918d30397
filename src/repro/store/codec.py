"""Content-addressed cell keys and the run-record wire codec.

Two translations live here:

* :func:`cell_key` — the memoization key of one experiment cell, a
  SHA-256 over ``(COMPILER_VERSION, profile, benchmark, canonical
  overrides, "classic", "None")``.  Same idiom as the PR 4 compile cache:
  bumping the compiler version orphans every old entry, and override
  values are canonicalized through :func:`repro.harness.runner.compile_key`
  so ``1``, ``1.0`` and ``True`` cannot collide.  The two constants fill
  the slots of a since-removed engine choice and of an unused seed, so
  every key stays the one it was when those were arguments.
* :func:`run_to_record` / :func:`run_from_record` — a JSON-exact
  round-trip of a :class:`~repro.harness.results.ProfileRun` (minus the
  live ``observation`` object).  Python's JSON float round-trip is exact
  for finite doubles, so a record served back from the store rebuilds a
  run that is **byte-identical** in every artifact it enters — that is
  the daemon-vs-direct identity invariant.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

from ..harness.results import ProfileRun, SectionResult

#: record layout tag, stored inside every cell record
RECORD_SCHEMA = "repro.store.cell/1"


def cell_key(
    benchmark: str,
    profile: str,
    overrides: Optional[Dict[str, object]] = None,
) -> str:
    """The content-addressed memoization key of one experiment cell."""
    from ..harness.runner import compile_key
    from ..lang.compiler import COMPILER_VERSION

    _name, canon = compile_key(benchmark, overrides)
    digest = hashlib.sha256()
    for part in (
        COMPILER_VERSION,
        profile,
        benchmark,
        repr(canon),
        # the slot of the removed engine choice hashes as "classic" on
        # purpose: the engines were bit-identical, and an unset engine
        # always keyed as "classic", so every record stored before the
        # choice was removed stays addressable without a key migration
        "classic",
        # where a seed argument no caller passed was hashed; the constant
        # keeps every key what it was
        repr(None),
    ):
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()


# ------------------------------------------------------------- run <-> record


def run_to_record(run: ProfileRun) -> dict:
    """JSON-ready serialization of a ProfileRun (observation excluded —
    it is a live object, and store-served runs are never profiled)."""
    return {
        "schema": RECORD_SCHEMA,
        "benchmark": run.benchmark,
        "profile": run.profile,
        "clock_hz": run.clock_hz,
        "total_cycles": run.total_cycles,
        "allocated_bytes": run.allocated_bytes,
        "instructions": run.instructions,
        "gc_collections": run.gc_collections,
        "gc_live_objects": run.gc_live_objects,
        "stdout": list(run.stdout),
        "metrics": run.metrics,
        "faults": run.faults,
        "sections": {
            name: {
                "cycles": section.cycles,
                "ops": section.ops,
                "flops": section.flops,
                "ops_per_sec": section.ops_per_sec,
                "mflops": section.mflops,
                "seconds": section.seconds,
                "results": list(section.results),
            }
            for name, section in run.sections.items()
        },
    }


def run_from_record(record: dict) -> ProfileRun:
    """Rebuild the ProfileRun a record serialized.  Raises KeyError on a
    partial (imported) record — callers must only memoize live records."""
    run = ProfileRun(
        benchmark=record["benchmark"],
        profile=record["profile"],
        clock_hz=record["clock_hz"],
        total_cycles=record["total_cycles"],
        stdout=list(record["stdout"]),
        allocated_bytes=record["allocated_bytes"],
        instructions=record["instructions"],
        gc_collections=record["gc_collections"],
        gc_live_objects=record["gc_live_objects"],
        observation=None,
        metrics=record["metrics"],
        faults=record["faults"],
    )
    for name, section in record["sections"].items():
        run.sections[name] = SectionResult(
            section=name,
            cycles=section["cycles"],
            ops=section["ops"],
            flops=section["flops"],
            ops_per_sec=section["ops_per_sec"],
            mflops=section["mflops"],
            seconds=section["seconds"],
            results=list(section["results"]),
        )
    return run


def entry_from_record(record: dict) -> dict:
    """The BENCH-artifact per-profile entry a record yields — must match
    :func:`repro.metrics.baseline.entry_from_run` field for field (a
    test asserts the two agree on live records)."""
    return {
        "cycles": record["total_cycles"],
        "instructions": record["instructions"],
        "allocated_bytes": record["allocated_bytes"],
        "gc_collections": record["gc_collections"],
        "sections": {
            name: {
                "cycles": section["cycles"],
                "ops": section["ops"],
                "flops": section["flops"],
            }
            for name, section in record["sections"].items()
        },
        "metrics": record["metrics"],
    }


def record_from_artifact_entry(benchmark: str, profile: str, entry: dict) -> dict:
    """A *partial* record backfilled from a point-in-time BENCH artifact:
    everything the artifact carries, nothing it does not (no stdout, no
    section result values, no clock).  Marked ``imported`` so the
    memoization path never serves it — only exports and trend queries do.
    """
    return {
        "schema": RECORD_SCHEMA,
        "imported": True,
        "benchmark": benchmark,
        "profile": profile,
        "total_cycles": entry["cycles"],
        "instructions": entry["instructions"],
        "allocated_bytes": entry["allocated_bytes"],
        "gc_collections": entry["gc_collections"],
        "metrics": entry["metrics"],
        "sections": {
            name: {
                "cycles": section["cycles"],
                "ops": section["ops"],
                "flops": section["flops"],
            }
            for name, section in entry["sections"].items()
        },
    }
