"""Differential fuzzing & conformance subsystem.

The paper's argument rests on one invariant: a single CIL image produces
identical *results* on every runtime, so timing differences are
attributable to JIT code quality alone.  This package checks that
invariant systematically instead of only on the hand-written registry
benchmarks:

* :mod:`repro.fuzz.genprog` — seeded, grammar-directed generator of
  well-typed Kernel-C# programs;
* :mod:`repro.fuzz.oracle` — compiles each program once (verifier in the
  loop), runs it on the reference interpreter and on the measured engine
  under a profile x pass-ablation matrix, and reports any divergence in
  return value, recorded bench results, stdout, or guest exception type;
* :mod:`repro.fuzz.shrink` — greedy AST-level minimizer that reduces a
  diverging program to a small repro for the corpus;
* :mod:`repro.fuzz.cli` — the ``repro fuzz`` console entry point
  (``run`` / ``shrink`` / ``replay``).
"""

from .genprog import generate_program, program_seed
from .oracle import (
    AblationPoint,
    CampaignResult,
    Divergence,
    default_matrix,
    inject_pass_bug,
    run_campaign,
    run_program,
)
from .shrink import shrink_source

__all__ = [
    "AblationPoint",
    "CampaignResult",
    "Divergence",
    "default_matrix",
    "generate_program",
    "inject_pass_bug",
    "program_seed",
    "run_campaign",
    "run_program",
    "shrink_source",
]
