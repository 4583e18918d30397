"""Shared execution-plumbing argparse wiring.

``hpcnet run``, ``repro-bench run``, ``repro-chaos`` and ``repro-client
submit`` all take the same operational options: ``--jobs``,
``--cache-dir`` / ``--no-compile-cache`` and the ``--fault-*`` plan
flags.  :func:`add_execution_args` attaches them once and
:func:`execution_from_args` folds the parsed namespace into an
:class:`ExecutionConfig`, so the four CLIs cannot drift on defaults,
help text or destination names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cache import CompileCache, default_cache_dir
from .pool import add_jobs_argument


@dataclass
class ExecutionConfig:
    """One CLI invocation's execution plumbing, parsed and resolved."""

    jobs: Optional[object] = None
    #: service-level concurrency (``repro-serve --workers``): how many
    #: jobs the daemon executes at once, orthogonal to ``jobs`` (the
    #: per-collection cell fan-out)
    workers: Optional[object] = None
    #: admission bound on queued jobs (``repro-serve --max-queue N|auto``;
    #: "auto" = 4x workers, None = unbounded) — over-capacity submissions
    #: are shed with a structured 429 + Retry-After
    max_queue: Optional[object] = None
    cache_dir: Optional[str] = None
    use_compile_cache: bool = True
    plan: Optional[object] = None
    cell_timeout: Optional[float] = None

    @property
    def cache(self) -> Optional[CompileCache]:
        """The compile cache this config selects (None when disabled)."""
        if not self.use_compile_cache:
            return None
        return CompileCache(self.cache_dir)

    def as_request(self) -> dict:
        """The JSON shape the experiment service accepts for a job.

        Fault plans are deliberately not serialized — the service rejects
        perturbed submissions (memoized results must stay fault-free), so
        an armed plan here is a caller error surfaced before any HTTP.
        """
        if self.plan is not None:
            raise ValueError("fault plans cannot be submitted to the service")
        return {"jobs": self.jobs}


def add_execution_args(parser, *, fault_prefix: str = "fault",
                       jobs_default=None, include_faults: bool = True,
                       include_workers: bool = False) -> None:
    """Attach the shared execution options to an argparse parser.

    ``fault_prefix`` follows the :func:`repro.faults.cli.add_fault_arguments`
    convention: ``"fault"`` yields ``--fault-seed`` etc. (hpcnet /
    repro-bench), ``""`` yields bare ``--seed`` (repro-chaos).  Pass
    ``include_faults=False`` for surfaces that cannot accept a plan at
    all (the service client).  ``include_workers=True`` adds the daemon's
    ``--workers N|auto`` concurrency flag (repro-serve only).
    """
    add_jobs_argument(parser, default=jobs_default)
    if include_workers:
        parser.add_argument(
            "--workers", default=None, metavar="N",
            help="concurrent job executions (int or 'auto' for one per "
                 "CPU; default: 1).  Each job runs in its own isolated "
                 "subprocess; identical in-flight submissions coalesce "
                 "onto one execution.",
        )
        parser.add_argument(
            "--max-queue", default=None, metavar="N",
            help="admission bound on queued jobs (int, or 'auto' for 4x "
                 "workers; default: unbounded).  Over-capacity "
                 "submissions get a structured 429 with a deterministic "
                 "Retry-After instead of growing the queue without "
                 "bound.",
        )
    parser.add_argument("--cache-dir", default=default_cache_dir(), metavar="DIR",
                        help="persistent compile cache location "
                             "(default: $REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument("--no-compile-cache", action="store_true",
                        help="compile from scratch; do not read or write the cache")
    if include_faults:
        from ..faults.cli import add_fault_arguments

        add_fault_arguments(parser, prefix=fault_prefix)


def execution_from_args(args) -> ExecutionConfig:
    """Fold an :func:`add_execution_args` namespace into an ExecutionConfig."""
    plan = None
    cell_timeout = getattr(args, "cell_timeout", None)
    if hasattr(args, "fault_seed"):
        from ..faults.cli import plan_from_args

        plan = plan_from_args(args)
    return ExecutionConfig(
        jobs=getattr(args, "jobs", None),
        workers=getattr(args, "workers", None),
        max_queue=getattr(args, "max_queue", None),
        cache_dir=getattr(args, "cache_dir", None),
        use_compile_cache=not getattr(args, "no_compile_cache", False),
        plan=plan,
        cell_timeout=cell_timeout,
    )
