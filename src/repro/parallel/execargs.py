"""The options several ``repro`` verbs share, declared once.

* the execution plumbing — ``--jobs``, ``--cache-dir`` /
  ``--no-compile-cache`` and the ``--fault-*`` plan flags — taken by
  ``repro run``, ``repro bench run``, ``repro chaos run|verify``, ``repro
  fuzz`` and (in part) ``repro serve`` and ``repro client submit``;
  :func:`execution_from_args` folds them into an :class:`ExecutionConfig`;
* the matrix selection (``--benchmarks``, ``--profiles``, ``--scale``) of
  ``repro bench run``, ``repro chaos run|verify`` and ``repro client
  submit``, each with the caller's defaults;
* the trend filters of ``repro store trends|report`` and ``repro client
  trends``.

So no two verbs can drift on a flag's name, default, help text or
destination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .cache import CompileCache, default_cache_dir


@dataclass
class ExecutionConfig:
    """One CLI invocation's execution plumbing, parsed and resolved."""

    jobs: Optional[object] = None
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


def add_jobs_argument(parser) -> None:
    """Attach the shared ``--jobs N|auto`` option."""
    parser.add_argument(
        "--jobs",
        default=None,
        metavar="N",
        help="worker processes for the experiment matrix: an int, or 'auto' "
        "for one per CPU (default: serial; output is bit-identical either way)",
    )


def add_cache_arguments(parser) -> None:
    """Attach ``--cache-dir DIR`` and ``--no-compile-cache``."""
    parser.add_argument("--cache-dir", default=default_cache_dir(), metavar="DIR",
                        help="persistent compile cache location "
                             "(default: $REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument("--no-compile-cache", action="store_true",
                        help="compile from scratch; do not read or write the cache")


def add_fault_arguments(parser, prefix: str = "fault") -> None:
    """Attach the fault-plan options.

    With the default prefix the flags read ``--fault-seed`` etc. and never
    collide with a verb's own options; ``repro chaos`` passes ``prefix=''``
    for bare ``--seed``, ``--sites`` ...
    """
    from ..faults.plan import ALL_SITES

    p = f"--{prefix}-" if prefix else "--"
    group = parser.add_argument_group("fault injection")
    group.add_argument(f"{p}seed", type=int, default=None, metavar="N",
                       dest="fault_seed",
                       help="arm a deterministic FaultPlan with this seed")
    group.add_argument(f"{p}sites", default=None, metavar="A,B",
                       dest="fault_sites",
                       help="comma-separated fault sites to arm probabilistically "
                            f"(known: {','.join(ALL_SITES)})")
    group.add_argument(f"{p}rate", type=float, default=0.25, metavar="R",
                       dest="fault_rate",
                       help="per-(cell, site) arming probability (default: 0.25)")
    group.add_argument(f"{p}pin", action="append", default=[],
                       metavar="INDEX:SITE", dest="fault_pin",
                       help="force SITE on cell INDEX regardless of rate "
                            "(repeatable)")
    group.add_argument("--heap-limit", type=int, default=None, metavar="BYTES",
                       help="guest heap ceiling; exceeding it raises a guest "
                            "OutOfMemoryException")
    group.add_argument("--stack-limit", type=int, default=None, metavar="FRAMES",
                       help="guest call-depth ceiling; exceeding it raises a "
                            "guest StackOverflowException")
    group.add_argument("--cycle-limit", type=int, default=None, metavar="CYCLES",
                       help="per-cell cycle watchdog; exceeding it is a "
                            "structured CellTimeout")
    group.add_argument("--max-retries", type=int, default=2, metavar="K",
                       help="worker retry budget before a cell is quarantined "
                            "(default: 2)")
    group.add_argument("--cell-timeout", type=float, default=None, metavar="SECONDS",
                       help="pool-wide silence watchdog before unfinished "
                            "workers are presumed hung (default: 20 with a "
                            "plan, off without)")


def add_execution_args(parser, *, fault_prefix: str = "fault",
                       include_faults: bool = True) -> None:
    """Attach ``--jobs``, the cache options and the fault-plan options.

    ``fault_prefix`` is passed to :func:`add_fault_arguments`.  ``repro
    serve`` passes ``include_faults=False``: the daemon takes no plan.
    """
    add_jobs_argument(parser)
    add_cache_arguments(parser)
    if include_faults:
        add_fault_arguments(parser, prefix=fault_prefix)


def add_matrix_arguments(parser, *, benchmarks: Optional[str] = None,
                         scale: float = 1.0, profiles: str = "all") -> None:
    """Attach ``--benchmarks A,B``, ``--profiles X,Y`` and ``--scale S``.

    ``benchmarks`` and ``scale`` are the defaults; ``profiles`` names, for
    the help text, what an omitted ``--profiles`` selects.
    """
    parser.add_argument("--benchmarks", default=benchmarks,
                        help="comma-separated benchmarks (default: "
                             f"{benchmarks or 'the whole graph suite'})")
    parser.add_argument("--profiles", default=None,
                        help=f"comma-separated runtime profiles (default: {profiles})")
    parser.add_argument("--scale", type=float, default=scale,
                        help=f"problem-size scale factor (default: {scale:g})")


def add_trend_filters(parser, *, metric: bool = True) -> None:
    """Attach the trend-query filters and ``--json``; ``metric=False`` leaves
    out ``--metric`` (the anchored-ratio report has no metric axis)."""
    parser.add_argument("--benchmark", default=None)
    parser.add_argument("--profile", default=None)
    if metric:
        parser.add_argument("--metric", default=None,
                            help="flattened counter/gauge name instead of cycles")
    parser.add_argument("--json", action="store_true",
                        help="raw JSON instead of the text listing")


def _parse_pins(pins: List[str]) -> Tuple[Tuple[int, str], ...]:
    out = []
    for pin in pins:
        index, sep, site = pin.partition(":")
        try:
            out.append((int(index), site.strip()))
        except ValueError:
            raise SystemExit(f"bad --pin {pin!r} (expected INDEX:SITE)")
        if not sep or not site.strip():
            raise SystemExit(f"bad --pin {pin!r} (expected INDEX:SITE)")
    return tuple(out)


def plan_from_args(args):
    """Build the FaultPlan an :func:`add_fault_arguments` namespace
    describes, or None when no fault option was armed (the
    zero-perturbation default)."""
    from ..faults.plan import FaultPlan

    sites = tuple(
        s.strip() for s in (args.fault_sites or "").split(",") if s.strip()
    )
    pinned = _parse_pins(args.fault_pin)
    armed = (
        args.fault_seed is not None
        or sites
        or pinned
        or args.heap_limit is not None
        or args.stack_limit is not None
        or args.cycle_limit is not None
    )
    if not armed:
        return None
    try:
        return FaultPlan(
            seed=args.fault_seed if args.fault_seed is not None else 0,
            sites=sites,
            rate=args.fault_rate,
            pinned=pinned,
            heap_limit=args.heap_limit,
            stack_limit=args.stack_limit,
            cycle_limit=args.cycle_limit,
            max_retries=args.max_retries,
        )
    except ValueError as exc:
        raise SystemExit(f"fault plan: {exc}")


def execution_from_args(args) -> ExecutionConfig:
    """Fold an :func:`add_execution_args` namespace into an ExecutionConfig."""
    return ExecutionConfig(
        jobs=getattr(args, "jobs", None),
        cache_dir=getattr(args, "cache_dir", None),
        use_compile_cache=not getattr(args, "no_compile_cache", False),
        plan=plan_from_args(args) if hasattr(args, "fault_seed") else None,
        cell_timeout=getattr(args, "cell_timeout", None),
    )
