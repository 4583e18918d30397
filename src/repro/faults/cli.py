"""``repro chaos``: seeded fault-matrix campaigns over the harness.

::

    repro chaos run --seed N [--sites a,b] [--rate R] [--pin INDEX:SITE ...]
                    [--heap-limit B] [--stack-limit F] [--cycle-limit C]
                    [--max-retries K] [--cell-timeout S]
                    [--benchmarks x,y] [--profiles a,b] [--scale S]
                    [--jobs N|auto] [--out REPORT.json]
    repro chaos verify --seed N [same matrix/fault flags]
    repro chaos check REPORT.json
    repro chaos service [--seed N] [--out REPORT.json]

``run`` executes one (benchmark x profile) matrix under a
:class:`~repro.faults.FaultPlan`, writes the failure-annotation report,
and exits by the containment policy: **0** when every failure is
attributed to an injected fault or a fired guest limit, **1** when any
failure lacks an explanation.  ``verify`` runs the same campaign at
``--jobs 1``, ``2`` and ``4`` and asserts the three reports are
byte-identical (the determinism acceptance gate).  ``check`` re-evaluates
the containment policy of an existing report file — CI uses it to assert
the exit-code contract without re-running the matrix.  ``service`` runs
the seeded daemon-level chaos scenarios (subprocess kills, lease steals,
store contention, dropped connections, overload) from
:mod:`repro.faults.service_chaos` under the same containment policy.
"""

from __future__ import annotations

import json
import os
import sys

from .report import FaultMatrixReport, annotate_cells, load_report

#: default chaos-campaign matrix: covers allocation, exception unwinding,
#: and recursion so every machine-level site has something to bite
DEFAULT_BENCHMARKS = "micro.arith,micro.exception,grande.sieve"


def _campaign_cells(args):
    from ..benchmarks import get as get_benchmark
    from ..metrics.baseline import graph_suite
    from ..runtimes import MICRO_PROFILES, get_profile

    benches = [b.strip() for b in args.benchmarks.split(",") if b.strip()]
    if args.profiles:
        profiles = [p.strip() for p in args.profiles.split(",") if p.strip()]
        for name in profiles:
            get_profile(name)  # fail fast on typos
    else:
        profiles = [p.name for p in MICRO_PROFILES]
    # scaled sizes for graph-suite members; registry defaults otherwise
    scaled = dict(graph_suite(args.scale))
    cells = []
    for bench in benches:
        get_benchmark(bench)  # fail fast on typos
        params = scaled.get(bench)
        for profile in profiles:
            cells.append((bench, params or None, profile))
    return cells


def _run_campaign(args, plan, jobs) -> FaultMatrixReport:
    from ..parallel import execution_from_args, run_cells

    cells = _campaign_cells(args)
    execution = execution_from_args(args)
    cache = execution.cache
    spec = {
        "kind": "harness",
        "metrics": False,
        "cache_dir": None if cache is None else cache.root,
        "plan": plan,
        "cell_timeout": execution.cell_timeout,
    }
    payloads, pool_report = run_cells(spec, cells, jobs=jobs)
    report = annotate_cells(
        [(bench, profile) for bench, _params, profile in cells], payloads, plan
    )
    print(f"repro-chaos: pool {pool_report.summary()}", file=sys.stderr)
    return report


def cmd_run(args) -> int:
    from ..parallel.execargs import plan_from_args

    plan = plan_from_args(args)
    if plan is None:
        raise SystemExit(
            "repro-chaos run: no fault armed; pass --seed (optionally with "
            "--sites/--pin/limits)"
        )
    report = _run_campaign(args, plan, args.jobs)
    if args.out:
        parent = os.path.dirname(args.out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.out, "w") as handle:
            handle.write(report.to_json())
        print(f"repro-chaos: wrote {args.out}")
    print(f"repro-chaos: {report.summary()}")
    for line in report.failure_lines():
        print(f"repro-chaos:   {line}")
    return 0 if report.contained else 1


def cmd_verify(args) -> int:
    from ..parallel.execargs import plan_from_args

    plan = plan_from_args(args)
    if plan is None:
        raise SystemExit("repro-chaos verify: no fault armed; pass --seed")
    blobs = {}
    for jobs in (1, 2, 4):
        print(f"repro-chaos: campaign at --jobs {jobs}", file=sys.stderr)
        blobs[jobs] = _run_campaign(args, plan, jobs).to_json()
    if not (blobs[1] == blobs[2] == blobs[4]):
        print("repro-chaos: FAIL — reports differ across --jobs 1/2/4")
        return 1
    report = FaultMatrixReport(plan=plan, cells=json.loads(blobs[1])["cells"])
    print(f"repro-chaos: byte-identical across --jobs 1/2/4 — {report.summary()}")
    return 0 if report.contained else 1


def cmd_service(args) -> int:
    from .service_chaos import run_service_campaign

    return run_service_campaign(args.fault_seed or 0, out=args.out)


def cmd_check(args) -> int:
    try:
        report = load_report(args.report)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro-chaos check: {exc}")
    print(f"repro-chaos: {args.report}: {report.summary()}")
    for line in report.failure_lines():
        print(f"repro-chaos:   {line}")
    return 0 if report.contained else 1


def register(sub) -> None:
    """Declare ``repro chaos run|verify|check|service`` on the root subparsers."""
    from ..parallel.execargs import add_execution_args, add_matrix_arguments

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-matrix campaigns with the containment exit-code "
        "policy (0 = every failure attributed, 1 = uncontained)",
    ).add_subparsers(dest="command", required=True)

    run = chaos.add_parser("run", help="one campaign; write the report; exit by containment")
    verify = chaos.add_parser(
        "verify", help="same campaign at --jobs 1/2/4; assert byte-identical reports"
    )
    for p in (run, verify):
        # bare fault names (--seed, --sites, ...); verify ignores --jobs
        # (it pins 1/2/4)
        add_execution_args(p, fault_prefix="")
        add_matrix_arguments(p, benchmarks=DEFAULT_BENCHMARKS, scale=0.05,
                             profiles="micro set")
    run.add_argument("--out", default="chaos-report.json", metavar="PATH",
                     help="failure-annotation report path (default: "
                          "chaos-report.json; '' to skip)")
    run.set_defaults(func=cmd_run)
    verify.set_defaults(func=cmd_verify)

    check = chaos.add_parser(
        "check", help="re-evaluate an existing report's containment policy"
    )
    check.add_argument("report", help="a repro.faults/1 report JSON file")
    check.set_defaults(func=cmd_check)

    service = chaos.add_parser(
        "service",
        help="seeded daemon-level chaos scenarios (kills, lease steals, "
             "contention, dropped connections, overload); exit by containment",
    )
    service.add_argument("--seed", type=int, default=0, metavar="N",
                         dest="fault_seed",
                         help="campaign seed feeding every injected fault "
                              "parameter (default: 0)")
    service.add_argument("--out", default="", metavar="PATH",
                         help="scenario report JSON path ('' to skip)")
    service.set_defaults(func=cmd_service)
