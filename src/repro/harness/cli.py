"""The harness verbs of the ``repro`` command.

::

    repro list                          # all benchmarks with suites + sizes
    repro profiles                      # the runtime profile table
    repro run micro.arith [options]     # one benchmark across profiles
    repro experiment graph09 [...]      # regenerate one paper graph/table
    repro experiments                   # regenerate everything (EXPERIMENTS.md body)
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..benchmarks import all_benchmarks, get as get_benchmark
from ..runtimes import ALL_PROFILES, BY_NAME, MICRO_PROFILES, get_profile
from .charts import bar_chart, table, to_csv
from .experiments import ALL_EXPERIMENTS, evaluate_all


def _parse_overrides(pairs: List[str]) -> Optional[Dict[str, object]]:
    """``--param K=V`` pairs as overrides (ints, then floats, then
    strings); None when there are none."""
    out: Dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise SystemExit(f"bad --param {pair!r}; expected Key=Value")
        try:
            out[key] = int(raw)
        except ValueError:
            try:
                out[key] = float(raw)
            except ValueError:
                out[key] = raw
    return out or None


def cmd_list(_args) -> int:
    print(f"{'benchmark':<22} {'suite':<18} sections  default sizes")
    print("-" * 88)
    for bench in all_benchmarks():
        sizes = ", ".join(f"{k}={v}" for k, v in bench.params.items())
        print(f"{bench.name:<22} {bench.suite:<18} {len(bench.sections):>8}  {sizes}")
    return 0


def cmd_profiles(_args) -> int:
    print(f"{'profile':<14} {'vendor':<26} {'kind':<8} description")
    print("-" * 92)
    for profile in ALL_PROFILES:
        print(f"{profile.name:<14} {profile.vendor:<26} {profile.kind:<8} {profile.description}")
    return 0


def cmd_run(args) -> int:
    from ..faults.report import CellFailure, annotate_cells
    from ..parallel import execution_from_args, resolve_jobs, run_cells
    from .runner import check_cross_profile_results

    profiles = (
        [get_profile(name) for name in args.profiles]
        if args.profiles
        else MICRO_PROFILES
    )
    overrides = _parse_overrides(args.param or [])
    execution = execution_from_args(args)
    cache = execution.cache
    plan = execution.plan
    jobs = execution.jobs
    if args.profile and resolve_jobs(jobs) > 1:
        # the cycle-attribution observer is a live per-machine object, not a
        # picklable result record; profiling runs stay serial
        print("hpcnet: --profile forces serial execution (ignoring --jobs)")
        jobs = None
    if plan is not None and args.profile:
        raise SystemExit("hpcnet run: --profile cannot be combined with fault injection")
    spec = {
        "kind": "harness",
        "observe": args.profile,
        "clock_hz": args.clock,
        "cache_dir": None if cache is None else cache.root,
        "plan": plan,
        "cell_timeout": args.cell_timeout,
    }
    cells = [(args.benchmark, overrides, p.name) for p in profiles]
    payloads, report = run_cells(spec, cells, jobs=jobs)
    runs = {
        p.name: run
        for p, run in zip(profiles, payloads)
        if not isinstance(run, CellFailure)
    }
    check_cross_profile_results(args.benchmark, runs)
    if (resolve_jobs(jobs) > 1 and len(profiles) > 1) or plan is not None:
        print(f"hpcnet: parallel {report.summary()}")
    faults_report = annotate_cells(
        [(args.benchmark, p.name) for p in profiles], payloads, plan
    )
    if faults_report.failures:
        print(f"hpcnet: {faults_report.summary()}")
        for line in faults_report.failure_lines():
            print(f"hpcnet:   {line}")
    if not runs:
        print("hpcnet: no surviving profile runs")
        return 0 if faults_report.contained else 1
    bench = get_benchmark(args.benchmark)
    profiles = [p for p in profiles if p.name in runs]
    if args.profile:
        from ..observe.cli import write_artifacts

        for run in runs.values():
            for kind, path in write_artifacts(run.observation, args.profile_dir).items():
                print(f"wrote {kind}: {path}")
    series = {
        section: {name: run.section(section).ops_per_sec for name, run in runs.items()}
        for section in bench.sections
    }
    unit = "ops/sec"
    if all(runs[p].section(s).flops for p in runs for s in bench.sections):
        series = {
            section: {name: run.section(section).mflops for name, run in runs.items()}
            for section in bench.sections
        }
        unit = "MFlops"
    if args.csv:
        print(to_csv(series, profile_order=[p.name for p in profiles]))
    else:
        print(bar_chart(series, unit=unit, profile_order=[p.name for p in profiles],
                        title=f"{args.benchmark} ({bench.description})"))
    return 0 if faults_report.contained else 1


def cmd_experiment(args) -> int:
    if args.name not in ALL_EXPERIMENTS:
        known = ", ".join(sorted(ALL_EXPERIMENTS))
        raise SystemExit(f"unknown experiment {args.name!r}; known: {known}")
    results = evaluate_all([args.name], args.scale)
    print("\n\n".join(result.text for result in results))
    return 0 if all(result.all_passed for result in results) else 1


def cmd_experiments(args) -> int:
    results = evaluate_all(ALL_EXPERIMENTS, args.scale)
    for result in results:
        print(result.text)
        print()
    return 0 if all(result.all_passed for result in results) else 1


def register(sub) -> None:
    """Declare the harness verbs on the root ``repro`` subparsers."""
    from ..parallel.execargs import add_execution_args

    sub.add_parser("list", help="list benchmarks").set_defaults(func=cmd_list)
    sub.add_parser("profiles", help="list runtime profiles").set_defaults(func=cmd_profiles)

    p_run = sub.add_parser("run", help="run one benchmark across profiles")
    p_run.add_argument("benchmark")
    p_run.add_argument("--profiles", nargs="*", metavar="NAME",
                       help=f"profiles ({', '.join(BY_NAME)})")
    p_run.add_argument("--param", action="append", metavar="K=V")
    p_run.add_argument("--clock", type=float, default=None, help="clock Hz override")
    p_run.add_argument("--csv", action="store_true", help="emit CSV instead of bars")
    p_run.add_argument("--profile", action="store_true",
                       help="attach the cycle-attribution profiler and write "
                            "profile/trace/report artifacts per runtime")
    p_run.add_argument("--profile-dir", default="profile-artifacts", metavar="DIR",
                       help="where --profile writes artifacts")
    add_execution_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_exp = sub.add_parser("experiment", help="regenerate one paper graph/table")
    p_exp.add_argument("name", help=f"one of: {', '.join(ALL_EXPERIMENTS)}")
    p_exp.add_argument("--scale", type=float, default=1.0)
    p_exp.set_defaults(func=cmd_experiment)

    p_all = sub.add_parser("experiments", help="regenerate every graph/table")
    p_all.add_argument("--scale", type=float, default=1.0)
    p_all.set_defaults(func=cmd_experiments)
