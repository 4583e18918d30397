"""The ``repro prof`` verbs.

::

    repro prof report micro.loop --runtime clr-1.1 [--param Reps=20000]
    repro prof diff clr11 mono023 --benchmark scimark.sor
    repro prof export micro.loop --runtime clr-1.1 --out trace.json
    repro prof flame scimark.sor --runtime clr-1.1 --out sor.folded

``report`` profiles one benchmark on one runtime and prints the
cycle-attribution report (optionally saving the JSON profile, Chrome
trace, and text report under ``--out``).  ``diff`` ranks cost categories
by their contribution to the cycle gap between two runtimes — the
paper's "which component explains the 2x?" question as a command; its
operands are runtime names *or* previously saved ``*.profile.json``
paths.  ``export`` writes just the Chrome trace-event timeline (load it
at ``chrome://tracing`` or https://ui.perfetto.dev).  ``flame`` samples
the call stack on the simulated clock and emits collapsed-stack
(flamegraph.pl / speedscope "folded") text — deterministic, so two runs
of the same benchmark produce byte-identical flamegraphs.

Runtime names are matched loosely: ``clr11``, ``CLR-1.1`` and
``clr-1.1`` all resolve to the same profile.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional

from ..runtimes import BY_NAME, RuntimeProfile
from .recorder import Observer
from .report import (
    coverage,
    profile_from_path,
    profile_to_dict,
    render_diff,
    render_report,
)

# --------------------------------------------------------------- resolution


def _canon(name: str) -> str:
    return name.lower().replace("-", "").replace(".", "")


def resolve_profile(name: str) -> RuntimeProfile:
    """Resolve a loose runtime name (``clr11`` -> ``clr-1.1``)."""
    profile = BY_NAME.get(name)
    if profile is not None:
        return profile
    wanted = _canon(name)
    for known, profile in BY_NAME.items():
        if _canon(known) == wanted:
            return profile
    known_names = ", ".join(BY_NAME)
    raise SystemExit(f"unknown runtime {name!r}; known: {known_names}")


def _profile_run(benchmark: str, runtime: str, params: List[str]) -> Observer:
    # imported lazily: the harness imports this package in turn
    from ..harness.cli import _parse_overrides
    from ..harness.runner import Runner

    profile = resolve_profile(runtime)
    run = Runner().run_on(benchmark, profile, _parse_overrides(params), observe=True)
    return run.observation


def _obtain(source: str, benchmark: Optional[str], params: List[str]) -> dict:
    """A profile dict from either a saved ``*.profile.json`` or a live run."""
    if os.path.exists(source) or source.endswith(".json"):
        return profile_from_path(source)
    if not benchmark:
        raise SystemExit(
            f"{source!r} is a runtime name, so --benchmark is required "
            "(or pass saved *.profile.json paths)"
        )
    return profile_to_dict(_profile_run(benchmark, source, params))


def chrome_trace(observer: Observer, profile: dict) -> dict:
    """The run's simulated-clock Chrome trace.  ``otherData.label`` is
    ``<benchmark>@<runtime>``, so ``repro trace export`` names the merged
    process after the run."""
    benchmark, runtime = profile["benchmark"], profile["runtime"]
    return observer.timeline.to_chrome_trace(
        profile["clock_hz"],
        {"benchmark": benchmark, "runtime": runtime,
         "label": f"{benchmark or 'run'}@{runtime}"},
    )


# ------------------------------------------------------------- subcommands


def write_artifacts(observer: Observer, out_dir: str, top: int = 12) -> Dict[str, str]:
    """Write profile/trace/report files for one observed run; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    profile = profile_to_dict(observer)
    stem = f"{profile['benchmark'] or 'run'}.{profile['runtime']}"
    paths = {
        "profile": os.path.join(out_dir, f"{stem}.profile.json"),
        "trace": os.path.join(out_dir, f"{stem}.trace.json"),
        "report": os.path.join(out_dir, f"{stem}.report.txt"),
    }
    with open(paths["profile"], "w") as handle:
        json.dump(profile, handle, indent=1, sort_keys=True)
    with open(paths["trace"], "w") as handle:
        json.dump(chrome_trace(observer, profile), handle)
    with open(paths["report"], "w") as handle:
        handle.write(render_report(profile, top=top) + "\n")
    return paths


def cmd_report(args) -> int:
    observer = _profile_run(args.benchmark, args.runtime, args.param or [])
    profile = profile_to_dict(observer)
    print(render_report(profile, top=args.top))
    cov = coverage(profile)
    if args.out:
        paths = write_artifacts(observer, args.out, top=args.top)
        print()
        for kind, path in paths.items():
            print(f"wrote {kind}: {path}")
    if cov < 0.95:
        print(f"warning: only {100 * cov:.2f}% of cycles attributed", file=sys.stderr)
        return 1
    return 0


def cmd_diff(args) -> int:
    a = _obtain(args.a, args.benchmark, args.param or [])
    b = _obtain(args.b, args.benchmark, args.param or [])
    print(render_diff(a, b, top=args.top))
    return 0


def cmd_export(args) -> int:
    observer = _profile_run(args.benchmark, args.runtime, args.param or [])
    trace = chrome_trace(observer, profile_to_dict(observer))
    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(trace, handle)
    print(
        f"wrote {args.out}: {len(trace['traceEvents'])} events "
        f"({observer.timeline.dropped} dropped)"
    )
    return 0


def cmd_flame(args) -> int:
    # imported lazily: repro.metrics builds on this package
    from ..harness.cli import _parse_overrides
    from ..harness.runner import Runner
    from ..metrics.sampler import StackSampler

    profile = resolve_profile(args.runtime)
    sampler = StackSampler(period=args.period)
    Runner().run_on(
        args.benchmark, profile, _parse_overrides(args.param or []),
        observe=sampler,
    )
    folded = sampler.collapsed()
    if args.out:
        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w") as handle:
            handle.write(folded + "\n")
        print(
            f"wrote {args.out}: {len(sampler.weights)} stacks, "
            f"{sampler.total_samples} samples at period={args.period} cycles"
        )
    else:
        print(folded)
    return 0


def register(sub) -> None:
    """Declare ``repro prof report|diff|export|flame`` on the root subparsers."""
    prof = sub.add_parser(
        "prof", help="cycle-attribution profiler for the HPC.NET reproduction",
    ).add_subparsers(dest="command", required=True)

    def add_run(name, help):
        """A subcommand profiling one benchmark on one runtime."""
        p = prof.add_parser(name, help=help)
        p.add_argument("benchmark")
        p.add_argument("--runtime", default="clr-1.1",
                       help=f"runtime profile ({', '.join(BY_NAME)})")
        p.add_argument("--param", action="append", metavar="K=V")
        return p

    p_rep = add_run("report", "profile one benchmark on one runtime")
    p_rep.add_argument("--top", type=int, default=12, help="rows per table")
    p_rep.add_argument("--out", metavar="DIR",
                       help="also write profile.json/trace.json/report.txt here")
    p_rep.set_defaults(func=cmd_report)

    p_diff = prof.add_parser(
        "diff", help="rank categories explaining the gap between two runtimes"
    )
    p_diff.add_argument("a", help="runtime name or saved *.profile.json")
    p_diff.add_argument("b", help="runtime name or saved *.profile.json")
    p_diff.add_argument("--benchmark", help="required when a/b are runtime names")
    p_diff.add_argument("--param", action="append", metavar="K=V")
    p_diff.add_argument("--top", type=int, default=10)
    p_diff.set_defaults(func=cmd_diff)

    p_exp = add_run("export", "write the Chrome trace-event timeline")
    p_exp.add_argument("--out", required=True, metavar="FILE.json")
    p_exp.set_defaults(func=cmd_export)

    p_flame = add_run("flame", "write a collapsed-stack (folded) flamegraph profile")
    p_flame.add_argument("--period", type=int, default=1000,
                         help="simulated cycles per sample (default: 1000)")
    p_flame.add_argument("--out", metavar="FILE.folded",
                         help="output path (default: stdout)")
    p_flame.set_defaults(func=cmd_flame)
