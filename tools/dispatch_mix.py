#!/usr/bin/env python3
"""Dispatch mix of the threaded engine, by opcode and tier.

    PYTHONPATH=src python tools/dispatch_mix.py scimark.lu --profile clr-1.1
    PYTHONPATH=src python tools/dispatch_mix.py grande.search --param Depth=3
    PYTHONPATH=src python tools/dispatch_mix.py --experiments [--scale 1.0]

Prints closure dispatches, retired guest instructions and instructions
per dispatch, broken down by tier (``closure``: hand-written closures,
for ops outside the template subset; ``single``: the generated singles a
function starts on; ``fused``: superinstructions, listed under the opcode
that starts the run; ``loop``: loop superinstructions, one dispatch each
time the driver enters one, listed under the opcode of the block it
enters at) and by opcode.  ``--min-ipd X`` exits 1 when the overall
instructions per dispatch fall below ``X``, which makes the tool a
fusion gate.

The engine carries no counter.  The tool wraps ``repro.vm.dispatch.
build_ops`` and puts a counting shim around every closure it installs;
a shim reads the instruction counter the closures already keep
(``ExecState.icount``) before and after each call.  It also tags the
closures the template makers return, so a function that starts in its
last tier (the engine's tier memory) is still counted by tier.  Tiering
depends only on retired-instruction counts, so for a given input the
numbers are deterministic; the shims slow the run down but change
nothing it computes.
"""

from __future__ import annotations

import argparse
import sys

from repro.harness.cli import _parse_overrides
from repro.jit import mir
from repro.vm import dispatch

#: tier labels: hand-written closures, then what each template maker makes
TIERS = ("closure", "single", "fused", "loop")
MAKERS = {
    "_make_single_gen": "single",
    "_make_fused_gen": "fused",
    "_make_loop_gen": "loop",
}


class Mix:
    """Dispatch and instruction counts per ``(tier, opcode)``."""

    def __init__(self) -> None:
        self.counts = {}

    def wrap(self, op, tier, opname):
        cell = self.counts.setdefault((tier, opname), [0, 0])

        def counted(R, st):
            before = st.icount
            try:
                return op(R, st)
            finally:
                # a run advances icount past its first element, which the
                # driver counted before the call; a raise records its own
                cell[0] += 1
                cell[1] += st.icount - before + 1

        counted.inner = op
        return counted

    def install(self):
        """Count every closure ``build_ops`` installs from now on; returns
        the function that undoes the patch."""
        originals = {name: getattr(dispatch, name) for name in ("build_ops", *MAKERS)}
        build_ops = originals["build_ops"]

        def tagging(make, tier):
            def tagged(*args):
                op = make(*args)
                if op is not None:
                    op.tier = tier
                return op
            return tagged

        def counting_build_ops(machine, fn, tr=None):
            if tr is not None:
                # a fused run keeps the closure at its start as its
                # fallback: hand it the closure, not a shim that would
                # count that dispatch a second time
                tr.ops[:] = [op.inner for op in tr.ops]
            tr = build_ops(machine, fn, tr)
            code = fn.code
            ops = tr.ops
            for pc, op in enumerate(ops):
                tier = getattr(op, "tier", "closure")
                ops[pc] = self.wrap(op, tier, mir.name(code[pc].op))
            return tr

        for name, tier in MAKERS.items():
            setattr(dispatch, name, tagging(originals[name], tier))
        dispatch.build_ops = counting_build_ops

        def restore():
            for name, original in originals.items():
                setattr(dispatch, name, original)
        return restore

    def totals(self, tier=None):
        rows = [c for (t, _), c in self.counts.items() if tier in (None, t)]
        return sum(c[0] for c in rows), sum(c[1] for c in rows)

    def report(self, top: int) -> str:
        dispatches, instructions = self.totals()
        lines = [f"{'tier':<8} {'opcode':<10} {'dispatches':>12} "
                 f"{'instructions':>13} {'ipd':>6} {'share':>6}"]

        def row(tier, opname, d, i):
            ipd = i / d if d else 0.0
            share = d / dispatches if dispatches else 0.0
            lines.append(f"{tier:<8} {opname:<10} {d:>12,} {i:>13,} "
                         f"{ipd:>6.2f} {share:>6.1%}")

        ranked = sorted(self.counts.items(), key=lambda kv: -kv[1][0])
        for (tier, opname), (d, i) in ranked[:top]:
            row(tier, opname, d, i)
        lines.append("")
        for tier in TIERS:
            row(tier, "(all)", *self.totals(tier))
        row("total", "(all)", dispatches, instructions)
        return "\n".join(lines)


def run_benchmark(name, profile_name, params):
    from repro.harness.runner import Runner
    from repro.runtimes import get_profile

    profile = get_profile(profile_name)
    Runner().run_on(name, profile, params or None)


def run_experiments(scale):
    from repro.harness.experiments import ALL_EXPERIMENTS

    for module in ALL_EXPERIMENTS.values():
        module.run(scale=scale)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("benchmark", nargs="?", help="e.g. scimark.lu")
    parser.add_argument("--profile", default="clr-1.1")
    parser.add_argument("--param", action="append", metavar="K=V")
    parser.add_argument("--experiments", action="store_true",
                        help="every paper experiment (repro experiments)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="experiment scale (with --experiments)")
    parser.add_argument("--top", type=int, default=20, help="rows to list")
    parser.add_argument("--min-ipd", type=float, default=None,
                        help="exit 1 below this many instructions per dispatch")
    args = parser.parse_args(argv)
    if args.experiments == bool(args.benchmark):
        parser.error("give exactly one of: a benchmark, --experiments")

    mix = Mix()
    restore = mix.install()
    try:
        if args.experiments:
            run_experiments(args.scale)
        else:
            run_benchmark(args.benchmark, args.profile, _parse_overrides(args.param or []))
    finally:
        restore()
    print(mix.report(args.top))
    dispatches, instructions = mix.totals()
    ipd = instructions / dispatches if dispatches else 0.0
    if args.min_ipd is not None and ipd < args.min_ipd:
        print(f"FAIL: {ipd:.2f} instructions per dispatch, below the "
              f"floor of {args.min_ipd:.2f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
