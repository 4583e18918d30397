"""The ``repro fuzz`` verbs.

::

    repro fuzz run --seed 42 --count 50        # differential campaign
    repro fuzz run --seed 42 --count 200 --time-limit 60
    repro fuzz run --seed 42 --count 200 --jobs auto   # process-pool fan-out
    repro fuzz run --seed 7 --count 20 --inject-bug simplify   # mutation check
    repro fuzz shrink --seed 123456            # minimize one diverging seed
    repro fuzz shrink --file repro.cs
    repro fuzz replay                          # re-run tests/fuzz_corpus/
    repro fuzz replay path/to/prog.cs ...

``run`` exits non-zero on any divergence (or on a generated program that
fails to compile).  With ``--shrink-failures`` every diverging program is
minimized and written into the corpus directory so the regression is kept.
``replay`` re-checks saved repros — corpus entries must stay green, which is
what CI enforces.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List, Sequence

from .genprog import generate_program
from .oracle import (
    AblationPoint,
    Divergence,
    default_matrix,
    inject_pass_bug,
    run_campaign,
    run_program,
)
from .shrink import safe_predicate, shrink_source

DEFAULT_CORPUS = Path("tests") / "fuzz_corpus"


def _failing_matrix(divergences: Sequence[Divergence]) -> List[AblationPoint]:
    """The sub-matrix containing only the points that diverged — shrinking
    against it is much cheaper than re-running the full matrix per candidate."""
    labels = {d.label for d in divergences}
    return [p for p in default_matrix() if p.label in labels]


def _shrink_diverging(source: str, divergences: Sequence[Divergence]) -> str:
    matrix = _failing_matrix(divergences)

    def still_diverges(src: str) -> bool:
        return bool(run_program(src, matrix=matrix))

    return shrink_source(source, safe_predicate(still_diverges))


def _write_repro(corpus: Path, seed: int, source: str, divergences: Sequence[Divergence]) -> Path:
    corpus.mkdir(parents=True, exist_ok=True)
    path = corpus / f"seed_{seed}.cs"
    header = [f"// repro-fuzz repro, seed {seed}"]
    header += [f"// {d}" for d in divergences]
    path.write_text("\n".join(header) + "\n" + source)
    return path


def cmd_run(args) -> int:
    from ..parallel import execution_from_args

    def report(pr) -> None:
        status = "DIVERGED" if pr.divergences else "ok"
        if args.verbose or pr.divergences:
            print(f"  seed {pr.seed}: {status}")
        for d in pr.divergences:
            print(f"    {d}")

    print(
        f"repro-fuzz: campaign seed={args.seed} count={args.count} "
        f"budget={args.budget}"
        + (f" jobs={args.jobs}" if args.jobs else "")
        + (f" inject-bug={args.inject_bug}" if args.inject_bug else "")
    )
    cache = execution_from_args(args).cache
    result = run_campaign(
        seed=args.seed,
        count=args.count,
        budget=args.budget,
        time_limit=args.time_limit,
        on_program=report,
        jobs=args.jobs,
        cache=cache,
        inject_bug=args.inject_bug,
    )
    if result.report is not None:
        print(f"repro-fuzz: parallel {result.report.summary()}")

    print(
        f"repro-fuzz: {result.executed} programs executed, "
        f"{len(result.compile_failures)} compile failures, "
        f"{len(result.failures)} diverging"
    )
    for pseed, message in result.compile_failures:
        print(f"  seed {pseed}: COMPILE FAILURE: {message}")

    if args.shrink_failures and result.failures:
        for pr in result.failures:
            if args.inject_bug:
                with inject_pass_bug(args.inject_bug):
                    small = _shrink_diverging(pr.source, pr.divergences)
            else:
                small = _shrink_diverging(pr.source, pr.divergences)
            path = _write_repro(Path(args.corpus), pr.seed, small, pr.divergences)
            print(f"  seed {pr.seed}: shrunk to {len(small.splitlines())} lines -> {path}")

    if args.inject_bug:
        # mutation check: the injected bug MUST be caught
        if result.failures:
            print("repro-fuzz: mutation check OK — injected bug was caught")
            return 0
        print("repro-fuzz: MUTATION CHECK FAILED — injected bug went undetected")
        return 1
    return 0 if result.ok else 1


def cmd_shrink(args) -> int:
    if args.file:
        try:
            source = Path(args.file).read_text()
        except OSError as exc:
            print(f"repro-fuzz: cannot read {args.file}: {exc}", file=sys.stderr)
            return 1
        origin = args.file
        seed = 0
    else:
        prog = generate_program(args.seed, budget=args.budget)
        source = prog.source
        origin = f"seed {args.seed}"
        seed = args.seed

    if args.inject_bug:
        ctx = inject_pass_bug(args.inject_bug)
    else:
        from contextlib import nullcontext

        ctx = nullcontext()
    with ctx:
        divergences = run_program(source)
        if not divergences:
            print(f"repro-fuzz: {origin} does not diverge; nothing to shrink")
            return 1
        for d in divergences:
            print(f"  {d}")
        small = _shrink_diverging(source, divergences)

    print(f"repro-fuzz: shrunk {origin}: "
          f"{len(source.splitlines())} -> {len(small.splitlines())} lines")
    if args.out:
        Path(args.out).write_text(small)
        print(f"repro-fuzz: wrote {args.out}")
    else:
        path = _write_repro(Path(args.corpus), seed, small, divergences)
        print(f"repro-fuzz: wrote {path}")
    print()
    print(small)
    return 0


def cmd_replay(args) -> int:
    from ..parallel import execution_from_args

    cache = execution_from_args(args).cache
    paths: List[Path]
    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        corpus = Path(args.corpus)
        paths = sorted(corpus.glob("*.cs")) if corpus.is_dir() else []
    if not paths:
        print("repro-fuzz: no corpus entries to replay")
        return 0
    bad = 0
    for path in paths:
        try:
            text = path.read_text()
        except OSError as exc:
            print(f"repro-fuzz: cannot read {path}: {exc}", file=sys.stderr)
            return 1
        divergences = run_program(text, assembly_name=path.stem, cache=cache)
        if divergences:
            bad += 1
            print(f"  {path}: DIVERGED")
            for d in divergences:
                print(f"    {d}")
        else:
            print(f"  {path}: ok")
    print(f"repro-fuzz: replayed {len(paths)} corpus entries, {bad} diverging")
    return 1 if bad else 0


def register(sub) -> None:
    """Declare ``repro fuzz run|shrink|replay`` on the root subparsers."""
    from ..parallel.execargs import add_cache_arguments, add_jobs_argument

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzer: generated Kernel-C# programs, "
        "interpreter-vs-machine oracle, pass-ablation matrix",
    ).add_subparsers(dest="command", required=True)

    p_run = fuzz.add_parser("run", help="run a fuzzing campaign")
    p_run.add_argument("--seed", type=int, default=42, help="campaign seed")
    p_run.add_argument("--count", type=int, default=50, help="programs to generate")
    p_run.add_argument("--budget", type=int, default=40, help="statement budget per program")
    p_run.add_argument("--time-limit", type=float, default=None, metavar="SECONDS",
                       help="stop generating new programs after this long")
    p_run.add_argument("--inject-bug", choices=("simplify", "inline"),
                       help="mutation check: break a pass and require the oracle to notice")
    p_run.add_argument("--shrink-failures", action="store_true",
                       help="minimize each diverging program into the corpus")
    p_run.add_argument("--corpus", default=str(DEFAULT_CORPUS), help="corpus directory")
    p_run.add_argument("--verbose", action="store_true", help="print every program")
    add_jobs_argument(p_run)
    add_cache_arguments(p_run)
    p_run.set_defaults(func=cmd_run)

    p_shrink = fuzz.add_parser("shrink", help="minimize one diverging program")
    group = p_shrink.add_mutually_exclusive_group(required=True)
    group.add_argument("--seed", type=int, help="program seed (as printed by `run`)")
    group.add_argument("--file", help="path to a Kernel-C# source file")
    p_shrink.add_argument("--budget", type=int, default=40, help="statement budget")
    p_shrink.add_argument("--inject-bug", choices=("simplify", "inline"),
                          help="shrink under an injected pass bug")
    p_shrink.add_argument("--out", help="write the minimized repro here")
    p_shrink.add_argument("--corpus", default=str(DEFAULT_CORPUS),
                          help="corpus directory (used when --out is not given)")
    p_shrink.set_defaults(func=cmd_shrink)

    p_replay = fuzz.add_parser("replay", help="re-run saved corpus repros")
    p_replay.add_argument("paths", nargs="*", help="specific files (default: corpus dir)")
    p_replay.add_argument("--corpus", default=str(DEFAULT_CORPUS), help="corpus directory")
    add_cache_arguments(p_replay)
    p_replay.set_defaults(func=cmd_replay)
