"""``repro`` — the one command-line entry point.

::

    repro list | profiles | run | experiment | experiments
    repro fuzz | prof | bench | chaos | store | trace  <subcommand> ...
    repro serve [...]                   # the experiment daemon
    repro client [...] <subcommand>     # its HTTP client

Each verb module ``repro.<package>.cli`` declares its verbs with
``register(subparsers)``.  Only the module that owns the requested verb
is imported, so ``repro client stats`` loads neither the JIT nor the
daemon; ``repro --help`` (or an unknown verb) loads them all.  A verb's
output lines keep the prefix of the console script it replaced
(``hpcnet:``, ``repro-bench:``, ``repro-client:`` ...), since scripts
and CI steps match on them.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module
from typing import List, Optional

#: verb -> the package whose ``cli.register`` declares it
VERBS = {
    "list": "harness", "profiles": "harness", "run": "harness",
    "experiment": "harness", "experiments": "harness",
    "fuzz": "fuzz", "prof": "observe", "bench": "metrics", "chaos": "faults",
    "serve": "service", "client": "service", "store": "store", "trace": "trace",
}


def build_parser(verb: Optional[str] = None) -> argparse.ArgumentParser:
    """The root parser; with a known ``verb``, only its module registers."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HPC.NET reproduction (Vogels, SC'03): benchmarks, "
        "experiments, profiler, fuzzer, bench gate and experiment service",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")
    packages = [VERBS[verb]] if verb in VERBS else dict.fromkeys(VERBS.values())
    for package in packages:
        import_module(f"repro.{package}.cli").register(sub)
    return parser


def parse_args(argv: List[str]) -> argparse.Namespace:
    verb = next((token for token in argv if not token.startswith("-")), None)
    if verb == "client":
        from .service.cli import mint_bare_trace

        argv = mint_bare_trace(argv)
    return build_parser(verb).parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(list(sys.argv[1:] if argv is None else argv))
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe (``repro list | head``): send what is
        # still buffered to devnull so the exit flush cannot fail, and
        # exit non-zero without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
