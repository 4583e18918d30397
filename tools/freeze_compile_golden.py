#!/usr/bin/env python3
"""Freeze the compile path's observables into ``tests/golden/compile_path.json``.

    PYTHONPATH=src python tools/freeze_compile_golden.py

The fixture holds sha256 fingerprints of four things.  For the corelib,
every registry benchmark source (default parameters) and every program
in ``tests/fuzz_corpus``:

* the token stream: each token's kind, value, line and column;
* the compiled CIL image: the text of ``disassemble_assembly``, which
  spells out every body, exception region and ``.maxstack`` (local
  names without their symbol numbers);
* every JIT-compiled ``MIRFunction`` of the compiled program, on every
  runtime profile: each ``MInstr`` field (``cost`` and ``bounds_check``
  included), plus ``in_register``, ``regions`` and ``stats``.

And, for every registry benchmark (at the small parameters of
``tests/test_dispatch_equivalence.py``) and every fuzz-corpus program:

* the :class:`~repro.metrics.MachineMetrics` snapshot of one run on
  every runtime profile.

A rewrite of the lexer, parser, code generator, verifier, JIT passes or
metrics layer must leave
them unchanged; ``tests/test_compile_golden.py`` asserts it.  Regenerate
the fixture only with a change meant to move compiled code or the metric
catalogue, and say so.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "compile_path.json")
CORPUS_DIR = os.path.join(ROOT, "tests", "fuzz_corpus")


def programs() -> List[Tuple[str, str, bool]]:
    """``(name, source, include_corelib)`` for every frozen program."""
    from repro.benchmarks.registry import all_benchmarks
    from repro.lang.builtins import CORELIB_SOURCE

    out = [("corelib", CORELIB_SOURCE, False)]
    out += [(f"bench/{b.name}", b.build_source(), True) for b in all_benchmarks()]
    for entry in sorted(os.listdir(CORPUS_DIR)):
        if entry.endswith(".cs"):
            with open(os.path.join(CORPUS_DIR, entry), encoding="utf-8") as handle:
                out.append((f"corpus/{entry}", handle.read(), True))
    return out


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canon(value):
    """A JSON-stable rendering of an operand: ints, strings, bools and
    ``None`` as themselves, floats by ``repr`` (so ``-0.0`` and NaN
    survive), containers element-wise, anything else by type and repr."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return ["float", repr(value)]
    if isinstance(value, (list, tuple)):
        return [type(value).__name__, [_canon(v) for v in value]]
    if isinstance(value, (set, frozenset)):
        return ["set", sorted(_canon(v) for v in value)]
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items())}
    text = repr(value)
    if " at 0x" in text:
        raise TypeError(f"operand {type(value).__name__} has no stable repr: {text}")
    return [type(value).__name__, text]


def token_fingerprint(source: str) -> str:
    from repro.lang import tokenize

    return _sha([[t.kind, _canon(t.value), t.line, t.column] for t in tokenize(source)])


def function_payload(fn) -> dict:
    return {
        "name": fn.full_name,
        "n_args": fn.n_args,
        "n_vregs": fn.n_vregs,
        "code": [
            [ins.op, ins.dst, _canon(ins.a), _canon(ins.b), _canon(ins.c),
             _canon(ins.extra), _canon(ins.args), ins.kind, ins.target,
             ins.cost, ins.bounds_check, ins.il_index]
            for ins in fn.code
        ],
        "regions": [
            [r.kind, r.try_start, r.try_end, r.handler_start, r.handler_end,
             r.catch_type, r.exc_vreg]
            for r in fn.regions
        ],
        "in_register": list(fn.in_register),
        "stats": _canon(fn.stats),
        "branch_targets": sorted(fn.branch_targets),
    }


#: the symbol number the type checker appends to a local's name
#: (``i$13``): numbered per checked program, but the frozen digests were
#: taken when it counted every compile of the process, so it stays masked
#: out of the CIL fingerprint
_SYMBOL_UID = re.compile(r"\$\d+\b")


def cil_fingerprint(assembly) -> str:
    from repro.cil import disassemble_assembly

    text = _SYMBOL_UID.sub("$", disassemble_assembly(assembly))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def mir_fingerprints(assembly, include_corelib: bool) -> Dict[str, str]:
    """profile name -> fingerprint of every method body JIT-compiled on
    that profile.  Corelib methods are frozen once, under ``corelib``, and
    skipped in the programs that link it."""
    from repro.jit.pipeline import JitCompiler
    from repro.lang.builtins import CORELIB_CLASSES
    from repro.runtimes import ALL_PROFILES
    from repro.vm.loader import LoadedAssembly

    skip = set(CORELIB_CLASSES) if include_corelib else set()
    methods = [m for name, cls in assembly.classes.items() if name not in skip
               for m in cls.methods if m.body]
    out = {}
    for profile in ALL_PROFILES:
        jit = JitCompiler(LoadedAssembly(assembly), profile)
        out[profile.name] = _sha([function_payload(jit.compile(m)) for m in methods])
    return out


def metrics_fingerprints() -> Dict[str, Dict[str, str]]:
    """program -> profile name -> fingerprint of the ``MachineMetrics``
    snapshot of one run: benchmarks through ``Runner.run_on`` at the
    dispatch-equivalence parameters, corpus programs on a bare machine."""
    from repro.harness.runner import Runner
    from repro.lang import compile_source
    from repro.metrics import MachineMetrics
    from repro.runtimes import ALL_PROFILES
    from repro.vm.loader import LoadedAssembly
    from repro.vm.machine import Machine

    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from tests.test_dispatch_equivalence import SMALL_PARAMS

    out: Dict[str, Dict[str, str]] = {}
    runner = Runner()
    for bench, params in sorted(SMALL_PARAMS.items()):
        out[f"bench/{bench}"] = {
            profile.name: _sha(
                runner.run_on(bench, profile, params, metrics=True).metrics
            )
            for profile in ALL_PROFILES
        }
    for name, source, _corelib in programs():
        if not name.startswith("corpus/"):
            continue
        assembly = compile_source(source)
        out[name] = {}
        for profile in ALL_PROFILES:
            metrics = MachineMetrics()
            Machine(LoadedAssembly(assembly), profile, observer=metrics).run()
            out[name][profile.name] = _sha(metrics.snapshot())
    return out


def observe() -> dict:
    from repro.lang import compile_source

    tokens, cil, mir = {}, {}, {}
    for name, source, include_corelib in programs():
        tokens[name] = token_fingerprint(source)
        assembly = compile_source(source, include_corelib=include_corelib)
        cil[name] = cil_fingerprint(assembly)
        mir[name] = mir_fingerprints(assembly, include_corelib)
    return {"tokens": tokens, "cil": cil, "mir": mir,
            "metrics": metrics_fingerprints()}


def main() -> int:
    observed = observe()
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(observed, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{GOLDEN}: {len(observed['tokens'])} programs, "
          f"{len(observed['metrics'])} metered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
