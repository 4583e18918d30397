"""The compile path against its frozen golden (``tests/golden/compile_path.json``).

The fixture fingerprints the token stream, the disassembled CIL image
and every JIT-compiled MIR function, on every profile, of the corelib, the registry benchmarks and
the fuzz corpus, plus the ``MachineMetrics`` snapshot of a small run of
every benchmark and corpus program on every profile.  A rewrite of the
lexer, parser, code generator, verifier, JIT passes or metrics layer
that keeps compiled code and
the metric catalogue identical keeps this test green; regenerate the
fixture with ``tools/freeze_compile_golden.py`` only for a change meant
to move it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def freezer():
    spec = importlib.util.spec_from_file_location(
        "freeze_compile_golden", ROOT / "tools" / "freeze_compile_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def frozen(freezer):
    with open(freezer.GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def observed(freezer):
    return freezer.observe()


def test_fixture_covers_every_program(freezer, frozen):
    names = [name for name, _source, _corelib in freezer.programs()]
    assert sorted(frozen["tokens"]) == sorted(names)
    assert sorted(frozen["cil"]) == sorted(names)
    assert sorted(frozen["mir"]) == sorted(names)


def test_token_streams_match(frozen, observed):
    assert observed["tokens"] == frozen["tokens"]


def test_cil_images_match(frozen, observed):
    mismatched = [name for name, digest in sorted(frozen["cil"].items())
                  if observed["cil"].get(name) != digest]
    assert not mismatched


def test_compiled_mir_matches(frozen, observed):
    mismatched = [
        f"{name} on {profile}"
        for name, profiles in sorted(frozen["mir"].items())
        for profile, digest in sorted(profiles.items())
        if observed["mir"].get(name, {}).get(profile) != digest
    ]
    assert not mismatched


def test_metrics_cover_every_benchmark_and_corpus_program(freezer, frozen):
    from repro.benchmarks.registry import all_benchmarks
    from repro.runtimes import ALL_PROFILES

    names = [f"bench/{b.name}" for b in all_benchmarks()]
    names += [name for name, _source, _corelib in freezer.programs()
              if name.startswith("corpus/")]
    assert sorted(frozen["metrics"]) == sorted(names)
    for profiles in frozen["metrics"].values():
        assert sorted(profiles) == sorted(p.name for p in ALL_PROFILES)


def test_metrics_snapshots_match(frozen, observed):
    mismatched = [
        f"{name} on {profile}"
        for name, profiles in sorted(frozen["metrics"].items())
        for profile, digest in sorted(profiles.items())
        if observed["metrics"].get(name, {}).get(profile) != digest
    ]
    assert not mismatched


def test_fingerprint_sees_a_cost_change(freezer):
    """The MIR fingerprint covers ``cost``: a one-cycle change moves it."""
    from repro.jit.pipeline import JitCompiler
    from repro.lang import compile_source
    from repro.runtimes import CLR11
    from repro.vm.loader import LoadedAssembly

    assembly = compile_source("class P { static int Main() { return 1; } }")
    fn = JitCompiler(LoadedAssembly(assembly), CLR11).compile(assembly.entry_point)
    before = freezer.function_payload(fn)
    fn.code[0].cost += 1
    assert freezer.function_payload(fn) != before


def _clr_mir(freezer, assembly):
    from repro.jit.pipeline import JitCompiler
    from repro.runtimes import CLR11
    from repro.vm.loader import LoadedAssembly

    jit = JitCompiler(LoadedAssembly(assembly), CLR11)
    return [freezer.function_payload(jit.compile(m))
            for m in assembly.all_methods() if m.body]


@pytest.fixture(scope="module")
def images(freezer):
    """name -> (fresh compile, its to_bytes/from_bytes round trip, the
    never-verified assembly rebuilt from its disassembly)."""
    from repro.cil import Assembly, assemble, disassemble_assembly
    from repro.lang import compile_source

    out = {}
    for name, source, include_corelib in freezer.programs():
        fresh = compile_source(source, include_corelib=include_corelib)
        out[name] = (fresh, Assembly.from_bytes(fresh.to_bytes()),
                     assemble(disassemble_assembly(fresh)))
    return out


def test_round_tripped_image_lowers_like_a_fresh_compile(freezer, images):
    """The verifier's stack facts travel with a serialized image (the
    compile cache's payload), and lower to the same MIR."""
    for name, (fresh, loaded, _rebuilt) in images.items():
        assert all(m._stack_facts is not None for m in loaded.all_methods()), name
        assert _clr_mir(freezer, loaded) == _clr_mir(freezer, fresh), name


def test_never_verified_image_lowers_like_a_fresh_compile(freezer, images):
    """An assembler-built image has no stack facts; lowering verifies each
    method on first use and gets the fresh compile's MIR."""
    for name, (fresh, _loaded, rebuilt) in images.items():
        assert all(m._stack_facts is None for m in rebuilt.all_methods()), name
        assert _clr_mir(freezer, rebuilt) == _clr_mir(freezer, fresh), name
