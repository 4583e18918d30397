"""Tier-1 coverage for the differential fuzzing subsystem.

Four properties are pinned here:

* the generator is deterministic (same seed -> same program),
* a small fixed-seed campaign runs the full ablation matrix clean,
* every saved corpus repro replays clean (regressions stay fixed),
* the oracle actually *detects* broken passes — injected bugs in the
  simplify and inline passes must each produce divergences (mutation
  check), otherwise a silently weakened oracle would pass CI forever.

The heavyweight campaign (``repro fuzz run --seed 42 --count 50``) and the
shrink-quality check live in CI, not here, to keep tier-1 fast.
"""

from pathlib import Path

import pytest

from repro.fuzz import (
    generate_program,
    inject_pass_bug,
    run_campaign,
    run_program,
    shrink_source,
)
from repro.fuzz.shrink import safe_predicate
from repro.lang import compile_source

CORPUS = Path(__file__).parent / "fuzz_corpus"
CORPUS_FILES = sorted(CORPUS.glob("*.cs"))

#: tiny order-sensitive program: Sub is small enough to inline on every
#: profile that inlines at all, and swapping its arguments changes Main's
#: return value (7 - 3*2 = 1 vs 3 - 7*2 = -11)
INLINE_WITNESS = """
class Fuzz {
    static int Sub(int a, int b) { return (a - (b * 2)); }
    static int Main() { return Sub(7, 3); }
}
"""


def test_generate_program_is_deterministic(rng_seed):
    first = generate_program(rng_seed, budget=20)
    second = generate_program(rng_seed, budget=20)
    assert first.source == second.source
    assert first.seed == second.seed == rng_seed


def test_small_campaign_is_clean():
    result = run_campaign(seed=42, count=5, budget=25)
    assert result.executed == 5
    assert not result.compile_failures, result.compile_failures
    assert result.ok, [
        str(d) for pr in result.failures for d in pr.divergences
    ]


def test_corpus_directory_is_populated():
    assert CORPUS_FILES, f"no corpus entries in {CORPUS}"


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
)
def test_corpus_replays_clean(path):
    divergences = run_program(path.read_text(), assembly_name=path.stem)
    assert not divergences, [str(d) for d in divergences]


def test_injected_simplify_bug_is_caught():
    witness = (CORPUS / "simplify_virtual_call.cs").read_text()
    with inject_pass_bug("simplify"):
        divergences = run_program(witness, assembly_name="mut_simplify")
    assert divergences, "broken constant folding went undetected"


def test_injected_inline_bug_is_caught():
    with inject_pass_bug("inline"):
        divergences = run_program(INLINE_WITNESS, assembly_name="mut_inline")
    assert divergences, "broken inliner argument binding went undetected"
    # profiles with inlining disabled must NOT be fooled by the inliner bug
    labels = {d.label for d in divergences}
    assert "mono-0.23" not in labels
    assert "sscli-1.0" not in labels


def test_shrinker_minimizes_while_preserving_predicate():
    padded = """
class Fuzz {
    static int Main()
    {
        int crc = 17;
        int junk = 5;
        junk = junk * 3;
        if (junk > 2) { crc = crc + 1; } else { crc = crc - 1; }
        VBase vv = new VBase();
        crc = vv.Vm(3);
        Console.WriteLine(junk);
        return crc;
    }
}
class VBase {
    virtual int Vm(int x)
    {
        return 3;
    }
}
"""

    def compiles_and_keeps_virtual_call(src):
        compile_source(src, assembly_name="shrink_t")
        return ".Vm(" in src

    small = shrink_source(
        padded, safe_predicate(compiles_and_keeps_virtual_call)
    )
    assert len(small) < len(padded)
    assert ".Vm(" in small
    # the junk arithmetic and the if/else must be gone
    assert "junk" not in small
    assert "if" not in small


class TestSafePredicateClassification:
    """Regression for the shrinker's failure handling: ``safe_predicate``
    used to swallow *every* exception, so a crashing oracle made the
    minimizer shrink toward "crashes the oracle" instead of "still
    reproduces the divergence"."""

    def test_toolchain_rejection_reads_as_false(self):
        from repro.errors import CompileError, ReproError

        def rejects(_src):
            raise CompileError("ill-typed candidate")

        assert safe_predicate(rejects)("class X {}") is False

        def verifier_refuses(_src):
            raise ReproError("reference interpreter failed")

        assert safe_predicate(verifier_refuses)("class X {}") is False

    def test_oracle_crash_propagates(self):
        def crashes(_src):
            raise RuntimeError("oracle bug: index out of range")

        with pytest.raises(RuntimeError, match="oracle bug"):
            safe_predicate(crashes)("class X {}")

    def test_shrink_reraises_mid_shrink_crash(self):
        """A predicate that accepts the initial program but crashes on a
        later candidate must abort the shrink loudly, not be treated as an
        uninteresting edit."""
        source = """
        class P {
            static int Main() {
                int junk = 40 + 2;
                int keep = junk;
                return keep;
            }
        }
        """
        seen = []

        def crash_after_first(src):
            seen.append(src)
            if len(seen) == 1:
                return True  # initial program holds
            raise ZeroDivisionError("engine crashed on a shrink candidate")

        with pytest.raises(ZeroDivisionError):
            shrink_source(source, safe_predicate(crash_after_first))
        assert len(seen) >= 2  # it really was a mid-shrink candidate
