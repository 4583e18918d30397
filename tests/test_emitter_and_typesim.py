"""Tests for the pseudo-x86 emitter and the verifier's stack facts."""

import pytest

from repro.cil import cts, opcodes as op
from repro.cil.verifier import kind_of, stack_facts
from repro.jit.emitter import render_x86
from repro.jit.pipeline import JitCompiler
from repro.lang import compile_source
from repro.runtimes import CLR11, IBM131, MONO023, NATIVE_C, SSCLI10
from repro.vm.loader import LoadedAssembly

DIV_LOOP = """
class P { static int Main() {
    int size = 1000;
    int i1 = int.MaxValue;
    int i2 = 3;
    for (int i = 0; i < size; i++) {
        i1 = i1 / i2;
        if (i1 == 0) { i1 = int.MaxValue; }
    }
    return i1;
} }"""


def render(profile, source=DIV_LOOP):
    assembly = compile_source(source)
    fn = JitCompiler(LoadedAssembly(assembly), profile).compile(assembly.entry_point)
    return render_x86(fn, profile)


class TestEmitter:
    def test_clr_uses_registers_and_stages_constant(self):
        text = render(CLR11)
        assert "cdq" in text
        assert "idiv" in text
        # constant staged through a frame slot (the Table 6 quirk)
        assert "idiv    eax, dword ptr [ebp-" in text

    def test_ibm_keeps_division_in_registers(self):
        text = render(IBM131)
        assert "cdq" in text
        # divisor in a register (mov ecx, 3 then idiv eax, ecx)
        assert "mov     ecx, 3" in text
        assert "idiv    eax, ecx" in text

    def test_sscli_emulates_cdq(self):
        text = render(SSCLI10)
        assert "cdq" not in text.replace("sar", "")  # no real cdq emitted
        assert "sar     edx, 0x1f" in text

    def test_sscli_all_memory_traffic(self):
        text = render(SSCLI10)
        # everything staged through [ebp-...] slots
        assert text.count("[ebp-") > render(CLR11).count("[ebp-")

    def test_mono_between_the_two(self):
        mono = render(MONO023).count("[ebp-")
        clr = render(CLR11).count("[ebp-")
        sscli = render(SSCLI10).count("[ebp-")
        assert clr <= mono <= sscli

    def test_bounds_checks_rendered_when_present(self):
        src = """
        class P { static int Main() {
            int[] a = new int[8];
            int n = 8;
            int s = 0;
            for (int i = 0; i < n; i++) { s += a[i]; }
            return s;
        } }"""
        with_checks = render(MONO023, src)
        assert "jae     throw_range" in with_checks
        without = render(NATIVE_C, src)
        assert "jae     throw_range" not in without

    def test_header_reports_stats(self):
        text = render(CLR11)
        assert "enregistered" in text and "immediates" in text

    def test_labels_emitted_for_targets(self):
        text = render(CLR11)
        assert any(line.startswith("L") and line.endswith(":") for line in text.splitlines())


class TestTypesim:
    def _main(self, source):
        return compile_source(source).entry_point

    def test_kinds_for_arithmetic(self):
        method = self._main("""
            class P { static double Main() {
                int a = 1 + 2;
                long b = 3L * 4L;
                float c = 1.5f + 2.5f;
                double d = a + b + c + 0.5;
                return d;
            } }""")
        kinds = stack_facts(method).kinds
        found = set(kinds.values())
        assert {"i4", "i8", "r4", "r8"} <= found

    def test_conv_records_source_kind(self):
        method = self._main("""
            class P { static int Main() { double d = 2.9; return (int)d; } }""")
        kinds = stack_facts(method).kinds
        conv_kinds = [
            kinds[i] for i, ins in enumerate(method.body)
            if ins.opcode == op.CONV_I4
        ]
        assert "r8" in conv_kinds

    def test_shapes_at_merge_points(self):
        method = self._main("""
            class P { static int Main() {
                int x = 5;
                int y = x > 3 ? 10 : 20;
                return y;
            } }""")
        depths = stack_facts(method).depths
        # the ternary merge point carries one value on the stack
        assert any(d == 1 for d in depths.values())

    def test_kind_of_types(self):
        assert kind_of(cts.INT32) == "i4"
        assert kind_of(cts.BOOL) == "i4"
        assert kind_of(cts.INT64) == "i8"
        assert kind_of(cts.FLOAT32) == "r4"
        assert kind_of(cts.FLOAT64) == "r8"
        assert kind_of(cts.STRING) == "ref"
        assert kind_of(cts.array_of(cts.INT32)) == "ref"

    def test_annotation_cached(self):
        method = self._main("class P { static int Main() { return 1; } }")
        first = stack_facts(method)
        assert stack_facts(method) is first
