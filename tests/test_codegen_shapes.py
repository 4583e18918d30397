"""Tests that the Kernel-C# code generator emits the IL *shapes* csc 7.10
produced — the paper's analysis (Tables 5-8) depends on these exact
patterns reaching the JITs."""

import pytest

from repro.cil import cts, opcodes as op
from repro.cil.disassembler import disassemble_body
from repro.lang import compile_source


def main_body(source, method="Main", cls=None):
    assembly = compile_source(source)
    if cls is None:
        m = assembly.entry_point or next(
            mm for c in assembly.classes.values() for mm in c.methods if mm.name == method
        )
    else:
        m = assembly.find_method(cls, method)
    return m


def mnemonics(method):
    return [i.mnemonic for i in method.body]


class TestLoopShapes:
    def test_for_loop_tests_at_bottom(self):
        m = main_body("""
            class P { static int Main() {
                int s = 0;
                for (int i = 0; i < 10; i++) { s += i; }
                return s;
            } }""")
        ops = mnemonics(m)
        # csc shape: unconditional br to the test, body first, blt back edge
        assert "br" in ops
        assert "blt" in ops
        br_index = ops.index("br")
        blt_index = ops.index("blt")
        assert m.body[blt_index].operand < blt_index  # backedge
        assert m.body[br_index].operand > br_index    # forward to the test

    def test_condition_uses_fused_compare_branch(self):
        m = main_body("""
            class P { static int Main(){ int x = 3; if (x < 5) { return 1; } return 0; } }""")
        ops = mnemonics(m)
        # comparisons in conditions use bge/blt forms, not clt+brtrue
        assert "clt" not in ops
        assert "bge" in ops or "blt" in ops

    def test_comparison_as_value_uses_compare_ops(self):
        m = main_body("""
            class P { static bool Main(){ int x = 3; bool b = x < 5; return b; } }""")
        assert "clt" in mnemonics(m)

    def test_division_loop_matches_paper_table5(self):
        m = main_body("""
            class P { static int Main() {
                int size = 10000;
                int i1 = int.MaxValue;
                int i2 = 3;
                for (int i = 0; i < size; i++) { i1 = i1 / i2; }
                return i1;
            } }""")
        text = "\n".join(disassemble_body(m))
        # the exact Table 5 extract: ldc 0x2710, 0x7fffffff, 3; ldloc/ldloc/div/stloc
        assert "ldc.i4       0x2710" in text
        assert "ldc.i4       0x7fffffff" in text
        assert "div" in text
        div_index = next(i for i, ins in enumerate(m.body) if ins.mnemonic == "div")
        assert m.body[div_index - 1].mnemonic == "ldloc"
        assert m.body[div_index - 2].mnemonic == "ldloc"
        assert m.body[div_index + 1].mnemonic == "stloc"


class TestExceptionShapes:
    def test_try_catch_finally_nesting(self):
        m = main_body("""
            class P { static int Main() {
                int x = 0;
                try { x = 1; }
                catch (Exception e) { x = 2; }
                finally { x += 10; }
                return x;
            } }""")
        kinds = [r.kind for r in m.regions]
        assert kinds.count("catch") == 1
        assert kinds.count("finally") == 1
        catch = next(r for r in m.regions if r.kind == "catch")
        fin = next(r for r in m.regions if r.kind == "finally")
        # finally wraps try+catch (outer region)
        assert fin.try_start <= catch.try_start
        assert fin.try_end >= catch.handler_end

    def test_leave_not_br_exits_protected_region(self):
        m = main_body("""
            class P { static void Main() {
                try { int x = 1; } finally { int y = 2; }
            } }""")
        ops = mnemonics(m)
        assert "leave" in ops
        assert "endfinally" in ops

    def test_return_inside_try_routes_through_local(self):
        m = main_body("""
            class P { static int Main() {
                try { return 5; } finally { int y = 2; }
            } }""")
        names = [v.name for v in m.locals]
        assert "$retval" in names

    def test_lock_lowered_to_monitor_pair_in_finally(self):
        m = main_body("""
            class P { static void Main() {
                object o = new Exception("x");
                lock (o) { int z = 1; }
            } }""")
        calls = [i.operand.name for i in m.body if i.mnemonic == "call"]
        assert "Enter" in calls and "Exit" in calls
        assert any(r.kind == "finally" for r in m.regions)


class TestCallShapes:
    SRC = """
    class A {
        int v;
        virtual int V() { return v; }
        int I() { return v; }
        static int S() { return 1; }
    }
    class P { static int Main() {
        A a = new A();
        return a.V() + a.I() + A.S();
    } }"""

    def test_dispatch_opcodes(self):
        m = main_body(self.SRC)
        pairs = [(i.mnemonic, i.operand.name) for i in m.body
                 if i.mnemonic in ("call", "callvirt")]
        assert ("callvirt", "V") in pairs
        assert ("call", "I") in pairs
        assert ("call", "S") in pairs

    def test_unused_return_value_popped(self):
        m = main_body("""
            class P {
                static int F() { return 3; }
                static void Main() { F(); }
            }""")
        ops = mnemonics(m)
        assert ops[ops.index("call") + 1] == "pop"


class TestValueTypeShapes:
    def test_struct_assignment_copies(self):
        m = main_body("""
            struct S { int v; }
            class P { static int Main() {
                S a = new S();
                S b = a;
                return b.v;
            } }""")
        assert "struct.copy" in mnemonics(m)

    def test_boxing_emitted_for_object_assignment(self):
        m = main_body("""
            class P { static int Main() {
                object o = 42;
                return (int)o;
            } }""")
        ops = mnemonics(m)
        assert "box" in ops and "unbox" in ops

    def test_md_array_opcodes(self):
        m = main_body("""
            class P { static double Main() {
                double[,] m2 = new double[2, 3];
                m2[1, 2] = 5.0;
                return m2[1, 2];
            } }""")
        ops = mnemonics(m)
        assert "newarr.md" in ops
        assert "ldelem.md" in ops and "stelem.md" in ops


class TestCctorAndInit:
    def test_static_initializers_become_cctor(self):
        assembly = compile_source("""
            class C { static int seed = 42; }
            class P { static int Main() { return C.seed; } }""")
        cctor = assembly.get_class("C").find_method(".cctor")
        assert cctor is not None
        assert any(i.mnemonic == "stsfld" for i in cctor.body)

    def test_instance_initializers_run_in_every_ctor(self):
        assembly = compile_source("""
            class C {
                int v = 7;
                C() { }
                C(int x) { v += x; }
            }
            class P { static int Main() {
                return new C().v + new C(1).v;
            } }""")
        for ctor in [m for m in assembly.get_class("C").methods if m.is_ctor]:
            assert any(i.mnemonic == "stfld" for i in ctor.body)

    def test_default_ctor_synthesized_when_needed(self):
        assembly = compile_source("""
            class C { int v = 3; }
            class P { static int Main() { return new C().v; } }""")
        assert assembly.get_class("C").find_method(".ctor") is not None


class TestImageDeterminism:
    PROGRAM = """
        class P { static int Main() {
            int s = 0;
            for (int i = 0; i < 10; i++) { int t = i * 2; s += t; }
            return s;
        } }"""

    def test_image_does_not_depend_on_earlier_compiles(self):
        from repro.cil import disassemble_assembly

        first = compile_source(self.PROGRAM)
        # other programs declare locals of their own in between
        for reps in (3, 4):
            compile_source(f"""
                class Q {{ static int Main() {{
                    int acc = 0;
                    for (int k = 0; k < {reps}; k++) {{ acc += k; }}
                    return acc;
                }} }}""")
        again = compile_source(self.PROGRAM)
        assert again.to_bytes() == first.to_bytes()
        assert disassemble_assembly(again) == disassemble_assembly(first)
