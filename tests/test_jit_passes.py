"""Unit tests for the JIT pass pipeline on hand-built and compiled MIR."""

import copy

import pytest

from repro.cil import assemble
from repro.jit import mir
from repro.jit.lowering import lower
from repro.jit.passes import (
    const_div_quirk,
    constant_fold,
    copy_propagate,
    dead_code_eliminate,
    eliminate_bounds_checks,
    enregister,
)
from repro.jit.pipeline import JitCompiler
from repro.lang import compile_source
from repro.runtimes import ALL_PROFILES, CLR11, MONO023, NATIVE_C, SSCLI10
from repro.vm.interpreter import Interpreter
from repro.vm.loader import LoadedAssembly
from repro.vm.machine import Machine


def compile_main(source, profile=CLR11):
    assembly = compile_source(source)
    jit = JitCompiler(LoadedAssembly(assembly), profile)
    return jit.compile(assembly.entry_point), assembly


def mir_ops(fn):
    return [ins.op for ins in fn.code]


class TestLowering:
    def test_straightline(self):
        fn, _ = compile_main("class P { static int Main() { return 1 + 2; } }",
                             profile=SSCLI10)  # no folding: see raw lowering
        ops = mir_ops(fn)
        assert mir.ADD in ops and mir.RET in ops

    def test_branch_targets_resolved(self):
        fn, _ = compile_main("""
            class P { static int Main() {
                int s = 0;
                for (int i = 0; i < 5; i++) { s += i; }
                return s;
            } }""", profile=SSCLI10)
        for ins in fn.code:
            if ins.target >= 0:
                assert 0 <= ins.target <= len(fn.code)

    def test_regions_mapped_to_mir(self):
        fn, _ = compile_main("""
            class P { static int Main() {
                try { throw new Exception("x"); }
                catch (Exception e) { return 1; }
            } }""", profile=SSCLI10)
        assert fn.regions
        region = fn.regions[0]
        assert region.kind == "catch"
        assert region.exc_vreg >= 0
        assert 0 <= region.try_start < region.try_end <= len(fn.code)

    def test_method_ends_with_terminator(self):
        fn, _ = compile_main("class P { static void Main() { } }")
        assert fn.code[-1].op in mir.TERMINATORS


class TestSimplifyPasses:
    def _lowered(self, source):
        assembly = compile_source(source)
        return lower(assembly.entry_point), assembly

    def test_copyprop_removes_stack_shuffle(self):
        src = """
        class P { static int Main() {
            int a = 1; int b = 2;
            int c = a + b;
            return c;
        } }"""
        fn, _ = self._lowered(src)
        raw_movs = sum(1 for i in fn.code if i.op == mir.MOV)
        copy_propagate(fn, CLR11)
        dead_code_eliminate(fn, CLR11)
        opt_movs = sum(1 for i in fn.code if i.op == mir.MOV)
        assert opt_movs < raw_movs

    def test_constant_fold_chains(self):
        fn, _ = self._lowered("class P { static int Main() { return 2 + 3 * 4; } }")
        constant_fold(fn, CLR11)
        copy_propagate(fn, CLR11)
        dead_code_eliminate(fn, CLR11)
        # the arithmetic should be folded away entirely
        assert not any(i.op in (mir.ADD, mir.MUL) for i in fn.code)

    def test_global_constant_visible_inside_loop(self):
        src = """
        class P { static int Main() {
            int d = 3;
            int x = 1000;
            for (int i = 0; i < 4; i++) { x = x / d; }
            return x;
        } }"""
        fn, _ = self._lowered(src)
        constant_fold(fn, CLR11)
        assert fn.stats.get("const_divisors"), "loop-invariant divisor not found"

    def test_dce_keeps_side_effects(self):
        src = """
        class P {
            static int calls;
            static int F() { calls++; return 1; }
            static void Main() { F(); }
        }"""
        assembly = compile_source(src)
        fn = lower(assembly.entry_point)
        before_calls = sum(1 for i in fn.code if i.op == mir.CALL)
        copy_propagate(fn, MONO023)
        dead_code_eliminate(fn, MONO023)
        assert sum(1 for i in fn.code if i.op == mir.CALL) == before_calls

    def test_passes_preserve_semantics(self):
        src = """
        class P { static long Main() {
            long acc = 7;
            int d = 3;
            for (int i = 1; i < 50; i++) {
                acc = acc * 31 + i;
                acc = acc / d;
                acc ^= i;
            }
            return acc;
        } }"""
        assembly = compile_source(src)
        expected = Interpreter(LoadedAssembly(assembly)).run()
        for profile in (CLR11, MONO023, SSCLI10, NATIVE_C):
            assert Machine(LoadedAssembly(assembly), profile).run() == expected


def _reads(ins):
    """vregs an instruction reads, spelled out independently of the pass."""
    if ins.op == mir.LDI:
        fields = []
    elif ins.op == mir.RET:
        fields = [ins.a]
    else:
        fields = [ins.a, ins.b, ins.c]
    return [v for v in fields if isinstance(v, int) and v >= 0] + list(ins.args or [])


_REFERENCE_PURE = (
    {mir.MOV, mir.LDI} | mir.ARITH | mir.COMPARES
    | {mir.NEG, mir.NOT, mir.CONV, mir.STRUCT_COPY}
)


def reference_dce(fn):
    """Dead-code elimination as a plain fixpoint: rescan the function,
    drop every pure non-argument write nobody reads, remap indices, and
    repeat until a round removes nothing."""
    while True:
        live = {v for ins in fn.code for v in _reads(ins)}
        keep = [
            not (ins.op in _REFERENCE_PURE and ins.dst >= fn.n_args and ins.dst not in live)
            for ins in fn.code
        ]
        if all(keep):
            return
        remap, kept = {}, []
        for i, ins in enumerate(fn.code):
            remap[i] = len(kept)
            if keep[i]:
                kept.append(ins)
        remap[len(fn.code)] = len(kept)
        for ins in kept:
            if ins.target >= 0:
                ins.target = remap[ins.target]
            if ins.op == mir.SWITCH:
                ins.extra = [remap[t] for t in ins.extra]
        for region in fn.regions:
            region.try_start = remap[region.try_start]
            region.try_end = remap.get(region.try_end, len(kept))
            region.handler_start = remap[region.handler_start]
            region.handler_end = remap.get(region.handler_end, len(kept))
        fn.code = kept


def _snapshot(fn):
    return (
        [(i.op, i.dst, i.a, i.b, i.c, i.args, i.target, i.extra) for i in fn.code],
        [(r.try_start, r.try_end, r.handler_start, r.handler_end) for r in fn.regions],
    )


def _dce_matches_reference(fn):
    expected = copy.deepcopy(fn)
    reference_dce(expected)
    dead_code_eliminate(fn)
    assert _snapshot(fn) == _snapshot(expected)
    return fn


def _function(code, n_args=1, regions=()):
    fn = mir.MIRFunction(full_name="T::F", n_args=n_args, code=code, regions=list(regions))
    fn.n_vregs = 1 + max([n_args] + [i.dst for i in code] + [v for i in code for v in _reads(i)])
    return fn


class TestDeadCodeElimination:
    def test_dead_mov_chain_removed(self):
        fn = _dce_matches_reference(_function([
            mir.MInstr(mir.LDI, dst=3, a=7),
            mir.MInstr(mir.MOV, dst=4, a=3),
            mir.MInstr(mir.MOV, dst=5, a=4),
            mir.MInstr(mir.ADD, dst=6, a=5, b=0),
            mir.MInstr(mir.MOV, dst=7, a=6),
            mir.MInstr(mir.RET, a=0),
        ]))
        assert [i.op for i in fn.code] == [mir.RET]

    def test_partly_live_chain_keeps_its_live_prefix(self):
        fn = _dce_matches_reference(_function([
            mir.MInstr(mir.LDI, dst=3, a=7),
            mir.MInstr(mir.MOV, dst=4, a=3),
            mir.MInstr(mir.MOV, dst=5, a=4),
            mir.MInstr(mir.STSFLD, c=4, extra=("C", 0)),
            mir.MInstr(mir.RET, a=-1),
        ]))
        assert [(i.op, i.dst) for i in fn.code] == [
            (mir.LDI, 3), (mir.MOV, 4), (mir.STSFLD, -1), (mir.RET, -1),
        ]

    def test_self_referencing_instruction_kept(self):
        code = [
            mir.MInstr(mir.LDI, dst=1, a=1),
            mir.MInstr(mir.LDI, dst=5, a=0),
            mir.MInstr(mir.ADD, dst=5, a=5, b=1),
            mir.MInstr(mir.RET, a=0),
        ]
        fn = _dce_matches_reference(_function(list(code)))
        assert fn.code == code

    def test_writes_to_arguments_kept(self):
        fn = _dce_matches_reference(_function([
            mir.MInstr(mir.LDI, dst=1, a=4),
            mir.MInstr(mir.LDI, dst=2, a=4),
            mir.MInstr(mir.RET, a=-1),
        ], n_args=2))
        assert [(i.op, i.dst) for i in fn.code] == [(mir.LDI, 1), (mir.RET, -1)]

    def test_side_effects_kept(self):
        fn = _dce_matches_reference(_function([
            mir.MInstr(mir.LDI, dst=2, a=3),
            mir.MInstr(mir.CALL, dst=4, extra=(None, False), args=[2]),
            mir.MInstr(mir.LDFLD, dst=5, a=0, extra=("C", "f")),
            mir.MInstr(mir.LDELEM, dst=6, a=0, b=2),
            mir.MInstr(mir.RET, a=-1),
        ]))
        assert [i.op for i in fn.code] == [mir.LDI, mir.CALL, mir.LDFLD, mir.LDELEM, mir.RET]

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
    def test_dead_ldlen_kept(self, profile):
        # ldlen on a null array throws even when the length is never read
        src = """class P {
            static int Len(int[] a) { int n = a.Length; return 3; }
            static int Main() { return Len(null); } }"""
        assembly = compile_source(src)
        with pytest.raises(Exception, match="NullReferenceException"):
            Machine(LoadedAssembly(assembly), profile).run()

    @pytest.mark.xfail(strict=True, reason="known defect: DIV is in the pure set, so a dead "
                       "division that would raise is removed (fixing it moves compiled code)")
    def test_dead_division_kept(self):
        src = """class P {
            static int Div(int a, int b) { int x = a / b; return 3; }
            static int Main() { return Div(1, 0); } }"""
        assembly = compile_source(src)
        with pytest.raises(Exception, match="DivideByZeroException"):
            Machine(LoadedAssembly(assembly), CLR11).run()

    def test_targets_switch_and_regions_remapped(self):
        dead = lambda v: mir.MInstr(mir.LDI, dst=v, a=0)  # noqa: E731
        code = [
            dead(10),                                       # 0 removed
            mir.MInstr(mir.LDI, dst=2, a=1),                # 1 -> 0
            dead(11),                                       # 2 removed
            mir.MInstr(mir.SWITCH, a=2, extra=[2, 5, 9]),   # 3 -> 1
            mir.MInstr(mir.MOV, dst=12, a=2),               # 4 removed
            mir.MInstr(mir.JEQ, a=2, b=0, target=0),        # 5 -> 2
            dead(13),                                       # 6 removed (try start)
            mir.MInstr(mir.STSFLD, c=2, extra=("C", 0)),    # 7 -> 3
            mir.MInstr(mir.LEAVE, target=12),               # 8 -> 4
            dead(14),                                       # 9 removed (handler)
            mir.MInstr(mir.MOV, dst=15, a=2),               # 10 removed
            mir.MInstr(mir.ENDFINALLY),                     # 11 -> 5
            mir.MInstr(mir.RET, a=2),                       # 12 -> 6
        ]
        region = mir.MIRRegion("finally", try_start=6, try_end=9,
                               handler_start=9, handler_end=13)
        late = mir.MIRRegion("finally", try_start=12, try_end=20,
                             handler_start=13, handler_end=20)
        fn = _dce_matches_reference(_function(code, regions=[region, late]))
        assert len(fn.code) == 7
        assert fn.code[1].extra == [1, 2, 5]
        assert fn.code[2].target == 0
        assert fn.code[4].target == 6
        assert (region.try_start, region.try_end, region.handler_start, region.handler_end) == (3, 5, 5, 7)
        assert (late.try_start, late.try_end, late.handler_start, late.handler_end) == (6, 7, 7, 7)

    def test_nothing_dead_leaves_function_untouched(self):
        code = [mir.MInstr(mir.LDI, dst=2, a=1), mir.MInstr(mir.RET, a=2)]
        fn = _function(list(code))
        dead_code_eliminate(fn)
        assert fn.code == code

    @pytest.mark.parametrize("profile", [CLR11, MONO023], ids=lambda p: p.name)
    def test_matches_reference_on_compiled_benchmarks(self, profile):
        from repro.benchmarks.registry import get

        for name in ("micro.arith", "scimark.lu", "grande.crypt", "micro.exception"):
            assembly = compile_source(get(name).build_source())
            for method in assembly.all_methods():
                if not method.body:
                    continue
                fn = lower(method)
                constant_fold(fn, profile)
                copy_propagate(fn, profile)
                _dce_matches_reference(fn)


class TestGlobalConstants:
    def consts(self, code, n_args=1):
        from repro.jit.passes.simplify import _global_constants

        return _global_constants(_function(code, n_args=n_args))

    def test_mov_chain_resolved_in_code_order(self):
        assert self.consts([
            mir.MInstr(mir.LDI, dst=2, a=7),
            mir.MInstr(mir.MOV, dst=3, a=2),
            mir.MInstr(mir.MOV, dst=4, a=3),
            mir.MInstr(mir.ADD, dst=5, a=4, b=3),
            mir.MInstr(mir.RET, a=5),
        ]) == {2: 7, 3: 7, 4: 7}

    def test_redefined_used_early_and_r4_excluded(self):
        assert self.consts([
            mir.MInstr(mir.LDI, dst=2, a=1),
            mir.MInstr(mir.LDI, dst=2, a=2),           # second def
            mir.MInstr(mir.ADD, dst=3, a=4, b=0),      # reads v4 first
            mir.MInstr(mir.LDI, dst=4, a=3),
            mir.MInstr(mir.LDI, dst=5, a=1.5, kind="r4"),
            mir.MInstr(mir.MOV, dst=6, a=2),           # source not constant
            mir.MInstr(mir.LDI, dst=7, a=9),
            mir.MInstr(mir.RET, a=3),
        ]) == {7: 9}

    def test_forward_branch_spans_exclude_skippable_defs(self):
        assert self.consts([
            mir.MInstr(mir.JTRUE, a=0, target=3),
            mir.MInstr(mir.LDI, dst=2, a=1),           # skippable
            mir.MInstr(mir.LDI, dst=3, a=2),           # skippable
            mir.MInstr(mir.LDI, dst=4, a=3),           # the target: always runs
            mir.MInstr(mir.SWITCH, a=0, extra=[4, 6]),
            mir.MInstr(mir.LDI, dst=5, a=4),           # skippable by the switch
            mir.MInstr(mir.LDI, dst=6, a=5),
            mir.MInstr(mir.JMP, target=1),             # backward: spans nothing
            mir.MInstr(mir.RET, a=-1),
        ]) == {4: 3, 6: 5}


class TestBoundsCheckPass:
    def _compiled(self, source, profile):
        assembly = compile_source(source)
        return JitCompiler(LoadedAssembly(assembly), profile).compile(assembly.entry_point)

    LENGTH_LOOP = """
    class P { static int Main() {
        int[] a = new int[64];
        int s = 0;
        for (int i = 0; i < a.Length; i++) { s += a[i]; }
        return s;
    } }"""

    def test_eliminates_on_length_pattern(self):
        fn = self._compiled(self.LENGTH_LOOP, CLR11)
        assert fn.stats.get("bce_eliminated", 0) >= 1

    def test_not_on_local_bound(self):
        src = self.LENGTH_LOOP.replace("i < a.Length", "i < 64")
        fn = self._compiled(src, CLR11)
        assert fn.stats.get("bce_eliminated", 0) == 0

    def test_not_when_counter_mutated_oddly(self):
        src = """
        class P { static int Main() {
            int[] a = new int[64];
            int s = 0;
            for (int i = 0; i < a.Length; i++) {
                s += a[i];
                if (s > 100000) { i = i * 2; }
            }
            return s;
        } }"""
        fn = self._compiled(src, CLR11)
        assert fn.stats.get("bce_eliminated", 0) == 0

    def test_not_when_array_reassigned_in_loop(self):
        src = """
        class P { static int Main() {
            int[] a = new int[64];
            int s = 0;
            for (int i = 0; i < a.Length; i++) {
                s += a[i];
                a = new int[64];
            }
            return s;
        } }"""
        fn = self._compiled(src, CLR11)
        assert fn.stats.get("bce_eliminated", 0) == 0

    def test_native_clears_all_checks(self):
        fn = self._compiled(self.LENGTH_LOOP, NATIVE_C)
        for ins in fn.code:
            if ins.op in (mir.LDELEM, mir.STELEM):
                assert not ins.bounds_check

    def test_semantics_preserved_with_bce(self):
        # out-of-range access must still throw even when checks are "free"
        src = """
        class P { static int Main() {
            int[] a = new int[4];
            try { return a[9]; }
            catch (IndexOutOfRangeException e) { return -1; }
        } }"""
        for profile in (CLR11, NATIVE_C):
            assembly = compile_source(src)
            assert Machine(LoadedAssembly(assembly), profile).run() == -1


class TestEnregisterPass:
    def test_immediates_do_not_consume_budget(self):
        src = """
        class P { static int Main() {
            int s = 0;
            for (int i = 0; i < 100; i++) { s += 12345; }
            return s;
        } }"""
        assembly = compile_source(src)
        fn = JitCompiler(LoadedAssembly(assembly), CLR11).compile(assembly.entry_point)
        assert fn.stats.get("immediates", 0) >= 1

    def test_rotor_keeps_constants_in_memory(self):
        src = "class P { static int Main() { return 1 + 2; } }"
        assembly = compile_source(src)
        fn = JitCompiler(LoadedAssembly(assembly), SSCLI10).compile(assembly.entry_point)
        assert fn.stats.get("immediates", 0) == 0
        assert not any(fn.in_register)

    def test_64_local_tracking_limit(self):
        # 70 padding locals seeded from a non-constant so they survive
        # constant propagation; the hot accumulator lands at local slot 70
        decls = "\n".join(f"int v{i} = seed + {i};" for i in range(70))
        use = " + ".join(f"v{i}" for i in range(70))
        src = f"""
        class P {{ static int Main() {{
            int seed = Env.ThreadCount();
            {decls}
            int hot = 0;
            for (int i = 0; i < 100; i++) {{ hot += v69; }}
            return hot + {use};
        }} }}"""
        assembly = compile_source(src)
        fn_limited = JitCompiler(LoadedAssembly(assembly), CLR11).compile(assembly.entry_point)
        hot_slot = next(
            i for i, lv in enumerate(assembly.entry_point.locals)
            if lv.name.startswith("hot")
        )
        assert hot_slot >= 64
        # beyond the 64-local tracking window: stays in the frame on CLR 1.1
        assert not fn_limited.in_register[fn_limited.n_args + hot_slot]
        unlimited = CLR11.with_jit(max_tracked_locals=10_000)
        assembly2 = compile_source(src)
        fn_free = JitCompiler(LoadedAssembly(assembly2), unlimited).compile(assembly2.entry_point)
        assert fn_free.in_register[fn_free.n_args + hot_slot]


class TestInlinePass:
    SRC = """
    class P {
        static int Add(int a, int b) { return a + b; }
        static int Main() {
            int s = 0;
            for (int i = 0; i < 20; i++) { s = Add(s, i); }
            return s;
        }
    }"""

    def test_clr_inlines_and_preserves_result(self):
        assembly = compile_source(self.SRC)
        fn = JitCompiler(LoadedAssembly(assembly), CLR11).compile(assembly.entry_point)
        assert fn.stats.get("inlined_calls", 0) >= 1
        assert not any(ins.op == mir.CALL for ins in fn.code)
        assert Machine(LoadedAssembly(compile_source(self.SRC)), CLR11).run() == sum(range(20))

    def test_virtual_calls_not_inlined(self):
        src = """
        class A { virtual int F() { return 1; } }
        class P { static int Main() {
            A a = new A();
            return a.F();
        } }"""
        assembly = compile_source(src)
        fn = JitCompiler(LoadedAssembly(assembly), CLR11).compile(assembly.entry_point)
        assert any(ins.op == mir.CALL for ins in fn.code)

    def test_recursive_methods_not_inlined_into_themselves(self):
        src = """
        class P {
            static int Fib(int n) { return n < 2 ? n : Fib(n - 1) + Fib(n - 2); }
            static int Main() { return Fib(10); }
        }"""
        assert Machine(LoadedAssembly(compile_source(src)), CLR11).run() == 55


class TestQuirkPass:
    def test_staged_divisor_never_enregistered(self):
        src = """
        class P { static int Main() {
            int d = 7;
            int x = 1000000;
            for (int i = 0; i < 5; i++) { x = x / d; }
            return x;
        } }"""
        assembly = compile_source(src)
        fn = JitCompiler(LoadedAssembly(assembly), CLR11).compile(assembly.entry_point)
        staged = fn.stats.get("force_spill", set())
        assert staged
        for v in staged:
            assert not fn.in_register[v]

    def test_quirk_preserves_value(self):
        src = """
        class P { static int Main() {
            int d = 7;
            int x = 1000000;
            for (int i = 0; i < 5; i++) { x = x / d; }
            return x;
        } }"""
        expected = Interpreter(LoadedAssembly(compile_source(src))).run()
        assert Machine(LoadedAssembly(compile_source(src)), CLR11).run() == expected


class TestInlineCandidateCache:
    """Regression: a failed ``resolve_method`` must be cached as a negative
    answer, not re-resolved on every call site.  The cache used to do a
    ``get(key) or miss-path`` double lookup in which a stored ``None``
    (a *cached* negative) was indistinguishable from "never looked up"."""

    SRC = "class P { static int Main() { return 1; } }"

    def _jit_with_counting_resolver(self, fail=True):
        from repro.errors import CilError

        assembly = compile_source(self.SRC)
        loaded = LoadedAssembly(assembly)
        calls = []

        def resolver(ref):
            calls.append(ref)
            raise CilError(f"unresolvable: {ref.class_name}::{ref.name}")

        loaded.resolve_method = resolver
        return JitCompiler(loaded, CLR11), calls

    def test_failed_resolve_is_cached_negative(self):
        from repro.cil import cts
        from repro.cil.instructions import MethodRef

        jit, calls = self._jit_with_counting_resolver()
        ref = MethodRef("C", "Helper", (cts.INT32,), cts.INT32)
        assert jit._inline_candidate(ref) is None
        assert jit._inline_candidate(ref) is None
        assert len(calls) == 1, (
            "resolve_method ran %d times for one unresolvable ref; the "
            "negative result must be served from the inline cache" % len(calls)
        )

    def test_distinct_refs_resolve_independently(self):
        from repro.cil import cts
        from repro.cil.instructions import MethodRef

        jit, calls = self._jit_with_counting_resolver()
        a = MethodRef("C", "Helper", (cts.INT32,), cts.INT32)
        b = MethodRef("C", "Helper", (cts.FLOAT64,), cts.INT32)
        jit._inline_candidate(a)
        jit._inline_candidate(b)
        jit._inline_candidate(a)
        jit._inline_candidate(b)
        assert len(calls) == 2  # one per distinct (class, name, signature)
