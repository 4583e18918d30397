"""Property-based tests (hypothesis) on core invariants.

* primitive value semantics (wrapping, float32 rounding) behave like
  two's-complement / IEEE-754 hardware;
* the guest RNGs match their reference implementations on any seed;
* IDEA en/decryption round-trips for arbitrary keys and plaintexts;
* randomly generated arithmetic expressions evaluate identically in the
  reference interpreter and the measured engine on every profile tier —
  the compile-once/run-everywhere invariant, fuzzed;
* the threaded engine's superinstruction fuser obeys its safety rules on
  arbitrary MIR shapes (never fuses into a branch target, an exception
  region boundary, or anything when a fault injector is armed), and fused
  execution is bit-identical to unfused and classic execution — state
  *and* cycles — on random programs.
"""

import math
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchmarks.scimark.common import PySciRandom
from repro.reference.grande_ref import (
    _idea_inv,
    _idea_mul,
    idea_cipher,
    idea_decryption_key,
    idea_encryption_key,
)
from repro.vm import values
from repro.vm.intrinsics import JavaRandom

ints = st.integers(min_value=-(2**70), max_value=2**70)


class TestValueSemantics:
    @given(ints)
    def test_i32_range_and_idempotence(self, v):
        w = values.i32(v)
        assert -(2**31) <= w < 2**31
        assert values.i32(w) == w
        assert (w - v) % (2**32) == 0

    @given(ints)
    def test_i64_range_and_idempotence(self, v):
        w = values.i64(v)
        assert -(2**63) <= w < 2**63
        assert values.i64(w) == w
        assert (w - v) % (2**64) == 0

    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_i32_identity_in_range(self, v):
        assert values.i32(v) == v

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_r4_fixed_point_on_float32(self, v):
        # values already representable in float32 are unchanged
        assert values.r4(v) == v

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_r4_matches_struct_round_trip(self, v):
        try:
            expected = struct.unpack("f", struct.pack("f", v))[0]
        except OverflowError:
            expected = math.inf if v > 0 else -math.inf
        assert values.r4(v) == expected or (
            math.isnan(values.r4(v)) and math.isnan(expected)
        )

    @given(st.floats())
    def test_float_to_i32_always_in_range(self, v):
        w = values.float_to_i32(v)
        assert -(2**31) <= w < 2**31

    @given(st.floats(min_value=-(2.0**31) + 1, max_value=2.0**31 - 1,
                     allow_nan=False))
    def test_float_to_i32_truncates_toward_zero(self, v):
        assert values.float_to_i32(v) == int(v)

    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_small_int_wraps_compose(self, v):
        assert values.i8(values.i8(v)) == values.i8(v)
        assert 0 <= values.u8(v) < 256
        assert 0 <= values.u16(v) < 65536


class TestGuestRandoms:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_java_random_deterministic_per_seed(self, seed):
        a = JavaRandom(seed)
        b = JavaRandom(seed)
        for _ in range(5):
            assert a.next_double() == b.next_double()

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_java_random_in_unit_interval(self, seed):
        rng = JavaRandom(seed)
        for _ in range(10):
            assert 0.0 <= rng.next_double() < 1.0

    @given(st.integers(min_value=1, max_value=2**31 - 1))
    def test_sci_random_in_unit_interval(self, seed):
        rng = PySciRandom(seed)
        for _ in range(20):
            x = rng.next_double()
            assert 0.0 <= x < 1.0

    @given(st.integers(min_value=1, max_value=2**31 - 1))
    def test_sci_random_state_table_bounds(self, seed):
        rng = PySciRandom(seed)
        assert len(rng.m) == 17
        for _ in range(40):
            rng.next_double()
        assert all(0 <= v <= rng.m1 for v in rng.m)


class TestIdeaCipher:
    @given(st.integers(min_value=0, max_value=65536))
    def test_mul_inverse_property(self, x):
        x &= 65535
        inv = _idea_inv(x)
        if x != 0:
            assert _idea_mul(x, inv) == 1

    @given(st.lists(st.integers(min_value=0, max_value=65535), min_size=8, max_size=8))
    def test_round_trip_any_key(self, user_key):
        z = idea_encryption_key(user_key)
        dk = idea_decryption_key(z)
        plain = [(i * 997 + 3) & 65535 for i in range(16)]
        assert idea_cipher(idea_cipher(plain, z), dk) == plain

    @given(
        st.lists(st.integers(min_value=0, max_value=65535), min_size=4, max_size=32),
    )
    def test_round_trip_any_plaintext(self, words):
        words = words[: len(words) - len(words) % 4]
        if not words:
            words = [1, 2, 3, 4]
        key = [7, 11, 13, 17, 19, 23, 29, 31]
        z = idea_encryption_key(key)
        dk = idea_decryption_key(z)
        assert idea_cipher(idea_cipher(words, z), dk) == words


# --------------------------------------------------------------------------
# fuzzing the full pipeline: random expressions, every profile tier
# --------------------------------------------------------------------------

_int_atoms = st.sampled_from(["3", "7", "11", "x", "y", "100", "-5"])


@st.composite
def int_expressions(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(_int_atoms)
    op = draw(st.sampled_from(["+", "-", "*", "/", "%", "&", "|", "^"]))
    left = draw(int_expressions(depth=depth + 1))
    right = draw(int_expressions(depth=depth + 1))
    if op in ("/", "%"):
        right = f"(({right}) | 1)"  # keep divisors nonzero
    return f"(({left}) {op} ({right}))"


def _py_eval_c_semantics(expr, x, y):
    """Evaluate the expression with C#-int32 semantics (wrap, truncating
    division) by walking Python's ast over the same source text."""
    import ast

    from repro.vm.values import i32

    def cdiv(a, b):
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return i32(-walk(node.operand))
        if isinstance(node, ast.BinOp):
            a = walk(node.left)
            b = walk(node.right)
            if isinstance(node.op, ast.Add):
                return i32(a + b)
            if isinstance(node.op, ast.Sub):
                return i32(a - b)
            if isinstance(node.op, ast.Mult):
                return i32(a * b)
            if isinstance(node.op, ast.Div):
                return i32(cdiv(a, b))
            if isinstance(node.op, ast.Mod):
                return i32(a - cdiv(a, b) * b)
            if isinstance(node.op, ast.BitAnd):
                return i32(a & b)
            if isinstance(node.op, ast.BitOr):
                return i32(a | b)
            if isinstance(node.op, ast.BitXor):
                return i32(a ^ b)
        raise AssertionError(f"unexpected node {ast.dump(node)}")

    tree = ast.parse(expr.replace("x", str(x)).replace("y", str(y)), mode="eval")
    return walk(tree)


class TestExpressionFuzz:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        int_expressions(),
        st.integers(min_value=-1000, max_value=1000),
        st.integers(min_value=-1000, max_value=1000),
    )
    def test_random_int_expression_all_engines_agree(self, expr, x, y):
        from repro.lang import compile_source
        from repro.runtimes import CLR11, NATIVE_C, SSCLI10
        from repro.vm.interpreter import Interpreter
        from repro.vm.loader import LoadedAssembly
        from repro.vm.machine import Machine

        source = f"""
        class P {{ static int Main() {{
            int x = {x}; int y = {y};
            return {expr};
        }} }}"""
        assembly = compile_source(source)
        expected = _py_eval_c_semantics(expr, x, y)
        got_interp = Interpreter(LoadedAssembly(assembly)).run()
        assert got_interp == expected, f"interpreter: {expr=}"
        for profile in (NATIVE_C, CLR11, SSCLI10):
            got = Machine(LoadedAssembly(assembly), profile).run()
            assert got == expected, f"{profile.name}: {expr=}"

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        int_expressions(),
        st.integers(min_value=-1000, max_value=1000),
        st.integers(min_value=-1000, max_value=1000),
    )
    def test_fused_unfused_classic_identical_state_and_cycles(self, expr, x, y):
        """Random straight-line arithmetic (dense fusable runs, division
        included): the threaded engine with fusion, without fusion, and
        the classic loop agree on result, cycles, and instruction count
        bit for bit."""
        from repro.lang import compile_source
        from repro.runtimes import CLR11, NATIVE_C, SSCLI10
        from repro.vm.loader import LoadedAssembly
        from tests.conftest import use_engine

        source = f"""
        class P {{ static int Main() {{
            int x = {x}; int y = {y};
            int a = {expr};
            int b = ((a * 3) ^ (x + y));
            double d = ((a * 0.5) + (b * 0.25));
            return ((a + b) ^ (a - b)) + ((int) d);
        }} }}"""
        assembly = compile_source(source)
        for profile in (NATIVE_C, CLR11, SSCLI10):
            prints = {}
            for engine in ("classic", "threaded", "unfused"):
                with use_engine(engine) as machine_class:
                    machine = machine_class(LoadedAssembly(assembly), profile)
                    result = machine.run()
                prints[engine] = (
                    repr(result), repr(machine.cycles), machine.instructions
                )
            assert prints["threaded"] == prints["classic"], (
                f"{profile.name}: {expr=}"
            )
            assert prints["unfused"] == prints["classic"], (
                f"{profile.name}: {expr=}"
            )


# --------------------------------------------------------------------------
# the superinstruction fuser: safety rules on arbitrary MIR shapes
# --------------------------------------------------------------------------


def _mir_modules():
    from repro.jit import mir
    from repro.vm import dispatch

    return mir, dispatch


def _synthetic_code(mir, ops):
    return [mir.MInstr(op=op) for op in ops]


_fusable_ops = st.sampled_from((
    "MOV", "LDI", "ADD", "MUL", "DIV", "CEQ",
    "LDELEM", "STELEM", "LDFLD", "STFLD", "LDLEN",
))
_terminal_ops = st.sampled_from(("JMP", "JTRUE", "JEQ"))
_opaque_ops = st.sampled_from(("CALL", "RET", "NEWARR", "NEWOBJ", "THROW"))
_any_ops = st.one_of(_fusable_ops, _terminal_ops, _opaque_ops)


class TestFusePlan:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(_any_ops, min_size=0, max_size=24),
        st.sets(st.integers(min_value=0, max_value=23)),
        st.integers(min_value=2, max_value=16),
    )
    def test_plan_obeys_all_safety_rules(self, ops, targets, max_run):
        mir, dispatch = _mir_modules()
        code = _synthetic_code(mir, [getattr(mir, o) for o in ops])
        regions = []
        if len(code) >= 4:
            regions.append(mir.MIRRegion(
                kind="catch", try_start=1, try_end=2,
                handler_start=len(code) - 2, handler_end=len(code) - 1,
            ))
        plan = dispatch.fuse_plan(code, regions, frozenset(targets),
                                  faults_armed=False, max_run=max_run)
        edges = set()
        for reg in regions:
            edges.update((reg.try_start, reg.try_end,
                          reg.handler_start, reg.handler_end))
        boundaries = edges | set(targets)
        prev_end = 0
        for start, length in plan:
            # non-overlapping, in order, and within bounds
            assert start >= prev_end
            assert 2 <= length <= max_run
            assert start + length <= len(code)
            prev_end = start + length
            # every element but the last always falls through
            for k in range(length - 1):
                assert code[start + k].op in dispatch.FUSABLE_FIRST
            assert code[start + length - 1].op in dispatch.FUSABLE_SECOND
            # no interior element is a branch target or an exception
            # region boundary; the last may be a branch target only as a
            # loop latch (a conditional jump), never a region boundary.
            # A side entry lands on the latch's own closure.
            for k in range(1, length - 1):
                assert start + k not in boundaries, (start, length, k)
            last = start + length - 1
            assert last not in edges, (start, length)
            if last in boundaries:
                assert code[last].op in mir.COND_JUMPS, (start, length)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_fusable_ops, min_size=2, max_size=12))
    def test_fault_armed_site_is_never_fused(self, ops):
        mir, dispatch = _mir_modules()
        code = _synthetic_code(mir, [getattr(mir, o) for o in ops])
        assert dispatch.fuse_plan(code, [], frozenset(), faults_armed=True) == []
        # ... while the same shape without a fault injector fuses fully
        plan = dispatch.fuse_plan(code, [], frozenset(), faults_armed=False)
        assert plan and plan[0] == (0, min(len(code), dispatch.MAX_FUSE_RUN))

    def test_branch_target_splits_a_run(self):
        mir, dispatch = _mir_modules()
        code = _synthetic_code(mir, [mir.ADD] * 6)
        whole = dispatch.fuse_plan(code, [], frozenset(), faults_armed=False)
        assert whole == [(0, 6)]
        split = dispatch.fuse_plan(code, [], frozenset({3}), faults_armed=False)
        assert split == [(0, 3), (3, 3)]

    def test_latch_at_branch_target_ends_a_run(self):
        mir, dispatch = _mir_modules()
        # a bottom-tested loop: the increment falls into the latch at 3,
        # which the loop entry jumps to
        code = _synthetic_code(mir, [mir.ADD, mir.ADD, mir.ADD, mir.JLT, mir.ADD, mir.ADD])
        plan = dispatch.fuse_plan(code, [], frozenset({0, 3}), faults_armed=False)
        assert plan == [(0, 4), (4, 2)]
        # an unconditional jump at a branch target still dispatches alone
        code[3] = mir.MInstr(op=mir.JMP)
        plan = dispatch.fuse_plan(code, [], frozenset({0, 3}), faults_armed=False)
        assert plan == [(0, 3), (4, 2)]
        # ... and so does a latch on an exception region boundary
        code[3] = mir.MInstr(op=mir.JLT)
        region = mir.MIRRegion(kind="finally", try_start=0, try_end=3,
                               handler_start=4, handler_end=6)
        plan = dispatch.fuse_plan(code, [region], frozenset({3}), faults_armed=False)
        assert plan == [(0, 3), (4, 2)]

    def test_handler_boundary_splits_a_run(self):
        mir, dispatch = _mir_modules()
        code = _synthetic_code(mir, [mir.ADD] * 6)
        region = mir.MIRRegion(kind="finally", try_start=0, try_end=2,
                               handler_start=4, handler_end=6)
        plan = dispatch.fuse_plan(code, [region], frozenset(),
                                  faults_armed=False)
        for start, length in plan:
            for k in range(1, length):
                assert start + k not in (0, 2, 4, 6)

    @pytest.mark.parametrize("bench,cls,method", [
        ("scimark.sor", "SOR", "Execute"),
        ("scimark.lu", "LU", "Factor"),
    ])
    @pytest.mark.parametrize("profile", ["native-c", "clr-1.1"])
    def test_inner_loop_array_accesses_are_fused(self, bench, cls, method, profile):
        from repro.benchmarks.registry import get
        from repro.jit.pipeline import JitCompiler
        from repro.lang import compile_source
        from repro.runtimes import get_profile
        from repro.vm.loader import LoadedAssembly

        mir, dispatch = _mir_modules()
        assembly = compile_source(get(bench).build_source())
        jit = JitCompiler(LoadedAssembly(assembly), get_profile(profile))
        fn = jit.compile(assembly.find_method(cls, method))
        code = fn.code
        plan = dispatch.fuse_plan(code, fn.regions, mir.branch_targets(fn),
                                  faults_armed=False)
        fused = {start + k for start, length in plan for k in range(length)}
        loops = [
            (ins.target, pc) for pc, ins in enumerate(code)
            if (ins.op == mir.JMP or ins.op in mir.COND_JUMPS)
            and 0 <= ins.target <= pc
        ]
        inner = [
            (head, tail) for head, tail in loops
            if not any(head <= h and t <= tail and (h, t) != (head, tail)
                       for h, t in loops)
        ]
        accesses = [
            pc for head, tail in inner for pc in range(head, tail + 1)
            if code[pc].op in (mir.LDELEM, mir.STELEM)
        ]
        assert accesses
        assert [pc for pc in accesses if pc not in fused] == []
        # each inner loop's latch is the last element of a run
        assert [tail for head, tail in inner if tail not in fused] == []


_jump_ops = ("JMP", "JTRUE", "JEQ", "JLT")


def _jumpy_code(mir, ops):
    """MIR from ``(opname, target)`` pairs: jumps get their target (taken
    modulo the code length), everything else ignores it.  Returns the
    code and its branch targets, as ``mir.branch_targets`` would."""
    n = len(ops)
    code = [
        mir.MInstr(op=getattr(mir, op), target=target % n if op in _jump_ops else -1)
        for op, target in ops
    ]
    return code, frozenset(ins.target for ins in code if ins.target >= 0)


class TestLoopPlan:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(_fusable_ops, st.sampled_from(_jump_ops), _opaque_ops),
                st.integers(min_value=0, max_value=23),
            ),
            min_size=1, max_size=24,
        ),
        st.sets(st.integers(min_value=0, max_value=23), max_size=3),
        st.booleans(),
    )
    def test_plan_obeys_all_safety_rules(self, ops, extra_targets, with_region):
        mir, dispatch = _mir_modules()
        code, targets = _jumpy_code(mir, ops)
        targets |= {t for t in extra_targets if t < len(code)}
        regions = []
        if with_region and len(code) >= 4:
            regions.append(mir.MIRRegion(
                kind="catch", try_start=1, try_end=len(code) // 2,
                handler_start=len(code) // 2, handler_end=len(code) - 1,
            ))
        edges = set()
        for reg in regions:
            edges.update((reg.try_start, reg.try_end,
                          reg.handler_start, reg.handler_end))
        assert dispatch.loop_plan(code, regions, targets, faults_armed=True) == []
        plan = dispatch.loop_plan(code, regions, targets, faults_armed=False)
        runs = dict(dispatch.fuse_plan(code, regions, targets, faults_armed=False))

        def eligible(head, latch):
            return (
                all(code[pc].op in dispatch.FUSABLE_SECOND
                    for pc in range(head, latch + 1))
                and not any(head < edge <= latch for edge in edges)
            )

        prev_latch = -1
        for head, latch, blocks in plan:
            # disjoint, in order, each closed by a back edge to its head
            assert prev_latch < head <= latch
            prev_latch = latch
            assert code[latch].op in mir.COND_JUMPS | {mir.JMP}
            assert code[latch].target == head
            # call-free and inside one exception region
            assert eligible(head, latch)
            # the blocks start at the head and are the fuse plan's runs,
            # the singles between them and the latches that are targets
            starts = [b for b, _ in blocks]
            assert starts[0] == 0 and starts == sorted(set(starts))
            for b, length in blocks:
                pc = head + b
                assert length == runs.get(pc, 1) or length == 1
                assert pc + length - 1 <= latch
                # every pc a block can reach inside the loop starts a block
                end = code[pc + length - 1]
                exits = [] if end.op == mir.JMP else [pc + length]
                if end.op == mir.JMP or end.op in mir.COND_JUMPS:
                    exits.append(end.target)
                for x in exits:
                    assert not head <= x <= latch or x - head in starts, (
                        head, latch, blocks, pc, x)
        # maximal: an eligible loop the plan left out overlaps a chosen one
        chosen = [(head, latch) for head, latch, _ in plan]
        for latch, ins in enumerate(code):
            head = ins.target
            if (ins.op == mir.JMP or ins.op in mir.COND_JUMPS) and 0 <= head <= latch \
                    and eligible(head, latch):
                assert any(not (latch < h or l < head) for h, l in chosen), (
                    head, latch, chosen)

    def test_nested_call_free_loops_plan_the_outer_one(self):
        mir, dispatch = _mir_modules()
        code, targets = _jumpy_code(mir, [
            ("ADD", 0), ("JMP", 4),                          # enter at 4
            ("ADD", 0), ("ADD", 0), ("JLT", 2),              # inner: 2..4
            ("ADD", 0), ("JLT", 0),                          # outer: 0..6
            ("CALL", 0), ("ADD", 0), ("JMP", 7),             # 7..9 calls
        ])
        plan = dispatch.loop_plan(code, [], targets, faults_armed=False)
        assert [(head, latch) for head, latch, _ in plan] == [(0, 6)]
        # the run 2..4 ends on the inner latch, which the entry jumps to:
        # the latch gets a block of its own
        assert plan[0][2] == ((0, 2), (2, 3), (4, 1), (5, 2))

    def test_region_edge_inside_excludes_the_loop(self):
        mir, dispatch = _mir_modules()
        code, targets = _jumpy_code(mir, [("ADD", 0)] * 3 + [("JLT", 0)])
        inside = mir.MIRRegion(kind="catch", try_start=0, try_end=2,
                               handler_start=4, handler_end=5)
        assert dispatch.loop_plan(code, [inside], targets, faults_armed=False) == []
        around = mir.MIRRegion(kind="catch", try_start=0, try_end=4,
                               handler_start=4, handler_end=5)
        plan = dispatch.loop_plan(code, [around], targets, faults_armed=False)
        assert [(head, latch) for head, latch, _ in plan] == [(0, 3)]

