"""Negative verifier coverage: hand-built malformed CIL bodies.

The positive path (verifier accepts everything the front end emits) is
exercised all over the suite and by the fuzzing oracle; this file pins the
*rejection* behaviour.  Each case is a structurally broken method body that
the compiler could never emit, paired with the precise diagnostic the
verifier must raise — both that it rejects, and that it rejects for the
right reason (a mis-diagnosed body would make real verifier regressions
invisible).
"""

import pytest

from repro.cil import MethodBuilder, MethodRef, cts, opcodes as op
from repro.cil.instructions import ExceptionRegion, Instruction
from repro.cil.metadata import LocalVar, MethodDef
from repro.cil.verifier import stack_facts, verify_method
from repro.errors import VerifyError
from repro.jit.lowering import lower


def _method(
    body,
    return_type=cts.VOID,
    locals=(),
    regions=(),
    name="Bad",
):
    m = MethodDef(
        name=name,
        param_types=[],
        return_type=return_type,
        is_static=True,
        locals=[LocalVar(f"loc{i}", t) for i, t in enumerate(locals)],
        body=list(body),
        regions=list(regions),
    )
    m.declaring_class = "T"
    return m


I = Instruction

#: (case id, MethodDef factory, diagnostic fragment the VerifyError must carry)
CASES = [
    (
        "stack_underflow_binop",
        lambda: _method([I(op.ADD), I(op.RET)]),
        "stack underflow",
    ),
    (
        "stack_underflow_ret_value",
        lambda: _method([I(op.RET)], return_type=cts.INT32),
        "stack underflow",
    ),
    (
        "operand_type_mismatch",
        lambda: _method(
            [I(op.LDC_I4, 1), I(op.LDC_R8, 2.0), I(op.ADD), I(op.POP), I(op.RET)]
        ),
        "operand type mismatch",
    ),
    (
        "store_wrong_type_into_local",
        lambda: _method(
            [I(op.LDC_R8, 1.5), I(op.STLOC, 0), I(op.RET)], locals=[cts.INT32]
        ),
        "cannot store float64 into int32",
    ),
    (
        "return_type_mismatch",
        lambda: _method(
            [I(op.LDC_R8, 1.5), I(op.RET)], return_type=cts.INT32
        ),
        "return type float64 != int32",
    ),
    (
        "stack_not_empty_at_void_ret",
        lambda: _method([I(op.LDC_I4, 7), I(op.RET)]),
        "stack not empty at ret",
    ),
    (
        "fall_off_end",
        lambda: _method([I(op.LDC_I4, 1), I(op.POP), I(op.NOP)]),
        "control falls off end of method",
    ),
    (
        "branch_target_out_of_range",
        lambda: _method([I(op.BR, 99)]),
        "branch target 99 out of range",
    ),
    (
        "negative_branch_target",
        lambda: _method([I(op.BR, -3)]),
        "branch target -3 out of range",
    ),
    (
        "merge_depth_mismatch",
        # brtrue 3 jumps past the push, so index 3 is reached with depth
        # 0 (branch) and depth 1 (fallthrough)
        lambda: _method(
            [
                I(op.LDC_I4, 1),
                I(op.BRTRUE, 3),
                I(op.LDC_I4, 5),
                I(op.NOP),
                I(op.BR, 3),
            ]
        ),
        "stack depth mismatch",
    ),
    (
        "bad_try_range",
        lambda: _method(
            [I(op.NOP), I(op.RET)],
            regions=[
                ExceptionRegion(
                    kind="finally",
                    try_start=0,
                    try_end=40,
                    handler_start=1,
                    handler_end=2,
                )
            ],
        ),
        "bad try range",
    ),
    (
        "bad_handler_range",
        lambda: _method(
            [I(op.NOP), I(op.RET)],
            regions=[
                ExceptionRegion(
                    kind="finally",
                    try_start=0,
                    try_end=1,
                    handler_start=1,
                    handler_end=17,
                )
            ],
        ),
        "bad handler range",
    ),
    (
        "endfinally_outside_finally",
        lambda: _method([I(op.ENDFINALLY)]),
        "endfinally outside finally handler",
    ),
    (
        "rethrow_outside_catch",
        lambda: _method([I(op.RETHROW)]),
        "rethrow outside catch handler",
    ),
    (
        "throw_non_reference",
        lambda: _method([I(op.LDC_I4, 3), I(op.THROW)]),
        "throw on non-reference",
    ),
    (
        "empty_body_non_void",
        lambda: _method([], return_type=cts.INT32),
        "empty body for non-void method",
    ),
]


@pytest.mark.parametrize(
    "factory,fragment",
    [pytest.param(f, frag, id=case_id) for case_id, f, frag in CASES],
)
def test_verifier_rejects_with_precise_diagnostic(factory, fragment):
    method = factory()
    with pytest.raises(VerifyError) as excinfo:
        verify_method(method)
    assert fragment in str(excinfo.value), (
        f"expected diagnostic containing {fragment!r}, got: {excinfo.value}"
    )


def test_verifier_accepts_wellformed_control():
    """Sanity: the same construction path yields an accepted body when the
    control flow and types are actually sound."""
    method = _method(
        [
            I(op.LDC_I4, 1),
            I(op.BRTRUE, 4),
            I(op.LDC_I4, 5),
            I(op.POP),
            I(op.RET),
        ]
    )
    verify_method(method)  # must not raise


def test_lowering_an_unverifiable_method_raises_verify_error():
    """Lowering reads the verifier's stack facts, so a hand-built body that
    never went through the verifier is verified (and refused) first."""
    with pytest.raises(VerifyError, match="stack underflow"):
        lower(_method([I(op.ADD), I(op.RET)]))


class TestStackDepth:
    """``max_stack`` and stack-depth consistency, from builder-made bodies."""

    def test_max_stack_call(self):
        ref = MethodRef("C", "F", (cts.INT32, cts.INT32), cts.INT32)
        b = MethodBuilder(_method([], return_type=cts.INT32))
        b.emit(op.LDC_I4, 1)
        b.emit(op.LDC_I4, 2)
        b.emit(op.CALL, ref)
        b.emit(op.RET)
        built = b.build()
        verify_method(built)
        assert built.max_stack == 2

    def test_stack_underflow_detected(self):
        b = MethodBuilder(_method([]))
        b.emit(op.POP)
        b.emit(op.RET)
        with pytest.raises(VerifyError, match="underflow"):
            verify_method(b.build())

    def test_inconsistent_merge_depth_detected(self):
        b = MethodBuilder(_method([], return_type=cts.INT32))
        join = b.new_label()
        b.emit(op.LDC_I4, 0)
        b.emit_branch(op.BRFALSE, join)
        b.emit(op.LDC_I4, 1)  # depth 1 on this edge
        b.mark_label(join)  # depth 0 on fallthrough edge
        b.emit(op.LDC_I4, 2)
        b.emit(op.RET)
        with pytest.raises(VerifyError, match="stack depth mismatch"):
            verify_method(b.build())

    def test_max_stack_counts_the_stack_leave_empties(self):
        # the catch handler leaves with the exception object still pushed
        m = _method(
            [I(op.NOP), I(op.LEAVE, 3), I(op.LEAVE, 3), I(op.RET)],
            regions=[ExceptionRegion("catch", 0, 2, 2, 3, "System.Exception")],
        )
        verify_method(m)
        assert m.max_stack == 1


class TestStackKinds:
    """The operand kinds the verifier records for the execution engines."""

    def test_float32_against_float64_compares_as_float64(self):
        m = _method(
            [I(op.LDC_R4, 1.0), I(op.LDC_R8, 2.0), I(op.CLT), I(op.RET)],
            return_type=cts.INT32,
        )
        assert stack_facts(m).kinds[2] == "r8"

    def test_first_state_wins_at_a_float_merge(self):
        # the fall-through edge (float32) is pushed last, so it is walked
        # first and its state stands when the float64 edge reaches 5
        m = _method(
            [I(op.LDC_I4, 1), I(op.BRTRUE, 4), I(op.LDC_R4, 1.0), I(op.BR, 5),
             I(op.LDC_R8, 2.0), I(op.CONV_R8), I(op.RET)],
            return_type=cts.FLOAT64,
        )
        facts = stack_facts(m)
        assert facts.kinds[5] == "r4"
        assert facts.depths == {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 1, 6: 1}
