"""Unit tests for the CIL builder, metadata and the CTS."""

import pytest

from repro.cil import (
    Assembly,
    ClassDef,
    FieldDef,
    Label,
    MethodBuilder,
    MethodDef,
    cts,
    opcodes as op,
    verify_method,
)
from repro.errors import CilError


def make_method(name="M", ret=cts.VOID, params=None, static=True):
    return MethodDef(name=name, param_types=params or [], return_type=ret, is_static=static)


class TestMethodBuilder:
    def test_emit_and_build(self):
        m = make_method(ret=cts.INT32)
        b = MethodBuilder(m)
        b.emit(op.LDC_I4, 42)
        b.emit(op.RET)
        built = b.build()
        assert [i.mnemonic for i in built.body] == ["ldc.i4", "ret"]
        verify_method(built)
        assert built.max_stack == 1

    def test_forward_label_fixup(self):
        m = make_method(ret=cts.INT32)
        b = MethodBuilder(m)
        done = b.new_label("done")
        b.emit(op.LDC_I4, 1)
        b.emit_branch(op.BRTRUE, done)
        b.emit(op.LDC_I4, 0)
        b.emit(op.RET)
        b.mark_label(done)
        b.emit(op.LDC_I4, 99)
        b.emit(op.RET)
        built = b.build()
        assert built.body[1].operand == 4

    def test_unresolved_label_raises(self):
        m = make_method()
        b = MethodBuilder(m)
        dangling = b.new_label("nowhere")
        b.emit_branch(op.BR, dangling)
        with pytest.raises(CilError, match="unresolved"):
            b.build()

    def test_label_marked_twice_raises(self):
        m = make_method()
        b = MethodBuilder(m)
        lab = b.new_label()
        b.mark_label(lab)
        with pytest.raises(CilError, match="twice"):
            b.mark_label(lab)

    def test_non_branch_opcode_rejected_by_emit_branch(self):
        b = MethodBuilder(make_method())
        with pytest.raises(CilError, match="not a branch"):
            b.emit_branch(op.ADD, b.new_label())

    def test_declare_local_and_index(self):
        b = MethodBuilder(make_method())
        i = b.declare_local("x", cts.INT32)
        j = b.declare_local("y", cts.FLOAT64)
        assert (i, j) == (0, 1)
        assert b.local_index("y") == 1

    def test_duplicate_local_raises(self):
        b = MethodBuilder(make_method())
        b.declare_local("x", cts.INT32)
        with pytest.raises(CilError, match="duplicate local"):
            b.declare_local("x", cts.INT32)

    def test_unknown_local_raises(self):
        b = MethodBuilder(make_method())
        with pytest.raises(CilError, match="unknown local"):
            b.local_index("ghost")

    def test_switch_fixups(self):
        m = make_method(ret=cts.INT32)
        b = MethodBuilder(m)
        l0, l1 = b.new_label(), b.new_label()
        b.emit(op.LDC_I4, 0)
        b.emit_switch([l0, l1])
        b.mark_label(l0)
        b.emit(op.LDC_I4, 10)
        b.emit(op.RET)
        b.mark_label(l1)
        b.emit(op.LDC_I4, 20)
        b.emit(op.RET)
        built = b.build()
        assert built.body[1].operand == [2, 4]


class TestMetadata:
    def test_duplicate_class_rejected(self):
        asm = Assembly("a")
        asm.add_class(ClassDef("C"))
        with pytest.raises(CilError, match="duplicate class"):
            asm.add_class(ClassDef("C"))

    def test_duplicate_field_rejected(self):
        cls = ClassDef("C")
        cls.add_field(FieldDef("x", cts.INT32))
        with pytest.raises(CilError, match="duplicate field"):
            cls.add_field(FieldDef("x", cts.FLOAT64))

    def test_duplicate_method_signature_rejected(self):
        cls = ClassDef("C")
        cls.add_method(make_method("F", params=[cts.INT32]))
        cls.add_method(make_method("F", params=[cts.FLOAT64]))  # overload ok
        with pytest.raises(CilError, match="duplicate method"):
            cls.add_method(make_method("F", params=[cts.INT32]))

    def test_entry_point_must_be_static(self):
        asm = Assembly("a")
        cls = ClassDef("C")
        cls.add_method(make_method("Main", static=False))
        asm.add_class(cls)
        with pytest.raises(CilError, match="static"):
            asm.set_entry_point("C", "Main")

    def test_find_method_missing(self):
        asm = Assembly("a")
        asm.add_class(ClassDef("C"))
        with pytest.raises(CilError, match="no method"):
            asm.find_method("C", "Nope")

    def test_missing_class(self):
        asm = Assembly("a")
        with pytest.raises(CilError, match="no class"):
            asm.get_class("Ghost")

    def test_arg_count_includes_this(self):
        m = make_method(params=[cts.INT32], static=False)
        assert m.arg_count == 2

    def test_instance_and_static_field_partition(self):
        cls = ClassDef("C")
        cls.add_field(FieldDef("a", cts.INT32))
        cls.add_field(FieldDef("b", cts.INT32, is_static=True))
        assert [f.name for f in cls.instance_fields()] == ["a"]
        assert [f.name for f in cls.static_fields()] == ["b"]


class TestCts:
    def test_primitives_interned(self):
        assert cts.BY_NAME["int"] is cts.INT32
        assert cts.BY_NAME["double"] is cts.FLOAT64

    def test_array_interning(self):
        assert cts.array_of(cts.INT32) is cts.array_of(cts.INT32)
        assert cts.array_of(cts.INT32, 2) is not cts.array_of(cts.INT32, 1)

    def test_named_interning(self):
        assert cts.named("Foo") is cts.named("Foo")

    def test_array_names(self):
        assert cts.array_of(cts.FLOAT64, 2).name == "float64[,]"
        jagged = cts.array_of(cts.array_of(cts.INT32))
        assert jagged.name == "int32[][]"

    def test_stack_type_widening(self):
        assert cts.stack_type(cts.BOOL) is cts.INT32
        assert cts.stack_type(cts.INT16) is cts.INT32
        assert cts.stack_type(cts.INT64) is cts.INT64

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            cts.ArrayType(cts.INT32, 0)

    def test_assignability(self):
        assert cts.is_assignable(cts.NULL, cts.STRING)
        assert cts.is_assignable(cts.named("C"), cts.OBJECT)
        assert not cts.is_assignable(cts.INT32, cts.FLOAT64)
        assert cts.is_assignable(cts.FLOAT32, cts.FLOAT64)
