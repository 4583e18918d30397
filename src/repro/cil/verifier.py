"""CIL verifier: abstract interpretation of the evaluation stack.

The CLI design requires that type behaviour be *verifiable*; this verifier
implements the subset relevant to our instruction set: operand-kind checks,
local/argument bounds, branch-target validity, stack-type simulation with
merge-point consistency, and arithmetic operand compatibility (int32/int64/
float never mix without an explicit conversion, exactly the rule csc's
output obeys).

It is the only walk of the evaluation stack.  While it checks a method it
records what both execution engines need to know about the stack (see
:class:`StackFacts`) and the method's ``max_stack``; :func:`stack_facts`
hands them out, verifying the method first if nothing has yet.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from ..errors import VerifyError
from . import cts, opcodes as op
from .cts import CType
from .instructions import CATCH, FieldRef, Instruction, MethodRef
from .metadata import Assembly, MethodDef

# Arithmetic result categories on the evaluation stack
_NUMERIC = (cts.INT32, cts.INT64, cts.FLOAT32, cts.FLOAT64)

# operand kinds, as the interpreter and the JIT name them
I4, I8, R4, R8, REF = "i4", "i8", "r4", "r8", "ref"

_KIND_OF_TYPE = {
    "int8": I4, "uint8": I4, "int16": I4, "uint16": I4, "char": I4,
    "bool": I4, "int32": I4, "int64": I8, "float32": R4, "float64": R8,
}


def kind_of(t: CType) -> str:
    return _KIND_OF_TYPE.get(t.name, REF)


def _compare_kind(a: CType, b: CType) -> str:
    """Operand kind of a comparison: float32 against float64 is float64."""
    ka, kb = kind_of(a), kind_of(b)
    return ka if ka == kb or R8 not in (ka, kb) else R8


class StackFacts(NamedTuple):
    """What verifying one method body learned about its evaluation stack.

    ``kinds`` maps each kind-sensitive instruction's index to the numeric
    kind it operates on (``i4``, ``i8``, ``r4``, ``r8`` or ``ref``): the
    common operand kind for binary ops and compares, the *source* kind for
    conversions, the single operand's kind for ``neg``/``not``/shifts/
    ``brtrue``/``brfalse``, the literal kind for ``ldc``s, and the declared
    type's kind for stores, element accesses, ``box`` and ``unbox``.
    ``depths`` maps every reachable index to its entry stack depth.
    """

    kinds: Dict[int, str]
    depths: Dict[int, int]


def _binary_result(a: CType, b: CType, where: str) -> CType:
    a = cts.stack_type(a)
    b = cts.stack_type(b)
    if a.is_float and b.is_float:
        # F type: widest of the two
        return cts.FLOAT64 if cts.FLOAT64 in (a, b) else cts.FLOAT32
    if a is b and a in (cts.INT32, cts.INT64):
        return a
    raise VerifyError(f"{where}: operand type mismatch {a.name} vs {b.name}")


def _shift_result(a: CType, b: CType, where: str) -> CType:
    a = cts.stack_type(a)
    b = cts.stack_type(b)
    if a in (cts.INT32, cts.INT64) and b is cts.INT32:
        return a
    raise VerifyError(f"{where}: shift requires int<<int32, got {a.name}/{b.name}")


def _comparable(a: CType, b: CType, where: str) -> None:
    a = cts.stack_type(a)
    b = cts.stack_type(b)
    if a.is_float and b.is_float:
        return
    if a is b and a in (cts.INT32, cts.INT64):
        return
    if a.is_reference and b.is_reference:
        return
    raise VerifyError(f"{where}: cannot compare {a.name} with {b.name}")


def stack_facts(method: MethodDef) -> StackFacts:
    """The :class:`StackFacts` of ``method``, verifying it first when no
    verification recorded them (an assembler-built image, or a compile-cache
    entry written before they were kept)."""
    facts = method._stack_facts
    if facts is None:
        verify_method(method)
        facts = method._stack_facts
    return facts


def verify_method(method: MethodDef, assembly: Optional[Assembly] = None) -> None:
    """Verify one method body; raises :class:`VerifyError` on failure.

    On success, sets ``method.max_stack`` and records the method's
    :class:`StackFacts`."""
    body = method.body
    if not body:
        if method.return_type is not cts.VOID:
            raise VerifyError(f"{method.full_name}: empty body for non-void method")
        method.max_stack = 0
        method._stack_facts = StackFacts({}, {})
        return
    nlocals = len(method.locals)
    nargs = method.arg_count
    arg_types: List[CType] = []
    if not method.is_static:
        arg_types.append(cts.named(method.declaring_class))
    arg_types.extend(method.param_types)

    where = method.full_name
    kinds: Dict[int, str] = {}
    max_stack = 0
    states: Dict[int, Tuple[CType, ...]] = {0: ()}
    work: List[int] = [0]
    for region in method.regions:
        if not (0 <= region.try_start <= region.try_end <= len(body)):
            raise VerifyError(f"{where}: bad try range")
        if not (0 <= region.handler_start <= region.handler_end <= len(body)):
            raise VerifyError(f"{where}: bad handler range")
        entry: Tuple[CType, ...]
        if region.kind == CATCH:
            entry = (cts.named(region.catch_type or "System.Exception"),)
        else:
            entry = ()
        if region.handler_start not in states:
            states[region.handler_start] = entry
            work.append(region.handler_start)

    def push_state(target: int, stack: Tuple[CType, ...]) -> None:
        if target == len(body):
            # falling through (or branching) exactly past the last
            # instruction is a distinct, more useful diagnosis than a
            # wild branch target
            raise VerifyError(f"{where}: control falls off end of method")
        if target > len(body) or target < 0:
            raise VerifyError(f"{where}: branch target {target} out of range")
        prev = states.get(target)
        if prev is None:
            states[target] = stack
            work.append(target)
        else:
            if len(prev) != len(stack):
                raise VerifyError(
                    f"{where}: stack depth mismatch at {target}: {len(prev)} vs {len(stack)}"
                )
            # merge: require assignability both ways at the stack-type level
            for x, y in zip(prev, stack):
                if cts.stack_type(x) is not cts.stack_type(y) and not (
                    x.is_reference and y.is_reference
                ):
                    if x.is_float and y.is_float:
                        continue
                    raise VerifyError(
                        f"{where}: stack type mismatch at {target}: {x.name} vs {y.name}"
                    )

    while work:
        index = work.pop()
        stack = list(states[index])
        instr = body[index]
        code = instr.opcode
        label = f"{where}@{index}:{instr.mnemonic}"

        def pop(n: int = 1) -> List[CType]:
            if len(stack) < n:
                raise VerifyError(f"{label}: stack underflow")
            popped = stack[len(stack) - n :]
            del stack[len(stack) - n :]
            return popped

        next_targets: List[int] = [index + 1]

        if code == op.NOP:
            pass
        elif code == op.LDC_I4:
            if not isinstance(instr.operand, int):
                raise VerifyError(f"{label}: ldc.i4 needs int operand")
            stack.append(cts.INT32)
            kinds[index] = I4
        elif code == op.LDC_I8:
            stack.append(cts.INT64)
            kinds[index] = I8
        elif code == op.LDC_R4:
            stack.append(cts.FLOAT32)
            kinds[index] = R4
        elif code == op.LDC_R8:
            stack.append(cts.FLOAT64)
            kinds[index] = R8
        elif code == op.LDSTR:
            stack.append(cts.STRING)
        elif code == op.LDNULL:
            stack.append(cts.NULL)
        elif code == op.LDLOC:
            i = instr.operand
            if not isinstance(i, int) or not 0 <= i < nlocals:
                raise VerifyError(f"{label}: bad local index {i}")
            stack.append(cts.stack_type(method.locals[i].var_type))
        elif code == op.STLOC:
            i = instr.operand
            if not isinstance(i, int) or not 0 <= i < nlocals:
                raise VerifyError(f"{label}: bad local index {i}")
            (v,) = pop()
            if not cts.is_assignable(v, method.locals[i].var_type):
                raise VerifyError(
                    f"{label}: cannot store {v.name} into {method.locals[i].var_type.name}"
                )
            kinds[index] = kind_of(method.locals[i].var_type)
        elif code == op.LDARG:
            i = instr.operand
            if not isinstance(i, int) or not 0 <= i < nargs:
                raise VerifyError(f"{label}: bad arg index {i}")
            stack.append(cts.stack_type(arg_types[i]))
        elif code == op.STARG:
            i = instr.operand
            if not isinstance(i, int) or not 0 <= i < nargs:
                raise VerifyError(f"{label}: bad arg index {i}")
            pop()
            kinds[index] = kind_of(arg_types[i])
        elif code in (op.LDFLD, op.STFLD, op.LDSFLD, op.STSFLD):
            ref = instr.operand
            if not isinstance(ref, FieldRef):
                raise VerifyError(f"{label}: field opcode needs FieldRef")
            if code == op.LDFLD:
                (obj,) = pop()
                if not obj.is_reference and not isinstance(obj, cts.NamedType):
                    raise VerifyError(f"{label}: ldfld on non-object {obj.name}")
                stack.append(cts.stack_type(ref.field_type))
            elif code == op.STFLD:
                v, = pop()
                obj, = pop()
                if not cts.is_assignable(v, ref.field_type):
                    raise VerifyError(
                        f"{label}: cannot store {v.name} into field {ref.field_type.name}"
                    )
                kinds[index] = kind_of(ref.field_type)
            elif code == op.LDSFLD:
                stack.append(cts.stack_type(ref.field_type))
            else:  # STSFLD
                (v,) = pop()
                if not cts.is_assignable(v, ref.field_type):
                    raise VerifyError(
                        f"{label}: cannot store {v.name} into field {ref.field_type.name}"
                    )
                kinds[index] = kind_of(ref.field_type)
        elif code == op.NEWARR:
            (n,) = pop()
            if cts.stack_type(n) is not cts.INT32:
                raise VerifyError(f"{label}: newarr length must be int32")
            stack.append(cts.array_of(instr.operand))
        elif code == op.LDLEN:
            (arr,) = pop()
            if not arr.is_array and arr is not cts.NULL:
                raise VerifyError(f"{label}: ldlen on non-array {arr.name}")
            stack.append(cts.INT32)
        elif code == op.LDELEM:
            idx, = pop()
            arr, = pop()
            if cts.stack_type(idx) is not cts.INT32:
                raise VerifyError(f"{label}: index must be int32")
            stack.append(cts.stack_type(instr.operand))
            kinds[index] = kind_of(instr.operand)
        elif code == op.STELEM:
            v, = pop()
            idx, = pop()
            arr, = pop()
            if cts.stack_type(idx) is not cts.INT32:
                raise VerifyError(f"{label}: index must be int32")
            if not cts.is_assignable(v, instr.operand):
                raise VerifyError(
                    f"{label}: cannot store {v.name} into {instr.operand.name}[]"
                )
            kinds[index] = kind_of(instr.operand)
        elif code == op.NEWARR_MD:
            elem, rank = instr.operand
            dims = pop(rank)
            for d in dims:
                if cts.stack_type(d) is not cts.INT32:
                    raise VerifyError(f"{label}: dimension must be int32")
            stack.append(cts.array_of(elem, rank))
        elif code == op.LDELEM_MD:
            elem, rank = instr.operand
            pop(rank)  # indices
            pop()  # array
            stack.append(cts.stack_type(elem))
            kinds[index] = kind_of(elem)
        elif code == op.STELEM_MD:
            elem, rank = instr.operand
            v = pop()[0]
            pop(rank)
            pop()
            if not cts.is_assignable(v, elem):
                raise VerifyError(f"{label}: cannot store {v.name} into md array of {elem.name}")
            kinds[index] = kind_of(elem)
        elif code in (op.ADD, op.SUB, op.MUL, op.DIV, op.REM):
            b, = pop()
            a, = pop()
            result = _binary_result(a, b, label)
            stack.append(result)
            kinds[index] = kind_of(result)
        elif code in (op.AND, op.OR, op.XOR):
            b, = pop()
            a, = pop()
            a, b = cts.stack_type(a), cts.stack_type(b)
            if a is not b or a not in (cts.INT32, cts.INT64):
                raise VerifyError(f"{label}: bitwise requires matching ints")
            stack.append(a)
            kinds[index] = kind_of(a)
        elif code in (op.SHL, op.SHR, op.SHR_UN):
            b, = pop()
            a, = pop()
            result = _shift_result(a, b, label)
            stack.append(result)
            kinds[index] = kind_of(result)
        elif code == op.NEG:
            (a,) = pop()
            a = cts.stack_type(a)
            if a not in _NUMERIC:
                raise VerifyError(f"{label}: neg on {a.name}")
            stack.append(a)
            kinds[index] = kind_of(a)
        elif code == op.NOT:
            (a,) = pop()
            a = cts.stack_type(a)
            if a not in (cts.INT32, cts.INT64):
                raise VerifyError(f"{label}: not on {a.name}")
            stack.append(a)
            kinds[index] = kind_of(a)
        elif code in (op.CEQ, op.CGT, op.CLT):
            b, = pop()
            a, = pop()
            _comparable(a, b, label)
            stack.append(cts.INT32)
            kinds[index] = _compare_kind(a, b)
        elif code in (
            op.CONV_I1, op.CONV_U1, op.CONV_I2, op.CONV_U2,
            op.CONV_I4, op.CONV_I8, op.CONV_R4, op.CONV_R8,
        ):
            (a,) = pop()
            a = cts.stack_type(a)
            if a not in _NUMERIC:
                raise VerifyError(f"{label}: conv on {a.name}")
            kinds[index] = kind_of(a)
            result = {
                op.CONV_I1: cts.INT32, op.CONV_U1: cts.INT32,
                op.CONV_I2: cts.INT32, op.CONV_U2: cts.INT32,
                op.CONV_I4: cts.INT32, op.CONV_I8: cts.INT64,
                op.CONV_R4: cts.FLOAT32, op.CONV_R8: cts.FLOAT64,
            }[code]
            stack.append(result)
        elif code == op.BR:
            next_targets = [instr.operand]
        elif code in (op.BRTRUE, op.BRFALSE):
            (a,) = pop()
            a = cts.stack_type(a)
            if a not in (cts.INT32, cts.INT64) and not a.is_reference:
                raise VerifyError(f"{label}: brtrue/brfalse on {a.name}")
            kinds[index] = kind_of(a)
            next_targets = [instr.operand, index + 1]
        elif code in (op.BEQ, op.BNE, op.BGE, op.BGT, op.BLE, op.BLT):
            b, = pop()
            a, = pop()
            _comparable(a, b, label)
            kinds[index] = _compare_kind(a, b)
            next_targets = [instr.operand, index + 1]
        elif code == op.SWITCH:
            (a,) = pop()
            if cts.stack_type(a) is not cts.INT32:
                raise VerifyError(f"{label}: switch selector must be int32")
            next_targets = list(instr.operand) + [index + 1]
        elif code == op.RET:
            if method.return_type is cts.VOID:
                if stack:
                    raise VerifyError(f"{label}: stack not empty at ret ({len(stack)})")
            else:
                (v,) = pop()
                if not cts.is_assignable(v, method.return_type):
                    raise VerifyError(
                        f"{label}: return type {v.name} != {method.return_type.name}"
                    )
                if stack:
                    raise VerifyError(f"{label}: stack not empty at ret")
            next_targets = []
        elif code in (op.CALL, op.CALLVIRT):
            ref = instr.operand
            if not isinstance(ref, MethodRef):
                raise VerifyError(f"{label}: call needs MethodRef")
            nparams = len(ref.param_types) + (0 if ref.is_static else 1)
            args = pop(nparams)
            expect: List[CType] = []
            if not ref.is_static:
                expect.append(cts.named(ref.class_name))
            expect.extend(ref.param_types)
            for got, want in zip(args, expect):
                if not cts.is_assignable(got, want):
                    raise VerifyError(
                        f"{label}: argument {got.name} not assignable to {want.name}"
                    )
            if ref.return_type is not cts.VOID:
                stack.append(cts.stack_type(ref.return_type))
        elif code == op.NEWOBJ:
            ref = instr.operand
            if not isinstance(ref, MethodRef):
                raise VerifyError(f"{label}: newobj needs MethodRef")
            pop(len(ref.param_types))
            stack.append(cts.named(ref.class_name))
        elif code == op.BOX:
            (v,) = pop()
            stack.append(cts.OBJECT)
            kinds[index] = kind_of(instr.operand)
        elif code == op.UNBOX:
            (v,) = pop()
            if not v.is_reference:
                raise VerifyError(f"{label}: unbox on non-reference {v.name}")
            stack.append(cts.stack_type(instr.operand))
            kinds[index] = kind_of(instr.operand)
        elif code in (op.CASTCLASS, op.ISINST):
            (v,) = pop()
            if not v.is_reference:
                raise VerifyError(f"{label}: castclass on non-reference {v.name}")
            stack.append(instr.operand if code == op.CASTCLASS else instr.operand)
        elif code == op.DUP:
            (v,) = pop()
            stack.append(v)
            stack.append(v)
        elif code == op.POP:
            pop()
        elif code == op.STRUCT_COPY:
            (v,) = pop()
            stack.append(v)
        elif code == op.THROW:
            (v,) = pop()
            if not v.is_reference:
                raise VerifyError(f"{label}: throw on non-reference {v.name}")
            next_targets = []
        elif code == op.RETHROW:
            in_catch = any(r.kind == CATCH and r.in_handler(index) for r in method.regions)
            if not in_catch:
                raise VerifyError(f"{label}: rethrow outside catch handler")
            next_targets = []
        elif code == op.LEAVE:
            # the depth leave empties still counts towards max_stack
            max_stack = max(max_stack, len(stack))
            stack.clear()
            next_targets = [instr.operand]
        elif code == op.ENDFINALLY:
            in_finally = any(
                r.kind == "finally" and r.in_handler(index) for r in method.regions
            )
            if not in_finally:
                raise VerifyError(f"{label}: endfinally outside finally handler")
            next_targets = []
        else:  # pragma: no cover - defensive
            raise VerifyError(f"{label}: unverifiable opcode")

        max_stack = max(max_stack, len(stack))
        frozen = tuple(stack)
        for t in next_targets:
            push_state(t, frozen)

    # every instruction that falls off the end must be unreachable or flow-terminating
    last = body[-1]
    if (len(body) - 1) in states and last.opcode not in op.UNCONDITIONAL_FLOW and last.opcode not in op.CONDITIONAL_BRANCHES:
        raise VerifyError(f"{where}: control falls off end of method")
    method.max_stack = max_stack
    method._stack_facts = StackFacts(kinds, {i: len(s) for i, s in states.items()})


def verify_assembly(assembly: Assembly) -> int:
    """Verify every method in the assembly; returns the number verified."""
    count = 0
    for method in assembly.all_methods():
        verify_method(method, assembly)
        count += 1
    return count
