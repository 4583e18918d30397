"""CIL -> MIR lowering (the stack-to-register translation every JIT does).

The evaluation stack is abstracted away: each push becomes a fresh virtual
register, locals and arguments get fixed vregs, and control-flow merge
points reconcile into canonical vregs (a simple phi-elimination).  The
resulting MIR deliberately still contains all the ``mov`` traffic of the
stack machine — whether it *stays* is up to the profile's copy-propagation
pass, which is exactly the difference between CLR-quality and
Mono/Rotor-quality code in the paper's Tables 6-8.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cil import cts, opcodes as op
from ..cil.metadata import MethodDef
from ..cil.verifier import stack_facts
from ..errors import JitError
from . import mir

_BIN = {
    op.ADD: mir.ADD, op.SUB: mir.SUB, op.MUL: mir.MUL, op.DIV: mir.DIV,
    op.REM: mir.REM, op.AND: mir.AND, op.OR: mir.OR, op.XOR: mir.XOR,
    op.SHL: mir.SHL, op.SHR: mir.SHR, op.SHR_UN: mir.SHRU,
}
_CMP = {op.CEQ: mir.CEQ, op.CGT: mir.CGT, op.CLT: mir.CLT}
_JCC = {
    op.BEQ: mir.JEQ, op.BNE: mir.JNE, op.BGE: mir.JGE,
    op.BGT: mir.JGT, op.BLE: mir.JLE, op.BLT: mir.JLT,
}
_CONV_SPEC = {
    op.CONV_I1: "i1", op.CONV_U1: "u1", op.CONV_I2: "i2", op.CONV_U2: "u2",
    op.CONV_I4: "i4", op.CONV_I8: "i8", op.CONV_R4: "r4", op.CONV_R8: "r8",
}


def lower(method: MethodDef) -> mir.MIRFunction:
    """Translate one CIL method body to MIR.

    Operand kinds and entry stack depths come from the verifier's
    :func:`~repro.cil.verifier.stack_facts`, which verifies the method
    first if nothing has (so an unverifiable body raises
    :class:`~repro.errors.VerifyError`)."""
    body = method.body
    kinds, depths = stack_facts(method)

    fn = mir.MIRFunction(
        full_name=method.full_name,
        n_args=method.arg_count,
        returns_void=(method.return_type is cts.VOID),
        method=method,
    )
    n_args = method.arg_count
    n_locals = len(method.locals)
    fn.n_vregs = n_args + n_locals
    #: vreg index ranges: [0, n_args) args, [n_args, n_args+n_locals) locals
    local_vreg = lambda i: n_args + i

    # canonical stacks at branch targets with a non-empty entry stack
    targets: set = set()
    for i, instr in enumerate(body):
        if instr.opcode in op.BRANCHES:
            targets.add(instr.operand)
        elif instr.opcode == op.SWITCH:
            targets.update(instr.operand)
    for region in method.regions:
        targets.add(region.handler_start)

    canonical: Dict[int, List[int]] = {}
    for t in targets:
        depth = depths.get(t)
        if depth:
            canonical[t] = [fn.new_vreg() for _ in range(depth)]
    # catch-handler entries always carry the exception object
    handler_entry: Dict[int, int] = {}
    for region in method.regions:
        if region.kind == "catch":
            vregs = canonical.get(region.handler_start)
            if not vregs:
                vregs = [fn.new_vreg()]
                canonical[region.handler_start] = vregs
            handler_entry[region.handler_start] = vregs[0]

    code = fn.code
    mir_of_il: Dict[int, int] = {}
    stack: List[int] = []
    dead = False  # current position unreachable by fallthrough

    def emit(minstr: mir.MInstr) -> mir.MInstr:
        code.append(minstr)
        return minstr

    def push_fresh() -> int:
        v = fn.new_vreg()
        stack.append(v)
        return v

    def reconcile_to(target_vregs: List[int], il_index: int) -> None:
        """Move the current stack into the target's canonical vregs."""
        if len(stack) != len(target_vregs):
            raise JitError(
                f"{method.full_name}@{il_index}: stack depth mismatch "
                f"{len(stack)} vs {len(target_vregs)}"
            )
        for src, dst in zip(stack, target_vregs):
            if src != dst:
                emit(mir.MInstr(mir.MOV, dst=dst, a=src, il_index=il_index))

    for i, instr in enumerate(body):
        # merge-point bookkeeping
        if i in canonical:
            if not dead:
                reconcile_to(canonical[i], i)
            stack = list(canonical[i])
            dead = False
        elif dead:
            # only resurrect at positions the verifier reached: a target
            # that exists solely inside unreachable code (e.g. the front
            # end folded `if (false)` into a `br` across it) must stay
            # dead, or its entry stack would be wrong
            if i in depths and (
                i in targets
                or any(
                    r.handler_start == i or r.try_start == i
                    for r in method.regions
                )
            ):
                stack = []
                dead = False
        mir_of_il[i] = len(code)
        if dead:
            continue

        kind = kinds.get(i, "i4")
        c = instr.opcode

        if c == op.NOP:
            pass
        elif c in (op.LDC_I4, op.LDC_I8, op.LDC_R8):
            emit(mir.MInstr(mir.LDI, dst=push_fresh(), a=instr.operand, kind=kind, il_index=i))
        elif c == op.LDC_R4:
            from ..vm.values import r4 as _r4
            emit(mir.MInstr(mir.LDI, dst=push_fresh(), a=_r4(instr.operand), kind=kind, il_index=i))
        elif c == op.LDSTR:
            emit(mir.MInstr(mir.LDI, dst=push_fresh(), a=instr.operand, kind="ref", il_index=i))
        elif c == op.LDNULL:
            emit(mir.MInstr(mir.LDI, dst=push_fresh(), a=None, kind="ref", il_index=i))
        elif c == op.LDLOC:
            emit(mir.MInstr(mir.MOV, dst=push_fresh(), a=local_vreg(instr.operand), il_index=i))
        elif c == op.STLOC:
            emit(mir.MInstr(mir.MOV, dst=local_vreg(instr.operand), a=stack.pop(), kind=kind, il_index=i))
        elif c == op.LDARG:
            emit(mir.MInstr(mir.MOV, dst=push_fresh(), a=instr.operand, il_index=i))
        elif c == op.STARG:
            emit(mir.MInstr(mir.MOV, dst=instr.operand, a=stack.pop(), kind=kind, il_index=i))
        elif c in _BIN:
            b = stack.pop()
            a = stack.pop()
            emit(mir.MInstr(_BIN[c], dst=push_fresh(), a=a, b=b, kind=kind, il_index=i))
        elif c == op.NEG:
            a = stack.pop()
            emit(mir.MInstr(mir.NEG, dst=push_fresh(), a=a, kind=kind, il_index=i))
        elif c == op.NOT:
            a = stack.pop()
            emit(mir.MInstr(mir.NOT, dst=push_fresh(), a=a, kind=kind, il_index=i))
        elif c in _CMP:
            b = stack.pop()
            a = stack.pop()
            emit(mir.MInstr(_CMP[c], dst=push_fresh(), a=a, b=b, kind=kind, il_index=i))
        elif c in _CONV_SPEC:
            a = stack.pop()
            emit(mir.MInstr(
                mir.CONV, dst=push_fresh(), a=a,
                extra=_CONV_SPEC[c], kind=kind, il_index=i,
            ))
        elif c == op.BR:
            target = instr.operand
            if target in canonical:
                reconcile_to(canonical[target], i)
            emit(mir.MInstr(mir.JMP, target=target, il_index=i))
            dead = True
            stack = []
        elif c in (op.BRTRUE, op.BRFALSE):
            a = stack.pop()
            target = instr.operand
            if target in canonical:
                reconcile_to(canonical[target], i)
            emit(mir.MInstr(
                mir.JTRUE if c == op.BRTRUE else mir.JFALSE,
                a=a, target=target, kind=kind, il_index=i,
            ))
        elif c in _JCC:
            b = stack.pop()
            a = stack.pop()
            target = instr.operand
            if target in canonical:
                reconcile_to(canonical[target], i)
            emit(mir.MInstr(_JCC[c], a=a, b=b, target=target, kind=kind, il_index=i))
        elif c == op.SWITCH:
            a = stack.pop()
            emit(mir.MInstr(mir.SWITCH, a=a, extra=list(instr.operand), il_index=i))
        elif c == op.RET:
            a = -1 if method.return_type is cts.VOID else stack.pop()
            emit(mir.MInstr(mir.RET, a=a, il_index=i))
            dead = True
            stack = []
        elif c in (op.CALL, op.CALLVIRT):
            ref = instr.operand
            n = len(ref.param_types) + (0 if ref.is_static else 1)
            args = stack[len(stack) - n:] if n else []
            if n:
                del stack[len(stack) - n:]
            dst = -1 if ref.return_type is cts.VOID else fn.new_vreg()
            emit(mir.MInstr(
                mir.CALL, dst=dst, extra=(ref, c == op.CALLVIRT), args=args, il_index=i,
            ))
            if dst >= 0:
                stack.append(dst)
        elif c == op.NEWOBJ:
            ref = instr.operand
            n = len(ref.param_types)
            args = stack[len(stack) - n:] if n else []
            if n:
                del stack[len(stack) - n:]
            emit(mir.MInstr(mir.NEWOBJ, dst=push_fresh(), extra=ref, args=args, il_index=i))
        elif c == op.NEWARR:
            a = stack.pop()
            emit(mir.MInstr(mir.NEWARR, dst=push_fresh(), a=a, extra=instr.operand, il_index=i))
        elif c == op.NEWARR_MD:
            elem, rank = instr.operand
            args = stack[len(stack) - rank:]
            del stack[len(stack) - rank:]
            emit(mir.MInstr(mir.NEWARR_MD, dst=push_fresh(), args=args, extra=elem, il_index=i))
        elif c == op.LDLEN:
            a = stack.pop()
            emit(mir.MInstr(mir.LDLEN, dst=push_fresh(), a=a, il_index=i))
        elif c == op.LDELEM:
            b = stack.pop()
            a = stack.pop()
            emit(mir.MInstr(mir.LDELEM, dst=push_fresh(), a=a, b=b, kind=kind, il_index=i))
        elif c == op.STELEM:
            v = stack.pop()
            b = stack.pop()
            a = stack.pop()
            emit(mir.MInstr(mir.STELEM, a=a, b=b, c=v, kind=kind, il_index=i))
        elif c == op.LDELEM_MD:
            elem, rank = instr.operand
            idxs = stack[len(stack) - rank:]
            del stack[len(stack) - rank:]
            a = stack.pop()
            emit(mir.MInstr(mir.LDELEM_MD, dst=push_fresh(), a=a, args=idxs, kind=kind, il_index=i))
        elif c == op.STELEM_MD:
            elem, rank = instr.operand
            v = stack.pop()
            idxs = stack[len(stack) - rank:]
            del stack[len(stack) - rank:]
            a = stack.pop()
            emit(mir.MInstr(mir.STELEM_MD, a=a, c=v, args=idxs, kind=kind, il_index=i))
        elif c == op.LDFLD:
            a = stack.pop()
            emit(mir.MInstr(mir.LDFLD, dst=push_fresh(), a=a, extra=instr.operand, il_index=i))
        elif c == op.STFLD:
            v = stack.pop()
            obj = stack.pop()
            emit(mir.MInstr(mir.STFLD, a=obj, c=v, extra=instr.operand, kind=kind, il_index=i))
        elif c == op.LDSFLD:
            emit(mir.MInstr(mir.LDSFLD, dst=push_fresh(), extra=instr.operand, il_index=i))
        elif c == op.STSFLD:
            emit(mir.MInstr(mir.STSFLD, c=stack.pop(), extra=instr.operand, kind=kind, il_index=i))
        elif c == op.BOX:
            a = stack.pop()
            emit(mir.MInstr(mir.BOX, dst=push_fresh(), a=a, extra=instr.operand, il_index=i))
        elif c == op.UNBOX:
            a = stack.pop()
            emit(mir.MInstr(mir.UNBOX, dst=push_fresh(), a=a, extra=instr.operand, il_index=i))
        elif c == op.CASTCLASS:
            a = stack.pop()
            emit(mir.MInstr(mir.CASTCLASS, dst=push_fresh(), a=a, extra=instr.operand, il_index=i))
        elif c == op.ISINST:
            a = stack.pop()
            emit(mir.MInstr(mir.ISINST, dst=push_fresh(), a=a, extra=instr.operand, il_index=i))
        elif c == op.STRUCT_COPY:
            a = stack.pop()
            emit(mir.MInstr(mir.STRUCT_COPY, dst=push_fresh(), a=a, il_index=i))
        elif c == op.DUP:
            top = stack[-1]
            emit(mir.MInstr(mir.MOV, dst=push_fresh(), a=top, il_index=i))
        elif c == op.POP:
            stack.pop()
        elif c == op.THROW:
            emit(mir.MInstr(mir.THROW, a=stack.pop(), il_index=i))
            dead = True
            stack = []
        elif c == op.RETHROW:
            emit(mir.MInstr(mir.RETHROW, il_index=i))
            dead = True
            stack = []
        elif c == op.LEAVE:
            emit(mir.MInstr(mir.LEAVE, target=instr.operand, il_index=i))
            dead = True
            stack = []
        elif c == op.ENDFINALLY:
            emit(mir.MInstr(mir.ENDFINALLY, il_index=i))
            dead = True
            stack = []
        else:  # pragma: no cover - defensive
            raise JitError(f"cannot lower opcode {instr.mnemonic}")

    # ensure every method body ends in a terminator (void fallthrough)
    if not code or code[-1].op not in mir.TERMINATORS:
        code.append(mir.MInstr(mir.RET, a=-1))

    def map_il(il: int) -> int:
        if il in mir_of_il:
            return mir_of_il[il]
        if il >= len(body):
            return len(code)
        raise JitError(f"{method.full_name}: unmapped IL target {il}")

    for minstr in code:
        if minstr.target >= 0:
            minstr.target = map_il(minstr.target)
        if minstr.op == mir.SWITCH:
            minstr.extra = [map_il(t) for t in minstr.extra]

    for region in method.regions:
        fn.regions.append(
            mir.MIRRegion(
                kind=region.kind,
                try_start=map_il(region.try_start),
                try_end=map_il(region.try_end),
                handler_start=map_il(region.handler_start),
                handler_end=map_il(region.handler_end),
                catch_type=region.catch_type,
                exc_vreg=handler_entry.get(region.handler_start, -1),
            )
        )

    fn.in_register = [False] * fn.n_vregs
    return fn
