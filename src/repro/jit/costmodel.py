"""Static cycle-cost finalization.

After all structural passes have run, every instruction gets a fixed cycle
cost: base cost by operation and kind, plus a memory penalty for every
operand whose vreg was not enregistered.  Dynamic costs (allocation size,
virtual dispatch, exception dispatch, GC, monitor contention, large-array
accesses) are charged by the executor at run time from the same profile.
"""

from __future__ import annotations

from . import mir
from .passes.inline import _vreg_fields


def finalize_costs(fn: mir.MIRFunction, profile) -> None:
    t = profile.costs
    config = profile.jit
    in_reg = fn.in_register
    n_reg = len(in_reg)
    mem_operand = t.mem_operand

    for ins in fn.code:
        o = ins.op
        k = ins.kind
        if o in (mir.MOV, mir.LDI):
            base = t.mov
        elif o == mir.MUL:
            base = t.mul_r if k in ("r4", "r8") else (t.mul_i8 if k == "i8" else t.mul_i4)
        elif o == mir.DIV:
            base = t.div_r if k in ("r4", "r8") else (t.div_i8 if k == "i8" else t.div_i4)
        elif o == mir.REM:
            base = t.rem_extra + (
                t.div_r if k in ("r4", "r8") else (t.div_i8 if k == "i8" else t.div_i4)
            )
        elif o in mir.ARITH or o in (mir.NEG, mir.NOT):
            base = t.reg_op if k != "i8" else t.reg_op + 1
        elif o in mir.COMPARES:
            base = t.reg_op + 1
        elif o == mir.CONV:
            base = t.conv_r_i if (k in ("r4", "r8") and str(ins.extra).startswith(("i", "u"))) else t.conv
        elif o == mir.JMP:
            base = t.branch
        elif o in (mir.JTRUE, mir.JFALSE):
            base = t.branch + (0 if config.fuse_compare_branch else t.branch_not_fused_extra)
        elif o in mir.COND_JUMPS:
            base = t.branch + (0 if config.fuse_compare_branch else t.branch_not_fused_extra)
        elif o == mir.SWITCH:
            base = t.branch + 2
        elif o == mir.CALL:
            # frame setup charged dynamically by the executor (kind of call
            # unknown until dispatch); here only argument marshalling
            base = max(1, len(ins.args or ()))
        elif o == mir.NEWOBJ:
            base = 2  # allocation charged dynamically (size-dependent)
        elif o in (mir.NEWARR, mir.NEWARR_MD):
            base = 2
        elif o == mir.LDLEN:
            # length lives in the object header the access just touched and
            # typically folds into the guarding compare
            base = 1
        elif o in (mir.LDELEM, mir.STELEM):
            base = t.array_access + (t.bounds_check if ins.bounds_check and config.boundscheck else 0)
        elif o in (mir.LDELEM_MD, mir.STELEM_MD):
            rank = len(ins.args or ())
            base = (
                t.array_access
                + t.md_array_extra * max(1, rank)
                + (t.bounds_check * rank if ins.bounds_check and config.boundscheck else 0)
            )
        elif o in (mir.LDFLD, mir.STFLD):
            base = t.field_access
        elif o in (mir.LDSFLD, mir.STSFLD):
            base = t.static_access
        elif o == mir.BOX:
            base = t.box
        elif o == mir.UNBOX:
            base = t.unbox
        elif o in (mir.CASTCLASS, mir.ISINST):
            base = t.cast_check
        elif o == mir.STRUCT_COPY:
            base = 1  # rep-movs setup; per-field part charged dynamically
        elif o == mir.RET:
            base = 2
        elif o in (mir.THROW, mir.RETHROW):
            base = 2  # dispatch charged dynamically
        elif o in (mir.LEAVE, mir.ENDFINALLY):
            base = t.branch
        else:
            base = 1
        if o == mir.DIV and config.cdq_emulation and k in ("i4", "i8"):
            base += 3 * t.mem_operand  # the emulated cdq load/shift sequence
        # memory penalty: one ``mem_operand`` per vreg operand (the
        # vreg-holding fields among a/b/c, then dst, then args) not held in
        # a register
        penalty = 0
        for f in _vreg_fields(o):
            v = getattr(ins, f)
            if isinstance(v, int) and v >= 0 and (v >= n_reg or not in_reg[v]):
                penalty += mem_operand
        v = ins.dst
        if v >= 0 and (v >= n_reg or not in_reg[v]):
            penalty += mem_operand
        if ins.args:
            for v in ins.args:
                if v >= n_reg or not in_reg[v]:
                    penalty += mem_operand
        ins.cost = base + penalty
