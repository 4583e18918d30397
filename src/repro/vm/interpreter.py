"""Direct CIL interpreter — the *semantic reference* engine.

Single-threaded, no cycle accounting beyond a coarse instruction counter:
used to validate benchmark computations (paper section 3.4) and as the
differential-testing oracle for the JIT pipeline.  The measured engine is
:mod:`repro.vm.machine` (MIR executor + runtime profile).

Design notes:

* Guest calls use host recursion (bounded by the scaled benchmark sizes).
* int32/int64 arithmetic wraps via :mod:`repro.vm.values`; float32 results
  round through single precision.  Integer division truncates toward zero
  (C semantics), unlike Python's floor division.
* Exceptions follow the CLI two-pass model: find the innermost matching
  catch, then unwind through intervening finally handlers.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..cil import cts, opcodes as op
from ..cil.instructions import FieldRef, MethodRef
from ..cil.metadata import Assembly, MethodDef
from ..cil.verifier import stack_facts
from ..errors import VMError
from .bench import BenchRecorder
from .exceptions import GuestException, make_exception, matches
from .intrinsics import INTRINSICS, JavaRandom, Serializer, THREADING_CLASSES
from .loader import LoadedAssembly
from .objects import (
    BoxedValue,
    MDArray,
    ObjectInstance,
    SZArray,
    StructValue,
)
from .values import (
    float_to_i32,
    float_to_i64,
    i8 as wrap_i8,
    i16 as wrap_i16,
    i32,
    i64,
    r4,
    u8 as wrap_u8,
    u16 as wrap_u16,
)


def _int_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _int_rem(a: int, b: int) -> int:
    return a - _int_div(a, b) * b


class Interpreter:
    """Executes a loaded assembly by walking CIL directly."""

    def __init__(self, loaded: LoadedAssembly, max_instructions: int = 500_000_000):
        self.loaded = loaded
        self.icount = 0
        self.max_instructions = max_instructions
        self.stdout: List[str] = []
        self.rng = JavaRandom()
        self.serializer = Serializer()
        self.bench = BenchRecorder(self.now)
        self.allocated_bytes = 0
        # single-threaded monitor bookkeeping (reentrancy only)
        self._monitor_depth: Dict[int, int] = {}

    # ----------------------------------------------------------- host hooks

    def now(self) -> int:
        return self.icount

    def charge_units(self, kind: str, n: int) -> None:
        self.icount += n  # coarse: one tick per unit

    def gc_collect(self) -> None:
        return None

    def total_allocated(self) -> int:
        return self.allocated_bytes

    def thread_count(self) -> int:
        return 1

    # ---------------------------------------------------------------- public

    def run(self, entry: Optional[MethodDef] = None, args: Optional[List] = None):
        """Run static constructors then the entry point; returns its value."""
        for cctor in self.loaded.static_constructors():
            self.call(cctor, [])
        entry = entry or self.loaded.entry_point
        if entry is None:
            raise VMError("assembly has no entry point")
        return self.call(entry, list(args or []))

    # ----------------------------------------------------------------- calls

    def call(self, method: MethodDef, args: List):
        if method.body:
            return self._exec(method, args)
        raise VMError(f"cannot interpret bodyless method {method.full_name}")

    def _invoke_ref(self, ref: MethodRef, args: List, virtual: bool):
        if ref.class_name in THREADING_CLASSES:
            return self._threading_intrinsic(ref, args)
        key = (ref.class_name, ref.name, len(ref.param_types))
        fn = INTRINSICS.get(key)
        if fn is not None:
            return fn(self, args)
        method = self.loaded.resolve_method(ref)
        if virtual and not ref.is_static:
            receiver = args[0]
            if receiver is None:
                raise make_exception(self.loaded, "NullReferenceException")
            if isinstance(receiver, (ObjectInstance, StructValue)):
                method = receiver.rtclass.resolve_virtual(ref.name, ref.param_types)
        elif not ref.is_static and args and args[0] is None:
            raise make_exception(self.loaded, "NullReferenceException")
        return self.call(method, args)

    def _threading_intrinsic(self, ref: MethodRef, args: List):
        """Single-threaded degenerate semantics: monitors are reentrant
        no-ops, thread creation is unsupported."""
        name = ref.name
        if ref.class_name.endswith("Monitor"):
            if not args or args[0] is None:
                raise make_exception(self.loaded, "NullReferenceException")
            oid = id(args[0])
            if name == "Enter":
                self._monitor_depth[oid] = self._monitor_depth.get(oid, 0) + 1
                return None
            if name == "Exit":
                depth = self._monitor_depth.get(oid, 0)
                if depth <= 0:
                    raise make_exception(
                        self.loaded, "SynchronizationException", "Exit without Enter"
                    )
                self._monitor_depth[oid] = depth - 1
                return None
            if name in ("Pulse", "PulseAll"):
                return None
            if name == "Wait":
                raise VMError("Monitor.Wait requires the threaded engine")
        raise VMError(f"{ref.full_name} requires the threaded engine")

    # ------------------------------------------------------------- allocation

    def _new_szarray(self, elem, length: int) -> SZArray:
        if length < 0:
            raise make_exception(self.loaded, "ArgumentException", "negative length")
        arr = SZArray(elem, length)
        if isinstance(elem, cts.NamedType) and elem.is_value_type:
            rc = self.loaded.get_class(elem.name)
            arr.data = [self.loaded.new_instance(rc) for _ in range(length)]
        self.allocated_bytes += 16 + 8 * length
        return arr

    def _new_mdarray(self, elem, dims) -> MDArray:
        if any(d < 0 for d in dims):
            raise make_exception(self.loaded, "ArgumentException", "negative length")
        arr = MDArray(elem, dims)
        self.allocated_bytes += 16 + 8 * len(arr.data)
        return arr

    # ------------------------------------------------------------------ body

    def _exec(self, method: MethodDef, args: List, entry_pc: int = 0,
              locals_: Optional[List] = None, until_endfinally: bool = False):
        """Execute ``method`` from ``entry_pc``.  With ``until_endfinally``
        the loop runs a finally handler in the caller's frame (shared
        ``locals_``) and returns when its ``endfinally`` is reached."""
        body = method.body
        kinds = stack_facts(method).kinds
        loaded = self.loaded
        if locals_ is None:
            locals_ = [None] * len(method.locals)
            for i, lv in enumerate(method.locals):
                t = lv.var_type
                if t.is_float:
                    locals_[i] = 0.0
                elif t.is_primitive:
                    locals_[i] = 0
        stack: List = []
        pc = entry_pc
        regions = method.regions
        frame_exc = None

        while True:
            self.icount += 1
            if self.icount > self.max_instructions:
                raise VMError(
                    f"instruction budget exceeded in {method.full_name}"
                )
            instr = body[pc]
            code = instr.opcode
            try:
                # ---- constants / locals --------------------------------
                if code == op.LDLOC:
                    stack.append(locals_[instr.operand])
                elif code == op.LDC_I4 or code == op.LDC_I8:
                    stack.append(instr.operand)
                elif code == op.LDC_R8:
                    stack.append(instr.operand)
                elif code == op.LDC_R4:
                    stack.append(r4(instr.operand))
                elif code == op.STLOC:
                    v = stack.pop()
                    if kinds.get(pc) == "r4" and isinstance(v, float):
                        v = r4(v)
                    locals_[instr.operand] = v
                elif code == op.LDARG:
                    stack.append(args[instr.operand])
                elif code == op.STARG:
                    v = stack.pop()
                    if kinds.get(pc) == "r4" and isinstance(v, float):
                        v = r4(v)
                    args[instr.operand] = v
                elif code == op.LDSTR:
                    stack.append(instr.operand)
                elif code == op.LDNULL:
                    stack.append(None)

                # ---- arithmetic ----------------------------------------
                elif code == op.ADD:
                    b = stack.pop(); a = stack.pop()
                    k = kinds[pc]
                    if k == "i4":
                        stack.append(i32(a + b))
                    elif k == "i8":
                        stack.append(i64(a + b))
                    elif k == "r4":
                        stack.append(r4(a + b))
                    else:
                        stack.append(a + b)
                elif code == op.SUB:
                    b = stack.pop(); a = stack.pop()
                    k = kinds[pc]
                    if k == "i4":
                        stack.append(i32(a - b))
                    elif k == "i8":
                        stack.append(i64(a - b))
                    elif k == "r4":
                        stack.append(r4(a - b))
                    else:
                        stack.append(a - b)
                elif code == op.MUL:
                    b = stack.pop(); a = stack.pop()
                    k = kinds[pc]
                    if k == "i4":
                        stack.append(i32(a * b))
                    elif k == "i8":
                        stack.append(i64(a * b))
                    elif k == "r4":
                        stack.append(r4(a * b))
                    else:
                        stack.append(a * b)
                elif code == op.DIV:
                    b = stack.pop(); a = stack.pop()
                    k = kinds[pc]
                    if k in ("i4", "i8"):
                        if b == 0:
                            raise make_exception(loaded, "DivideByZeroException")
                        q = _int_div(a, b)
                        stack.append(i32(q) if k == "i4" else i64(q))
                    else:
                        if b == 0.0:
                            if a == 0.0 or a != a:
                                result = float("nan")
                            else:
                                sign = (a > 0) == (not math.copysign(1, b) < 0)
                                result = float("inf") if sign else float("-inf")
                            stack.append(r4(result) if k == "r4" else result)
                        else:
                            q = a / b
                            stack.append(r4(q) if k == "r4" else q)
                elif code == op.REM:
                    b = stack.pop(); a = stack.pop()
                    k = kinds[pc]
                    if k in ("i4", "i8"):
                        if b == 0:
                            raise make_exception(loaded, "DivideByZeroException")
                        stack.append(_int_rem(a, b))
                    else:
                        stack.append(math.fmod(a, b) if b != 0.0 else float("nan"))
                elif code == op.NEG:
                    a = stack.pop()
                    k = kinds[pc]
                    if k == "i4":
                        stack.append(i32(-a))
                    elif k == "i8":
                        stack.append(i64(-a))
                    else:
                        stack.append(-a)
                elif code == op.AND:
                    b = stack.pop(); a = stack.pop()
                    stack.append(a & b)
                elif code == op.OR:
                    b = stack.pop(); a = stack.pop()
                    stack.append(a | b)
                elif code == op.XOR:
                    b = stack.pop(); a = stack.pop()
                    stack.append(a ^ b)
                elif code == op.NOT:
                    a = stack.pop()
                    k = kinds[pc]
                    stack.append(i32(~a) if k == "i4" else i64(~a))
                elif code == op.SHL:
                    b = stack.pop(); a = stack.pop()
                    k = kinds[pc]
                    if k == "i4":
                        stack.append(i32(a << (b & 31)))
                    else:
                        stack.append(i64(a << (b & 63)))
                elif code == op.SHR:
                    b = stack.pop(); a = stack.pop()
                    k = kinds[pc]
                    stack.append(a >> (b & (31 if k == "i4" else 63)))
                elif code == op.SHR_UN:
                    b = stack.pop(); a = stack.pop()
                    k = kinds[pc]
                    if k == "i4":
                        stack.append(i32((a & 0xFFFFFFFF) >> (b & 31)))
                    else:
                        stack.append(i64((a & 0xFFFFFFFFFFFFFFFF) >> (b & 63)))

                # ---- comparisons ---------------------------------------
                elif code == op.CEQ:
                    b = stack.pop(); a = stack.pop()
                    if isinstance(a, float) and a != a:
                        stack.append(0)
                    elif isinstance(b, float) and b != b:
                        stack.append(0)
                    else:
                        stack.append(1 if a is b or a == b else 0)
                elif code == op.CGT:
                    b = stack.pop(); a = stack.pop()
                    stack.append(1 if _ordered_gt(a, b) else 0)
                elif code == op.CLT:
                    b = stack.pop(); a = stack.pop()
                    stack.append(1 if _ordered_lt(a, b) else 0)

                # ---- conversions ---------------------------------------
                elif code == op.CONV_I4:
                    a = stack.pop()
                    stack.append(float_to_i32(a) if isinstance(a, float) else i32(a))
                elif code == op.CONV_I8:
                    a = stack.pop()
                    stack.append(float_to_i64(a) if isinstance(a, float) else i64(a))
                elif code == op.CONV_R4:
                    stack.append(r4(float(stack.pop())))
                elif code == op.CONV_R8:
                    stack.append(float(stack.pop()))
                elif code == op.CONV_I1:
                    a = stack.pop()
                    stack.append(wrap_i8(float_to_i32(a) if isinstance(a, float) else a))
                elif code == op.CONV_U1:
                    a = stack.pop()
                    stack.append(wrap_u8(float_to_i32(a) if isinstance(a, float) else a))
                elif code == op.CONV_I2:
                    a = stack.pop()
                    stack.append(wrap_i16(float_to_i32(a) if isinstance(a, float) else a))
                elif code == op.CONV_U2:
                    a = stack.pop()
                    stack.append(wrap_u16(float_to_i32(a) if isinstance(a, float) else a))

                # ---- control flow --------------------------------------
                elif code == op.BR:
                    pc = instr.operand
                    continue
                elif code == op.BRTRUE:
                    v = stack.pop()
                    if v is not None and v != 0:
                        pc = instr.operand
                        continue
                elif code == op.BRFALSE:
                    v = stack.pop()
                    if v is None or v == 0:
                        pc = instr.operand
                        continue
                elif code in (op.BEQ, op.BNE, op.BGE, op.BGT, op.BLE, op.BLT):
                    b = stack.pop(); a = stack.pop()
                    if _branch_taken(code, a, b):
                        pc = instr.operand
                        continue
                elif code == op.SWITCH:
                    v = stack.pop()
                    targets = instr.operand
                    if 0 <= v < len(targets):
                        pc = targets[v]
                        continue
                elif code == op.RET:
                    if method.return_type is cts.VOID:
                        return None
                    return stack.pop()

                # ---- calls ----------------------------------------------
                elif code == op.CALL or code == op.CALLVIRT:
                    ref: MethodRef = instr.operand
                    n = len(ref.param_types) + (0 if ref.is_static else 1)
                    call_args = stack[len(stack) - n:] if n else []
                    if n:
                        del stack[len(stack) - n:]
                    result = self._invoke_ref(ref, call_args, code == op.CALLVIRT)
                    if ref.return_type is not cts.VOID:
                        stack.append(result)
                elif code == op.NEWOBJ:
                    ref = instr.operand
                    n = len(ref.param_types)
                    call_args = stack[len(stack) - n:] if n else []
                    if n:
                        del stack[len(stack) - n:]
                    rc = loaded.get_class(ref.class_name)
                    obj = loaded.new_instance(rc)
                    self.allocated_bytes += rc.instance_size
                    ctor = rc.find_method(".ctor", ref.param_types)
                    if ctor is not None:
                        self.call(ctor, [obj] + call_args)
                    elif n:
                        raise VMError(f"no matching constructor on {rc.name}")
                    stack.append(obj)

                # ---- objects / fields -----------------------------------
                elif code == op.LDFLD:
                    obj = stack.pop()
                    if obj is None:
                        raise make_exception(loaded, "NullReferenceException")
                    fref: FieldRef = instr.operand
                    _rc, slot = loaded.resolve_field(fref)
                    stack.append(obj.fields[slot])
                elif code == op.STFLD:
                    v = stack.pop()
                    obj = stack.pop()
                    if obj is None:
                        raise make_exception(loaded, "NullReferenceException")
                    fref = instr.operand
                    _rc, slot = loaded.resolve_field(fref)
                    if kinds.get(pc) == "r4" and isinstance(v, float):
                        v = r4(v)
                    obj.fields[slot] = v
                elif code == op.LDSFLD:
                    fref = instr.operand
                    rc, slot = loaded.resolve_field(fref)
                    stack.append(rc.statics[slot])
                elif code == op.STSFLD:
                    v = stack.pop()
                    fref = instr.operand
                    rc, slot = loaded.resolve_field(fref)
                    if kinds.get(pc) == "r4" and isinstance(v, float):
                        v = r4(v)
                    rc.statics[slot] = v

                # ---- arrays ---------------------------------------------
                elif code == op.NEWARR:
                    length = stack.pop()
                    stack.append(self._new_szarray(instr.operand, length))
                elif code == op.LDLEN:
                    arr = stack.pop()
                    if arr is None:
                        raise make_exception(loaded, "NullReferenceException")
                    stack.append(arr.length)
                elif code == op.LDELEM:
                    index = stack.pop()
                    arr = stack.pop()
                    if arr is None:
                        raise make_exception(loaded, "NullReferenceException")
                    data = arr.data
                    if index < 0 or index >= len(data):
                        raise make_exception(loaded, "IndexOutOfRangeException")
                    stack.append(data[index])
                elif code == op.STELEM:
                    v = stack.pop()
                    index = stack.pop()
                    arr = stack.pop()
                    if arr is None:
                        raise make_exception(loaded, "NullReferenceException")
                    data = arr.data
                    if index < 0 or index >= len(data):
                        raise make_exception(loaded, "IndexOutOfRangeException")
                    if kinds.get(pc) == "r4" and isinstance(v, float):
                        v = r4(v)
                    data[index] = v
                elif code == op.NEWARR_MD:
                    elem, rank = instr.operand
                    dims = stack[len(stack) - rank:]
                    del stack[len(stack) - rank:]
                    stack.append(self._new_mdarray(elem, dims))
                elif code == op.LDELEM_MD:
                    elem, rank = instr.operand
                    idxs = stack[len(stack) - rank:]
                    del stack[len(stack) - rank:]
                    arr = stack.pop()
                    if arr is None:
                        raise make_exception(loaded, "NullReferenceException")
                    flat = arr.flat_index(idxs)
                    if flat < 0:
                        raise make_exception(loaded, "IndexOutOfRangeException")
                    stack.append(arr.data[flat])
                elif code == op.STELEM_MD:
                    elem, rank = instr.operand
                    v = stack.pop()
                    idxs = stack[len(stack) - rank:]
                    del stack[len(stack) - rank:]
                    arr = stack.pop()
                    if arr is None:
                        raise make_exception(loaded, "NullReferenceException")
                    flat = arr.flat_index(idxs)
                    if flat < 0:
                        raise make_exception(loaded, "IndexOutOfRangeException")
                    if kinds.get(pc) == "r4" and isinstance(v, float):
                        v = r4(v)
                    arr.data[flat] = v

                # ---- boxing / casts --------------------------------------
                elif code == op.BOX:
                    v = stack.pop()
                    self.allocated_bytes += 16
                    stack.append(BoxedValue(instr.operand.name, v))
                elif code == op.UNBOX:
                    v = stack.pop()
                    if v is None:
                        raise make_exception(loaded, "NullReferenceException")
                    if not isinstance(v, BoxedValue):
                        raise make_exception(loaded, "InvalidCastException")
                    target = instr.operand
                    if isinstance(target, cts.NamedType):
                        if not isinstance(v.value, StructValue) or v.value.rtclass.name != target.name:
                            raise make_exception(loaded, "InvalidCastException")
                        stack.append(v.value.copy())
                    else:
                        if not _box_matches(v.type_name, target.name):
                            raise make_exception(loaded, "InvalidCastException")
                        stack.append(v.value)
                elif code == op.CASTCLASS:
                    v = stack.pop()
                    if v is not None and not self._isinst(v, instr.operand):
                        raise make_exception(loaded, "InvalidCastException")
                    stack.append(v)
                elif code == op.ISINST:
                    v = stack.pop()
                    stack.append(v if v is not None and self._isinst(v, instr.operand) else None)
                elif code == op.STRUCT_COPY:
                    v = stack.pop()
                    stack.append(v.copy() if isinstance(v, StructValue) else v)
                elif code == op.DUP:
                    stack.append(stack[-1])
                elif code == op.POP:
                    stack.pop()
                elif code == op.NOP:
                    pass

                # ---- exceptions -----------------------------------------
                elif code == op.THROW:
                    v = stack.pop()
                    if v is None:
                        raise make_exception(loaded, "NullReferenceException")
                    raise GuestException(v)
                elif code == op.RETHROW:
                    if frame_exc is None:
                        raise VMError("rethrow with no active exception")
                    raise GuestException(frame_exc)
                elif code == op.LEAVE:
                    target = instr.operand
                    stack.clear()
                    # run intervening finally handlers, innermost first
                    pending = [
                        r for r in regions
                        if r.kind == "finally"
                        and r.covers(pc)
                        and not r.covers(target)
                    ]
                    pending.sort(key=lambda r: r.try_start, reverse=True)
                    for r in pending:
                        self._run_finally(method, r, args, locals_, kinds)
                    pc = target
                    continue
                elif code == op.ENDFINALLY:
                    if until_endfinally:
                        return None
                    raise VMError("endfinally outside handler execution")
                else:  # pragma: no cover - defensive
                    raise VMError(f"unhandled opcode {instr.mnemonic}")
            except GuestException as guest:
                new_pc = self._dispatch_exception(
                    method, pc, guest, args, locals_, kinds, stack
                )
                if new_pc is None:
                    raise
                frame_exc = guest.obj
                pc = new_pc
                continue
            pc += 1

    def _dispatch_exception(self, method, pc, guest, args, locals_, kinds, stack):
        """Find a matching catch in this frame; run intervening finallies.
        Returns the new pc or None to propagate."""
        regions = method.regions
        exc_rc = guest.obj.rtclass
        # innermost-first ordering by try extent
        candidates = [r for r in regions if r.covers(pc)]
        candidates.sort(key=lambda r: (r.try_end - r.try_start, r.try_start))
        target = None
        for r in candidates:
            if r.kind == "catch":
                catch_rc = self.loaded.get_class(r.catch_type)
                if matches(exc_rc, catch_rc):
                    target = r
                    break
        if target is None:
            # unwind: run all finally handlers covering pc, innermost first
            finallies = [r for r in candidates if r.kind == "finally"]
            for r in finallies:
                self._run_finally(method, r, args, locals_, kinds)
            return None
        # second pass: finallies nested inside the catch's protected region
        finallies = [
            r
            for r in candidates
            if r.kind == "finally"
            and (r.try_end - r.try_start) < (target.try_end - target.try_start)
        ]
        for r in finallies:
            self._run_finally(method, r, args, locals_, kinds)
        stack.clear()
        stack.append(guest.obj)
        return target.handler_start

    def _run_finally(self, method, region, args, locals_, kinds):
        """Execute a finally handler to its endfinally, sharing the frame's
        locals and args (full opcode support via the main dispatch loop)."""
        self._exec(method, args, entry_pc=region.handler_start,
                   locals_=locals_, until_endfinally=True)

    def _isinst(self, v, target) -> bool:
        if isinstance(target, cts.ObjectType):
            return True
        if isinstance(v, str):
            return isinstance(target, cts.StringType)
        if isinstance(v, (SZArray, MDArray)):
            return target.is_array
        if isinstance(v, BoxedValue):
            return isinstance(target, cts.NamedType) and v.type_name == target.name
        if isinstance(v, ObjectInstance):
            if not isinstance(target, cts.NamedType):
                return False
            target_rc = self.loaded.classes.get(target.name)
            return target_rc is not None and v.rtclass.is_subclass_of(target_rc)
        return False


def _ordered_gt(a, b) -> bool:
    if isinstance(a, float) and a != a:
        return False
    if isinstance(b, float) and b != b:
        return False
    return a > b


def _ordered_lt(a, b) -> bool:
    if isinstance(a, float) and a != a:
        return False
    if isinstance(b, float) and b != b:
        return False
    return a < b


def _branch_taken(code: int, a, b) -> bool:
    nan = (isinstance(a, float) and a != a) or (isinstance(b, float) and b != b)
    if code == op.BEQ:
        return not nan and (a is b or a == b)
    if code == op.BNE:
        return nan or not (a is b or a == b)
    if nan:
        return False
    if code == op.BGE:
        return a >= b
    if code == op.BGT:
        return a > b
    if code == op.BLE:
        return a <= b
    return a < b  # BLT


def _box_matches(box_type: str, target_name: str) -> bool:
    if box_type == target_name:
        return True
    group_int = {"int32", "int16", "int8", "uint8", "uint16", "char", "bool"}
    return box_type in group_int and target_name in group_int
