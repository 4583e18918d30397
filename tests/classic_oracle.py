"""The classic fetch/decode MIR loop: the tests' differential cycle oracle.

:class:`ClassicMachine` is a :class:`~repro.vm.machine.Machine` whose
``_step_thread`` is one if/elif chain per MIR instruction instead of the
product's threaded-code driver (:mod:`repro.vm.dispatch`).  It is the only
implementation independent of the generated templates, so the
differential tests (``tests.conftest.use_engine("classic")``) hold every
simulated number of the threaded engine to it.  It lives under ``tests/``
so that nothing in the ``repro`` package can build it.

Run as a module, it checks whole collections against the threaded engine::

    python -m tests.classic_oracle experiments   # every paper experiment
    python -m tests.classic_oracle suite         # the full-suite artifact

``experiments`` evaluates every paper experiment at scale 0.25 with no
metrics or observer attached, so the threaded side runs superinstructions,
loop latches and the tier memory.  ``suite`` collects the full-suite
artifact at ``--jobs auto`` into ``dispatch-artifacts/``; every cell
attaches ``MachineMetrics``, an observer without a per-instruction hook,
so those machines fuse too and their fused array accesses report the
memory tax to the metrics.  Each
mode runs once with the harness runner's ``Machine`` patched to
:class:`ClassicMachine` and once as shipped, and exits 0 only when the
two outputs are byte-identical, the oracle run built a ClassicMachine and
the shipped run built a superinstruction.  Pool workers fork after the
patch, so both counts are kept in marker files, one per process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import tempfile
from dataclasses import asdict
from unittest import mock

from repro.cil import cts
from repro.errors import VMError
from repro.harness import runner
from repro.harness.experiments import ALL_EXPERIMENTS, evaluate_all
from repro.jit import mir
from repro.metrics import baseline
from repro.observe.recorder import CAT_DISPATCH, CAT_EXECUTE, CAT_MEMTAX
from repro.parallel import CompileCache
from repro.vm import dispatch
from repro.vm.exceptions import GuestException, make_exception
from repro.vm.machine import Machine, _CONV_FNS, _box_matches
from repro.vm.objects import BoxedValue, MDArray, StructValue
from repro.vm.threads import RUNNABLE, Frame, GuestThread
from repro.vm.values import i32, i64, r4


def _int_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


class ClassicMachine(Machine):
    """The classic fetch/decode MIR loop: the differential cycle oracle.

    One if/elif chain per instruction, re-deriving operands, costs and
    jump targets from each :class:`~repro.jit.mir.MInstr`.  Every
    simulated number it produces is bit-identical to :class:`Machine`'s
    threaded engine; tests difference generated programs against it
    (see tests/test_dispatch_equivalence.py).  No product path builds
    one."""

    def _step_thread(self, thread: GuestThread, budget: int) -> None:
        """Run ``thread`` for up to ``budget`` cycles (approximately)."""
        loaded = self.loaded
        costs = self.costs
        observer = self.observer
        # hot-loop locals; None when observation is off so the only cost of
        # the instrumentation is one is-None test per instruction
        obs_instr = None if observer is None else observer.instr
        obs_dyn = None if observer is None else observer.dyn
        # fault-injection locals: -1 means disarmed, so the per-call checks
        # below stay single int compares and cost zero simulated cycles
        faults = self.faults
        stack_limit = -1 if faults is None else faults.stack_limit
        spent = 0
        total_spent = 0
        # instruction burst bound: coarse for big quanta (cheap), fine for
        # small quanta (lets tests schedule at fine grain)
        burst = budget >> 1
        if burst > 4096:
            burst = 4096
        elif burst < 8:
            burst = 8
        while thread.frames and total_spent < budget and thread.state is RUNNABLE:
            frame = thread.frames[-1]
            fn = frame.fn
            code = fn.code
            R = frame.R
            pc = frame.pc
            icount = 0
            rebind = False
            try:
                if faults is not None and faults.pending is not None:
                    injected = faults.take_pending(thread)
                    if injected is not None:
                        # an exception seeded during unwind fires at the
                        # entry of the finally handler the dispatcher just
                        # targeted, and goes through the same two-pass
                        # machinery as any guest throw
                        raise make_exception(loaded, injected[0], injected[1])
                while True:
                    ins = code[pc]
                    o = ins.op
                    spent += ins.cost
                    icount += 1
                    if obs_instr is not None:
                        obs_instr(fn, o, ins.cost)

                    if o == 0:  # MOV
                        v = R[ins.a]
                        if ins.kind == "r4" and type(v) is float:
                            v = r4(v)
                        R[ins.dst] = v
                        pc += 1
                    elif o == 1:  # LDI
                        R[ins.dst] = ins.a
                        pc += 1
                    elif o == mir.ADD:
                        a = R[ins.a]; b = R[ins.b]
                        k = ins.kind
                        if k == "i4":
                            R[ins.dst] = i32(a + b)
                        elif k == "r8":
                            R[ins.dst] = a + b
                        elif k == "i8":
                            R[ins.dst] = i64(a + b)
                        else:
                            R[ins.dst] = r4(a + b)
                        pc += 1
                    elif o == mir.SUB:
                        a = R[ins.a]; b = R[ins.b]
                        k = ins.kind
                        if k == "i4":
                            R[ins.dst] = i32(a - b)
                        elif k == "r8":
                            R[ins.dst] = a - b
                        elif k == "i8":
                            R[ins.dst] = i64(a - b)
                        else:
                            R[ins.dst] = r4(a - b)
                        pc += 1
                    elif o == mir.MUL:
                        a = R[ins.a]; b = R[ins.b]
                        k = ins.kind
                        if k == "i4":
                            R[ins.dst] = i32(a * b)
                        elif k == "r8":
                            R[ins.dst] = a * b
                        elif k == "i8":
                            R[ins.dst] = i64(a * b)
                        else:
                            R[ins.dst] = r4(a * b)
                        pc += 1
                    elif o == mir.DIV:
                        a = R[ins.a]; b = R[ins.b]
                        k = ins.kind
                        if k in ("i4", "i8"):
                            if b == 0:
                                raise make_exception(loaded, "DivideByZeroException")
                            q = _int_div(a, b)
                            R[ins.dst] = i32(q) if k == "i4" else i64(q)
                        else:
                            if b == 0.0:
                                if a == 0.0 or a != a:
                                    q = float("nan")
                                else:
                                    pos = (a > 0) == (math.copysign(1.0, b) > 0)
                                    q = float("inf") if pos else float("-inf")
                            else:
                                q = a / b
                            R[ins.dst] = r4(q) if k == "r4" else q
                        pc += 1
                    elif o == mir.REM:
                        a = R[ins.a]; b = R[ins.b]
                        k = ins.kind
                        if k in ("i4", "i8"):
                            if b == 0:
                                raise make_exception(loaded, "DivideByZeroException")
                            R[ins.dst] = a - _int_div(a, b) * b
                        else:
                            R[ins.dst] = math.fmod(a, b) if b != 0.0 else float("nan")
                        pc += 1
                    elif o in (mir.AND, mir.OR, mir.XOR):
                        a = R[ins.a]; b = R[ins.b]
                        R[ins.dst] = (a & b) if o == mir.AND else (a | b) if o == mir.OR else (a ^ b)
                        pc += 1
                    elif o == mir.SHL:
                        a = R[ins.a]; b = R[ins.b]
                        if ins.kind == "i4":
                            R[ins.dst] = i32(a << (b & 31))
                        else:
                            R[ins.dst] = i64(a << (b & 63))
                        pc += 1
                    elif o == mir.SHR:
                        a = R[ins.a]; b = R[ins.b]
                        R[ins.dst] = a >> (b & (31 if ins.kind == "i4" else 63))
                        pc += 1
                    elif o == mir.SHRU:
                        a = R[ins.a]; b = R[ins.b]
                        if ins.kind == "i4":
                            R[ins.dst] = i32((a & 0xFFFFFFFF) >> (b & 31))
                        else:
                            R[ins.dst] = i64((a & 0xFFFFFFFFFFFFFFFF) >> (b & 63))
                        pc += 1
                    elif o == mir.NEG:
                        a = R[ins.a]
                        k = ins.kind
                        R[ins.dst] = i32(-a) if k == "i4" else i64(-a) if k == "i8" else -a
                        pc += 1
                    elif o == mir.NOT:
                        a = R[ins.a]
                        R[ins.dst] = i32(~a) if ins.kind == "i4" else i64(~a)
                        pc += 1
                    elif o in (mir.CEQ, mir.CNE, mir.CLT, mir.CLE, mir.CGT, mir.CGE):
                        a = R[ins.a]; b = R[ins.b]
                        nan = (type(a) is float and a != a) or (type(b) is float and b != b)
                        if o == mir.CEQ:
                            res = 0 if nan else (1 if (a is b or a == b) else 0)
                        elif o == mir.CNE:
                            res = 1 if nan else (0 if (a is b or a == b) else 1)
                        elif nan:
                            res = 0
                        elif o == mir.CLT:
                            res = 1 if a < b else 0
                        elif o == mir.CLE:
                            res = 1 if a <= b else 0
                        elif o == mir.CGT:
                            res = 1 if a > b else 0
                        else:
                            res = 1 if a >= b else 0
                        R[ins.dst] = res
                        pc += 1
                    elif o == mir.CONV:
                        R[ins.dst] = _CONV_FNS[ins.extra](R[ins.a])
                        pc += 1
                    elif o == mir.JMP:
                        pc = ins.target
                    elif o == mir.JTRUE:
                        v = R[ins.a]
                        pc = ins.target if (v is not None and v != 0) else pc + 1
                    elif o == mir.JFALSE:
                        v = R[ins.a]
                        pc = ins.target if (v is None or v == 0) else pc + 1
                    elif o in (mir.JEQ, mir.JNE, mir.JLT, mir.JLE, mir.JGT, mir.JGE):
                        a = R[ins.a]; b = R[ins.b]
                        nan = (type(a) is float and a != a) or (type(b) is float and b != b)
                        if o == mir.JEQ:
                            taken = (not nan) and (a is b or a == b)
                        elif o == mir.JNE:
                            taken = nan or not (a is b or a == b)
                        elif nan:
                            taken = False
                        elif o == mir.JLT:
                            taken = a < b
                        elif o == mir.JLE:
                            taken = a <= b
                        elif o == mir.JGT:
                            taken = a > b
                        else:
                            taken = a >= b
                        pc = ins.target if taken else pc + 1
                    elif o == mir.SWITCH:
                        v = R[ins.a]
                        targets = ins.extra
                        pc = targets[v] if 0 <= v < len(targets) else pc + 1
                    elif o == mir.LDELEM:
                        arr = R[ins.a]
                        if arr is None:
                            raise make_exception(loaded, "NullReferenceException")
                        idx = R[ins.b]
                        data = arr.data
                        if idx < 0 or idx >= len(data):
                            raise make_exception(loaded, "IndexOutOfRangeException")
                        if self.large_working_set:
                            spent += costs.large_array_extra
                            if obs_dyn is not None:
                                obs_dyn(fn, CAT_MEMTAX, costs.large_array_extra)
                        R[ins.dst] = data[idx]
                        pc += 1
                    elif o == mir.STELEM:
                        arr = R[ins.a]
                        if arr is None:
                            raise make_exception(loaded, "NullReferenceException")
                        idx = R[ins.b]
                        data = arr.data
                        if idx < 0 or idx >= len(data):
                            raise make_exception(loaded, "IndexOutOfRangeException")
                        if self.large_working_set:
                            spent += costs.large_array_extra
                            if obs_dyn is not None:
                                obs_dyn(fn, CAT_MEMTAX, costs.large_array_extra)
                        v = R[ins.c]
                        if ins.kind == "r4" and type(v) is float:
                            v = r4(v)
                        data[idx] = v
                        pc += 1
                    elif o == mir.LDFLD:
                        obj = R[ins.a]
                        if obj is None:
                            raise make_exception(loaded, "NullReferenceException")
                        R[ins.dst] = obj.fields[ins.b]
                        pc += 1
                    elif o == mir.STFLD:
                        obj = R[ins.a]
                        if obj is None:
                            raise make_exception(loaded, "NullReferenceException")
                        v = R[ins.c]
                        if ins.kind == "r4" and type(v) is float:
                            v = r4(v)
                        obj.fields[ins.b] = v
                        pc += 1
                    elif o == mir.LDSFLD:
                        rc, slot = ins.extra
                        R[ins.dst] = rc.statics[slot]
                        pc += 1
                    elif o == mir.STSFLD:
                        rc, slot = ins.extra
                        v = R[ins.c]
                        if ins.kind == "r4" and type(v) is float:
                            v = r4(v)
                        rc.statics[slot] = v
                        pc += 1
                    elif o == mir.CALL:
                        frame.pc = pc + 1
                        kind = ins.extra[0]
                        if kind == "intrinsic":
                            _k, fn_i, cost_i, ref = ins.extra
                            spent += cost_i
                            if obs_dyn is not None:
                                obs_dyn(fn, CAT_DISPATCH, cost_i)
                            self.cycles += spent
                            total_spent += spent
                            spent = 0
                            argv = [R[v] for v in ins.args] if ins.args else []
                            result = fn_i(self, argv)
                            if ins.dst >= 0:
                                R[ins.dst] = result
                            pc += 1
                        elif kind == "static":
                            method = ins.extra[1]
                            spent += costs.call
                            if not method.is_static and ins.args and R[ins.args[0]] is None:
                                raise make_exception(loaded, "NullReferenceException")
                            if 0 <= stack_limit <= len(thread.frames):
                                faults.record("stack_limit")
                                raise make_exception(
                                    loaded,
                                    "StackOverflowException",
                                    f"call depth {len(thread.frames)} at limit "
                                    f"{stack_limit}",
                                )
                            callee = self._function(method)
                            argv = [R[v] for v in ins.args] if ins.args else []
                            thread.frames.append(Frame(callee, argv, ret_dst=ins.dst))
                            if observer is not None:
                                obs_dyn(fn, CAT_DISPATCH, costs.call)
                                observer.enter(
                                    thread, callee, self.cycles + spent
                                )
                            rebind = True
                            break
                        elif kind == "virtual":
                            ref = ins.extra[1]
                            spent += costs.call + costs.virtual_call_extra
                            receiver = R[ins.args[0]]
                            if receiver is None:
                                raise make_exception(loaded, "NullReferenceException")
                            method = receiver.rtclass.resolve_virtual(
                                ref.name, ref.param_types
                            )
                            if 0 <= stack_limit <= len(thread.frames):
                                faults.record("stack_limit")
                                raise make_exception(
                                    loaded,
                                    "StackOverflowException",
                                    f"call depth {len(thread.frames)} at limit "
                                    f"{stack_limit}",
                                )
                            callee = self._function(method)
                            argv = [R[v] for v in ins.args]
                            thread.frames.append(Frame(callee, argv, ret_dst=ins.dst))
                            if observer is not None:
                                obs_dyn(
                                    fn,
                                    CAT_DISPATCH,
                                    costs.call + costs.virtual_call_extra,
                                )
                                observer.enter(
                                    thread, callee, self.cycles + spent
                                )
                            rebind = True
                            break
                        else:  # thread / monitor ops
                            _k, name, is_monitor = ins.extra
                            self.cycles += spent
                            total_spent += spent
                            spent = 0
                            argv = [R[v] for v in ins.args] if ins.args else []
                            if is_monitor:
                                self._monitor_op(thread, name, argv)
                                pc += 1
                                if thread.state is not RUNNABLE:
                                    frame.pc = pc
                                    return
                            else:
                                result = self._thread_op(thread, name, argv)
                                pc += 1
                                if result == "yield":
                                    frame.pc = pc
                                    return
                                if ins.dst >= 0:
                                    R[ins.dst] = result
                                if thread.state is not RUNNABLE:
                                    frame.pc = pc
                                    return
                    elif o == mir.RET:
                        value = R[ins.a] if isinstance(ins.a, int) and ins.a >= 0 else None
                        thread.frames.pop()
                        if observer is not None:
                            observer.exit(thread, self.cycles + spent)
                        if thread.frames:
                            caller = thread.frames[-1]
                            if frame.ret_dst >= 0:
                                caller.R[frame.ret_dst] = value
                        else:
                            self._finish_thread(thread, value)
                        rebind = True
                        break
                    elif o == mir.NEWOBJ:
                        rc, ctor = ins.extra
                        obj = loaded.new_instance(rc)
                        self.cycles += spent
                        total_spent += spent
                        spent = 0
                        self._alloc_charge(rc.instance_size)
                        R[ins.dst] = obj
                        if ctor is not None:
                            frame.pc = pc + 1
                            spent += costs.call
                            if 0 <= stack_limit <= len(thread.frames):
                                faults.record("stack_limit")
                                raise make_exception(
                                    loaded,
                                    "StackOverflowException",
                                    f"call depth {len(thread.frames)} at limit "
                                    f"{stack_limit}",
                                )
                            callee = self._function(ctor)
                            argv = [obj] + ([R[v] for v in ins.args] if ins.args else [])
                            thread.frames.append(Frame(callee, argv, ret_dst=-1))
                            if observer is not None:
                                obs_dyn(fn, CAT_DISPATCH, costs.call)
                                observer.enter(
                                    thread, callee, self.cycles + spent
                                )
                            rebind = True
                            break
                        pc += 1
                    elif o == mir.NEWARR:
                        length = R[ins.a]
                        self.cycles += spent
                        total_spent += spent
                        spent = 0
                        R[ins.dst] = self._new_szarray(ins.extra, length)
                        pc += 1
                    elif o == mir.NEWARR_MD:
                        dims = [R[v] for v in ins.args]
                        if any(d < 0 for d in dims):
                            raise make_exception(loaded, "ArgumentException", "negative length")
                        arr = MDArray(ins.extra, dims)
                        self.cycles += spent
                        total_spent += spent
                        spent = 0
                        self._alloc_charge(16 + 8 * len(arr.data))
                        R[ins.dst] = arr
                        pc += 1
                    elif o == mir.LDLEN:
                        arr = R[ins.a]
                        if arr is None:
                            raise make_exception(loaded, "NullReferenceException")
                        R[ins.dst] = arr.length
                        pc += 1
                    elif o == mir.LDELEM_MD:
                        arr = R[ins.a]
                        if arr is None:
                            raise make_exception(loaded, "NullReferenceException")
                        flat = arr.flat_index([R[v] for v in ins.args])
                        if flat < 0:
                            raise make_exception(loaded, "IndexOutOfRangeException")
                        if self.large_working_set:
                            spent += costs.large_array_extra
                            if obs_dyn is not None:
                                obs_dyn(fn, CAT_MEMTAX, costs.large_array_extra)
                        R[ins.dst] = arr.data[flat]
                        pc += 1
                    elif o == mir.STELEM_MD:
                        arr = R[ins.a]
                        if arr is None:
                            raise make_exception(loaded, "NullReferenceException")
                        flat = arr.flat_index([R[v] for v in ins.args])
                        if flat < 0:
                            raise make_exception(loaded, "IndexOutOfRangeException")
                        if self.large_working_set:
                            spent += costs.large_array_extra
                            if obs_dyn is not None:
                                obs_dyn(fn, CAT_MEMTAX, costs.large_array_extra)
                        v = R[ins.c]
                        if ins.kind == "r4" and type(v) is float:
                            v = r4(v)
                        arr.data[flat] = v
                        pc += 1
                    elif o == mir.BOX:
                        self._alloc_charge(16)
                        R[ins.dst] = BoxedValue(ins.extra.name, R[ins.a])
                        pc += 1
                    elif o == mir.UNBOX:
                        v = R[ins.a]
                        if v is None:
                            raise make_exception(loaded, "NullReferenceException")
                        if not isinstance(v, BoxedValue):
                            raise make_exception(loaded, "InvalidCastException")
                        t, _rc = ins.extra
                        if isinstance(t, cts.NamedType):
                            if (
                                not isinstance(v.value, StructValue)
                                or v.value.rtclass.name != t.name
                            ):
                                raise make_exception(loaded, "InvalidCastException")
                            R[ins.dst] = v.value.copy()
                        else:
                            if not _box_matches(v.type_name, t.name):
                                raise make_exception(loaded, "InvalidCastException")
                            R[ins.dst] = v.value
                        pc += 1
                    elif o in (mir.CASTCLASS, mir.ISINST):
                        v = R[ins.a]
                        t, rc = ins.extra
                        good = v is not None and self._isinst(v, t, rc)
                        if o == mir.CASTCLASS:
                            if v is not None and not good:
                                raise make_exception(loaded, "InvalidCastException")
                            R[ins.dst] = v
                        else:
                            R[ins.dst] = v if good else None
                        pc += 1
                    elif o == mir.STRUCT_COPY:
                        v = R[ins.a]
                        if isinstance(v, StructValue):
                            spent += costs.struct_copy_per_field * len(v.fields)
                            if obs_dyn is not None:
                                obs_dyn(
                                    fn,
                                    CAT_EXECUTE,
                                    costs.struct_copy_per_field * len(v.fields),
                                )
                            R[ins.dst] = v.copy()
                        else:
                            R[ins.dst] = v
                        pc += 1
                    elif o == mir.THROW:
                        v = R[ins.a]
                        if v is None:
                            raise make_exception(loaded, "NullReferenceException")
                        raise GuestException(v)
                    elif o == mir.RETHROW:
                        if frame.exc is None:
                            raise VMError("rethrow with no active exception")
                        raise GuestException(frame.exc)
                    elif o == mir.LEAVE:
                        frame.pc = pc
                        self._leave(thread, frame, ins.target)
                        pc = frame.pc
                    elif o == mir.ENDFINALLY:
                        frame.pc = pc
                        self.cycles += spent
                        total_spent += spent
                        spent = 0
                        self._end_finally(thread, frame)
                        rebind = True
                        break
                    elif o == mir.NOP:
                        pc += 1
                    else:  # pragma: no cover - defensive
                        raise VMError(f"unhandled MIR op {mir.name(o)}")

                    if total_spent + spent >= budget or icount >= burst:
                        frame.pc = pc
                        rebind = True
                        break
            except GuestException as guest:
                frame.pc = pc
                self.cycles += spent
                total_spent += spent
                spent = 0
                self.instructions += icount
                if observer is not None:
                    observer.throw(self.cycles)
                self._throw(thread, guest.obj)
                continue
            if not rebind:
                frame.pc = pc
            self.cycles += spent
            total_spent += spent
            self.instructions += icount
            spent = 0


# ------------------------------------------------------------ differential


def _mark(directory: str) -> None:
    """Count one event for this process: a byte appended to its marker."""
    with open(os.path.join(directory, str(os.getpid())), "a") as marker:
        marker.write("1")


def _tally(directory: str):
    """``(events, processes)`` counted by :func:`_mark` in ``directory``."""
    sizes = [os.path.getsize(os.path.join(directory, name)) for name in os.listdir(directory)]
    return sum(sizes), len(sizes)


def _experiments(seq: int) -> str:
    """Every paper experiment's series and checks (``seq`` is unused)."""
    results = evaluate_all(list(ALL_EXPERIMENTS), 0.25)
    return json.dumps(
        [[r.experiment, r.series, [asdict(c) for c in r.checks]] for r in results],
        sort_keys=True,
    )


def _suite(seq: int) -> str:
    """The full-suite artifact, written as ``dispatch-artifacts/BENCH_<seq>.json``
    and returned without its ``seq``."""
    artifact = baseline.collect(jobs="auto", cache=CompileCache(), git_sha="dispatch-ci")
    path = baseline.write_artifact(artifact, "dispatch-artifacts", seq=seq)
    with open(path) as handle:
        payload = json.load(handle)
    payload.pop("seq")
    return json.dumps(payload, sort_keys=True)


#: mode -> (what is compared, the run that produces it)
MODES = {"experiments": ("series and checks", _experiments), "suite": ("artifacts", _suite)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.classic_oracle",
        description="Check the shipped threaded engine against the classic oracle.",
    )
    parser.add_argument("mode", choices=sorted(MODES))
    what, run = MODES[parser.parse_args(argv).mode]

    with tempfile.TemporaryDirectory() as marks, tempfile.TemporaryDirectory() as fused:

        class MarkedClassic(ClassicMachine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                _mark(marks)

        make_fused = dispatch._make_fused_gen

        def marking_make_fused(*args):
            op = make_fused(*args)
            if op is not None:
                _mark(fused)
            return op

        with mock.patch.object(runner, "Machine", MarkedClassic):
            classic = run(0)
        machines, machine_procs = _tally(marks)
        if not machines:
            raise SystemExit("the oracle run built no ClassicMachine")
        with mock.patch.object(dispatch, "_make_fused_gen", marking_make_fused):
            threaded = run(1)
        superinstructions, fused_procs = _tally(fused)
        if not superinstructions:
            raise SystemExit("the shipped run built no superinstruction")
        if classic != threaded:
            raise SystemExit("simulated numbers diverged from the oracle")
    print(
        f"{what} byte-identical; {machines} ClassicMachines built in "
        f"{machine_procs} process(es), {superinstructions} superinstructions "
        f"built in {fused_procs} process(es)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
