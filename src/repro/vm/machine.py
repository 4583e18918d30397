"""The measured execution engine: MIR executor + runtime profile.

A :class:`Machine` binds a loaded assembly to one runtime profile, JIT-
compiles methods on demand through that profile's pass pipeline, and
executes the resulting MIR while accumulating *simulated cycles* — the only
clock in the system.  Host wall time never enters any result.

Cost accounting:

* every MIR instruction adds its statically stamped ``cost``;
* calls add the profile's call/virtual/intrinsic overhead at dispatch;
* allocation adds ``alloc_base + alloc_per_word*words`` plus an amortized
  GC share (``gc_per_kbyte``);
* array reads/writes on arrays beyond the cache-resident threshold add the
  profile's ``large_array_extra`` (the paper's "large memory model" axis);
* exception dispatch adds ``exception_throw + exception_frame``/frame;
* monitors, thread starts and context switches add their table costs.

Scheduling is cooperative round-robin with a fixed cycle quantum, so
multithreaded benchmarks are deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cil import cts
from ..cil.instructions import MethodRef
from ..cil.metadata import MethodDef
from ..errors import CellTimeout, JitError, ManagedException, VMError
from ..faults.plan import FaultInjector
from ..jit import mir
from ..jit.pipeline import JitCompiler
from ..observe.recorder import CAT_ALLOC, CAT_EXCEPTION, CAT_MONITOR, CAT_RUNTIME
from .bench import BenchRecorder
from .dispatch import step_thread
from .exceptions import make_exception, matches
from .intrinsics import INTRINSICS, JavaRandom, Serializer, THREADING_CLASSES
from .loader import LoadedAssembly, RuntimeClass
from .objects import (
    BoxedValue,
    MDArray,
    ObjectInstance,
    SZArray,
    StructValue,
    get_monitor,
)
from .threads import BLOCKED, FINISHED, NEW, RUNNABLE, Frame, GuestThread
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

#: once a machine's total allocation exceeds this, array accesses pay the
#: profile's large_array_extra ("large memory model": the working set has
#: left the cache).  48 KiB matches the scaled-down problem sizes the same
#: way the paper's large sizes exceeded 2003 L2 caches (DESIGN.md sec. 2).
LARGE_WS_BYTES = 49152

_CONV_FNS = {
    "i1": lambda v: wrap_i8(float_to_i32(v) if isinstance(v, float) else v),
    "u1": lambda v: wrap_u8(float_to_i32(v) if isinstance(v, float) else v),
    "i2": lambda v: wrap_i16(float_to_i32(v) if isinstance(v, float) else v),
    "u2": lambda v: wrap_u16(float_to_i32(v) if isinstance(v, float) else v),
    "i4": lambda v: float_to_i32(v) if isinstance(v, float) else i32(v),
    "i8": lambda v: float_to_i64(v) if isinstance(v, float) else i64(v),
    "r4": lambda v: r4(float(v)),
    "r8": float,
}


class Machine:
    """One virtual machine instance (assembly x profile)."""

    #: the MIR executor: the threaded-code driver (pre-bound closures that
    #: tier up to generated code and superinstructions once hot, see
    #: repro.vm.dispatch).  The one subclass that overrides it is the
    #: classic fetch/decode loop in tests/classic_oracle.py, the test
    #: oracle it is bit-identical to.
    _step_thread = step_thread

    def __init__(
        self,
        loaded: LoadedAssembly,
        profile,
        quantum: int = 50_000,
        max_cycles: int = 200_000_000_000,
        disabled_passes=(),
        observer=None,
        faults=None,
    ) -> None:
        self.loaded = loaded
        self.profile = profile
        self.costs = profile.costs
        #: optional repro.observe.Observer; all hooks are read-only with
        #: respect to machine state, so observation never changes cycles,
        #: instructions, or results (the zero-perturbation invariant)
        self.observer = observer
        #: optional repro.faults.MachineFaults spec, wrapped in a runtime
        #: injector; every hook below is a single is-None test when off, so
        #: an unfaulted machine is cycle-identical to one without the layer
        self.faults = None if faults is None else FaultInjector(faults)
        self.jit = JitCompiler(
            loaded,
            profile,
            disabled_passes=disabled_passes,
            trace=None if observer is None else observer.jit,
        )
        self.quantum = quantum
        self.max_cycles = max_cycles
        #: effective cycle watchdog: the hard ceiling, tightened by an
        #: injected per-cell cycle_limit when a fault plan arms one
        self._cycle_limit = max_cycles
        if self.faults is not None and 0 <= self.faults.cycle_limit < max_cycles:
            self._cycle_limit = self.faults.cycle_limit

        self.cycles = 0
        self.instructions = 0
        self.stdout: List[str] = []
        self.rng = JavaRandom()
        self.serializer = Serializer()
        self.bench = BenchRecorder(self.now)
        self.allocated_bytes = 0
        self.gc_collections = 0
        self.gc_live_objects = 0
        #: set once the working set exceeds LARGE_WS_BYTES
        self.large_working_set = False

        self.threads: List[GuestThread] = []
        self._next_tid = 1
        self.current: Optional[GuestThread] = None
        self._linked: set = set()
        #: per-function translations (repro.vm.dispatch.Translation),
        #: keyed by id(fn); emptied when run() returns
        self._threaded_code: Dict[int, object] = {}
        if observer is not None:
            observer.attach(self)

    # ----------------------------------------------------------- host hooks

    def now(self) -> int:
        return self.cycles

    def _obs_dyn(self, category: str, cycles) -> None:
        """Report a dynamic charge to the observer, attributed to the
        method executing on the current thread (never mutates state)."""
        t = self.current
        fn = t.frames[-1].fn if (t is not None and t.frames) else None
        self.observer.dyn(fn, category, cycles)

    def charge(self, n: int) -> None:
        self.cycles += n
        if self.observer is not None:
            self._obs_dyn(CAT_RUNTIME, n)

    def charge_units(self, kind: str, n: int) -> None:
        if kind == "serialize_byte":
            amount = self.costs.serialize_byte * n
        elif kind == "string_char":
            amount = self.costs.string_char * n
        else:
            amount = n
        self.cycles += amount
        if self.observer is not None:
            self._obs_dyn(CAT_RUNTIME, amount)

    def gc_collect(self) -> None:
        """Explicit collection: a real mark phase over the roots (thread
        frames + statics), costed per object visited.  The steady-state GC
        tax is otherwise amortized into allocation (``gc_per_kbyte``)."""
        self.gc_collections += 1
        started = self.cycles
        live = self._mark_live()
        self.gc_live_objects = live
        self.cycles += 2000 + 12 * live
        if self.observer is not None:
            self._obs_dyn(CAT_ALLOC, self.cycles - started)
            self.observer.gc(started, self.cycles, live)

    def _mark_live(self) -> int:
        """Count heap objects reachable from thread frames and statics."""
        seen = set()
        stack = []

        def push(v):
            if isinstance(v, (ObjectInstance, StructValue, BoxedValue, SZArray, MDArray)):
                if id(v) not in seen:
                    seen.add(id(v))
                    stack.append(v)

        for thread in self.threads:
            for frame in thread.frames:
                for v in frame.R:
                    push(v)
        for rc in self.loaded.classes.values():
            for v in rc.statics:
                push(v)
        while stack:
            obj = stack.pop()
            if isinstance(obj, (ObjectInstance, StructValue)):
                for v in obj.fields:
                    push(v)
            elif isinstance(obj, BoxedValue):
                push(obj.value)
            elif isinstance(obj, (SZArray, MDArray)):
                # primitive arrays hold no references; skip their elements
                if obj.elem.is_reference or not obj.elem.is_primitive:
                    for v in obj.data:
                        push(v)
        return len(seen)

    def total_allocated(self) -> int:
        return self.allocated_bytes

    def thread_count(self) -> int:
        return sum(1 for t in self.threads if t.alive)

    # --------------------------------------------------------------- public

    def run(self, entry: Optional[MethodDef] = None, args: Optional[List] = None):
        """Run static constructors then the entry point on the main thread;
        returns the entry's return value.  The threaded engine's closure
        translations are dropped when it returns, normally or by raising."""
        try:
            return self._run(entry, args)
        finally:
            self._threaded_code.clear()

    def _run(self, entry, args):
        entry = entry or self.loaded.entry_point
        if entry is None:
            raise VMError("assembly has no entry point")
        main = GuestThread(0, "main")
        self.threads = [main]
        self._next_tid = 1
        observer = self.observer
        for cctor in self.loaded.static_constructors():
            main.frames.append(Frame(self._function(cctor), []))
            if observer is not None:
                observer.enter(main, main.frames[-1].fn, self.cycles)
            main.state = RUNNABLE
            self._scheduler_loop()
            if main.unhandled is not None:
                raise ManagedException(
                    main.unhandled.rtclass.name,
                    self._exc_message(main.unhandled),
                    main.unhandled,
                )
        main.frames.append(Frame(self._function(entry), list(args or [])))
        if observer is not None:
            observer.enter(main, main.frames[-1].fn, self.cycles)
        main.state = RUNNABLE
        self._scheduler_loop()
        if main.unhandled is not None:
            raise ManagedException(
                main.unhandled.rtclass.name,
                self._exc_message(main.unhandled),
                main.unhandled,
            )
        zombies = [t for t in self.threads if t.alive]
        if zombies:
            raise VMError(
                f"main exited with live threads: {[t.name for t in zombies]}"
            )
        return main.result

    # ------------------------------------------------------------ jit/link

    def _function(self, method: MethodDef):
        faults = self.faults
        if (
            faults is not None
            and faults.compile_fail_at > 0
            and not self.jit.is_compiled(method)
        ):
            faults.compiles += 1
            if faults.compiles == faults.compile_fail_at:
                faults.record("compile_fail")
                raise JitError(
                    f"injected compile failure at method "
                    f"#{faults.compiles}: {method.full_name}"
                )
        fn = self.jit.compile(method)
        if id(fn) not in self._linked:
            self._link(fn)
            self._linked.add(id(fn))
        return fn

    def _link(self, fn) -> None:
        """Resolve symbolic refs to runtime structures in place."""
        loaded = self.loaded
        for ins in fn.code:
            o = ins.op
            if o in (mir.LDFLD, mir.STFLD):
                if not isinstance(ins.b, int) or ins.b is None or ins.b < 0:
                    _rc, slot = loaded.resolve_field(ins.extra)
                    ins.b = slot
            elif o in (mir.LDSFLD, mir.STSFLD):
                if not isinstance(ins.extra, tuple):
                    rc, slot = loaded.resolve_field(ins.extra)
                    ins.extra = (rc, slot)
            elif o == mir.CALL:
                if isinstance(ins.extra, tuple) and len(ins.extra) == 2 and isinstance(ins.extra[0], MethodRef):
                    ref, is_virtual = ins.extra
                    ins.extra = self._resolve_call(ref, is_virtual)
            elif o == mir.NEWOBJ:
                if isinstance(ins.extra, MethodRef):
                    ref = ins.extra
                    rc = loaded.get_class(ref.class_name)
                    ctor = rc.find_method(".ctor", ref.param_types)
                    if ctor is None and ref.param_types:
                        raise VMError(f"no constructor {ref.signature()}")
                    ins.extra = (rc, ctor)
            elif o in (mir.CASTCLASS, mir.ISINST, mir.UNBOX):
                if not isinstance(ins.extra, tuple):
                    t = ins.extra
                    rc = None
                    if isinstance(t, cts.NamedType):
                        rc = loaded.classes.get(t.name)
                    ins.extra = (t, rc)

    def _resolve_call(self, ref: MethodRef, is_virtual: bool):
        """Pre-resolve a call site into a dispatch record."""
        if ref.class_name in THREADING_CLASSES:
            return ("thread", ref.name, ref.class_name.endswith("Monitor"))
        key = (ref.class_name, ref.name, len(ref.param_types))
        intrinsic = INTRINSICS.get(key)
        if intrinsic is not None:
            cost = self.costs.intrinsic_call
            if ref.class_name == "System.Math":
                cost = self.profile.math_cost(ref.name)
            return ("intrinsic", intrinsic, cost, ref)
        method = self.loaded.resolve_method(ref)
        if is_virtual and (method.is_virtual or method.is_override):
            return ("virtual", ref)
        return ("static", method)

    # -------------------------------------------------------------- threads

    def _spawn_thread(self, runnable_obj) -> int:
        if runnable_obj is None:
            raise make_exception(self.loaded, "NullReferenceException")
        if not isinstance(runnable_obj, ObjectInstance):
            raise make_exception(self.loaded, "ArgumentException", "not runnable")
        run_m = runnable_obj.rtclass.find_method("Run", ())
        if run_m is None:
            raise make_exception(
                self.loaded, "ArgumentException", "object has no Run() method"
            )
        t = GuestThread(self._next_tid)
        self._next_tid += 1
        t.entry_obj = runnable_obj
        self.threads.append(t)
        return t.tid

    def _thread_by_id(self, tid: int) -> GuestThread:
        for t in self.threads:
            if t.tid == tid:
                return t
        raise make_exception(self.loaded, "ArgumentException", f"no thread {tid}")

    def _start_thread(self, tid: int) -> None:
        t = self._thread_by_id(tid)
        if t.state is not NEW:
            raise make_exception(self.loaded, "ArgumentException", "thread already started")
        obj = t.entry_obj
        run_m = obj.rtclass.resolve_virtual("Run", ())
        t.frames.append(Frame(self._function(run_m), [obj]))
        t.state = RUNNABLE
        self.cycles += self.costs.thread_start
        if self.observer is not None:
            self._obs_dyn(CAT_MONITOR, self.costs.thread_start)
            self.observer.thread_started(t, self.cycles)
            self.observer.enter(t, t.frames[-1].fn, self.cycles)

    def _finish_thread(self, t: GuestThread, result) -> None:
        t.state = FINISHED
        t.result = result
        for waiter in t.join_waiters:
            waiter.state = RUNNABLE
            waiter.waiting_on = None
        t.join_waiters.clear()

    # ------------------------------------------------------------ scheduler

    def _scheduler_loop(self) -> None:
        threads = self.threads
        switch_cost = self.costs.thread_switch
        observer = self.observer
        while True:
            ran = False
            blocked = 0
            for t in list(threads):
                if t.state is RUNNABLE:
                    self.current = t
                    before = self.cycles
                    self._step_thread(t, self.quantum)
                    t.cycles += self.cycles - before
                    t.quanta += 1
                    ran = True
                    if observer is not None and self.cycles > before:
                        observer.quantum(t, before, self.cycles)
                    if sum(1 for x in threads if x.alive) > 1:
                        self.cycles += switch_cost
                        t.switches += 1
                        if observer is not None:
                            self._obs_dyn(CAT_MONITOR, switch_cost)
                            observer.switch(t, switch_cost, self.cycles)
                elif t.state is BLOCKED:
                    blocked += 1
            if self.cycles > self._cycle_limit:
                faults = self.faults
                if faults is not None and faults.cycle_limit == self._cycle_limit:
                    faults.record("cycle_limit")
                raise CellTimeout(self.cycles, self._cycle_limit)
            if not ran:
                if blocked:
                    names = [
                        f"{t.name} on {t.waiting_on}" for t in threads if t.state is BLOCKED
                    ]
                    raise VMError(f"deadlock: all threads blocked: {names}")
                return

    # ----------------------------------------------------------- exceptions

    def _exc_message(self, obj: ObjectInstance) -> str:
        slot = obj.rtclass.field_slots.get("Message")
        v = obj.fields[slot] if slot is not None else ""
        return v if isinstance(v, str) else ""

    def _throw(self, thread: GuestThread, exc_obj: ObjectInstance) -> None:
        """Begin dispatch of a managed exception on ``thread``.

        Sets up finally continuations / catch entry; when nothing handles
        it, the thread dies with ``unhandled`` set.
        """
        observer = self.observer
        self.cycles += self.costs.exception_throw
        if observer is not None:
            self._obs_dyn(CAT_EXCEPTION, self.costs.exception_throw)
        frames = thread.frames
        while frames:
            frame = frames[-1]
            self.cycles += self.costs.exception_frame
            if observer is not None:
                self._obs_dyn(CAT_EXCEPTION, self.costs.exception_frame)
            fn = frame.fn
            pc = frame.pc
            candidates = [reg for reg in fn.regions if reg.covers(pc)]
            candidates.sort(key=lambda reg: (reg.try_end - reg.try_start, reg.try_start))
            catch = None
            for reg in candidates:
                if reg.kind == "catch":
                    catch_rc = self.loaded.get_class(reg.catch_type)
                    if matches(exc_obj.rtclass, catch_rc):
                        catch = reg
                        break
            if catch is not None:
                finallies = [
                    reg for reg in candidates
                    if reg.kind == "finally"
                    and (reg.try_end - reg.try_start) < (catch.try_end - catch.try_start)
                ]
                action = ("catch", catch)
            else:
                finallies = [reg for reg in candidates if reg.kind == "finally"]
                action = ("unwind",)
            if finallies:
                frame.finally_stack.append(("throw", finallies[1:], action, exc_obj))
                frame.pc = finallies[0].handler_start
                faults = self.faults
                if faults is not None and faults.throw_during_unwind > 0:
                    faults.enter_unwind_finally(thread)
                return
            if catch is not None:
                self._enter_catch(frame, catch, exc_obj)
                return
            frames.pop()
            if observer is not None:
                observer.exit(thread, self.cycles)
                observer.unwound(thread, self.cycles)
        # escaped the thread
        self._finish_thread(thread, None)
        thread.unhandled = exc_obj

    def _enter_catch(self, frame: Frame, region, exc_obj) -> None:
        if region.exc_vreg >= 0:
            frame.R[region.exc_vreg] = exc_obj
        frame.exc = exc_obj
        frame.pc = region.handler_start

    def _end_finally(self, thread: GuestThread, frame: Frame) -> None:
        if not frame.finally_stack:
            raise VMError(f"endfinally with no continuation in {frame.fn.full_name}")
        entry = frame.finally_stack.pop()
        if entry[0] == "leave":
            _kind, queue, target = entry
            if queue:
                frame.finally_stack.append(("leave", queue[1:], target))
                frame.pc = queue[0].handler_start
            else:
                frame.pc = target
            return
        _kind, queue, action, exc_obj = entry
        if queue:
            frame.finally_stack.append(("throw", queue[1:], action, exc_obj))
            frame.pc = queue[0].handler_start
            faults = self.faults
            if faults is not None and faults.throw_during_unwind > 0:
                faults.enter_unwind_finally(thread)
            return
        if action[0] == "catch":
            self._enter_catch(frame, action[1], exc_obj)
            return
        # unwind: pop this frame, continue dispatch in the caller
        thread.frames.pop()
        if self.observer is not None:
            self.observer.exit(thread, self.cycles)
            self.observer.unwound(thread, self.cycles)
        if thread.frames:
            self._throw_continue(thread, exc_obj)
        else:
            self._finish_thread(thread, None)
            thread.unhandled = exc_obj

    def _throw_continue(self, thread: GuestThread, exc_obj) -> None:
        """Continue exception dispatch after unwinding one frame (no fresh
        throw cost; per-frame cost applied inside _throw)."""
        saved = self.costs.exception_throw
        # _throw charges the throw cost; compensate so unwinding only pays
        # the per-frame share
        self.cycles -= saved
        if self.observer is not None:
            self._obs_dyn(CAT_EXCEPTION, -saved)
        self._throw(thread, exc_obj)

    def _leave(self, thread: GuestThread, frame: Frame, target: int) -> None:
        pc = frame.pc
        pending = [
            reg
            for reg in frame.fn.regions
            if reg.kind == "finally" and reg.covers(pc) and not reg.covers(target)
        ]
        pending.sort(key=lambda reg: reg.try_start, reverse=True)
        if pending:
            frame.finally_stack.append(("leave", pending[1:], target))
            frame.pc = pending[0].handler_start
        else:
            frame.pc = target

    # ------------------------------------------------------------ allocation

    def _alloc_charge(self, byte_size: int) -> None:
        self.allocated_bytes += byte_size
        if self.allocated_bytes > LARGE_WS_BYTES:
            self.large_working_set = True
        t = self.costs
        amount = (
            t.alloc_base
            + t.alloc_per_word * (byte_size // 8)
            + (t.gc_per_kbyte * byte_size) // 1024  # amortized GC share
        )
        self.cycles += amount
        if self.observer is not None:
            self._obs_dyn(CAT_ALLOC, amount)
            self.observer.alloc(byte_size, amount)
        faults = self.faults
        if faults is not None:
            faults.allocs += 1
            if faults.allocs == faults.oom_at_alloc:
                faults.record("alloc_oom")
                raise make_exception(
                    self.loaded,
                    "OutOfMemoryException",
                    f"injected allocation failure at allocation #{faults.allocs}",
                )
            if 0 <= faults.heap_limit < self.allocated_bytes:
                faults.record("heap_limit")
                raise make_exception(
                    self.loaded,
                    "OutOfMemoryException",
                    f"heap limit exceeded: {self.allocated_bytes} bytes "
                    f"> {faults.heap_limit}",
                )

    def _new_szarray(self, elem, length: int) -> SZArray:
        if length < 0:
            raise make_exception(self.loaded, "ArgumentException", "negative length")
        arr = SZArray(elem, length)
        if isinstance(elem, cts.NamedType) and elem.is_value_type:
            rc = self.loaded.get_class(elem.name)
            arr.data = [self.loaded.new_instance(rc) for _ in range(length)]
            self._alloc_charge(16 + (8 * len(rc.field_types) + 8) * length)
        else:
            self._alloc_charge(16 + 8 * length)
        return arr

    # ----------------------------------------------------------- monitors

    def _monitor_op(self, thread: GuestThread, name: str, args: List) -> None:
        if not args or args[0] is None:
            raise make_exception(self.loaded, "NullReferenceException")
        obj = args[0]
        mon = get_monitor(obj)
        t = self.costs
        observer = self.observer

        def charge(n):
            self.cycles += n
            if observer is not None:
                self._obs_dyn(CAT_MONITOR, n)

        if name == "Enter":
            faults = self.faults
            if faults is not None and faults.monitor_fail_at > 0:
                faults.monitor_enters += 1
                if faults.monitor_enters == faults.monitor_fail_at:
                    faults.record("monitor_fail")
                    raise make_exception(
                        self.loaded,
                        "SynchronizationException",
                        f"injected monitor acquire failure at enter "
                        f"#{faults.monitor_enters}",
                    )
            if mon.owner is None or mon.owner is thread:
                mon.owner = thread
                mon.count += 1
                charge(t.monitor_enter)
            else:
                charge(t.monitor_contended)
                mon.entry_queue.append(thread)
                thread.state = BLOCKED
                thread.waiting_on = ("monitor", id(obj))
                if observer is not None:
                    observer.contention(thread, self.cycles)
            return
        if name == "Exit":
            if mon.owner is not thread:
                raise make_exception(
                    self.loaded, "SynchronizationException", "Exit by non-owner"
                )
            charge(t.monitor_exit)
            mon.count -= 1
            if mon.count == 0:
                self._release_monitor(mon)
            return
        if name == "Wait":
            if mon.owner is not thread:
                raise make_exception(
                    self.loaded, "SynchronizationException", "Wait by non-owner"
                )
            thread.saved_monitor_count = mon.count
            mon.count = 0
            self._release_monitor(mon)
            mon.wait_queue.append(thread)
            thread.state = BLOCKED
            thread.waiting_on = ("wait", id(obj))
            charge(t.monitor_enter)
            return
        if name in ("Pulse", "PulseAll"):
            if mon.owner is not thread:
                raise make_exception(
                    self.loaded, "SynchronizationException", "Pulse by non-owner"
                )
            charge(t.monitor_exit)
            movers = mon.wait_queue[: (1 if name == "Pulse" else len(mon.wait_queue))]
            del mon.wait_queue[: len(movers)]
            mon.entry_queue.extend(movers)
            return
        raise VMError(f"unknown monitor op {name}")

    def _release_monitor(self, mon) -> None:
        mon.owner = None
        if mon.entry_queue:
            t = mon.entry_queue.pop(0)
            mon.owner = t
            mon.count = t.saved_monitor_count or 1
            t.saved_monitor_count = 0
            t.state = RUNNABLE
            t.waiting_on = None

    def _thread_op(self, thread: GuestThread, name: str, args: List):
        if name == "Create":
            return self._spawn_thread(args[0])
        if name == "Start":
            self._start_thread(args[0])
            return None
        if name == "Join":
            target = self._thread_by_id(args[0])
            if target.alive:
                target.join_waiters.append(thread)
                thread.state = BLOCKED
                thread.waiting_on = ("join", target.tid)
            return None
        if name == "Yield":
            thread.state = RUNNABLE  # quantum ends via executor break
            return "yield"
        if name == "CurrentId":
            return thread.tid
        raise VMError(f"unknown thread op {name}")

    def _isinst(self, v, t, rc: Optional[RuntimeClass]) -> bool:
        if isinstance(t, cts.ObjectType):
            return True
        if isinstance(v, str):
            return isinstance(t, cts.StringType)
        if isinstance(v, (SZArray, MDArray)):
            return t.is_array
        if isinstance(v, BoxedValue):
            return isinstance(t, cts.NamedType) and v.type_name == t.name
        if isinstance(v, ObjectInstance):
            return rc is not None and v.rtclass.is_subclass_of(rc)
        return False


def _box_matches(box_type: str, target_name: str) -> bool:
    if box_type == target_name:
        return True
    group_int = {"int32", "int16", "int8", "uint8", "uint16", "char", "bool"}
    return box_type in group_int and target_name in group_int
