"""The threaded engine's tier memory across machines.

A function whose translation reached the superinstruction tier once in
the process starts in its last tier on every later machine
(``repro.vm.dispatch._HOT_CODE``, keyed by the function's full name and
the CIL opcodes of its body).  The memory changes host speed only: every
simulated number stays bit-identical to the classic oracle.
"""

import gc

from repro.lang import compile_source
from repro.runtimes import CLR11, NATIVE_C
from repro.vm import dispatch
from repro.vm.loader import LoadedAssembly
from repro.vm.machine import Machine
from repro.vm.threads import Frame
from tests.conftest import use_engine

#: three methods that each turn hot inside their one call (virtual, so
#: the JIT does not inline them into Main)
HOT_THREE = """
class K {
    virtual int A(int n) { int s = 0; for (int i = 0; i < n; i++) { s = s + i * 3; } return s; }
    virtual int B(int n) { int s = 1; for (int i = 0; i < n; i++) { s = s ^ (i + 7); } return s; }
    virtual int C(int n) { int s = 2; for (int i = 0; i < n; i++) { s = (s * 5 + i) & 4095; } return s; }
}
class P {
    static int Main() { K k = new K(); return k.A(3000) + k.B(3000) + k.C(3000); }
}
"""

#: reuses ``K::A`` as a name, with a different body
SAME_NAME = """
class K {
    virtual int A(int n) { int s = 0; for (int i = 0; i < n; i++) { s = s - i; s = s * 1; } return s; }
}
class P {
    static int Main() { K k = new K(); return k.A(3000); }
}
"""


def _fingerprint(machine_class, assembly, profile):
    machine = machine_class(LoadedAssembly(assembly), profile)
    result = machine.run()
    return (repr(result), repr(machine.cycles), machine.instructions)


def _record(monkeypatch):
    """Record, in order, each new translation (``build``), each tier-up
    the driver asks for (``tier_up``) and each superinstruction built
    (``fused``), with the function's name."""
    events = []
    build_ops = dispatch.build_ops
    make_fused = dispatch._make_fused_gen
    current = []

    def recording_build_ops(machine, fn, tr=None):
        events.append(("build" if tr is None else "tier_up", fn.full_name))
        current.append(fn.full_name)
        try:
            return build_ops(machine, fn, tr)
        finally:
            current.pop()

    def recording_make_fused(code, start, length, machine, fallback=None, fn=None):
        op = make_fused(code, start, length, machine, fallback, fn)
        if op is not None:
            events.append(("fused", current[-1]))
        return op

    monkeypatch.setattr(dispatch, "build_ops", recording_build_ops)
    monkeypatch.setattr(dispatch, "_make_fused_gen", recording_make_fused)
    return events


def _starts_fused(events, name):
    """``name`` was fused when first translated, and never tiered up by
    the driver."""
    own = [kind for kind, fn_name in events if fn_name == name]
    return own[0] == "build" and own[1] == "fused" and "tier_up" not in own


def test_remembered_function_starts_fused_on_a_later_machine(monkeypatch):
    assembly = compile_source(HOT_THREE, assembly_name="hot_three")
    events = _record(monkeypatch)
    Machine(LoadedAssembly(assembly), CLR11).run()
    assert ("tier_up", "K::A") in events and ("fused", "K::A") in events
    assert any(name == "K::A" for name, _ops in dispatch._HOT_CODE)

    events.clear()
    later = _fingerprint(Machine, assembly, NATIVE_C)
    assert _starts_fused(events, "K::A")
    with use_engine("classic") as classic:
        assert later == _fingerprint(classic, assembly, NATIVE_C)


def _metrics_fingerprint(machine_class, assembly, profile):
    from repro.metrics import MachineMetrics

    metrics = MachineMetrics()
    machine = machine_class(LoadedAssembly(assembly), profile, observer=metrics)
    result = machine.run()
    return (repr(result), repr(machine.cycles), machine.instructions,
            metrics.snapshot())


def test_metrics_machines_share_the_tier_memory(monkeypatch):
    """A metrics observer has no per-instruction hook, so its machine
    climbs the tiers, writes the tier memory and reads it, exactly like a
    bare machine."""
    from repro.metrics import MachineMetrics

    assembly = compile_source(HOT_THREE, assembly_name="metrics_hot")
    events = _record(monkeypatch)
    # fused on a metrics machine, then started fused on a bare one
    Machine(LoadedAssembly(assembly), CLR11, observer=MachineMetrics()).run()
    assert ("tier_up", "K::A") in events and ("fused", "K::A") in events
    events.clear()
    bare = _fingerprint(Machine, assembly, NATIVE_C)
    assert _starts_fused(events, "K::A")

    # and the reverse: fused on a bare machine, started fused on a
    # metrics machine
    dispatch._HOT_CODE.clear()
    Machine(LoadedAssembly(assembly), CLR11).run()
    events.clear()
    observed = _metrics_fingerprint(Machine, assembly, NATIVE_C)
    assert _starts_fused(events, "K::A")

    with use_engine("classic") as classic:
        assert bare == _fingerprint(classic, assembly, NATIVE_C)
        assert observed == _metrics_fingerprint(classic, assembly, NATIVE_C)


def test_program_reusing_a_name_does_not_start_hot(monkeypatch):
    Machine(LoadedAssembly(compile_source(HOT_THREE, assembly_name="first")), CLR11).run()
    events = _record(monkeypatch)
    Machine(LoadedAssembly(compile_source(SAME_NAME, assembly_name="second")), CLR11).run()
    own = [kind for kind, name in events if name == "K::A"]
    # it climbs the tiers from the start: no superinstruction before its
    # first tier-up
    assert own[:2] == ["build", "tier_up"]


def test_unfused_never_fuses_a_remembered_function(monkeypatch):
    assembly = compile_source(HOT_THREE, assembly_name="unfused_after_fused")
    threaded = _fingerprint(Machine, assembly, CLR11)
    assert dispatch._HOT_CODE
    events = _record(monkeypatch)
    with use_engine("unfused") as machine_class:
        unfused = _fingerprint(machine_class, assembly, CLR11)
    assert [kind for kind, _name in events if kind == "fused"] == []
    assert unfused == threaded


def test_tier_memory_holds_only_str_and_int_and_stays_bounded(monkeypatch):
    from repro.cil.metadata import MethodDef
    from repro.jit.mir import MIRFunction

    monkeypatch.setattr(dispatch, "_TEMPLATE_LIMIT", 2)
    assembly = compile_source(HOT_THREE, assembly_name="memory_refs")
    Machine(LoadedAssembly(assembly), CLR11).run()
    # A, B and C all reached the fused tier; the oldest was evicted
    assert [name for name, _ops in dispatch._HOT_CODE] == ["K::B", "K::C"]
    forbidden = (Machine, LoadedAssembly, Frame, MIRFunction, MethodDef)
    seen = set()
    pending = list(dispatch._HOT_CODE.items())
    while pending:
        obj = pending.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        assert not isinstance(obj, forbidden), type(obj)
        assert isinstance(obj, (tuple, str, int)), type(obj)
        pending.extend(gc.get_referents(obj))
