"""Differential dispatch-equivalence harness: classic vs threaded engines.

The threaded-code engine (``repro.vm.dispatch``) re-implements the MIR hot
path as pre-bound closure arrays with superinstruction fusion.  Its whole
license to exist is this file's oracle: **every observable number is
bit-identical to the classic loop** (``ClassicMachine`` in
``tests/classic_oracle.py``, outside the ``repro`` package) — results,
simulated cycles (including float cost accumulation order), instruction
counts, allocation/GC totals, metrics snapshots, observe-profiles, and
stdout.  Anything the classic engine
produces is ground truth; the threaded engine is only ever faster, never
different.

Three engine configurations are differenced everywhere (selected with
``tests.conftest.use_engine``): ``classic``, ``threaded`` (codegen +
fusion), and ``unfused`` (codegen singles, no fusion) — the intermediate
form localizes a divergence to either the closure translation or the
fuser.

Coverage: every registered benchmark x all eight runtime profiles (scaled
small), the fuzz corpus, observer-attached runs (the zero-perturbation
hooks must see the same stream from every engine), and the frame-locals
aliasing regressions (a guest exception caught mid-method — including
mid-fused-run — must observe the same local values under every engine).
"""

import json
from pathlib import Path

import pytest

from repro.benchmarks.registry import all_benchmarks
from repro.harness.runner import Runner
from repro.lang import compile_source
from repro.observe.report import profile_to_dict
from repro.runtimes import ALL_PROFILES, CLR11, NATIVE_C, SSCLI10
from repro.vm.interpreter import Interpreter
from repro.vm.loader import LoadedAssembly
from repro.vm.machine import Machine
from tests.classic_oracle import ClassicMachine
from tests.conftest import use_engine

CORPUS = Path(__file__).parent / "fuzz_corpus"
CORPUS_FILES = sorted(CORPUS.glob("*.cs"))

#: the non-classic engines, each differenced against classic ground truth
ENGINES = ("threaded", "unfused")

#: tiny per-benchmark workloads: the equivalence property is about engine
#: plumbing, not workload size, so every cell is scaled to run in tier-1
#: time while still reaching its steady-state loops at least once
SMALL_PARAMS = {
    "clispec.boxing": {"Reps": 60},
    "clispec.matrix": {"N": 8, "Reps": 1},
    "grande.crypt": {"Words": 32},
    "grande.euler": {"N": 4, "Steps": 1},
    "grande.fibonacci": {"N": 8},
    "grande.hanoi": {"Disks": 5},
    "grande.heapsort": {"N": 64},
    "grande.moldyn": {"MM": 2, "Steps": 1},
    "grande.raytracer": {"Size": 4, "Grid": 2},
    "grande.search": {"Depth": 2, "TTSize": 509},
    "grande.sieve": {"Limit": 200, "Reps": 1},
    "micro.arith": {"Reps": 60},
    "micro.assign": {"Reps": 60},
    "micro.cast": {"Reps": 60},
    "micro.create": {"Reps": 40},
    "micro.exception": {"Reps": 6, "Depth": 3},
    "micro.loop": {"Reps": 300},
    "micro.math": {"Reps": 30},
    "micro.method": {"Reps": 60},
    "micro.serial": {"Reps": 2, "Nodes": 8, "Payload": 4},
    "scimark.fft": {"N": 16, "Reps": 1, "Seed": 101010},
    "scimark.lu": {"N": 8, "Reps": 1, "Seed": 101010},
    "scimark.montecarlo": {"Samples": 50, "Seed": 101010},
    "scimark.montecarlo_mt": {"Samples": 40, "Threads": 2, "Seed": 101010},
    "scimark.sor": {"N": 8, "Iters": 1, "Seed": 101010},
    "scimark.sor_mt": {"N": 8, "Iters": 1, "Threads": 2, "Seed": 101010},
    "scimark.sparse": {"N": 20, "NZ": 60, "Reps": 1, "Seed": 101010},
    "threads.barrier": {"Threads": 2, "Crossings": 4},
    "threads.forkjoin": {"Reps": 2, "Threads": 2},
    "threads.lock": {"Reps": 20, "ContendedReps": 10},
    "threads.sync": {"Threads": 2, "Reps": 5},
    "threads.thread": {"Reps": 4},
}

#: one shared runner so each benchmark's source is compiled once for the
#: whole module (the per-profile JIT still runs per machine, as it must)
_runner = Runner()


def run_fingerprint(run):
    """Everything observable about a harness run, bitwise.

    Floats go through ``repr`` so the comparison is on the exact bit
    pattern (cycle accumulation order matters when costs are float), not
    on a tolerance.
    """
    return {
        "cycles": repr(run.total_cycles),
        "instructions": run.instructions,
        "allocated_bytes": run.allocated_bytes,
        "gc_collections": run.gc_collections,
        "stdout": list(run.stdout),
        "sections": {
            name: (repr(sec.cycles), sec.ops, sec.flops,
                   [repr(r) for r in sec.results])
            for name, sec in run.sections.items()
        },
        "metrics": json.dumps(run.metrics, sort_keys=True),
    }


def machine_fingerprint(machine, result):
    return {
        "result": repr(result),
        "cycles": repr(machine.cycles),
        "instructions": machine.instructions,
        "allocated_bytes": machine.allocated_bytes,
        "gc_collections": machine.gc_collections,
        "stdout": list(machine.stdout),
    }


# ------------------------------------------------- benchmarks x profiles


@pytest.mark.parametrize(
    "bench", sorted(SMALL_PARAMS), ids=lambda name: name
)
def test_benchmark_bit_identical_across_engines(bench):
    params = SMALL_PARAMS[bench]
    for profile in ALL_PROFILES:
        with use_engine("classic"):
            truth = run_fingerprint(
                _runner.run_on(bench, profile, params, metrics=True)
            )
        for engine in ENGINES:
            with use_engine(engine):
                got = run_fingerprint(
                    _runner.run_on(bench, profile, params, metrics=True)
                )
            assert got == truth, f"{bench} / {profile.name} / {engine}"


def test_every_registered_benchmark_is_covered():
    # a new benchmark must join the differential matrix to ship
    assert sorted(SMALL_PARAMS) == sorted(b.name for b in all_benchmarks())


# ----------------------------------------------------------- fuzz corpus


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
)
def test_fuzz_corpus_bit_identical_across_engines(path):
    assembly = compile_source(path.read_text(), assembly_name=path.stem)
    for profile in (NATIVE_C, CLR11, SSCLI10):
        prints = {}
        for engine in ("classic",) + ENGINES:
            with use_engine(engine) as machine_class:
                machine = machine_class(LoadedAssembly(assembly), profile)
                prints[engine] = machine_fingerprint(machine, machine.run())
        for engine in ENGINES:
            assert prints[engine] == prints["classic"], (
                f"{path.stem} / {profile.name} / {engine}"
            )


# ------------------------------------------- zero-perturbation observers


@pytest.mark.parametrize("bench,profile", [
    ("micro.exception", CLR11),
    ("micro.arith", SSCLI10),
    ("grande.sieve", NATIVE_C),
], ids=lambda v: v if isinstance(v, str) else v.name)
def test_observed_runs_identical_profiles_across_engines(bench, profile):
    """The cycle-attribution observer sees the same stream from every
    engine (per-instruction hook order included), and attaching it never
    perturbs the numbers the unobserved run produced."""
    params = SMALL_PARAMS[bench]
    with use_engine("classic"):
        plain = run_fingerprint(_runner.run_on(bench, profile, params))
    profiles = {}
    for engine in ("classic",) + ENGINES:
        with use_engine(engine):
            run = _runner.run_on(bench, profile, params, observe=True)
        observed = run_fingerprint(run)
        assert observed == plain, f"observer perturbed {engine}"
        profiles[engine] = json.dumps(
            profile_to_dict(run.observation, benchmark=bench), sort_keys=True
        )
    for engine in ENGINES:
        assert profiles[engine] == profiles["classic"], engine


# ------------------------------------- frame-locals aliasing regressions

#: a guest exception raised from the middle of a fusable straight-line
#: run: the catch handler must observe exactly the locals the classic
#: engine leaves behind (the fused DIV records the precise raising pc and
#: flushes its hoisted state before the throw)
MID_RUN_THROW = """
class P {
    static int Main() {
        int a = 1; int b = 2; int c = 3; int d = 0; int acc = 0;
        try {
            a = a + 40;
            b = b * 3;
            c = a + b;
            acc = c / d;
            a = 999;
        } catch (DivideByZeroException e) {
            acc = a * 1000 + b * 10 + c;
        }
        return acc;
    }
}
"""

#: two activations of the same method alive at once: after the inner one
#: throws, the outer activation's locals must be intact (slot frames are
#: per-activation, never shared through the translated code object)
RECURSIVE_CATCH = """
class P {
    static int F(int n) {
        int local = n * 10;
        if (n == 0) { throw new ArgumentException("deep"); }
        int got = 0;
        try { got = P.F(n - 1); } catch (ArgumentException e) { got = local + 1; }
        return got + local;
    }
    static int Main() { return P.F(3); }
}
"""


@pytest.mark.parametrize("source,expected,label", [
    (MID_RUN_THROW, 41107, "mid_run_throw"),
    (RECURSIVE_CATCH, 71, "recursive_catch"),
], ids=["mid_run_throw", "recursive_catch"])
def test_catch_observes_same_locals_under_every_engine(source, expected, label):
    assembly = compile_source(source, assembly_name=label)
    assert Interpreter(LoadedAssembly(assembly)).run() == expected
    for profile in (NATIVE_C, CLR11, SSCLI10):
        prints = {}
        for engine in ("classic",) + ENGINES:
            with use_engine(engine) as machine_class:
                machine = machine_class(LoadedAssembly(assembly), profile)
                prints[engine] = machine_fingerprint(machine, machine.run())
        assert prints["classic"]["result"] == repr(expected), profile.name
        for engine in ENGINES:
            assert prints[engine] == prints["classic"], (
                f"{label} / {profile.name} / {engine}"
            )


# ------------------------------------------------------ tier transitions
#
# A threaded function starts on generated singles (hand-written closures
# only for ops outside the template subset) and tiers up to
# superinstructions once it is hot.  These programs cross that threshold
# mid-run in every situation where a stale or half-switched closure array
# would show: float cost sums, a throw from inside a run that only exists
# after tier-up, live recursive and concurrent activations, an armed
# fault injector, metrics observers; a machine whose observer has a
# per-instruction hook never tiers up.

#: a kernel that tiers up to superinstructions mid-run; the padding
#: allocation puts the machine in the large working set, so every array
#: access adds a float memory tax and the cycle sums are float from then
#: on
HOT_FLOAT_LOOP = """
class P {
    static double Kernel(double[] a, int n) {
        double s = 0.0;
        for (int i = 0; i < n; i++) {
            int j = (i * 7 + 3) % a.Length;
            a[j] = a[j] * 0.5 + i;
            s = s + a[j] / 3.0;
        }
        return s;
    }
    static int Main() {
        double[] pad = new double[7000];
        double[] a = new double[64];
        double total = 0.0;
        for (int r = 0; r < 4; r++) { total = total + P.Kernel(a, 1000); }
        Console.WriteLine(total);
        return (int)(total / 1000.0) + pad.Length;
    }
}
"""

#: the divisor reaches zero long after Main has tiered up, inside a
#: straight-line run of the try block: the throw comes from the interior
#: of a superinstruction built by the tier-up, and the handler reads the
#: locals that run had already written
HOT_FUSED_THROW = """
class P {
    static int Main() {
        int acc = 0; int caught = 0;
        for (int i = 0; i < 3000; i++) {
            int a = i + 40; int b = i * 3; int c = 0;
            int d = 2500 - i;
            try {
                a = a + 1;
                b = b * 3;
                c = a + b;
                acc = acc + c / d;
                a = 999;
            } catch (DivideByZeroException e) {
                caught = a * 1000 + b * 10 + c;
            }
        }
        return acc + caught;
    }
}
"""

#: one function with recursive activations and two guest threads in it
#: while it tiers up (a small quantum interleaves the threads inside it)
HOT_SHARED = """
class Worker {
    int seed;
    int result;
    virtual void Run() { result = P.Spin(seed, 2000); }
}
class P {
    static int Spin(int seed, int n) {
        int x = seed;
        for (int i = 0; i < n; i++) { x = (x * 1103 + 12345) & 65535; }
        if (n > 40) { x = x + P.Spin(x & 7, n / 2); }
        return x;
    }
    static int Main() {
        Worker w1 = new Worker(); w1.seed = 1;
        Worker w2 = new Worker(); w2.seed = 2;
        int t1 = Thread.Create(w1);
        int t2 = Thread.Create(w2);
        Thread.Start(t1);
        Thread.Start(t2);
        int own = P.Spin(3, 2000);
        Thread.Join(t1);
        Thread.Join(t2);
        return own + w1.result + w2.result;
    }
}
"""

#: CLR 1.1 with fractional instruction costs: every cost sum is float
#: from the first instruction, so fused runs take their per-element path
FLOAT_COSTS = CLR11.with_costs(mov=0.75, reg_op=1.25)


@pytest.fixture
def tiering(monkeypatch):
    """Record every tier-up and every superinstruction the engine builds:
    its ops, how many were built while the machine's working set was still
    small, and how often one ended the quantum before its last element
    (returning an interior pc to resume at)."""
    from repro.vm import dispatch

    seen = {"tier_ups": 0, "fused": [], "fused_small_ws": 0, "resumed_inside": 0}
    build_ops = dispatch.build_ops
    make_fused = dispatch._make_fused_gen

    def counting_build_ops(machine, fn, tr=None):
        if tr is not None:
            seen["tier_ups"] += 1
        return build_ops(machine, fn, tr)

    def recording_make_fused(code, start, length, machine, fallback=None, fn=None):
        op = make_fused(code, start, length, machine, fallback, fn)
        if op is None:
            return None
        seen["fused"].append([ins.op for ins in code[start:start + length]])
        seen["fused_small_ws"] += not machine.large_working_set

        def recorded(R, st):
            n = op(R, st)
            if start < n < start + length:
                seen["resumed_inside"] += 1
            return n
        return recorded

    monkeypatch.setattr(dispatch, "build_ops", counting_build_ops)
    monkeypatch.setattr(dispatch, "_make_fused_gen", recording_make_fused)
    return seen


def _engine_prints(assembly, profile, engines=("classic",) + ENGINES, **kwargs):
    prints = {}
    for engine in engines:
        with use_engine(engine) as machine_class:
            machine = machine_class(LoadedAssembly(assembly), profile, **kwargs)
            prints[engine] = machine_fingerprint(machine, machine.run())
    return prints


@pytest.mark.parametrize("profile", [CLR11, FLOAT_COSTS],
                         ids=["memtax", "float_costs"])
def test_tier_up_mid_run_float_costs(tiering, profile):
    assembly = compile_source(HOT_FLOAT_LOOP, assembly_name="hot_float")
    prints = _engine_prints(assembly, profile)
    assert "." in prints["classic"]["cycles"]  # the sums really are float
    assert tiering["tier_ups"] > 0 and tiering["fused"]
    for engine in ENGINES:
        assert prints[engine] == prints["classic"], engine


def test_throw_from_interior_of_tiered_superinstruction(tiering, monkeypatch):
    from repro.jit import mir

    throw_sites = []
    throw = Machine._throw

    def recording_throw(machine, thread, exc_obj):
        frame = thread.frames[-1]
        throw_sites.append((frame.fn.full_name, frame.pc))
        return throw(machine, thread, exc_obj)

    monkeypatch.setattr(Machine, "_throw", recording_throw)
    assembly = compile_source(HOT_FUSED_THROW, assembly_name="hot_throw")
    expected = Interpreter(LoadedAssembly(assembly)).run()
    # FLOAT_COSTS runs only the per-element path of each superinstruction
    for profile in (NATIVE_C, CLR11, SSCLI10, FLOAT_COSTS):
        prints, sites = {}, {}
        for engine in ("classic",) + ENGINES:
            del throw_sites[:]
            with use_engine(engine) as machine_class:
                machine = machine_class(LoadedAssembly(assembly), profile)
                prints[engine] = machine_fingerprint(machine, machine.run())
            sites[engine] = list(throw_sites)
        assert prints["classic"]["result"] == repr(expected), profile.name
        assert len(sites["classic"]) == 1
        for engine in ENGINES:
            assert prints[engine] == prints["classic"], (profile.name, engine)
            # the throw is attributed to the DIV itself, not the run start
            assert sites[engine] == sites["classic"], (profile.name, engine)
    # the DIV sits behind other elements of a run that tier-up fused
    assert any(mir.DIV in ops[1:] for ops in tiering["fused"])


def _spin(seed, n):
    """HOT_SHARED's P.Spin in Python (the interpreter has no threads)."""
    x = seed
    for _ in range(n):
        x = (x * 1103 + 12345) & 65535
    if n > 40:
        x = x + _spin(x & 7, n // 2)
    return x


def test_tier_up_with_recursive_and_concurrent_activations(tiering):
    assembly = compile_source(HOT_SHARED, assembly_name="hot_shared")
    expected = _spin(3, 2000) + _spin(1, 2000) + _spin(2, 2000)
    for quantum in (1_500, 50_000):
        prints = _engine_prints(assembly, CLR11, quantum=quantum)
        assert prints["classic"]["result"] == repr(expected)
        for engine in ENGINES:
            assert prints[engine] == prints["classic"], (quantum, engine)
    assert tiering["tier_ups"] > 0 and tiering["fused"]


def test_tier_up_with_fault_injector_armed_never_fuses(tiering):
    from repro.faults import MachineFaults

    assembly = compile_source(HOT_FLOAT_LOOP, assembly_name="hot_faults")
    prints = _engine_prints(assembly, CLR11,
                            faults=MachineFaults(stack_limit=10_000))
    for engine in ENGINES:
        assert prints[engine] == prints["classic"], engine
    assert tiering["tier_ups"] > 0
    assert tiering["fused"] == []


def test_tier_up_with_observer_attached(tiering):
    from repro.observe import Observer

    assembly = compile_source(HOT_FLOAT_LOOP, assembly_name="hot_observed")
    plain = _engine_prints(assembly, CLR11, engines=("classic",))["classic"]
    streams = {}
    for engine in ("classic",) + ENGINES:
        observer = Observer()
        with use_engine(engine) as machine_class:
            machine = machine_class(LoadedAssembly(assembly), CLR11,
                                    observer=observer)
            assert machine_fingerprint(machine, machine.run()) == plain, engine
        streams[engine] = json.dumps(profile_to_dict(observer), sort_keys=True)
    for engine in ENGINES:
        assert streams[engine] == streams["classic"], engine
    # per-instruction hooks need per-instruction closures: an observed
    # machine stays on its first translation
    assert tiering["tier_ups"] == 0
    assert tiering["fused"] == []


@pytest.mark.parametrize("profile", [CLR11, FLOAT_COSTS],
                         ids=["memtax", "float_costs"])
@pytest.mark.parametrize(
    "source", [HOT_FLOAT_LOOP, "HOT_MEMORY_THROWS"], ids=["float_loop", "memory_throws"]
)
def test_tier_up_with_metrics_attached(tiering, source, profile):
    """An observer without a per-instruction hook tiers up like a bare
    machine, and its fused array accesses report the memory tax exactly
    where classic does: the snapshot (``cycles.memtax`` included) and the
    sampled stacks stay bit-identical."""
    from repro.jit import mir
    from repro.metrics import MachineMetrics, StackSampler
    from repro.vm import dispatch

    if source == "HOT_MEMORY_THROWS":
        source = HOT_MEMORY_THROWS.replace("PAD", "7000")
    assembly = compile_source(source, assembly_name="hot_metrics")
    observers = (
        (MachineMetrics, lambda obs: json.dumps(obs.snapshot(), sort_keys=True)),
        (lambda: StackSampler(period=500), StackSampler.collapsed),
    )
    for make, read in observers:
        dispatch._HOT_CODE.clear()
        tiering.update(tier_ups=0, fused=[], fused_small_ws=0)
        seen = {}
        for engine in ("classic",) + ENGINES:
            observer = make()
            with use_engine(engine) as machine_class:
                machine = machine_class(LoadedAssembly(assembly), profile,
                                        observer=observer)
                seen[engine] = (machine_fingerprint(machine, machine.run()),
                                read(observer))
        for engine in ENGINES:
            assert seen[engine] == seen["classic"], engine
        assert tiering["tier_ups"] > 0
        # superinstructions with array accesses, built in the large
        # working set, where every access pays the tax
        assert len(tiering["fused"]) > tiering["fused_small_ws"]
        assert any(mir.LDELEM in ops or mir.STELEM in ops
                   for ops in tiering["fused"])
        if make is MachineMetrics:
            counters = json.loads(seen["classic"][1])["counters"]
            assert counters["cycles.memtax"] > 0


# --------------------------------------------------- fused memory accesses
#
# Array and field accesses sit inside superinstructions.  A fused run has
# three paths — int bulk sum, sequential float sum, per-element checks —
# and these programs drive each of them into a raise, a working-set
# crossing and a quantum end.

#: an array read and a field store that start failing long after Main has
#: fused its loop, each from the interior of a run in a try block whose
#: handler reads the locals the run had already written; PAD elements of
#: padding put the machine in the large working set from the start
HOT_MEMORY_THROWS = """
class Box { int v; }
class P {
    static int Main() {
        double[] pad = new double[PAD];
        int[] data = new int[97];
        Box[] boxes = new Box[5];
        for (int q = 0; q < 4; q++) { boxes[q] = new Box(); }
        int acc = 0; int caught = 0;
        for (int i = 0; i < 3000; i++) {
            data[i % 97] = i;
            int k = i % 97 + (i / 2950) * 200;
            Box bx = boxes[i / 700];
            int a = i + 40; int b = i * 3; int c = 0;
            try {
                a = a + 1;
                b = b * 3;
                c = data[k];
                acc = acc + c;
                a = 999;
            } catch (IndexOutOfRangeException e) {
                caught = caught + a * 1000 + b * 10 + c;
            }
            try {
                a = a + 1;
                b = b + a;
                bx.v = a + b;
                acc = acc + bx.v;
                b = 7;
            } catch (NullReferenceException e) {
                caught = caught + a + b;
            }
        }
        return acc + caught + pad.Length;
    }
}
"""


@pytest.mark.parametrize("pad", [0, 7000], ids=["small_ws", "large_ws"])
def test_throw_from_fused_memory_access(tiering, monkeypatch, pad):
    from repro.jit import mir

    throw_sites = []
    throw = Machine._throw

    def recording_throw(machine, thread, exc_obj):
        frame = thread.frames[-1]
        throw_sites.append((frame.fn.full_name, frame.pc))
        return throw(machine, thread, exc_obj)

    monkeypatch.setattr(Machine, "_throw", recording_throw)
    source = HOT_MEMORY_THROWS.replace("PAD", str(pad))
    assembly = compile_source(source, assembly_name="hot_memory_throws")
    expected = Interpreter(LoadedAssembly(assembly)).run()
    for profile in (NATIVE_C, CLR11, SSCLI10, FLOAT_COSTS):
        prints, sites = {}, {}
        for engine in ("classic",) + ENGINES:
            del throw_sites[:]
            with use_engine(engine) as machine_class:
                machine = machine_class(LoadedAssembly(assembly), profile)
                prints[engine] = machine_fingerprint(machine, machine.run())
            sites[engine] = list(throw_sites)
        assert prints["classic"]["result"] == repr(expected), profile.name
        assert len(sites["classic"]) == 50 + 200
        for engine in ENGINES:
            assert prints[engine] == prints["classic"], (profile.name, engine)
            assert sites[engine] == sites["classic"], (profile.name, engine)
    interior = [op for ops in tiering["fused"] for op in ops[1:]]
    assert mir.LDELEM in interior and mir.STFLD in interior


#: a kernel fused while the working set is small that allocates past the
#: large-memory-model threshold half way through its loop: its runs leave
#: the int path for the sequential one between two iterations
CROSSING_KERNEL = """
class P {
    static double[] keep;
    static double Kernel(double[] a, int n) {
        double s = 0.0;
        for (int i = 0; i < n; i++) {
            int j = (i * 7 + 3) % a.Length;
            a[j] = a[j] * 0.5 + i;
            s = s + a[j] / 3.0;
            if (i == n / 2) { P.keep = new double[7000]; }
        }
        return s;
    }
    static int Main() {
        double[] a = new double[64];
        double total = P.Kernel(a, 6000);
        Console.WriteLine(total);
        return (int)(total / 1000.0);
    }
}
"""


def test_working_set_crosses_after_tier_up(tiering):
    from repro.jit import mir

    assembly = compile_source(CROSSING_KERNEL, assembly_name="crossing")
    for profile in (NATIVE_C, CLR11, SSCLI10):
        prints = _engine_prints(assembly, profile)
        assert "." in prints["classic"]["cycles"], profile.name  # taxed
        for engine in ENGINES:
            assert prints[engine] == prints["classic"], (profile.name, engine)
    assert tiering["fused_small_ws"] > 0
    interior = [op for ops in tiering["fused"] for op in ops[1:]]
    assert mir.LDELEM in interior and mir.STELEM in interior


def test_small_quantum_ends_float_runs_at_interior_pcs(tiering):
    from repro.jit import mir

    # HOT_FLOAT_LOOP runs in the large working set: ``spent`` is a float,
    # and with a 1,500-cycle quantum the sequential path's entry check
    # often fails, so the per-element path ends the quantum mid-run
    assembly = compile_source(HOT_FLOAT_LOOP, assembly_name="hot_quantum")
    for profile in (CLR11, FLOAT_COSTS):
        prints = _engine_prints(assembly, profile, quantum=1_500)
        assert "." in prints["classic"]["cycles"]
        for engine in ENGINES:
            assert prints[engine] == prints["classic"], (profile.name, engine)
    assert tiering["resumed_inside"] > 0
    interior = [op for ops in tiering["fused"] for op in ops[1:]]
    assert mir.LDELEM in interior and mir.STELEM in interior


def test_static_call_site_binds_its_callee_once(monkeypatch):
    source = """
    class P {
        static int Inc(int x) { return x + 1; }
        static int Main() {
            int s = 0;
            for (int i = 0; i < 500; i++) { s = P.Inc(s); }
            return s;
        }
    }
    """
    calls = []
    function = Machine._function

    def counting(machine, method):
        calls.append(method.name)
        return function(machine, method)

    monkeypatch.setattr(Machine, "_function", counting)
    assembly = compile_source(source, assembly_name="static_calls")
    prints, counts = {}, {}
    for engine in ("classic",) + ENGINES:
        del calls[:]
        # SSCLI 1.0 does not inline, so every iteration calls Inc
        with use_engine(engine) as machine_class:
            machine = machine_class(LoadedAssembly(assembly), SSCLI10)
            prints[engine] = machine_fingerprint(machine, machine.run())
        counts[engine] = calls.count("Inc")
    assert prints["classic"]["result"] == "500" and counts["classic"] == 500
    for engine in ENGINES:
        assert prints[engine] == prints["classic"], engine
        assert counts[engine] == 1, engine


# -------------------------------------------------------- shape templates


def _template_state():
    from repro.vm.dispatch import ExecState

    return ExecState(machine=None, thread=None, budget=10**9, burst=4096)


def test_same_shape_shares_code_but_binds_its_own_operands():
    from repro.jit import mir
    from repro.vm.dispatch import _make_fused_gen, _make_single_gen

    code = [
        mir.MInstr(mir.ADD, dst=2, a=0, b=1, kind="i4", cost=3),
        mir.MInstr(mir.ADD, dst=5, a=3, b=4, kind="i4", cost=7),
        mir.MInstr(mir.JLT, a=5, b=2, target=0, cost=2),
        mir.MInstr(mir.ADD, dst=0, a=3, b=1, kind="i4", cost=1),
        mir.MInstr(mir.ADD, dst=6, a=0, b=5, kind="i4", cost=4),
        mir.MInstr(mir.JLT, a=6, b=4, target=1, cost=5),
    ]
    first = _make_single_gen(code, 0, None)
    second = _make_single_gen(code, 1, None)
    assert first.__code__ is second.__code__
    R = [2147483647, 1, None, 10, 20, None, None]
    st = _template_state()
    assert first(R, st) == 1 and R[2] == -2147483648 and st.spent == 3
    assert second(R, st) == 2 and R[5] == 30 and st.spent == 10

    run_a = _make_fused_gen(code, 0, 3, None)
    run_b = _make_fused_gen(code, 3, 3, None)
    assert run_a.__code__ is run_b.__code__
    R = [1, 2, None, 3, 4, None, None]
    st = _template_state()
    # R2 = 3, R5 = 7; 7 < 3 is false: fall through to pc 3
    assert run_a(R, st) == 3 and (R[2], R[5]) == (3, 7)
    assert (st.spent, st.icount) == (12, 2)
    # R0 = 5, R6 = 12; 12 < 4 is false: fall through to pc 6
    assert run_b(R, st) == 6 and (R[0], R[6]) == (5, 12)
    assert (st.spent, st.icount) == (22, 4)
    R[4] = 100  # now 5 + 7 = 12 < 100: the branch goes to run_b's target
    assert run_b(R, st) == 1


def test_first_translation_is_generated_exactly_where_templates_cover(monkeypatch):
    """Drift guard: every op a single template covers has that template as
    its only implementation.  On an unobserved machine the first
    translation of every function — over every registered benchmark and
    the fuzz corpus — is generated code at exactly the pcs whose shape has
    a single template, and hand-written everywhere else."""
    from repro.jit import mir
    from repro.vm import dispatch

    mismatches = []
    kinds = {True: set(), False: set()}
    build_ops = dispatch.build_ops

    def checking_build_ops(machine, fn, tr=None):
        if tr is None:
            closure = dispatch._closure_builder(machine, fn)
            for pc, ins in enumerate(fn.code):
                shape = dispatch._shape(ins)
                covered = dispatch._single_source(shape) is not None
                generated = closure(pc).__code__.co_filename == "<dispatch-gen>"
                kinds[generated].add(ins.op)
                if generated != covered:
                    mismatches.append((fn.full_name, pc, shape))
        return build_ops(machine, fn, tr)

    monkeypatch.setattr(dispatch, "build_ops", checking_build_ops)
    for bench, params in sorted(SMALL_PARAMS.items()):
        for profile in (CLR11, SSCLI10):
            _runner.run_on(bench, profile, params)
    for path in CORPUS_FILES:
        assembly = compile_source(path.read_text(), assembly_name=path.stem)
        for profile in (CLR11, SSCLI10):
            Machine(LoadedAssembly(assembly), profile).run()
    assert mismatches == []
    # the programs exercise both sides of the split
    assert {
        mir.ADD, mir.JLT, mir.LDFLD, mir.CONV, mir.LDELEM, mir.STELEM,
    } <= kinds[True]
    assert {mir.CALL, mir.NEWARR} <= kinds[False]


# ------------------------------------------------------ released memory


def test_translations_released_when_run_returns():
    from repro.errors import ManagedException

    throws = compile_source(
        "class P { static int Main() { int z = 0; "
        "for (int i = 0; i < 5000; i++) { z = z + i; } "
        "throw new ArgumentException(\"done\"); } }",
        assembly_name="release_throw",
    )
    for assembly, raises in ((compile_source(HOT_SHARED), False), (throws, True)):
        machine = Machine(LoadedAssembly(assembly), CLR11)
        assert not isinstance(machine, ClassicMachine)
        if raises:
            with pytest.raises(ManagedException):
                machine.run()
        else:
            machine.run()
        assert machine._threaded_code == {}


def test_template_cache_holds_no_runtime_objects():
    import gc
    from types import CodeType

    from repro.vm import dispatch
    from repro.vm.threads import Frame

    assembly = compile_source(HOT_FUSED_THROW, assembly_name="cache_refs")
    Machine(LoadedAssembly(assembly), CLR11).run()
    assert dispatch._TEMPLATES
    forbidden = (Machine, LoadedAssembly, Frame)
    seen = set()
    pending = list(dispatch._TEMPLATES.values())
    while pending:
        obj = pending.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        assert not isinstance(obj, forbidden), type(obj)
        assert obj is None or isinstance(
            obj, (CodeType, tuple, str, bytes, int, float)
        ), type(obj)
        pending.extend(gc.get_referents(obj))


# ------------------------------------------------ loop superinstructions
#
# A hot call-free loop runs inside one generated function that goes from
# block to block as the driver would go from closure to closure.  These
# programs end bindings at every block of such a loop, raise from inside
# it, pay the float memory tax in it, nest loops, enter a loop at its
# latch, share one loop between recursive activations and two threads,
# and run it on a metrics machine.


@pytest.fixture
def looping(monkeypatch):
    """Record every loop superinstruction the engine builds and what each
    call of one does: where it started, on which thread, the pcs inside
    the loop it handed back (a binding that ended there) and the guest
    exceptions it raised."""
    from repro.vm import dispatch
    from repro.vm.exceptions import GuestException

    seen = {"loops": {}, "entries": set(), "threads": set(), "returned": set(),
            "raised": 0}
    make = dispatch._make_loop_gen

    def recording(code, head, latch, blocks, entry, machine, originals, fn=None):
        op = make(code, head, latch, blocks, entry, machine, originals, fn)
        if op is None:
            return None
        key = (fn.full_name, head)
        seen["loops"][key] = {
            "ops": [ins.op for ins in code[head:latch + 1]],
            "blocks": blocks,
            "observed": machine.observer is not None,
        }

        def recorded(R, st):
            seen["entries"].add((key, entry - head))
            seen["threads"].add((key, id(st.thread)))
            try:
                n = op(R, st)
            except GuestException:
                seen["raised"] += 1
                raise
            if head <= n <= latch:
                seen["returned"].add((key, n - head))
            return n
        return recorded

    monkeypatch.setattr(dispatch, "_make_loop_gen", recording)
    return seen


#: a loop with a forward branch in its body: its blocks are an if, an
#: else, the join, and the latch, a single that the loop entry jumps to
LOOP_BRANCHY = """
class P {
    static int Run(int[] a, int n) {
        int s = 7;
        for (int i = 0; i < n; i++) {
            int k = i & 15;
            if ((i & 3) == 0) { s = s + a[k] * 3; } else { s = s - k; }
            a[k] = s & 1023;
        }
        return s;
    }
    static int Main() {
        int[] a = new int[16];
        return P.Run(a, 3000);
    }
}
"""


def test_loop_ends_bindings_at_every_block(looping):
    """Quanta of 9 to 40 cycles (bursts of 8 to 20 instructions) end a
    binding at every block of the loop; the int and the float cost sums
    stay bit-identical."""
    assembly = compile_source(LOOP_BRANCHY, assembly_name="loop_branchy")
    for profile in (CLR11, FLOAT_COSTS):
        for quantum in range(9, 41):
            prints = _engine_prints(assembly, profile, quantum=quantum)
            for engine in ENGINES:
                assert prints[engine] == prints["classic"], (
                    profile.name, quantum, engine)
    [(key, loop)] = looping["loops"].items()
    assert len(loop["blocks"]) >= 4
    starts = {b for b, _length in loop["blocks"]}
    # bindings ended all over the loop, and the next one went on in it
    # at every block (the entry jump to the latch enters it from the side)
    assert {offset for k, offset in looping["entries"] if k == key} == starts
    # ... some where the driver's test tripped between two blocks, some
    # inside a run whose entry checks failed (it fell back to its head)
    returned = {offset for k, offset in looping["returned"] if k == key}
    assert returned & starts and returned - starts


#: a DIV by zero and an out-of-range array read, each from inside a loop
#: that runs in a try block; the handlers read the locals the loop wrote
LOOP_THROWS = """
class P {
    static int Divide(int[] data, int d) {
        int acc = 0; int i = 0; int q = 0;
        try {
            for (i = 0; i < 4000; i++) {
                q = data[i % 50];
                acc = acc + q / (d - i) + i;
            }
        } catch (DivideByZeroException e) {
            acc = acc * 3 + i * 1000 + q;
        }
        return acc;
    }
    static int Index(int[] data, int reach) {
        int acc = 0; int i = 0; int q = 0;
        try {
            for (i = 0; i < 4000; i++) {
                acc = acc + q + i;
                q = data[(i * 7) % reach];
            }
        } catch (IndexOutOfRangeException e) {
            acc = acc * 5 + i * 1000 + q;
        }
        return acc;
    }
    static int Main() {
        int[] data = new int[50];
        for (int k = 0; k < 50; k++) { data[k] = k * 11 + 1; }
        int total = 0;
        for (int r = 0; r < 3; r++) {
            total = total + P.Divide(data, 2500) + P.Index(data, 50);
            total = total + P.Index(data, 51);
        }
        return total;
    }
}
"""


def test_throw_from_inside_a_loop_is_caught_at_the_exact_pc(looping, monkeypatch):
    throw_sites = []
    throw = Machine._throw

    def recording_throw(machine, thread, exc_obj):
        frame = thread.frames[-1]
        throw_sites.append((frame.fn.full_name, frame.pc))
        return throw(machine, thread, exc_obj)

    monkeypatch.setattr(Machine, "_throw", recording_throw)
    assembly = compile_source(LOOP_THROWS, assembly_name="loop_throws")
    expected = Interpreter(LoadedAssembly(assembly)).run()
    for profile in (NATIVE_C, CLR11, SSCLI10, FLOAT_COSTS):
        prints, sites = {}, {}
        for engine in ("classic",) + ENGINES:
            del throw_sites[:]
            with use_engine(engine) as machine_class:
                machine = machine_class(LoadedAssembly(assembly), profile)
                prints[engine] = machine_fingerprint(machine, machine.run())
            sites[engine] = list(throw_sites)
        assert prints["classic"]["result"] == repr(expected), profile.name
        assert len(sites["classic"]) == 6
        for engine in ENGINES:
            assert prints[engine] == prints["classic"], (profile.name, engine)
            assert sites[engine] == sites["classic"], (profile.name, engine)
    loops = {name for name, _head in looping["loops"]}
    assert {"P::Divide", "P::Index"} <= loops
    assert looping["raised"] > 0


def test_loop_pays_the_float_memory_tax(looping):
    assembly = compile_source(HOT_FLOAT_LOOP, assembly_name="loop_memtax")
    for quantum in (1_500, 50_000):
        prints = _engine_prints(assembly, CLR11, quantum=quantum)
        assert "." in prints["classic"]["cycles"]  # taxed: the sums are float
        for engine in ENGINES:
            assert prints[engine] == prints["classic"], (quantum, engine)
    from repro.jit import mir

    assert any(mir.LDELEM in loop["ops"] and mir.STELEM in loop["ops"]
               for loop in looping["loops"].values())


LOOP_NESTED = """
class P {
    static int Main() {
        int[] m = new int[64];
        int s = 0;
        for (int r = 0; r < 30; r++) {
            for (int i = 0; i < 8; i++) {
                for (int j = 0; j < 8; j++) {
                    int v = m[i * 8 + j] + i - j + r;
                    m[i * 8 + j] = v & 255;
                    s = s + v;
                }
            }
        }
        return s;
    }
}
"""


def test_nested_loops_run_in_the_outer_loop(looping):
    from repro.jit import mir

    assembly = compile_source(LOOP_NESTED, assembly_name="loop_nested")
    for profile in (CLR11, FLOAT_COSTS):
        for quantum in (23, 1_500, 50_000):
            prints = _engine_prints(assembly, profile, quantum=quantum)
            for engine in ENGINES:
                assert prints[engine] == prints["classic"], (
                    profile.name, quantum, engine)
    [loop] = looping["loops"].values()
    jumps = [op for op in loop["ops"] if op == mir.JMP or op in mir.COND_JUMPS]
    assert len(jumps) >= 3  # the three loops' latches, at least


def test_loop_shared_by_recursion_and_two_threads(looping):
    assembly = compile_source(HOT_SHARED, assembly_name="loop_shared")
    expected = _spin(3, 2000) + _spin(1, 2000) + _spin(2, 2000)
    for quantum in (97, 1_500, 50_000):
        prints = _engine_prints(assembly, CLR11, quantum=quantum)
        assert prints["classic"]["result"] == repr(expected)
        for engine in ENGINES:
            assert prints[engine] == prints["classic"], (quantum, engine)
    keys = [key for key in looping["loops"] if key[0] == "P::Spin"]
    assert keys
    threads = {thread for key, thread in looping["threads"] if key in keys}
    assert len(threads) >= 2


def test_loop_on_a_metrics_machine(looping):
    """A metrics machine builds loops too; their array accesses report
    the memory tax where classic does, so the snapshot is identical."""
    from repro.metrics import MachineMetrics

    assembly = compile_source(HOT_FLOAT_LOOP, assembly_name="loop_metrics")
    seen = {}
    for engine in ("classic",) + ENGINES:
        observer = MachineMetrics()
        with use_engine(engine) as machine_class:
            machine = machine_class(LoadedAssembly(assembly), CLR11,
                                    observer=observer)
            seen[engine] = (machine_fingerprint(machine, machine.run()),
                            json.dumps(observer.snapshot(), sort_keys=True))
    for engine in ENGINES:
        assert seen[engine] == seen["classic"], engine
    assert json.loads(seen["classic"][1])["counters"]["cycles.memtax"] > 0
    assert any(loop["observed"] for loop in looping["loops"].values())
