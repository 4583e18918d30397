"""The paper's root-cause findings (section 5) and the Table 2-4 ladders
that no experiment module checks.

Each finding pins one JIT or runtime behaviour to the gap it explains:

* bounds checks are eliminated only when the loop is bounded by
  ``array.Length`` ("an instant performance improvement of 15% or more");
* CLR 1.0/1.1 enregister at most 64 locals;
* the CLI's exception slowness is its two-pass dispatch cost, and swapping
  only those cost rows closes the Graph 5 gap;
* the JIT-quality ladder (SSCLI below CLR 1.1) holds on the Grande
  application kernels;
* JVM thin locks beat every CLI on uncontended monitors, and the lock-free
  tournament barrier beats the monitor barrier everywhere.

The ablations run derived profiles (``with_jit``/``with_costs``) or inline
sources, which a planner cell cannot name, so they compile and run here
directly.
"""

import repro
from repro.benchmarks import get
from repro.harness.runner import plan, profile_cells, profile_runs
from repro.runtimes import CLR11, IBM131, MICRO_PROFILES, MONO023, SSCLI10

CLOCK_HZ = 2.8e9


def _cycles(source, profile):
    """``(cycles, result)`` of one compile-and-run of ``source``."""
    result, machine = repro.run(repro.compile_source(source), profile)
    return machine.cycles, result


def _ladder(names, profiles):
    """``{section: {profile: ops/sec}}`` over every section of ``names``,
    each benchmark at its registry default sizes, planned together."""
    groups = [profile_cells(name, None, profiles, CLOCK_HZ) for name in names]
    runs = plan([cell for group in groups for cell in group])
    series = {}
    for group in groups:
        by_profile = profile_runs(runs, group)
        for section in next(iter(by_profile.values())).sections:
            series[section] = {
                p: run.section(section).ops_per_sec for p, run in by_profile.items()
            }
    return series


# a sparse-style inner loop bounded by a local; the variant bounds it by
# ``val.Length``
LOCAL_BOUND = """
class Kernel {
    static double Main() {
        int n = 2000;
        double[] val = new double[n];
        double[] x = new double[n];
        int[] col = new int[n];
        for (int i = 0; i < n; i++) { val[i] = i * 0.5; x[i] = i * 0.25; col[i] = (i * 7) % n; }
        double total = 0.0;
        for (int reps = 0; reps < 30; reps++) {
            for (int i = 0; i < n; i++) { total += x[col[i]] * val[i]; }
        }
        return total;
    }
}
"""

LENGTH_BOUND = LOCAL_BOUND.replace(
    "for (int i = 0; i < n; i++) { total += x[col[i]] * val[i]; }",
    "for (int i = 0; i < val.Length; i++) { total += x[col[i]] * val[i]; }",
)

# the hot loop's locals are declared after 70 padding locals
_PAD = "\n        ".join(f"int pad{i} = {i};" for i in range(70))
_PAD_USE = " + ".join(f"pad{i}" for i in range(70))

MANY_LOCALS = f"""
class Kernel {{
    static int Main() {{
        {_PAD}
        int a = 1; int b = 2; int c = 3;
        for (int i = 0; i < 30000; i++) {{ a = b + c; b = c + a; c = a + b; }}
        int guard = {_PAD_USE};
        return a + b + c + guard;
    }}
}}
"""


def test_length_bound_eliminates_bounds_checks():
    clr_local, local_sum = _cycles(LOCAL_BOUND, CLR11)
    clr_length, length_sum = _cycles(LENGTH_BOUND, CLR11)
    assert local_sum == length_sum, "variants must compute identical sums"
    assert clr_local / clr_length - 1.0 >= 0.10, (clr_local, clr_length)
    # the same rewrite is roughly neutral where the JIT cannot exploit it
    mono_local, _ = _cycles(LOCAL_BOUND, MONO023)
    mono_length, _ = _cycles(LENGTH_BOUND, MONO023)
    assert abs(mono_local / mono_length - 1.0) < 0.10, (mono_local, mono_length)


def test_locals_past_64_lose_enregistration():
    limited, limited_result = _cycles(MANY_LOCALS, CLR11)
    unlimited, unlimited_result = _cycles(
        MANY_LOCALS, CLR11.with_jit(max_tracked_locals=10_000)
    )
    assert limited_result == unlimited_result
    assert limited / unlimited - 1.0 > 0.3, (limited, unlimited)


def _section_cycles(name, reps, profile, section):
    source = get(name).build_source({"Reps": reps})
    _, machine = repro.run(repro.compile_source(source), profile)
    machine.bench.require_valid()
    return machine.bench.sections[section].total_cycles


def test_exception_cost_rows_explain_the_graph5_gap():
    hybrid = CLR11.with_costs(
        exception_throw=IBM131.costs.exception_throw,
        exception_frame=IBM131.costs.exception_frame,
        exception_new=IBM131.costs.exception_new,
    )
    clr, ibm, mixed = (
        _section_cycles("micro.exception", 150, p, "Exception:Throw")
        for p in (CLR11, IBM131, hybrid)
    )
    assert (clr - mixed) / (clr - ibm) > 0.8, (clr, ibm, mixed)
    # swapping the exception rows perturbs nothing else
    assert _section_cycles("micro.arith", 1500, hybrid, "Arith:Add:Int") == (
        _section_cycles("micro.arith", 1500, CLR11, "Arith:Add:Int")
    )


GRANDE = (
    "grande.fibonacci", "grande.sieve", "grande.hanoi", "grande.heapsort",
    "grande.crypt", "grande.moldyn", "grande.euler", "grande.search",
    "grande.raytracer",
)


def test_grande_ladder_sscli_never_beats_clr():
    for section, ops in _ladder(GRANDE, (CLR11, SSCLI10)).items():
        assert ops["sscli-1.0"] <= ops["clr-1.1"], (section, ops)


def test_thread_ladders():
    series = _ladder(("threads.barrier", "threads.forkjoin", "threads.sync",
                      "threads.thread", "threads.lock"), MICRO_PROFILES)
    uncontended = series["Lock:Uncontended"]
    assert uncontended["ibm-1.3.1"] > uncontended["clr-1.1"] > uncontended["sscli-1.0"]
    simple, tournament = series["Barrier:Simple"], series["Barrier:Tournament"]
    assert all(tournament[p] > simple[p] for p in simple), (simple, tournament)
