#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: run every experiment module at full scale and
record the paper-vs-measured comparison for each graph/table."""

from __future__ import annotations

import sys
import time

from repro.harness.experiments import ALL_EXPERIMENTS, evaluate_all
from repro.harness.runner import Runner
from repro.observe import profile_to_dict, render_diff_markdown
from repro.runtimes import CLR11, MONO023

PAPER_NOTES = {
    "graph01-02": (
        "Graphs 1-2 (integer arithmetic)",
        "mixed per-op results: CLR slower add/div, faster multiply vs IBM "
        "JVM; Mono ~half of CLR; SSCLI far behind (5-10x overall).",
    ),
    "graph03": (
        "Graph 3 (floating point arithmetic)",
        "same JIT-quality ladder on float/double add/mul/div; division is "
        "hardware-bound everywhere.",
    ),
    "graph04": (
        "Graph 4 (loop performance)",
        "\"the loop overhead in CLR 1.1 is lower\" than the JVM's, for all "
        "three loop styles.",
    ),
    "graph05": (
        "Graph 5 (exception handling)",
        "\"exception-handling in all implementations of the CLI is "
        "significantly more costly than in the JVM\".",
    ),
    "graph06-08": (
        "Graphs 6-8 (Math library, 26 routines)",
        "\"the CLR 1.1 version of the Math library appears to perform "
        "better than the Java version\".",
    ),
    "graph09": (
        "Graph 9 (SciMark composite, both memory models)",
        "C leads; CLR 1.1 \"performs as good as the top-of-the-line\" IBM "
        "JVM and better than BEA/Sun; J# trails C#; Mono ~half; Rotor "
        "last; the large model narrows the JVM's edge.",
    ),
    "graph10-11": (
        "Graphs 10-11 (SciMark kernels vs C)",
        "per-kernel ladder holds; the C MonteCarlo column is anomalously "
        "fast because the native build has no synchronized RNG.",
    ),
    "graph12": (
        "Graph 12 (matrix styles on CLR 1.1)",
        "true multidimensional copies \"run at 25 percent of the "
        "performance of jagged arrays\"; value types beat object types.",
    ),
    "tables5-8": (
        "Tables 5-8 (generated code study)",
        "CLR enregisters but stages the constant divisor through a "
        "temporary; IBM uses registers and constants cleanly; Mono's code "
        "is \"very close to the actual CIL\"; SSCLI emulates cdq with "
        "loads and shifts and keeps everything in memory.",
    ),
}

HEADER = """# EXPERIMENTS — paper vs. measured

Generated by ``python tools/generate_experiments_md.py``.  All numbers are
**simulated cycles** converted at the paper's nominal clocks (2.8 GHz for
the micro studies, 2.2 GHz for SciMark); problem sizes are scaled per
DESIGN.md.  The reproduction target is the paper's *shape* — orderings,
rough ratios, crossovers — not its absolute 2003 numbers, so each section
lists the paper's claim followed by the machine-checked expectations and
the regenerated data.

Methodology note on measurement validity: every number below is produced
by the measured engine (``repro.vm.machine``) and is only meaningful if
that engine computes the same results as the reference interpreter for
*all* programs, not just the benchmarks tabulated here.  That equivalence
is enforced two ways: differentially on the registry itself
(``tests/test_registry_differential.py``) and by a seeded fuzzer
(``repro fuzz``) that generates random Kernel-C# programs and compares the
two engines across every runtime profile and under each optimization pass
individually disabled, with mutation checks proving the oracle can detect
a deliberately broken pass.  Shrunk repros of anything it has ever caught
live in ``tests/fuzz_corpus/`` and are replayed in CI.

Methodology note on job-count invariance: every measured number lives on
the simulated clock, so the process-pool fan-out (``--jobs N`` on
``repro run``, ``repro bench run``, and ``repro fuzz run``) cannot
perturb any result — cells are sharded statically (cell ``i`` to worker
``i mod N``) and merged by cell index, and ``tests/test_parallel.py``
asserts the merged artifacts are **byte-identical** to serial runs at
``--jobs 2`` and ``--jobs 4``, with a warm compile cache, and across
repeated collections.  Job count and cache state are therefore not part
of the experimental configuration and are never recorded in artifacts.

Methodology note on fault tolerance: long collections survive failing
cells without perturbing surviving ones.  ``repro.faults`` gives every
run a seeded ``FaultPlan`` — guest resource ceilings (heap, call depth,
cycle watchdog) surface as catchable *guest* exceptions through the
VM's real two-pass unwind, and injected faults (allocation OOM, torn
cache entries, crashed or hung pool workers) are pure SHA-256 functions
of ``(seed, cell index, site)``.  Failed cells come back as structured
``CellFailure`` annotations, retried with deterministic backoff on the
simulated clock and quarantined after a bounded budget, so an identical
plan seed yields a **byte-identical** failure report at ``--jobs 1``,
``2``, and ``4`` (asserted by ``repro chaos verify`` in CI and
``tests/test_faults.py``).  With no plan armed the fault layer is
provably inert: cycle counts are bit-identical to a build without it.
Every number below is collected with no plan armed.

Methodology note on dispatch-engine invariance: the MIR executor is one
threaded-code engine.  It translates by tier: a method gets pre-bound
generated singles when it first runs, with hand-written closures only
for ops outside the template subset, and superinstructions for its
straight-line runs, array and field accesses included, once it has
retired 200 times its length in instructions.  The classic fetch/decode loop
survives only as a test oracle (``ClassicMachine`` in
``tests/classic_oracle.py``), outside the ``repro`` package, so no
command can build it.  The two differ only in *host* wall-clock: every simulated
observable — cycles including float cost-accumulation order, instruction
counts, metrics snapshots, observe-profiles, and fault-fire sites — is
asserted **bit-identical** between them over every registered benchmark,
all eight runtime profiles and the fuzz corpus
(``tests/test_dispatch_equivalence.py``), and over generated programs
(``tests/test_property_based.py``).  Superinstructions cannot move
a number because fusion never crosses a branch target, an exception-region
boundary, or an armed fault site, adds costs (and the large memory
model's per-access tax) in classic's order, and either re-checks the
classic budget/burst predicates between elements or proves with one
margin-guarded entry check that none of them can trip
(``tests/test_property_based.py``).  The executor is therefore not part
of the experimental configuration, and no artifact records it.  For the
same reason the memo key below fills its dispatch-engine slot with the
constant ``classic``, the value an unset engine always keyed as, so
records stored while the engine was selectable stay addressable.

Methodology note on memoized results: the experiment service
(``repro serve`` / ``repro client``) and the store-backed CLI paths
(``repro bench run --store``) serve repeated cells from an append-only
SQLite store instead of re-executing them.  The memoization key is a
SHA-256 over ``(COMPILER_VERSION, profile, benchmark, canonical
parameter overrides, dispatch engine)`` — every input that can move a
simulated number — so a stale result cannot outlive a compiler bump,
and parameter canonicalization keeps ``1``/``1.0``/``True`` distinct.
Stored records round-trip ``ProfileRun`` values exactly (finite doubles
survive JSON), giving the daemon-vs-direct identity invariant asserted
in ``tests/test_service.py`` and the CI service smoke job: a served
artifact is **byte-identical** to a direct serial run, and a fully-warm
submission performs zero compiles and zero guest cycles.  Only clean
live runs are memoized — fault-plan submissions are refused, and
records backfilled from historical ``BENCH_*.json`` files are marked
``imported`` and never served.  Every number below is regenerated
directly, never read from the store.

Methodology note on submission coalescing: the daemon (``repro serve
--workers N``) executes jobs concurrently, each in its own subprocess,
and identical in-flight submissions coalesce onto a single execution
instead of racing.  The coalescing identity is the sorted set of
content-addressed cell keys (plus the artifact's git SHA stamp) —
exactly the inputs the memoization key covers — so two submissions that
coalesce were guaranteed byte-identical artifacts had both run;
attaching a follower to the primary's result is a pure scheduling
optimization with no measurement effect.  Followers report zero
compiles and zero guest cycles of their own, per-job subprocess
isolation keeps compile accounting exact under overlap, and the CI
service smoke job asserts a 4-worker daemon under concurrent duplicate
submissions serves artifacts byte-identical to a direct serial run.

Methodology note on overload and refusal semantics: the experiment
daemon never lets load or partial failure corrupt a measurement — it
refuses work instead.  Admission control (``--max-queue``) sheds
over-capacity submissions with a structured ``429`` carrying a
deterministic ``Retry-After``; per-job deadlines kill the job's own
subprocess *group* and report a structured ``deadline`` failure; a
breaker (or ``--degraded``, or losing the store writer lease) drops the
daemon to *memo-only* mode where warm cells are still served but cold
work gets a structured ``503``.  None of these paths can perturb a
number: a refused submission executes nothing, a deadline-killed job
records nothing (its store append is a single transaction), and
memo-only service reads existing records through a read-only handle.
Multi-daemon stores are fenced by an expiring writer lease whose token
is re-checked inside the append transaction, so a stale writer aborts
atomically rather than interleaving (``tests/test_service_robustness``,
the CI two-daemon SIGKILL takeover phase).  Every accepted job still
ends byte-identical to a direct serial run — ``repro chaos service``
drives kills, lease steals, lock contention, dropped connections, and
an admission flood in CI, and exits 0 only if every failure is
structured and attributed.

Methodology note on the two clock domains: the repo emits telemetry on
two clocks that must never mix.  The **simulated clock** (cycles counted
by ``repro.vm.machine``, exported by ``repro.observe``) is the
experimental observable — deterministic, host-independent, and the only
clock any number below is read from.  The **wall clock**
(``repro.trace`` spans from the service daemon: HTTP framing, queue
wait, pool fan-out, store lookups) is operational telemetry about the
*apparatus*, not the experiment; it varies with the host and is never
written into a ``BENCH_*`` artifact or the store.  The separation is
enforced, not aspirational: tracing is a no-op context threaded through
the same code paths, and ``tests/test_trace.py`` asserts a traced
collection's artifact is **byte-identical** to an untraced one.  When
both views help (e.g. "why was this submission slow?"),
``repro trace export --observe`` merges wall-clock spans and
simulated-cycle timelines into one Chrome trace as separate, labelled
process rows — each row names its clock domain so a reader cannot
mistake queue latency for guest cycles.

Summary of shape checks:
"""


def observability_section(benchmark: str = "scimark.sor") -> str:
    """Profile one kernel on CLR 1.1 vs Mono and render the category
    attribution table (the section-4 'which component explains the gap?'
    analysis, regenerated from our own cycle accounting)."""
    runner = Runner()
    a = profile_to_dict(
        runner.run_on(benchmark, CLR11, observe=True).observation
    )
    b = profile_to_dict(
        runner.run_on(benchmark, MONO023, observe=True).observation
    )
    ratio = b["total_cycles"] / a["total_cycles"]
    return "\n".join([
        "## Observability: where does the CLR-vs-Mono gap come from?",
        "",
        "**Paper claim.** Section 4 attributes Mono 0.23's ~2x deficit to "
        "generated-code quality (no enregistration of locals, naive "
        "constant handling) rather than runtime services.",
        "",
        f"`repro prof diff clr11 mono023 --benchmark {benchmark}` "
        f"(cycle-attribution profiler, `repro.observe`) measures "
        f"Mono at **{ratio:.2f}x** CLR 1.1 cycles on `{benchmark}` and "
        "ranks the cost categories by their contribution to the gap:",
        "",
        render_diff_markdown(a, b),
        "",
        "The gap is dominated by the `execute` category — statically "
        "stamped per-instruction costs, i.e. JIT code quality — matching "
        "the paper's diagnosis; runtime-service categories (dispatch, "
        "allocation, monitors) contribute comparatively little.  Every "
        "cycle above is attributed: the profiler reconstructs "
        "`machine.cycles` exactly, and observation itself is "
        "zero-perturbation (enforced by `tests/test_observe.py`).",
        "",
    ])


def bench_trajectory_section() -> str:
    """Collect a small BENCH artifact and document how its series map onto
    the paper's graphs (the regression gate guards exactly these numbers)."""
    from repro.metrics import baseline
    from repro.runtimes import ALL_PROFILES

    suite = [
        ("micro.arith", {"Reps": 600}),
        ("grande.sieve", {"Limit": 2000, "Reps": 1}),
        ("scimark.sor", {"N": 16, "Iters": 2, "Seed": 101010}),
    ]
    artifact = baseline.collect(
        profiles=ALL_PROFILES, suite=suite, scale=0.2, git_sha="generated"
    )
    lines = [
        "## Benchmark trajectory: the BENCH artifact behind the graphs",
        "",
        "Every figure above is a *point-in-time* regeneration; "
        "`repro bench run` freezes the same measurements into a "
        "schema-versioned `BENCH_<seq>.json` artifact (cycles, instruction "
        "counts, metric snapshots, and cross-runtime ratios anchored at "
        "CLR 1.1, per benchmark per profile), and `repro bench compare` "
        "gates CI on it — so the ratio ladders the paper's graphs rest on "
        "cannot drift silently.  The graph-suite series map onto the paper "
        "as: `micro.*` → graphs 1-8, `grande.sieve` → the DHPC kernels, "
        "`scimark.*` → graphs 9-11, `clispec.matrix` → graph 12, "
        "`threads.sync` → the Table 3 monitor studies.  Sample of the "
        "ratio series from a reduced collection:",
        "",
        "| benchmark | " + " | ".join(
            key for key in sorted(
                next(iter(artifact["benchmarks"].values()))["ratios"]
            )
        ) + " |",
        "|---|" + "---|" * (len(ALL_PROFILES) - 1),
    ]
    for bench_name, entry in sorted(artifact["benchmarks"].items()):
        cells = [f"{entry['ratios'][k]:.2f}" for k in sorted(entry["ratios"])]
        lines.append(f"| {bench_name} | " + " | ".join(cells) + " |")
    lines += [
        "",
        "(ratios are cycles relative to CLR 1.1: <1 is faster, >1 slower; "
        "the committed gate runs the full 10-benchmark suite at scale 1.0.)  "
        "Collection is metric-instrumented (`repro.metrics`) and "
        "zero-perturbation, and the engine is deterministic, so identical "
        "code reproduces artifacts byte-for-byte; `cycles`/`instructions` "
        "gate one-sided at 2%, the ratio series two-sided at 5%.",
        "",
    ]
    return "\n".join(lines)


def main() -> None:
    sections = []
    summary = []
    total = passed = 0
    for name in ALL_EXPERIMENTS:
        t0 = time.time()
        results = evaluate_all([name])
        wall = time.time() - t0
        title, claim = PAPER_NOTES[name]
        body = [f"## {title}", "", f"**Paper claim.** {claim}", ""]
        for result in results:
            n_pass = sum(1 for c in result.checks if c.passed)
            total += len(result.checks)
            passed += n_pass
            body.append(f"**Checks ({result.title}):**")
            body.append("")
            body.append("```")
            body.extend(c.render() for c in result.checks)
            body.append("```")
            body.append("")
            body.append("<details><summary>regenerated data</summary>")
            body.append("")
            body.append("```")
            body.append(result.text)
            body.append("```")
            body.append("</details>")
            body.append("")
        checks_here = sum(len(r.checks) for r in results)
        ok_here = sum(1 for r in results for c in r.checks if c.passed)
        summary.append(f"- {title}: {ok_here}/{checks_here} checks pass "
                       f"({wall:.0f}s)")
        sections.append("\n".join(body))
    sections.append(observability_section())
    sections.append(bench_trajectory_section())
    out = HEADER + "\n".join(summary)
    out += f"\n\n**Total: {passed}/{total} expectations reproduced.**\n\n"
    out += "\n".join(sections)
    with open("EXPERIMENTS.md", "w") as handle:
        handle.write(out)
    print(f"EXPERIMENTS.md written: {passed}/{total} checks pass")
    sys.exit(0 if passed == total else 1)


if __name__ == "__main__":
    main()
