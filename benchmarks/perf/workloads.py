"""The benchmark's four workloads, each driven through public functions.

A workload sets itself up in ``__init__`` (the benchmark times that as
set-up), then runs fixed units of work, one per :meth:`run_pass` call.
Each pass returns its timed stretches, the latency of each user-visible
operation in it, and fingerprints of the simulated observables it
produced.  Checks against those fingerprints, and every other failure,
go into ``attempted`` / ``failures``.

Why these four: ``paper`` spends ~95% of its time in ``Machine.run`` on
22 compiles, so dispatch work shows there and front-end work does not;
``churn`` compiles a fresh program for every eight short runs, the
inverse; ``suite`` is ``repro-bench run`` with pool fan-out, cold compile
caches and the store's lookup and append path; ``service`` is the daemon
under a closed loop of warm, cold and coalesced submissions.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from hostspeed import SpeedMeter, block_in_this_thread
from spans import NAME, START, END, SpanRecorder

#: stamped on every collection, so no run shells out to git
GIT_SHA = "perfbench"

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: load comes from one process with at most this many workers or clients
MAX_WORKERS = max(1, min(2, os.cpu_count() or 1))


def sha256_json(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_golden(name: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, name + ".json"), encoding="utf-8") as handle:
        return json.load(handle)


#: a measured duration and the interval whose host speed it is judged by:
#: ``(seconds, start, end)`` on the ``time.perf_counter`` clock
Timed = Tuple[float, float, float]


def timed(start: float, end: float) -> Timed:
    return (end - start, start, end)


def op_durations(recorder: SpanRecorder, mark: int, name: str) -> List[Timed]:
    return [timed(r[START], r[END]) for r in recorder.spans[mark:] if r[NAME] == name]


@dataclass
class Pass:
    #: the pass's stretches of work, each judged by its own host speed
    phases: List[Timed]
    #: one per user-visible operation
    ops: List[Timed]
    #: fingerprints of the simulated observables, for goldens and digests
    observed: Dict[str, str]
    #: workload-specific timings, merged into the report by key
    timings: Dict[str, List[Timed]] = field(default_factory=dict)
    #: workload-specific counts and ratios, merged into the report by key
    samples: Dict[str, list] = field(default_factory=dict)
    #: operations finished in other processes, counted but not timed here
    untimed_ops: int = 0


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, work_dir: str,
                 recorder: SpanRecorder, meter: SpeedMeter) -> None:
        self.seed = seed
        self.size = size
        self.work_dir = work_dir
        self.recorder = recorder
        self.meter = meter
        self.attempted = 0
        self.failures: List[str] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def check_golden(self, golden: dict, observed: Dict[str, str]) -> None:
        for key, value in observed.items():
            if key in golden and golden[key] != value:
                self.fail(f"{self.name}: {key} differs from its golden fingerprint")

    def install_timers(self, patches) -> None:
        """Untraced runs wrap only what op latencies are read from."""
        from repro.harness.runner import Runner

        patches.wrap(Runner, "run_on", "harness.run_on")

    def run_pass(self, index: int) -> Pass:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that run once, after the measured passes."""

    def close(self) -> None:
        pass


# --------------------------------------------------------------- paper


#: smoke size: the cheapest experiments, still at scale 1.0, so their
#: goldens apply
SMOKE_EXPERIMENTS = ("graph05", "graph12", "tables5-8")


def experiment_fingerprint(result) -> str:
    return sha256_json({
        "series": result.series,
        "checks": [[c.description, c.passed, c.detail] for c in result.checks],
    })


class Paper(Workload):
    """``hpcnet experiments``: every paper experiment at scale 1.0,
    serially, in one process; one operation is one benchmark run on one
    runtime profile (``Runner.run_on``)."""

    name = "paper"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        from repro.harness.experiments import ALL_EXPERIMENTS

        names = list(ALL_EXPERIMENTS) if self.size == "full" else SMOKE_EXPERIMENTS
        self.modules = [(name, ALL_EXPERIMENTS[name]) for name in names]
        self.golden = load_golden("paper")

    def run_pass(self, index: int) -> Pass:
        mark = len(self.recorder.spans)
        results = []
        start = time.perf_counter()
        for name, module in self.modules:
            try:
                results.append((name, module.run(scale=1.0)))
            except Exception as exc:  # a failed experiment is a counted failure
                results.append((name, exc))
        phase = timed(start, time.perf_counter())
        observed = {}
        for name, result in results:
            self.attempted += 1
            if isinstance(result, Exception):
                self.fail(f"paper: {name} raised {type(result).__name__}: {result}")
                continue
            observed[name] = experiment_fingerprint(result)
            for check in result.checks:
                if not check.passed:
                    self.fail(f"paper: {name}: shape check failed: {check.description}")
        self.check_golden(self.golden, observed)
        return Pass([phase], op_durations(self.recorder, mark, "harness.run_on"), observed)


# --------------------------------------------------------------- churn


#: programs per pass; the seed picks them, the pass index advances them
CHURN_BATCH = {"full": 40, "smoke": 3}
CHURN_BUDGET = 40


class Churn(Workload):
    """Generated programs, each compiled once with no cache and run on
    all eight profiles; one operation is one program."""

    name = "churn"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        from repro.fuzz.genprog import generate_program, program_seed
        from repro.runtimes import ALL_PROFILES

        self._generate = generate_program
        self._program_seed = program_seed
        self.profiles = list(ALL_PROFILES)
        self.batch = CHURN_BATCH[self.size]
        self.golden = load_golden("churn_seed0") if self.seed == 0 else {}
        self._next = self.inputs(0)

    def inputs(self, index: int):
        first = index * self.batch
        return [
            (i, self._generate(self._program_seed(self.seed, i), budget=CHURN_BUDGET))
            for i in range(first, first + self.batch)
        ]

    def run_pass(self, index: int) -> Pass:
        from repro.errors import ManagedException, ReproError
        from repro.lang import compile_source
        from repro.vm.loader import LoadedAssembly
        from repro.vm.machine import Machine

        programs = self._next if index == 0 else self.inputs(index)
        ops, raw = [], []
        start = time.perf_counter()
        for i, program in programs:
            began = time.perf_counter()
            runs = []
            try:
                assembly = compile_source(program.source, assembly_name=f"churn{i}")
                for profile in self.profiles:
                    machine = Machine(LoadedAssembly(assembly), profile)
                    try:
                        outcome = ("value", repr(machine.run()))
                    except ManagedException as exc:
                        outcome = ("throws", exc.type_name)
                    runs.append((profile.name, outcome, machine.stdout, machine.cycles))
            except ReproError as exc:
                runs = f"{type(exc).__name__}: {exc}"
            ops.append(timed(began, time.perf_counter()))
            raw.append((i, runs))
        phase = timed(start, time.perf_counter())
        observed = {}
        for i, runs in raw:
            self.attempted += 1
            if isinstance(runs, str):
                self.fail(f"churn: program {i} failed: {runs}")
                continue
            outcomes = {(outcome, tuple(stdout)) for _p, outcome, stdout, _c in runs}
            if len(outcomes) != 1:
                self.fail(f"churn: program {i}: profiles disagree on its result")
                continue
            outcome, stdout = outcomes.pop()
            observed[str(i)] = sha256_json({
                "result": list(outcome),
                "stdout": list(stdout),
                "cycles": {name: cycles for name, _o, _s, cycles in runs},
            })
        self.check_golden(self.golden, observed)
        return Pass([phase], ops, observed)


# --------------------------------------------------------------- suite


SMOKE_SUITE = ("micro.arith", "scimark.fft")


def artifact_fingerprint(artifact: dict) -> Dict[str, str]:
    """One fingerprint per benchmark entry plus one for the rest of the
    artifact; ``git_sha`` is left out."""
    rest = {k: v for k, v in artifact.items() if k not in ("git_sha", "benchmarks")}
    out = {"_artifact": sha256_json(rest)}
    for name, entry in artifact["benchmarks"].items():
        out[name] = sha256_json(entry)
    return out


class Suite(Workload):
    """``repro-bench run``: the graph suite on all eight profiles at scale
    1.0, first with ``jobs=1``, then with ``jobs=2`` and a fresh store,
    each with a fresh compile cache; one operation is one cell."""

    name = "suite"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        from repro.metrics import baseline
        from repro.runtimes import ALL_PROFILES

        self.baseline = baseline
        suite = baseline.graph_suite(1.0)
        if self.size != "full":
            suite = [entry for entry in suite if entry[0] in SMOKE_SUITE]
        self.suite = suite
        self.profiles = list(ALL_PROFILES)
        self.golden = load_golden("suite")

    def _collect(self, **kwargs):
        try:
            return self.baseline.collect(
                profiles=self.profiles, suite=self.suite, scale=1.0,
                git_sha=GIT_SHA, **kwargs,
            )
        except Exception as exc:  # a failed collection is a counted failure
            self.fail(f"suite: collect({kwargs.get('jobs')}) raised "
                      f"{type(exc).__name__}: {exc}")
            return None

    def run_pass(self, index: int) -> Pass:
        from repro.parallel import CompileCache
        from repro.store import ExperimentStore

        pass_dir = tempfile.mkdtemp(prefix=f"suite{index}-", dir=self.work_dir)
        mark = len(self.recorder.spans)
        serial_cache = CompileCache(os.path.join(pass_dir, "serial-cache"))
        start = time.perf_counter()
        serial = self._collect(jobs=1, cache=serial_cache)
        middle = time.perf_counter()
        with self.meter.paused():
            store = ExperimentStore(os.path.join(pass_dir, "store.sqlite"))
            try:
                parallel = self._collect(
                    jobs=MAX_WORKERS, store=store,
                    cache=CompileCache(os.path.join(pass_dir, "cache")),
                )
            finally:
                store.close()
        end = time.perf_counter()
        report = self.baseline.collect.last_report
        shutil.rmtree(pass_dir, ignore_errors=True)

        self.attempted += 2
        observed = {}
        if serial is not None and parallel is not None:
            observed = artifact_fingerprint(serial)
            if artifact_fingerprint(parallel) != observed:
                self.fail("suite: jobs=2 artifact differs from the jobs=1 artifact")
            self.check_golden(self.golden, observed)
        ops = op_durations(self.recorder, mark, "harness.run_on")
        timings = {"serial_wall_s": [timed(start, middle)],
                   "parallel_wall_s": [timed(middle, end)]}
        samples = {}
        if report is not None:
            busy = sum(report.cell_wall)
            timings.update({
                "parallel.run_cells.wall_s": [(report.wall_seconds, middle, end)],
                "parallel.cell_busy_s": [(busy, middle, end)],
            })
            samples.update({
                "parallel.efficiency": [busy / (report.wall_seconds * report.jobs)],
                "parallel.cache.hits": [serial_cache.hits + report.cache_hits],
                "parallel.cache.misses": [serial_cache.misses + report.cache_misses],
                "store.hits": [store.hits],
                "store.misses": [store.misses],
            })
        # pool cells contend with each other for the two cores, so cell
        # latency is read from the jobs=1 collection only
        return Pass([timed(start, middle), timed(middle, end)], ops, observed,
                    timings, samples, untimed_ops=len(report.cell_wall) if report else 0)


# ------------------------------------------------------------- service


#: cold requests: ``micro.loop`` at a seeded, never-seen scale, which
#: sets its ``Reps`` (the daemon takes benchmark names and a scale)
COLD_BENCHMARK = "micro.loop"
COLD_REPS = range(400, 1400)
COLD_PROFILES = ("clr-1.1", "mono-0.23", "jrockit-8.1", "native-c")
#: steps each client takes per pass
SERVICE_STEPS = {"full": 40, "smoke": 4}
#: shares of the seeded mix; the rest are warm repeats
DUP_SHARE, COLD_SHARE = 0.05, 0.15
POLL = 0.01


class Service(Workload):
    """An in-process ``ExperimentService`` with two workers on a fresh
    store and cache, driven by two closed-loop ``ServiceClient`` threads;
    one operation is one submission, waited for and fetched."""

    name = "service"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        import asyncio

        from repro.metrics import baseline
        from repro.service import ExperimentService, ServiceClient

        self.baseline = baseline
        self._loop_reps = dict(baseline.graph_suite(1.0))[COLD_BENCHMARK]["Reps"]
        self._reps_order = random.Random(self.seed).sample(
            range(len(COLD_REPS)), len(COLD_REPS))
        self._cold_steps = 0
        self.steps = SERVICE_STEPS[self.size]
        # no writer lease: a single daemon on a private store needs none,
        # and a job forked while the renewal thread holds the store's
        # write lock fails after a 30 s wait (see README.md, findings)
        self.service = ExperimentService(
            os.path.join(self.work_dir, "service.sqlite"),
            jobs=1, workers=MAX_WORKERS, use_lease=False,
            cache_dir=os.path.join(self.work_dir, "service-cache"),
        )
        self.loop = asyncio.new_event_loop()
        ready = threading.Event()
        failed: List[BaseException] = []

        def body():
            block_in_this_thread()
            asyncio.set_event_loop(self.loop)
            try:
                self.loop.run_until_complete(self.service.start("127.0.0.1", 0))
            except BaseException as exc:  # surfaced to the caller below
                failed.append(exc)
                return
            finally:
                ready.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=body, name="perfbench-daemon")
        self.thread.start()
        if not ready.wait(60) or failed:
            raise RuntimeError(f"service failed to start: {failed}")
        host, port = self.service.address
        self.clients = [ServiceClient(f"http://{host}:{port}") for _ in range(MAX_WORKERS)]
        self.barrier = threading.Barrier(len(self.clients))
        #: per client: requests it has completed, the warm-repeat pool
        self.history: List[List[dict]] = [[] for _ in self.clients]
        #: request fingerprint -> (request, {artifact fingerprints served})
        self.served: Dict[str, tuple] = {}

    # -- the seeded mix

    def _plan(self, steps: range) -> Dict[int, tuple]:
        """step -> (kind, index of the step among non-warm steps).  Each
        pass has the mix's exact shares in a seeded order, shared by both
        clients; step 0 is cold so every client has a request to repeat."""
        count = len(steps)
        dups = round(DUP_SHARE * count)
        colds = round(COLD_SHARE * count)
        kinds = ["dup"] * dups + ["cold"] * colds + ["warm"] * (count - dups - colds)
        random.Random(f"{self.seed}:kinds:{steps.start}").shuffle(kinds)
        if steps.start == 0 and kinds[0] != "cold":
            swap = kinds.index("cold")
            kinds[0], kinds[swap] = kinds[swap], kinds[0]
        plan = {}
        for step, kind in zip(steps, kinds):
            plan[step] = (kind, self._cold_steps)
            if kind != "warm":
                self._cold_steps += 1
        return plan

    def _cold_request(self, index: int) -> dict:
        reps = COLD_REPS[self._reps_order[index % len(COLD_REPS)]]
        return {"benchmarks": [COLD_BENCHMARK], "profiles": list(COLD_PROFILES),
                "scale": (reps + 0.5) / self._loop_reps, "git_sha": GIT_SHA}

    def _request(self, client: int, step: int, plan: Dict[int, tuple]):
        kind, cold_index = plan[step]
        if kind == "dup":
            return kind, self._cold_request(2 * cold_index)
        history = self.history[client]
        if kind == "warm" and history:
            pick = random.Random(f"{self.seed}:warm:{client}:{step}")
            return kind, history[pick.randrange(len(history))]
        # a warm step with nothing to repeat (the client's first request
        # failed) draws from the far end of the order
        index = 2 * cold_index + client if kind == "cold" else -1 - 2 * step - client
        return "cold", self._cold_request(index)

    # -- one closed-loop client

    def _client_steps(self, client: int, plan: Dict[int, tuple], out: list) -> None:
        """Appends ``(step, kind, latency, view, artifact fingerprint,
        error, HTTP status on error or client-observed latency)`` per
        submission to ``out``."""
        from repro.service import ServiceError

        block_in_this_thread()
        api = self.clients[client]
        try:
            for step in sorted(plan):
                kind, request = self._request(client, step, plan)
                if kind == "dup":
                    self.barrier.wait(timeout=120)
                began = time.perf_counter()
                try:
                    job = api.submit(request)
                    submitted = time.perf_counter()
                    view = api.wait(job["id"], timeout=120, poll=POLL, poll_cap=POLL)
                    fetched = time.perf_counter()
                    artifact = api.result(job["id"]) if view["status"] == "done" else None
                except (ServiceError, OSError) as exc:
                    out.append((step, kind, None, None, None, str(exc),
                                getattr(exc, "status", None)))
                    continue
                ended = time.perf_counter()
                if artifact is None:
                    out.append((step, kind, timed(began, ended), view, None,
                                f"job {view['id']} ended {view['status']}: "
                                f"{view['error']}", None))
                    continue
                # the fixed poll rounds what the client sees up to a whole
                # poll; the server-side stretch between its two round
                # trips is exact
                latency = ((submitted - began) + view["queue_wait_seconds"]
                           + view["run_seconds"] + (ended - fetched), began, ended)
                fingerprint = sha256_json(artifact)
                out.append((step, kind, latency, view, fingerprint, None,
                            timed(began, ended)))
                entry = self.served.setdefault(sha256_json(request), (request, set()))
                entry[1].add(fingerprint)
                if kind != "warm":
                    self.history[client].append(request)
        except threading.BrokenBarrierError:
            out.append((None, "dup", None, None, None, "dup barrier broken", None))
        finally:
            # both clients meet at every dup step, so a client that is done
            # leaves none pending; aborting frees the other if this one failed
            self.barrier.abort()

    def run_pass(self, index: int) -> Pass:
        self.barrier.reset()
        plan = self._plan(range(index * self.steps, (index + 1) * self.steps))
        results: List[list] = [[] for _ in self.clients]
        threads = [
            threading.Thread(target=self._client_steps, args=(c, plan, results[c]),
                             name=f"perfbench-client{c}")
            for c in range(len(self.clients))
        ]
        with self.meter.paused():
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            end = time.perf_counter()

        ops, observed = [], {}
        timings: Dict[str, List[Timed]] = {
            "warm_s": [], "cold_s": [], "client_s": [], "queue_wait_s": [],
            "warm_run_s": [], "cold_run_s": [],
        }
        samples: Dict[str, list] = {"coalesced": [0], "rejected": [0]}
        for client, out in enumerate(results):
            for step, kind, latency, view, fingerprint, error, extra in out:
                self.attempted += 1
                if error is not None:
                    if extra in (429, 503):
                        samples["rejected"][0] += 1
                    self.fail(f"service: client {client} step {step}: {error}")
                    continue
                ops.append(latency)
                timings["client_s"].append(extra)
                warm = kind == "warm"
                _seconds, began, ended = latency
                timings["warm_s" if warm else "cold_s"].append(latency)
                timings["queue_wait_s"].append((view["queue_wait_seconds"], began, ended))
                timings["warm_run_s" if warm else "cold_run_s"].append(
                    (view["run_seconds"], began, ended))
                if view["coalesced_with"] is not None:
                    samples["coalesced"][0] += 1
                observed[f"{step}:{client}"] = fingerprint
        return Pass([timed(start, end)], ops, observed, timings, samples)

    def finish(self) -> None:
        """Every served artifact must equal a direct serial collection of
        the same request; a request is collected once however often it
        was served."""
        for request, artifacts in self.served.values():
            direct = self.baseline.collect(
                profiles=self.baseline.resolve_profiles(request["profiles"]),
                suite=self.baseline.resolve_suite(request["benchmarks"], request["scale"]),
                scale=request["scale"], git_sha=GIT_SHA, jobs=1,
            )
            if artifacts != {sha256_json(direct)}:
                self.fail(f"service: artifact for {request['benchmarks']} differs "
                          "from a direct serial collection")

    def close(self) -> None:
        import asyncio

        for client in self.clients:
            client.close()
        if self.loop.is_running():
            asyncio.run_coroutine_threadsafe(self.service.stop(), self.loop).result(60)
            self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(60)
        self.loop.close()


WORKLOADS = {cls.name: cls for cls in (Paper, Churn, Suite, Service)}
