"""Span recorders wrapped around the program's public callables.

The benchmark measures the program from outside: a traced run replaces
each callable named in :func:`install_layers` with a wrapper that opens a
span (name, start, end, parent) around the original call, and puts the
original object back when the run ends.  Spans stay in memory and are
written as JSONL only at the end, so recording costs one list append per
call.  A layer's self time is its spans' duration minus the part covered
by their child spans.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: span record fields: [name, start, end, parent record or None, thread id]
NAME, START, END, PARENT, THREAD = range(5)


class SpanRecorder:
    """Records nested spans per thread; ``counts`` holds named counters
    bumped at the same boundaries.

    There is no lock: ``list.append`` is atomic, and the service's job
    processes are forked while client threads record spans, so a lock
    held at fork time would stay held forever in the child.  Counters are
    only bumped by the thread that runs guest code."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        record = [name, time.perf_counter(), None,
                  stack[-1] if stack else None, threading.get_ident()]
        self.spans.append(record)
        stack.append(record)
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, each span minus its direct children.
        Children of one span run on its thread, one after another, so
        their durations never overlap and their sum is what they cover."""
        child_total: Dict[int, float] = {}
        for record in self.spans:
            parent = record[PARENT]
            if parent is not None:
                key = id(parent)
                child_total[key] = child_total.get(key, 0.0) + record[END] - record[START]
        out: Dict[str, float] = {}
        for record in self.spans:
            own = record[END] - record[START] - child_total.get(id(record), 0.0)
            out[record[NAME]] = out.get(record[NAME], 0.0) + own
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for record in self.spans:
            out[record[NAME]] = out.get(record[NAME], 0) + 1
        return out

    def covered_seconds(self, windows) -> float:
        """Wall time inside the ``(start, end)`` windows covered by the
        union of top-level spans (threads may overlap, so intervals are
        merged, not summed)."""
        covered = 0.0
        for low, high in windows:
            intervals = sorted(
                (max(r[START], low), min(r[END], high))
                for r in self.spans
                if r[PARENT] is None and r[START] < high and r[END] > low
            )
            cur_start = cur_end = None
            for start, end in intervals:
                if cur_end is None or start > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = start, end
                else:
                    cur_end = max(cur_end, end)
            if cur_end is not None:
                covered += cur_end - cur_start
        return covered

    def write_jsonl(self, path: str) -> None:
        ids = {id(record): index for index, record in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, thread) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": None if parent is None else ids[id(parent)],
                    "thread": thread,
                }) + "\n")


class Patches:
    """Replaces attributes with span-recording wrappers and restores the
    original objects; :meth:`restore` returns the attributes that did not
    come back as the original object."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str,
             skip: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` (a module or class attribute) in a span
        named ``name``.  ``skip(*args)`` true calls the original with no
        span (a cache hit that does no layer work); ``after(recorder,
        *args)`` runs when the call ends, to bump counters."""
        original = vars(owner)[attr]
        span = self.recorder.span
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if skip is not None and skip(*args):
                return original(*args, **kwargs)
            with span(name):
                try:
                    return original(*args, **kwargs)
                finally:
                    if after is not None:
                        after(recorder, *args)

        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def restore(self) -> List[str]:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        bad = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._saved
            if vars(owner)[attr] is not original
        ]
        self._saved.clear()
        return bad


def _count_instructions(recorder: SpanRecorder, machine, *_args) -> None:
    recorder.count("vm.guest_instructions", machine.instructions)


def install_layers(patches: Patches) -> None:
    """Wrap every layer boundary the benchmark reports on.  Span names are
    the layer metric names without their ``.self_s`` suffix; several
    callables may share one layer (``jit.simplify`` is fold, copy
    propagation and DCE)."""
    import repro.jit.pipeline as pipeline
    import repro.lang.compiler as compiler
    import repro.parallel as parallel
    import repro.vm.dispatch as dispatch
    from repro.harness.experiments import ALL_EXPERIMENTS
    from repro.harness.runner import Runner
    from repro.parallel.cache import CompileCache
    from repro.service import ServiceClient
    from repro.store import ExperimentStore
    from repro.vm.machine import Machine

    wrap = patches.wrap
    wrap(compiler, "parse", "lang.parse")
    wrap(compiler, "check_program", "lang.typecheck")
    wrap(compiler.CodeGen, "generate", "lang.codegen")
    wrap(compiler, "verify_assembly", "cil.verify")
    for attr, layer in (
        ("lower", "jit.lower"),
        ("constant_fold", "jit.simplify"),
        ("copy_propagate", "jit.simplify"),
        ("dead_code_eliminate", "jit.simplify"),
        ("inline_small_methods", "jit.inline"),
        ("const_div_quirk", "jit.quirks"),
        ("eliminate_bounds_checks", "jit.boundscheck"),
        ("clear_all_bounds_checks", "jit.boundscheck"),
        ("enregister", "jit.enregister"),
        ("finalize_costs", "jit.finalize"),
    ):
        wrap(pipeline, attr, layer)
    # the machine calls compile() on every guest call; only a method not
    # yet in the code cache does compile work worth a span
    wrap(pipeline.JitCompiler, "compile", "jit.compile",
         skip=lambda jit, method: jit.is_compiled(method))
    wrap(Machine, "run", "vm.run", after=_count_instructions)
    wrap(dispatch, "build_ops", "vm.build_ops")
    wrap(Runner, "run_on", "harness.run_on")
    for module in ALL_EXPERIMENTS.values():
        wrap(module, "run", "harness.experiment")
    wrap(CompileCache, "load", "parallel.cache.load")
    wrap(CompileCache, "store", "parallel.cache.store")
    wrap(parallel, "run_cells", "parallel.run_cells")
    wrap(ExperimentStore, "lookup_run", "store.lookup")
    wrap(ExperimentStore, "record_collection", "store.record")
    wrap(ServiceClient, "submit", "service.submit")
    wrap(ServiceClient, "wait", "service.wait")
    wrap(ServiceClient, "status", "service.status")
    wrap(ServiceClient, "result", "service.result")
