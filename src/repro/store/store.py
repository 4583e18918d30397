"""The append-only, schema-versioned SQLite experiment store.

One database records every cell result across history: ``runs`` (one row
per collection/submission/import), ``cells`` (one row per *executed or
imported* cell result, content-addressed by :func:`repro.store.cell_key`),
``failures`` (contained CellFailure annotations), and
``metric_snapshots`` (counters/gauges flattened for SQL trend queries).
Rows are never updated or deleted — the schema's triggers abort any
attempt — so the store doubles as the cross-PR history substrate behind
trend queries like the runtime-ratio ladder.

Memoization contract: :meth:`ExperimentStore.lookup` returns the latest
*live* record for a key (imported/backfilled records are visible to
exports and trends but are never served as results — they lack the
section values and stdout a real run carries).  A served record rebuilds
a :class:`~repro.harness.results.ProfileRun` whose every artifact-visible
number is byte-identical to re-executing the cell, which is what lets the
service answer repeat requests with zero compiles and zero guest cycles.

Concurrency/crash posture: SQLite in WAL journal mode with a busy
timeout.  Writers append whole collections in one transaction, so a
process killed mid-commit leaves the database readable at the prior
state; interleaved writers serialize on the database lock, and WAL lets
readers proceed against the last committed snapshot while a collection
is being appended.  ``ExperimentStore(path, read_only=True)`` opens
without write capability (and without attempting migrations);
:class:`StoreReadPool` keeps a small set of such connections warm for
high-QPS read paths like the daemon's ``/v1/trends`` and ``/v1/stats``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple
from urllib.parse import quote

from . import codec
from .schema import (
    SCHEMA_VERSION,
    StoreError,
    apply_migrations,
    enable_wal,
    schema_version,
)

#: environment override for the store location (CLI flags still win)
STORE_PATH_ENV = "REPRO_STORE"

#: default store path, relative to the current working directory
DEFAULT_STORE_PATH = "experiments.sqlite"


def default_store_path() -> str:
    return os.environ.get(STORE_PATH_ENV) or DEFAULT_STORE_PATH


def _dumps(value) -> str:
    """Canonical JSON for stored columns (compact, key-sorted)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class ExperimentStore:
    """Append-only experiment history + whole-cell memoization over one
    SQLite file.  Open applies pending migrations; ``hits``/``misses``
    count this instance's :meth:`lookup` outcomes."""

    SCHEMA_VERSION = SCHEMA_VERSION

    def __init__(
        self,
        path: Optional[str] = None,
        timeout: float = 30.0,
        *,
        read_only: bool = False,
        wal: bool = True,
    ) -> None:
        self.path = path or default_store_path()
        self.read_only = read_only
        if read_only:
            # mode=ro refuses to create the file and strips write
            # capability at the sqlite layer, so a reader can never take
            # a write lock against a live daemon's appends
            try:
                self._conn = sqlite3.connect(
                    f"file:{quote(self.path)}?mode=ro",
                    timeout=timeout,
                    uri=True,
                )
            except sqlite3.OperationalError as exc:
                raise StoreError(
                    f"cannot open {self.path} read-only: {exc}"
                )
        else:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._conn = sqlite3.connect(self.path, timeout=timeout)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute(f"PRAGMA busy_timeout = {int(timeout * 1000)}")
        self.journal_mode: Optional[str] = None
        if read_only:
            # migrations are writes; a read-only open just refuses a
            # future schema instead of upgrading
            current = schema_version(self._conn)
            if current > SCHEMA_VERSION:
                self._conn.close()
                raise StoreError(
                    f"store schema version {current} is newer than this "
                    f"build supports ({SCHEMA_VERSION}); refusing to open"
                )
        else:
            if wal:
                self.journal_mode = enable_wal(self._conn)
            apply_migrations(self._conn)
        self.hits = 0
        self.misses = 0
        #: (holder, token) armed by :meth:`set_write_fence`; every append
        #: re-validates it against ``writer_lease`` inside the transaction
        self._fence: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    @property
    def version(self) -> int:
        return schema_version(self._conn)

    # ----------------------------------------------------------- memoization

    cell_key = staticmethod(codec.cell_key)

    def lookup(self, key: str) -> Optional[dict]:
        """The latest live record for ``key``, or None.  Each call counts
        toward this instance's hit/miss telemetry."""
        row = self._conn.execute(
            "SELECT record FROM cells WHERE key = ? AND source = 'live' "
            "ORDER BY id DESC LIMIT 1",
            (key,),
        ).fetchone()
        if row is None:
            self.misses += 1
            return None
        self.hits += 1
        return json.loads(row["record"])

    def lookup_run(self, key: str):
        """Like :meth:`lookup` but rebuilt as a ProfileRun."""
        record = self.lookup(key)
        return None if record is None else codec.run_from_record(record)

    def has_live(self, key: str) -> bool:
        """Whether a live record exists for ``key`` — the memo-only
        admission check.  Does not touch hit/miss telemetry (nothing is
        served by this probe)."""
        row = self._conn.execute(
            "SELECT 1 FROM cells WHERE key = ? AND source = 'live' LIMIT 1",
            (key,),
        ).fetchone()
        return row is not None

    # --------------------------------------------------------------- writing

    def set_write_fence(self, holder: str, token: int) -> None:
        """Arm lease fencing: every later :meth:`record_collection` aborts
        with :class:`~repro.store.lease.LeaseLost` unless ``writer_lease``
        still names this (holder, token) at commit time."""
        self._fence = (str(holder), int(token))

    def clear_write_fence(self) -> None:
        self._fence = None

    def _check_fence(self) -> Optional[int]:
        """Validate the armed fence against the lease row (must be called
        inside an open IMMEDIATE transaction so the check and the append
        are atomic against a concurrent steal).  Returns the token to
        stamp on the run row (None when unfenced)."""
        if self._fence is None:
            return None
        from .lease import LeaseLost  # local import: lease imports schema

        holder, token = self._fence
        row = self._conn.execute(
            "SELECT holder, token FROM writer_lease WHERE id = 1"
        ).fetchone()
        current_holder = None if row is None else row["holder"]
        current_token = None if row is None else int(row["token"])
        if row is None or current_holder != holder or current_token != token:
            raise LeaseLost(
                f"writer lease lost: {holder!r} (token {token}) superseded "
                f"by {current_holder!r} (token {current_token}); append refused",
                holder=current_holder,
                token=current_token,
            )
        return token

    def record_collection(
        self,
        *,
        git_sha: str,
        scale: float,
        profiles: Sequence[str],
        suite: Sequence[Tuple[str, Dict[str, object]]],
        bench_schema: Optional[str] = None,
        seq: Optional[int] = None,
        source: str = "live",
        store_hits: int = 0,
        dispatch_block: Optional[dict] = None,
        cell_keys: Optional[Dict[str, str]] = None,
        novel: Iterable[dict] = (),
        failures: Iterable[dict] = (),
    ) -> int:
        """Append one collection — run row, novel cell records, failure
        annotations, flattened metric snapshots — in a single transaction.

        ``novel`` items: ``{"key", "benchmark", "profile", "params",
        "record"}``.  ``cell_keys`` maps ``"benchmark@profile"`` to the
        content key of *every* cell of the run (memo hits included), so
        :meth:`export_artifact` can resolve hit cells through the key
        index.  ``dispatch_block`` is the legacy top-level ``dispatch``
        block (host wall-clock telemetry) of an imported older artifact,
        kept so export round-trips it.  Returns the new run id.
        """
        if self.read_only:
            raise StoreError(
                f"{self.path} was opened read-only; collections cannot "
                "be recorded through this connection"
            )
        if bench_schema is None:
            from ..metrics.baseline import BENCH_SCHEMA

            bench_schema = BENCH_SCHEMA
        # BEGIN IMMEDIATE takes the write lock *before* the fence check,
        # so no competing writer can steal the lease between the check
        # and the commit — the fencing guarantee is transactional, not
        # advisory.
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            lease_token = self._check_fence()
            cursor = self._conn.execute(
                "INSERT INTO runs (seq, git_sha, scale, bench_schema, profiles,"
                " suite, cell_keys, dispatch, source, store_hits, created_unix,"
                " lease_token)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    seq,
                    git_sha,
                    scale,
                    bench_schema,
                    _dumps(list(profiles)),
                    _dumps([[name, params] for name, params in suite]),
                    _dumps(cell_keys or {}),
                    None if dispatch_block is None else _dumps(dispatch_block),
                    source,
                    store_hits,
                    time.time(),
                    lease_token,
                ),
            )
            run_id = cursor.lastrowid
            for cell in novel:
                record = cell["record"]
                cell_cursor = self._conn.execute(
                    "INSERT INTO cells (run_id, key, benchmark, profile,"
                    " params, dispatch, source, record)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        run_id,
                        cell["key"],
                        cell["benchmark"],
                        cell["profile"],
                        _dumps(cell.get("params") or {}),
                        # the legacy engine column: every record is keyed
                        # as "classic" (see codec.cell_key)
                        "classic",
                        source,
                        _dumps(record),
                    ),
                )
                self._flatten_metrics(cell_cursor.lastrowid, record)
            for index, cell in enumerate(failures):
                self._conn.execute(
                    "INSERT INTO failures (run_id, cell_index, benchmark,"
                    " profile, status, detail) VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        run_id,
                        cell.get("index", index),
                        cell.get("benchmark", ""),
                        cell.get("profile", ""),
                        cell.get("status", ""),
                        _dumps(cell),
                    ),
                )
        except BaseException:
            if self._conn.in_transaction:
                self._conn.execute("ROLLBACK")
            raise
        else:
            self._conn.execute("COMMIT")
        return run_id

    def _flatten_metrics(self, cell_id: int, record: dict) -> None:
        snapshot = record.get("metrics") or {}
        rows = []
        for kind in ("counters", "gauges"):
            for name, value in (snapshot.get(kind) or {}).items():
                rows.append((cell_id, kind[:-1], name, float(value)))
        if rows:
            self._conn.executemany(
                "INSERT INTO metric_snapshots (cell_id, kind, name, value)"
                " VALUES (?, ?, ?, ?)",
                rows,
            )

    # ------------------------------------------------------- import / export

    def import_artifact(self, artifact: dict) -> int:
        """Backfill one point-in-time ``BENCH_<seq>.json`` artifact.  The
        cells land as partial ``imported`` records (trend/export fodder,
        never memoization), and :meth:`export_artifact` of the returned
        run reproduces the artifact byte for byte."""
        from ..metrics.baseline import BENCH_SCHEMA

        if artifact.get("schema") != BENCH_SCHEMA:
            raise StoreError(
                f"not a {BENCH_SCHEMA} artifact (schema={artifact.get('schema')!r})"
            )
        benchmarks = artifact.get("benchmarks", {})
        suite = [[name, entry["params"]] for name, entry in benchmarks.items()]
        novel = []
        cell_keys: Dict[str, str] = {}
        for name, entry in benchmarks.items():
            for pname, profile_entry in entry.get("profiles", {}).items():
                key = codec.cell_key(name, pname, entry["params"])
                cell_keys[f"{name}@{pname}"] = key
                novel.append(
                    {
                        "key": key,
                        "benchmark": name,
                        "profile": pname,
                        "params": entry["params"],
                        "record": codec.record_from_artifact_entry(
                            name, pname, profile_entry
                        ),
                    }
                )
        return self.record_collection(
            git_sha=artifact.get("git_sha", "unknown"),
            scale=artifact.get("scale", 1.0),
            profiles=artifact.get("profiles", []),
            suite=suite,
            bench_schema=artifact["schema"],
            seq=artifact.get("seq"),
            source="import",
            dispatch_block=artifact.get("dispatch"),
            cell_keys=cell_keys,
            novel=novel,
            failures=artifact.get("failures", ()),
        )

    def _run_row(self, run_id: int):
        run = self._conn.execute(
            "SELECT * FROM runs WHERE id = ?", (run_id,)
        ).fetchone()
        if run is None:
            raise StoreError(f"no run {run_id} in {self.path}")
        return run

    def resolve_cells(self, run_id: int) -> Dict[Tuple[str, str], dict]:
        """Every ``(benchmark, profile) -> record`` of one run.  Cells
        recorded under the run resolve directly; memo-hit cells (recorded
        by an earlier run) resolve through the run's content keys — the
        same resolution :meth:`export_artifact` performs."""
        run = self._run_row(run_id)
        suite = [(name, params) for name, params in json.loads(run["suite"])]
        profiles = json.loads(run["profiles"])
        cell_keys = json.loads(run["cell_keys"])
        own: Dict[Tuple[str, str], dict] = {}
        for row in self._conn.execute(
            "SELECT benchmark, profile, record FROM cells WHERE run_id = ?"
            " ORDER BY id",
            (run_id,),
        ):
            own[(row["benchmark"], row["profile"])] = json.loads(row["record"])
        resolved: Dict[Tuple[str, str], dict] = {}
        for name, _params in suite:
            for pname in profiles:
                record = own.get((name, pname))
                if record is None:
                    key = cell_keys.get(f"{name}@{pname}")
                    if key is not None:
                        row = self._conn.execute(
                            "SELECT record FROM cells WHERE key = ?"
                            " ORDER BY id DESC LIMIT 1",
                            (key,),
                        ).fetchone()
                        record = None if row is None else json.loads(row["record"])
                if record is not None:
                    resolved[(name, pname)] = record
        return resolved

    def latest_run(
        self,
        git_sha: Optional[str] = None,
        exclude_sha: Optional[str] = None,
    ) -> Optional[int]:
        """Id of the most recent run, optionally pinned to one git SHA
        (``git_sha=``) or to history before a SHA (``exclude_sha=`` skips
        runs stamped with it) — the baseline-selection primitive behind
        ``repro bench compare --store``."""
        query = "SELECT id FROM runs"
        clauses, args = [], []
        if git_sha is not None:
            clauses.append("git_sha = ?")
            args.append(git_sha)
        if exclude_sha is not None:
            clauses.append("git_sha != ?")
            args.append(exclude_sha)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY id DESC LIMIT 1"
        row = self._conn.execute(query, args).fetchone()
        return None if row is None else row["id"]

    def export_artifact(self, run_id: int) -> dict:
        """Reconstruct the BENCH artifact dict of one run.  Cells recorded
        under the run resolve directly; memo-hit cells (recorded by an
        earlier run) resolve through the run's content keys."""
        from ..metrics.baseline import build_artifact

        run = self._run_row(run_id)
        suite = [(name, params) for name, params in json.loads(run["suite"])]
        profiles = json.loads(run["profiles"])
        resolved = self.resolve_cells(run_id)
        entries: Dict[str, Dict[str, dict]] = {}
        for name, _params in suite:
            per: Dict[str, dict] = {}
            for pname in profiles:
                record = resolved.get((name, pname))
                if record is not None:
                    per[pname] = codec.entry_from_record(record)
            entries[name] = per
        artifact = build_artifact(
            suite, profiles, entries, scale=run["scale"], git_sha=run["git_sha"]
        )
        artifact["schema"] = run["bench_schema"]
        failures = [
            json.loads(row["detail"])
            for row in self._conn.execute(
                "SELECT detail FROM failures WHERE run_id = ? ORDER BY id",
                (run_id,),
            )
        ]
        if failures:
            artifact["failures"] = failures
        if run["dispatch"] is not None:
            artifact["dispatch"] = json.loads(run["dispatch"])
        if run["seq"] is not None:
            artifact["seq"] = run["seq"]
        return artifact

    # --------------------------------------------------------------- queries

    def runs(self) -> List[dict]:
        """Run metadata in append order."""
        out = []
        for row in self._conn.execute(
            "SELECT id, seq, git_sha, scale, source, store_hits, created_unix,"
            " (SELECT COUNT(*) FROM cells WHERE run_id = runs.id) AS cells,"
            " (SELECT COUNT(*) FROM failures WHERE run_id = runs.id) AS failures"
            " FROM runs ORDER BY id"
        ):
            out.append(dict(row))
        return out

    def counts(self) -> dict:
        return {
            "runs": self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0],
            "cells": self._conn.execute("SELECT COUNT(*) FROM cells").fetchone()[0],
            "failures": self._conn.execute(
                "SELECT COUNT(*) FROM failures"
            ).fetchone()[0],
        }

    def trend(
        self,
        benchmark: Optional[str] = None,
        profile: Optional[str] = None,
        ratio_base: Optional[str] = None,
    ) -> List[dict]:
        """The cross-run runtime-ratio ladder: one row per (run, benchmark,
        profile) with cycles and the ratio against ``ratio_base`` (default
        the BENCH anchor, CLR 1.1) *within the same run* — exactly the
        trajectory the paper's graphs plot, but across history."""
        from ..metrics.baseline import RATIO_BASE

        base_profile = ratio_base or RATIO_BASE
        rows: List[dict] = []
        base_cycles: Dict[Tuple[int, str], float] = {}
        cells = self._conn.execute(
            "SELECT cells.run_id, runs.seq, runs.git_sha, cells.benchmark,"
            " cells.profile, cells.record FROM cells"
            " JOIN runs ON runs.id = cells.run_id ORDER BY cells.id"
        ).fetchall()
        for row in cells:
            if row["profile"] == base_profile:
                record = json.loads(row["record"])
                base_cycles[(row["run_id"], row["benchmark"])] = record[
                    "total_cycles"
                ]
        for row in cells:
            if benchmark is not None and row["benchmark"] != benchmark:
                continue
            if profile is not None and row["profile"] != profile:
                continue
            record = json.loads(row["record"])
            base = base_cycles.get((row["run_id"], row["benchmark"]))
            ratio = None
            if base and row["profile"] != base_profile:
                ratio = record["total_cycles"] / base
            rows.append(
                {
                    "run": row["run_id"],
                    "seq": row["seq"],
                    "git_sha": row["git_sha"],
                    "benchmark": row["benchmark"],
                    "profile": row["profile"],
                    "cycles": record["total_cycles"],
                    "ratio": ratio,
                }
            )
        return rows

    def metric_trend(
        self, name: str, benchmark: Optional[str] = None
    ) -> List[dict]:
        """Per-run history of one flattened counter/gauge."""
        query = (
            "SELECT cells.run_id, runs.seq, runs.git_sha, cells.benchmark,"
            " cells.profile, metric_snapshots.value FROM metric_snapshots"
            " JOIN cells ON cells.id = metric_snapshots.cell_id"
            " JOIN runs ON runs.id = cells.run_id"
            " WHERE metric_snapshots.name = ?"
        )
        args: List[object] = [name]
        if benchmark is not None:
            query += " AND cells.benchmark = ?"
            args.append(benchmark)
        query += " ORDER BY metric_snapshots.cell_id"
        return [
            {
                "run": row["run_id"],
                "seq": row["seq"],
                "git_sha": row["git_sha"],
                "benchmark": row["benchmark"],
                "profile": row["profile"],
                "value": row["value"],
            }
            for row in self._conn.execute(query, args)
        ]

    # ------------------------------------------------------------ attribution

    def attribute(
        self,
        base_run_id: int,
        new_run_id: int,
        tolerances: Optional[Dict[str, float]] = None,
        ratio_base: Optional[str] = None,
        movers: int = 5,
    ) -> dict:
        """Break the delta between two runs down to the responsible cells.

        For every ``(benchmark, profile)`` present in both runs the cell
        block carries the cycles / instructions deltas (relative to base)
        plus, for flagged cells, the largest-moving flattened
        counters/gauges from the recorded metric snapshots — the "what
        inside the cell moved" evidence.  The ratio block applies the
        BENCH gate's anchored-ratio lens (each profile's cycles over the
        anchor profile's, within the same run).  A cell or ratio is
        *flagged* when its relative delta exceeds the tolerance policy —
        by default the same one the regression gate uses (one-sided on
        raw metrics: only growth regresses; two-sided on ratios).
        """
        from ..metrics.baseline import DEFAULT_TOLERANCES, RATIO_BASE

        tol = dict(DEFAULT_TOLERANCES)
        if tolerances:
            tol.update(tolerances)
        anchor = ratio_base or RATIO_BASE
        base_run = self._run_row(base_run_id)
        new_run = self._run_row(new_run_id)
        base_cells = self.resolve_cells(base_run_id)
        new_cells = self.resolve_cells(new_run_id)
        shared = sorted(set(base_cells) & set(new_cells))

        def _rel(base_value, new_value):
            if not base_value:
                return None
            return (new_value - base_value) / base_value

        cells: List[dict] = []
        flagged_cells: List[str] = []
        for (bench, profile) in shared:
            base_record = base_cells[(bench, profile)]
            new_record = new_cells[(bench, profile)]
            block = {"benchmark": bench, "profile": profile, "deltas": {},
                     "flagged": False, "movers": []}
            for metric in ("total_cycles", "instructions",
                           "allocated_bytes", "gc_collections"):
                base_value = base_record.get(metric)
                new_value = new_record.get(metric)
                if base_value is None or new_value is None:
                    continue
                rel = _rel(base_value, new_value)
                block["deltas"][metric] = {
                    "base": base_value,
                    "new": new_value,
                    "delta": new_value - base_value,
                    "rel": rel,
                }
                # the gate's one-sided rule: only growth regresses
                bound = tol.get(
                    "cycles" if metric == "total_cycles" else metric,
                    tol.get("instructions", 0.02),
                )
                if rel is not None and metric in ("total_cycles",
                                                  "instructions"):
                    if rel > bound:
                        block["deltas"][metric]["flagged"] = True
                        block["flagged"] = True
            if block["flagged"]:
                flagged_cells.append(f"{bench}@{profile}")
                block["movers"] = self._metric_movers(
                    base_record, new_record, movers
                )
            cells.append(block)

        ratios: List[dict] = []
        benches = sorted({bench for bench, _p in shared})
        for bench in benches:
            base_anchor = base_cells.get((bench, anchor))
            new_anchor = new_cells.get((bench, anchor))
            if base_anchor is None or new_anchor is None:
                continue
            for (cell_bench, profile) in shared:
                if cell_bench != bench or profile == anchor:
                    continue
                base_ratio = (
                    base_cells[(bench, profile)]["total_cycles"]
                    / base_anchor["total_cycles"]
                )
                new_ratio = (
                    new_cells[(bench, profile)]["total_cycles"]
                    / new_anchor["total_cycles"]
                )
                rel = _rel(base_ratio, new_ratio)
                entry = {
                    "benchmark": bench,
                    "profile": profile,
                    "base_ratio": base_ratio,
                    "new_ratio": new_ratio,
                    "rel": rel,
                    # two-sided: a ratio moving either way is a drift
                    "flagged": rel is not None and abs(rel) > tol["ratio"],
                }
                ratios.append(entry)

        return {
            "base_run": base_run_id,
            "new_run": new_run_id,
            "base_sha": base_run["git_sha"],
            "new_sha": new_run["git_sha"],
            "ratio_base": anchor,
            "tolerances": tol,
            "cells": cells,
            "ratios": ratios,
            "flagged_cells": flagged_cells,
            "flagged_ratios": [
                f"{r['benchmark']}@{r['profile']}" for r in ratios
                if r["flagged"]
            ],
            "only_in_base": sorted(
                f"{b}@{p}" for b, p in set(base_cells) - set(new_cells)
            ),
            "only_in_new": sorted(
                f"{b}@{p}" for b, p in set(new_cells) - set(base_cells)
            ),
        }

    @staticmethod
    def _metric_movers(base_record: dict, new_record: dict, limit: int) -> List[dict]:
        """The flagged cell's largest relative counter/gauge moves, base
        vs new — names the subsystem (gc, jit, dispatch...) that moved."""
        base_snapshot = base_record.get("metrics") or {}
        new_snapshot = new_record.get("metrics") or {}
        moves: List[dict] = []
        for kind in ("counters", "gauges"):
            base_values = base_snapshot.get(kind) or {}
            new_values = new_snapshot.get(kind) or {}
            for name in sorted(set(base_values) | set(new_values)):
                base_value = base_values.get(name, 0)
                new_value = new_values.get(name, 0)
                if base_value == new_value:
                    continue
                rel = (
                    (new_value - base_value) / base_value
                    if base_value else None
                )
                moves.append(
                    {
                        "metric": name,
                        "kind": kind[:-1],
                        "base": base_value,
                        "new": new_value,
                        "delta": new_value - base_value,
                        "rel": rel,
                    }
                )
        moves.sort(
            key=lambda m: (
                float("inf") if m["rel"] is None else abs(m["rel"])
            ),
            reverse=True,
        )
        return moves[:limit]


class StoreReadPool:
    """A small pool of read-only store connections over one database.

    sqlite3 connections are thread-bound, so the daemon cannot share one
    store across its HTTP handlers and executor threads; before this
    pool it opened (and migrated) a fresh connection per ``/v1/trends``
    or ``/v1/stats`` request.  The pool keeps up to ``size`` read-only
    :class:`ExperimentStore` instances warm and hands them out under a
    context manager::

        pool = StoreReadPool(path, size=4)
        with pool.connection() as store:
            rows = store.trend()

    Checked-out connections beyond ``size`` are opened fresh and closed
    on return instead of pooled, so a burst of readers degrades to the
    old per-request behavior rather than blocking.  On filesystems where
    a read-only WAL open is refused the pool falls back to normal
    read-write opens (reads only ever flow through it, so the contract
    holds either way).  ``created``/``reused`` counters make pooling
    observable in tests and ``/v1/stats``.
    """

    def __init__(self, path: str, size: int = 4, timeout: float = 30.0) -> None:
        self.path = path
        self.size = max(1, int(size))
        self.timeout = timeout
        self.created = 0
        self.reused = 0
        self._idle: List[ExperimentStore] = []
        self._lock = threading.Lock()
        self._closed = False

    def _open(self) -> ExperimentStore:
        self.created += 1
        try:
            return ExperimentStore(
                self.path, timeout=self.timeout, read_only=True
            )
        except StoreError:
            return ExperimentStore(self.path, timeout=self.timeout)

    def acquire(self) -> ExperimentStore:
        with self._lock:
            if self._closed:
                raise StoreError(f"read pool for {self.path} is closed")
            if self._idle:
                self.reused += 1
                return self._idle.pop()
        return self._open()

    def release(self, store: ExperimentStore) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < self.size:
                self._idle.append(store)
                return
        store.close()

    @contextmanager
    def connection(self):
        store = self.acquire()
        try:
            yield store
        finally:
            self.release(store)

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
            self._closed = True
        for store in idle:
            store.close()

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": self.size,
                "idle": len(self._idle),
                "created": self.created,
                "reused": self.reused,
            }
