"""Explicit numbered migrations for the SQLite experiment store.

The store is append-only and schema-versioned: every structural change is
a new entry in :data:`MIGRATIONS`, applied in order inside a transaction
when a store is opened.  ``schema_meta`` holds the single current version
number, so a database written by any historical version of this module
upgrades in place — and re-applying migrations is a no-op, which is the
idempotence contract ``tests/test_store.py`` asserts from every historical
version.

Append-only is enforced in the schema itself, not just by convention:
``runs``, ``cells``, ``failures``, and ``metric_snapshots`` carry BEFORE
UPDATE / BEFORE DELETE triggers that abort the statement.  History is the product
here (the cross-PR trend ladder reads it), so a result row, once written,
is immutable; supersession happens by appending a newer row for the same
content key, never by rewriting an old one.
"""

from __future__ import annotations

import sqlite3
from typing import List, Sequence, Tuple

from ..errors import ReproError


class StoreError(ReproError):
    """The experiment store is unusable (bad schema, newer version...)."""


def _append_only(table: str) -> List[str]:
    return [
        f"CREATE TRIGGER {table}_no_update BEFORE UPDATE ON {table} "
        f"BEGIN SELECT RAISE(ABORT, '{table} is append-only'); END",
        f"CREATE TRIGGER {table}_no_delete BEFORE DELETE ON {table} "
        f"BEGIN SELECT RAISE(ABORT, '{table} is append-only'); END",
    ]


#: (version, statements) applied strictly in ascending version order.
#: NEVER edit a shipped migration — append a new one.
MIGRATIONS: Tuple[Tuple[int, Sequence[str]], ...] = (
    (
        1,
        [
            "CREATE TABLE schema_meta (version INTEGER NOT NULL)",
            "INSERT INTO schema_meta (version) VALUES (0)",
            # one row per collection/submission/import: the unit an
            # exported BENCH_<seq>.json corresponds to
            """
            CREATE TABLE runs (
                id INTEGER PRIMARY KEY AUTOINCREMENT,
                seq INTEGER,
                git_sha TEXT NOT NULL,
                scale REAL NOT NULL,
                bench_schema TEXT NOT NULL,
                profiles TEXT NOT NULL,
                suite TEXT NOT NULL,
                cell_keys TEXT NOT NULL DEFAULT '{}',
                dispatch TEXT,
                source TEXT NOT NULL DEFAULT 'live',
                store_hits INTEGER NOT NULL DEFAULT 0,
                created_unix REAL NOT NULL DEFAULT 0
            )
            """,
            # one row per *executed or imported* cell result; memo hits
            # reference existing rows via the content key, so repeats
            # append nothing here
            """
            CREATE TABLE cells (
                id INTEGER PRIMARY KEY AUTOINCREMENT,
                run_id INTEGER NOT NULL REFERENCES runs(id),
                key TEXT NOT NULL,
                benchmark TEXT NOT NULL,
                profile TEXT NOT NULL,
                params TEXT NOT NULL,
                dispatch TEXT NOT NULL,
                source TEXT NOT NULL DEFAULT 'live',
                record TEXT NOT NULL
            )
            """,
            "CREATE INDEX cells_by_key ON cells (key, id)",
            "CREATE INDEX cells_by_run ON cells (run_id, benchmark, profile)",
            *_append_only("cells"),
        ],
    ),
    (
        2,
        [
            # contained CellFailure annotations of a run (cells that
            # produced no result row)
            """
            CREATE TABLE failures (
                id INTEGER PRIMARY KEY AUTOINCREMENT,
                run_id INTEGER NOT NULL REFERENCES runs(id),
                cell_index INTEGER NOT NULL,
                benchmark TEXT NOT NULL,
                profile TEXT NOT NULL,
                status TEXT NOT NULL,
                detail TEXT NOT NULL
            )
            """,
            "CREATE INDEX failures_by_run ON failures (run_id, cell_index)",
            *_append_only("failures"),
        ],
    ),
    (
        3,
        [
            # counters/gauges flattened out of each cell's metrics
            # snapshot, so trend queries are one SQL join instead of a
            # JSON parse per row
            """
            CREATE TABLE metric_snapshots (
                cell_id INTEGER NOT NULL REFERENCES cells(id),
                kind TEXT NOT NULL,
                name TEXT NOT NULL,
                value REAL NOT NULL
            )
            """,
            "CREATE INDEX metric_snapshots_by_name ON metric_snapshots (name, cell_id)",
            *_append_only("metric_snapshots"),
        ],
    ),
    (
        4,
        # v1 left run rows mutable by oversight; history rows are the
        # product, so runs joins the append-only tables
        _append_only("runs"),
    ),
    (
        5,
        [
            # single-row writer lease: the fencing authority for every
            # append.  Deliberately *mutable* (no append-only triggers) —
            # it is coordination state, not history.  ``token`` increments
            # on every change of holder, so a writer that lost the lease
            # holds a provably stale token; ``epoch`` counts ownership
            # changes for observability.
            """
            CREATE TABLE writer_lease (
                id INTEGER PRIMARY KEY CHECK (id = 1),
                holder TEXT,
                token INTEGER NOT NULL DEFAULT 0,
                epoch INTEGER NOT NULL DEFAULT 0,
                acquired_unix REAL,
                expires_unix REAL
            )
            """,
            "INSERT INTO writer_lease (id, holder, token, epoch) VALUES (1, NULL, 0, 0)",
            # which lease token wrote each run (NULL = unfenced writer,
            # e.g. CLI imports outside any daemon)
            "ALTER TABLE runs ADD COLUMN lease_token INTEGER",
        ],
    ),
)

#: the version a freshly-opened store ends up at
SCHEMA_VERSION = MIGRATIONS[-1][0]


def enable_wal(conn: sqlite3.Connection) -> str:
    """Switch ``conn``'s database to WAL journaling; returns the resulting
    mode (lowercased).

    WAL is what makes the daemon's read paths cheap under load: readers
    (``/v1/trends``, ``/v1/stats``, a live ``repro store report``) never
    block the single appender and never see a half-committed collection.
    The mode is persistent — set once, every later open inherits it.
    SQLite may refuse (e.g. some network filesystems); callers treat the
    returned mode as informational, not a failure — rollback journaling
    keeps every correctness invariant, just with coarser read/write
    blocking.
    """
    row = conn.execute("PRAGMA journal_mode=WAL").fetchone()
    return str(row[0]).lower()


def schema_version(conn: sqlite3.Connection) -> int:
    """Current schema version of ``conn``'s database (0 = empty/new)."""
    row = conn.execute(
        "SELECT name FROM sqlite_master WHERE type='table' AND name='schema_meta'"
    ).fetchone()
    if row is None:
        return 0
    return int(conn.execute("SELECT version FROM schema_meta").fetchone()[0])


def apply_migrations(conn: sqlite3.Connection, target: int = None) -> int:
    """Bring ``conn`` to schema version ``target`` (default: latest).

    Each migration runs in its own transaction and stamps ``schema_meta``
    atomically with its DDL, so a crash mid-migration leaves the store at
    a consistent prior version.  Applying to an already-migrated store is
    a no-op; a store from the *future* raises :class:`StoreError` instead
    of being silently misread.
    """
    target = SCHEMA_VERSION if target is None else target
    current = schema_version(conn)
    if current > SCHEMA_VERSION:
        raise StoreError(
            f"store schema version {current} is newer than this build "
            f"supports ({SCHEMA_VERSION}); refusing to open"
        )
    for version, statements in MIGRATIONS:
        if version <= current or version > target:
            continue
        with conn:
            for statement in statements:
                conn.execute(statement)
            conn.execute("UPDATE schema_meta SET version = ?", (version,))
    return schema_version(conn)
