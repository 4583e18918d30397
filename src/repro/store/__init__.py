"""``repro.store`` — the append-only SQLite experiment store.

Replaces point-in-time ``BENCH_*.json`` files as the result substrate:
every cell result is recorded across history, keyed content-addressed on
``sha256(COMPILER_VERSION, profile, benchmark, canonical overrides,
"classic", "None")`` (the constants hold a removed engine slot and an
unused seed slot, so old records stay addressable), so the bench gate,
the experiment service's memo cache, and cross-PR trend queries all read
one database.  BENCH JSON remains as an import/export format
(``repro store import/export``).
"""

from .codec import (
    RECORD_SCHEMA,
    cell_key,
    entry_from_record,
    run_from_record,
    run_to_record,
)
from .lease import DEFAULT_TTL as DEFAULT_LEASE_TTL
from .lease import LeaseLost, WriterLease
from .schema import (
    MIGRATIONS,
    SCHEMA_VERSION,
    StoreError,
    apply_migrations,
    enable_wal,
    schema_version,
)
from .store import (
    DEFAULT_STORE_PATH,
    STORE_PATH_ENV,
    ExperimentStore,
    StoreReadPool,
    default_store_path,
)

__all__ = [
    "DEFAULT_LEASE_TTL",
    "DEFAULT_STORE_PATH",
    "ExperimentStore",
    "LeaseLost",
    "WriterLease",
    "MIGRATIONS",
    "RECORD_SCHEMA",
    "SCHEMA_VERSION",
    "STORE_PATH_ENV",
    "StoreError",
    "StoreReadPool",
    "apply_migrations",
    "cell_key",
    "default_store_path",
    "enable_wal",
    "entry_from_record",
    "run_from_record",
    "run_to_record",
    "schema_version",
]
