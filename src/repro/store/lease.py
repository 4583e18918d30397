"""Expiring writer lease with fencing tokens, stored in the SQLite store.

Two daemons pointed at one store must never interleave appends.  The
coordination primitive is a single ``writer_lease`` row: at most one
holder at a time, a TTL so a SIGKILLed holder's lease expires instead of
wedging the store forever, and a monotonically increasing **fencing
token** that changes on every ownership change.  A writer records its
token alongside every append, and :meth:`ExperimentStore.record_collection`
re-checks the token *inside* the append transaction (``BEGIN IMMEDIATE``,
so no steal can commit between the check and the append) — a writer that
lost the lease mid-job gets :class:`LeaseLost` instead of a torn append.

All lease transitions use ``BEGIN IMMEDIATE`` so acquire/renew/steal are
serialized by SQLite's write lock; there is no window where two daemons
both believe they acquired.  The loser of an acquisition race retries
with :meth:`backoff_delay` — deterministic jittered exponential backoff
(the jitter is a hash of holder id and attempt, so two daemons desynchronize
without any global randomness).

Each transition also holds :data:`FORK_LOCK`, which a thread that forks
holds around the fork (the daemon's job subprocesses): a child forked
while its parent holds the store's write lock inherits SQLite's
in-process lock state and sees a phantom writer forever, so its own
appends fail with ``database is locked``.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

from .schema import StoreError, apply_migrations

#: default lease lifetime; holders renew at ttl/3 so two missed renewals
#: still leave headroom before expiry
DEFAULT_TTL = 15.0

#: held by every lease write transaction, by a daemon job served in
#: process while it uses SQLite, and by any thread while it forks: a
#: process never forks with a write transaction or a SQLite mutex held
FORK_LOCK = threading.Lock()


def _fresh_fork_lock() -> None:
    # the forking thread held the lock across the fork; the child's copy
    # would stay held forever
    global FORK_LOCK
    FORK_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_fork_lock)


class LeaseLost(StoreError):
    """A fenced append was refused: the writer's token is stale."""

    def __init__(self, message: str, holder: Optional[str] = None,
                 token: Optional[int] = None):
        super().__init__(message)
        #: who holds the lease now (per the row that refused us)
        self.holder = holder
        #: the current (winning) token
        self.token = token


class WriterLease:
    """Handle on the store's writer lease for one prospective holder.

    The handle owns its own connection (never shared with the store's
    append connection) so lease maintenance can run from any thread.
    ``held`` / ``token`` reflect the *last* acquire/renew outcome; the
    authoritative check happens inside the append transaction.
    """

    def __init__(self, path, holder: str, ttl: float = DEFAULT_TTL,
                 timeout: float = 5.0):
        self.path = Path(path)
        self.holder = str(holder)
        self.ttl = float(ttl)
        if self.ttl <= 0:
            raise ValueError("lease ttl must be positive")
        self._conn = sqlite3.connect(
            str(self.path), timeout=timeout, check_same_thread=False,
            isolation_level=None,  # explicit BEGIN IMMEDIATE below
        )
        self._conn.row_factory = sqlite3.Row
        apply_migrations(self._conn)
        #: fencing token from the last successful acquire/renew
        self.token: Optional[int] = None
        #: True after a successful acquire/renew, False after losing/releasing
        self.held = False

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "WriterLease":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ---------------------------------------------------------- transitions

    @contextmanager
    def _transaction(self):
        """One ``BEGIN IMMEDIATE`` transaction under :data:`FORK_LOCK`:
        committed when the block ends, rolled back when it raises."""
        with FORK_LOCK:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield
                self._conn.execute("COMMIT")
            except BaseException:
                if self._conn.in_transaction:
                    self._conn.execute("ROLLBACK")
                raise

    def _row(self) -> sqlite3.Row:
        row = self._conn.execute(
            "SELECT holder, token, epoch, acquired_unix, expires_unix "
            "FROM writer_lease WHERE id = 1"
        ).fetchone()
        if row is None:  # migration guarantees the row; belt and braces
            raise StoreError("writer_lease row missing (store corrupt?)")
        return row

    def try_acquire(self, now: Optional[float] = None) -> bool:
        """Acquire (or renew) the lease; True when this holder holds it
        after the call.  Vacant or expired leases are taken over with a
        fresh (incremented) token; re-acquiring our own live lease is a
        renewal and keeps the token stable."""
        now = time.time() if now is None else now
        with self._transaction():
            row = self._row()
            current = row["holder"]
            expired = row["expires_unix"] is None or row["expires_unix"] <= now
            if current == self.holder:
                token = int(row["token"])  # renewal: token is stable
                epoch = int(row["epoch"])
                acquired = row["acquired_unix"] or now
            elif current is None or expired:
                token = int(row["token"]) + 1  # ownership change: fence bump
                epoch = int(row["epoch"]) + 1
                acquired = now
            else:
                self.held = False
                return False
            self._conn.execute(
                "UPDATE writer_lease SET holder = ?, token = ?, epoch = ?, "
                "acquired_unix = ?, expires_unix = ? WHERE id = 1",
                (self.holder, token, epoch, acquired, now + self.ttl),
            )
        self.token = token
        self.held = True
        return True

    def renew(self, now: Optional[float] = None) -> bool:
        """Extend our lease; False (and ``held=False``) if someone stole
        it — the caller must stop writing immediately."""
        now = time.time() if now is None else now
        with self._transaction():
            row = self._row()
            if row["holder"] != self.holder or int(row["token"]) != (self.token or 0):
                self.held = False
                return False
            self._conn.execute(
                "UPDATE writer_lease SET expires_unix = ? WHERE id = 1",
                (now + self.ttl,),
            )
        self.held = True
        return True

    def release(self) -> None:
        """Give the lease up voluntarily (daemon drain).  Only vacates the
        row if we still hold it; a thief's lease is left untouched."""
        with self._transaction():
            row = self._row()
            if row["holder"] == self.holder and int(row["token"]) == (self.token or 0):
                self._conn.execute(
                    "UPDATE writer_lease SET holder = NULL, acquired_unix = NULL, "
                    "expires_unix = NULL WHERE id = 1"
                )
        self.held = False

    def steal(self, now: Optional[float] = None) -> int:
        """Forcibly take the lease regardless of expiry (chaos testing and
        break-glass operations).  Returns the new fencing token; the prior
        holder's appends abort from this moment on."""
        now = time.time() if now is None else now
        with self._transaction():
            row = self._row()
            token = int(row["token"]) + 1
            epoch = int(row["epoch"]) + 1
            self._conn.execute(
                "UPDATE writer_lease SET holder = ?, token = ?, epoch = ?, "
                "acquired_unix = ?, expires_unix = ? WHERE id = 1",
                (self.holder, token, epoch, now, now + self.ttl),
            )
        self.token = token
        self.held = True
        return token

    # ------------------------------------------------------------- queries

    def info(self) -> dict:
        """The lease row as observable state (for ``/v1/stats`` and tests)."""
        row = self._row()
        return {
            "holder": row["holder"],
            "token": int(row["token"]),
            "epoch": int(row["epoch"]),
            "acquired_unix": row["acquired_unix"],
            "expires_unix": row["expires_unix"],
        }

    def backoff_delay(self, attempt: int, base: float = 0.5,
                      cap: float = 30.0) -> float:
        """Deterministic jittered exponential backoff for re-acquisition.

        ``sha256(holder:attempt)`` supplies the jitter, so a given daemon
        retries on a reproducible schedule while two daemons with
        different ids desynchronize — the lease-race loser does not
        retry in lockstep with the winner's renewals.
        """
        digest = hashlib.sha256(
            f"{self.holder}:{int(attempt)}".encode("utf-8")
        ).digest()
        jitter = int.from_bytes(digest[:8], "big") / float(2 ** 64)
        delay = base * (2 ** min(int(attempt), 6)) * (0.5 + jitter)
        return min(cap, delay)
