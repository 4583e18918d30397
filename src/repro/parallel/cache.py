"""Persistent on-disk compile cache: content hash -> serialized Assembly.

The paper's methodology compiles each benchmark once and runs the identical
image on every runtime, so across harness invocations (CI jobs, repeated
``repro bench run``, fuzz-corpus replays) the compiler is pure function of
its source text.  This cache makes that purity pay: a cache entry is keyed
by SHA-256 over (compiler version, assembly name, source), the value is the
:meth:`~repro.cil.metadata.Assembly.to_bytes` payload, and a warm cache
eliminates every ``compile_source`` call of a repeat run.

Invalidation rule: the key embeds
:data:`repro.lang.compiler.COMPILER_VERSION` and the assembly wire-format
tag, so bumping either orphans old entries (they are simply never hit
again); there is no in-place mutation.  Writes are atomic
(tempfile + ``os.replace``), so concurrent pool workers may race on the
same key and the loser's write harmlessly replaces the identical payload.

Crash consistency: a worker killed mid-:meth:`~CompileCache.store` can
leave at most an orphaned ``*.tmp`` file — never a partial entry at a
final path, because the final name only ever appears via ``os.replace`` of
a fully-written temp file.  Orphans are invisible to :meth:`load` (final
paths end in ``.bin``) and are reaped by :meth:`sweep`.  A truncated or
corrupted entry that does reach a final path (e.g. torn storage) reads as
a miss and is repaired by the next store.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from typing import Optional, Sequence, Tuple

from ..cil.metadata import ASSEMBLY_WIRE_FORMAT, Assembly

#: environment override for the cache location (CLI flags still win)
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: default cache root, relative to the current working directory
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> str:
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


class CompileCache:
    """Content-addressed store of compiled assemblies under ``root``.

    ``hits``/``misses`` count this instance's lookups (each pool worker
    holds its own instance over the shared directory; the pool layer sums
    worker counts into the parent's metrics registry).

    ``corrupt_loads`` is the fault-injection hook: a sorted tuple of
    1-based load ordinals whose read bytes are truncated to half before
    deserialization, simulating a torn entry.  Each such load must count
    as a miss (``corrupted`` tracks how many did) — the degradation
    contract under corruption is recompile, never crash.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        corrupt_loads: Sequence[int] = (),
    ) -> None:
        self.root = root or default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.corrupted = 0
        self.corrupt_loads: Tuple[int, ...] = tuple(corrupt_loads)
        self._loads = 0

    # ----------------------------------------------------------------- keys

    def key_for(self, source: str, assembly_name: str) -> str:
        from ..lang.compiler import COMPILER_VERSION

        digest = hashlib.sha256()
        digest.update(COMPILER_VERSION.encode())
        digest.update(ASSEMBLY_WIRE_FORMAT)
        digest.update(assembly_name.encode())
        digest.update(b"\x00")
        digest.update(source.encode())
        return digest.hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, "asm", key[:2], key + ".bin")

    # -------------------------------------------------------------- load/store

    def load(self, key: str) -> Optional[Assembly]:
        """The cached assembly for ``key``, or None.  A corrupt or
        wrong-format entry reads as a miss (and is overwritten by the next
        store), never as an error."""
        try:
            with open(self._path(key), "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        self._loads += 1
        if self._loads in self.corrupt_loads:
            data = data[: len(data) // 2]
        try:
            return Assembly.from_bytes(data)
        except Exception:
            self.corrupted += 1
            return None

    def store(self, key: str, assembly: Assembly) -> None:
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(assembly.to_bytes())
                os.replace(tmp, path)
            except OSError:
                pass
        finally:
            # os.replace consumed tmp on success; anything left behind is
            # a partial write from the failure path above.
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def sweep(self) -> int:
        """Remove orphaned ``*.tmp`` files left by killed writers; returns
        how many were reaped.  Safe to run concurrently with writers: a
        live temp file that disappears under a sweeping process was about
        to be replaced anyway, and ``store`` tolerates the lost unlink."""
        reaped = 0
        asm_root = os.path.join(self.root, "asm")
        for dirpath, _dirnames, filenames in os.walk(asm_root):
            for name in filenames:
                if name.endswith(".tmp"):
                    try:
                        os.unlink(os.path.join(dirpath, name))
                        reaped += 1
                    except OSError:
                        pass
        return reaped

    # ------------------------------------------------------------------- api

    def get_or_compile(self, source: str, assembly_name: str = "program", **kwargs) -> Assembly:
        """Return the cached assembly for ``source``, compiling (and
        persisting) on a miss.  ``kwargs`` pass through to
        :func:`repro.lang.compile_source` on the compile path only — callers
        using non-default compile options should not share a cache directory
        with default-option callers."""
        from ..lang import compile_source

        key = self.key_for(source, assembly_name)
        assembly = self.load(key)
        if assembly is not None:
            self.hits += 1
            return assembly
        self.misses += 1
        assembly = compile_source(source, assembly_name=assembly_name, **kwargs)
        self.store(key, assembly)
        return assembly

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupted": self.corrupted,
            "root": self.root,
        }
