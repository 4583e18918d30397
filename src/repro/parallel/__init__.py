"""``repro.parallel`` — experiment-matrix fan-out and the compile cache.

Two cooperating pieces:

* :mod:`repro.parallel.pool` shards an independent-cell experiment matrix
  across worker processes with static, index-keyed sharding, so parallel
  output is bit-identical to serial output (everything measured lives on
  the simulated clock).
* :mod:`repro.parallel.cache` is the persistent content-addressed compile
  cache (``.repro-cache/`` by default) that lets every worker — and every
  repeat harness/CI invocation — load the shared CIL image instead of
  recompiling it.
"""

from .cache import CACHE_DIR_ENV, DEFAULT_CACHE_DIR, CompileCache, default_cache_dir
from .execargs import (
    ExecutionConfig,
    add_execution_args,
    add_jobs_argument,
    execution_from_args,
)
from .pool import PoolError, PoolReport, resolve_jobs, run_cells

__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "CompileCache",
    "default_cache_dir",
    "ExecutionConfig",
    "add_execution_args",
    "execution_from_args",
    "PoolError",
    "PoolReport",
    "add_jobs_argument",
    "resolve_jobs",
    "run_cells",
]
