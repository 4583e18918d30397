"""``repro.service`` — benchmark-as-a-service over the experiment store.

* :mod:`repro.service.daemon` — the asyncio HTTP daemon
  (:class:`ExperimentService`): a job queue that executes novel
  experiment cells through :mod:`repro.parallel` and serves repeated
  cells straight from the SQLite store, byte-identical to a direct run.
* :mod:`repro.service.client` — :class:`ServiceClient`, the urllib
  client ``repro client`` wraps.
* :mod:`repro.service.http` — the minimal stdlib HTTP/1.1 framing.

The daemon is imported on first use of :class:`ExperimentService`, so
``repro client`` starts without loading it.
"""

from .client import ServiceClient, ServiceError

__all__ = ["ExperimentService", "ServiceClient", "ServiceError"]


def __getattr__(name):
    if name == "ExperimentService":
        from .daemon import ExperimentService

        return ExperimentService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
