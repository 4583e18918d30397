"""``repro.service`` — benchmark-as-a-service over the experiment store.

* :mod:`repro.service.daemon` — the asyncio HTTP daemon
  (:class:`ExperimentService`): repeated experiment cells are served
  straight from the SQLite store, byte-identical to a direct run, and
  novel ones execute through :mod:`repro.parallel`.
* :mod:`repro.service.jobs` — the daemon's socket-free job-lifecycle table.
* :mod:`repro.service.background` — :class:`BackgroundDaemon`, a daemon
  on a thread of this process (tests, ``repro chaos service``).
* :mod:`repro.service.client` — :class:`ServiceClient`, the urllib
  client ``repro client`` wraps.
* :mod:`repro.service.http` — the minimal stdlib HTTP/1.1 framing.

The daemon is imported on first use of :class:`ExperimentService` or
:class:`BackgroundDaemon`, so ``repro client`` starts without loading it.
"""

from .client import ServiceClient, ServiceError

__all__ = ["BackgroundDaemon", "ExperimentService", "ServiceClient", "ServiceError"]


def __getattr__(name):
    if name == "ExperimentService":
        from .daemon import ExperimentService

        return ExperimentService
    if name == "BackgroundDaemon":
        from .background import BackgroundDaemon

        return BackgroundDaemon
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
