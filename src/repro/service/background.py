"""An in-process daemon in the background: :class:`BackgroundDaemon`."""

from __future__ import annotations

import asyncio
import threading

from .client import ServiceClient
from .daemon import ExperimentService


class BackgroundDaemon:
    """One live :class:`ExperimentService` on an ephemeral port, its
    event loop on a thread, with a :class:`ServiceClient` pointed at it —
    how the test suite and ``repro chaos service`` run a daemon without a
    second process."""

    def __init__(self, store_path: str, **kwargs):
        self.service = ExperimentService(store_path, **kwargs)
        self.loop = asyncio.new_event_loop()
        ready = threading.Event()

        def body():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.service.start("127.0.0.1", 0))
            ready.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=body, daemon=True)
        self.thread.start()
        if not ready.wait(30):
            raise RuntimeError("background daemon failed to start")
        self.host, self.port = self.service.address
        self.url = f"http://{self.host}:{self.port}"
        self.client = ServiceClient(self.url)

    def __enter__(self) -> "BackgroundDaemon":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self.client.close()
        asyncio.run_coroutine_threadsafe(
            self.service.stop(), self.loop
        ).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()
