"""Run the prediction service: blocking (CLI), async, or on a thread.

Three entry points for three callers:

* :func:`serve` — the async core: start, announce, wait for
  ``POST /shutdown`` (or cancellation), tear down.
* :func:`serve_blocking` — what ``repro serve`` calls; wraps
  :func:`serve` in ``asyncio.run`` and turns Ctrl-C into a clean exit.
* :class:`ServiceThread` — a context manager hosting the service on a
  background thread with its own event loop, for tests and the load
  generator (which need a live server *and* a foreground to drive it
  from).

The announce line (``repro-serve listening on http://HOST:PORT``) is
part of the interface: with ``--port 0`` it is how scripts discover the
bound port.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Callable, Optional

from repro.service.app import PredictionService, ServiceConfig

ANNOUNCE_PREFIX = "repro-serve listening on "


def _announce(service: PredictionService, printer: Callable[[str], None]) -> None:
    printer(f"{ANNOUNCE_PREFIX}http://{service.config.host}:{service.port}")


async def serve(
    config: Optional[ServiceConfig] = None,
    printer: Callable[[str], None] = print,
    ready: Optional[Callable[[PredictionService], None]] = None,
) -> PredictionService:
    """Start the service and run until shutdown is requested."""
    service = PredictionService(config)
    await service.start()
    _announce(service, printer)
    if ready is not None:
        ready(service)
    try:
        await service.shutdown_event.wait()
    finally:
        await service.close()
    return service


def serve_blocking(
    config: Optional[ServiceConfig] = None, printer: Callable[[str], None] = print
) -> int:
    """The ``repro serve`` entry point; returns a process exit code."""
    try:
        asyncio.run(serve(config, printer=printer))
    except KeyboardInterrupt:
        printer("repro-serve: interrupted, shutting down")
    return 0


class ServiceThread:
    """A live service on a background thread (context manager).

    ``with ServiceThread(config) as live:`` yields an object with
    ``host``/``port`` and a handle on the underlying
    :class:`PredictionService` (for asserting on its stats and caches).
    Startup errors surface in the entering thread.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.service: Optional[PredictionService] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    # -- lifecycle ------------------------------------------------------

    def start(self, timeout: float = 120.0) -> "ServiceThread":
        self._thread = threading.Thread(target=self._run, name="repro-serve", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("the prediction service did not start in time")
        if self._error is not None:
            raise RuntimeError(f"the prediction service failed to start: {self._error}")
        return self

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self.service is not None:
            self._loop.call_soon_threadsafe(self.service.shutdown_event.set)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- conveniences ---------------------------------------------------

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        if self.service is None:
            raise RuntimeError("the prediction service is not running")
        return self.service.port

    # -- internals ------------------------------------------------------

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 - reported to the entering thread
            self._error = error
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()

        def on_ready(service: PredictionService) -> None:
            self.service = service
            self._ready.set()

        await serve(self.config, printer=lambda _line: None, ready=on_ready)
