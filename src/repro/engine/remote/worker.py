"""The ``repro worker`` agent: one host's share of a fleet sweep.

A worker is the service tier's HTTP machinery
(:class:`~repro.service.http.HttpServer`) wrapped around the engine's
task layer: ``POST /run`` takes a pickled job recipe, resolves the
experiment setup from the recipe exactly as a process-pool worker
would (:func:`repro.engine.tasks._resolve_setup`), executes it, and
returns the result as a registry envelope
(:mod:`repro.engine.remote.protocol`).

Each worker owns a :class:`~repro.engine.cache.ResultCache`.  Before
executing, ``/run`` consults it by the job's content-hash cache key,
and ``POST /cache/query`` lets the driver ask which keys a worker
already holds — together these implement the fleet's shared-dedup
contract: no host ever recomputes another host's job.

Jobs execute on a single worker thread (``run_in_executor``) so the
event loop — and with it ``/healthz`` — stays responsive while a
simulation runs; that is what makes driver-side heartbeats meaningful.
A job that *raises* returns a structured ``{"status": "error"}`` body
with HTTP 200: task exceptions are deterministic job failures the
driver must propagate, distinct from transport failures it retries.
"""

from __future__ import annotations

import asyncio
import os
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Optional

from repro.engine.cache import MISS, ResultCache
from repro.engine.remote.errors import FleetProtocolError
from repro.engine.remote.protocol import decode_job, encode_result
from repro.engine.tasks import reconstructed_store_stats
from repro.service.http import HttpError, HttpServer, Request, Response

#: With ``--port 0`` this line is how launchers discover the bound port.
ANNOUNCE_PREFIX = "repro-worker listening on "


class FleetWorker:
    """A single worker agent (async lifecycle; see :func:`run_worker`)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: Optional[str] = None,
        tag: Optional[str] = None,
    ) -> None:
        self.tag = tag if tag is not None else f"worker-{os.getpid()}"
        results_dir = Path(cache_dir) / "results" if cache_dir is not None else None
        self.cache = ResultCache(results_dir)
        self.server = HttpServer(self._handle, host=host, port=port)
        self.shutdown_event = asyncio.Event()
        self._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-worker")
        self.received = 0
        self.executed = 0
        self.cache_hits = 0
        self.errors = 0

    @property
    def port(self) -> int:
        return self.server.port

    async def start(self) -> "FleetWorker":
        await self.server.start()
        return self

    async def close(self) -> None:
        await self.server.close()
        self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _handle(self, request: Request) -> Response:
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            return Response({"status": "ok", "tag": self.tag, "pid": os.getpid()})
        if route == ("GET", "/stats"):
            return Response(self.stats_payload())
        if route == ("POST", "/run"):
            return await self._handle_run(request)
        if route == ("POST", "/cache/query"):
            return self._handle_cache_query(request)
        if route == ("POST", "/shutdown"):
            self.shutdown_event.set()
            return Response({"status": "shutting down", "tag": self.tag})
        raise HttpError(404, f"no such endpoint: {request.method} {request.path}")

    def stats_payload(self) -> dict:
        return {
            "tag": self.tag,
            "pid": os.getpid(),
            "received": self.received,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "errors": self.errors,
            "cache": self.cache.stats(),
            "store": reconstructed_store_stats(),
        }

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    async def _handle_run(self, request: Request) -> Response:
        payload = request.json()
        self.received += 1
        key = payload.get("key")
        cache_key = payload.get("cache_key")

        if cache_key is not None:
            value = self.cache.get(cache_key)
            if value is not MISS:
                self.cache_hits += 1
                return self._result(key, value, cached=True)

        try:
            job = decode_job(payload)
        except FleetProtocolError as error:
            raise HttpError(400, str(error)) from None

        loop = asyncio.get_running_loop()
        try:
            # Off the loop: heartbeats probe /healthz during long jobs.
            value = await loop.run_in_executor(self._executor, job.run)
        except Exception as error:  # noqa: BLE001 - shipped to the driver, not swallowed
            return self._error(key, error)
        self.executed += 1
        if job.cache_key is not None:
            self.cache.put(job.cache_key, value)
        return self._result(key, value, cached=False)

    def _result(self, key: Optional[str], value: object, cached: bool) -> Response:
        try:
            result = encode_result(value)
        except FleetProtocolError as error:
            # An unregistered result type is a deterministic job failure.
            return self._error(key, error)
        return Response({"key": key, "status": "ok", "cached": cached, "result": result})

    def _error(self, key: Optional[str], error: Exception) -> Response:
        self.errors += 1
        return Response(
            {
                "key": key,
                "status": "error",
                "error": f"{type(error).__name__}: {error}",
                "traceback": "".join(traceback.format_exception(error)),
            }
        )

    def _handle_cache_query(self, request: Request) -> Response:
        payload = request.json()
        keys = payload.get("keys")
        if not isinstance(keys, list):
            raise HttpError(400, "cache query body must carry a 'keys' list")
        hits = [key for key in keys if isinstance(key, str) and key in self.cache]
        return Response({"tag": self.tag, "hits": hits})


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


async def serve_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    cache_dir: Optional[str] = None,
    tag: Optional[str] = None,
    printer: Callable[[str], None] = print,
) -> FleetWorker:
    """Start a worker and run until ``POST /shutdown`` (or cancellation)."""
    worker = FleetWorker(host=host, port=port, cache_dir=cache_dir, tag=tag)
    await worker.start()
    printer(f"{ANNOUNCE_PREFIX}http://{host}:{worker.port}")
    try:
        await worker.shutdown_event.wait()
    finally:
        await worker.close()
    return worker


def run_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    cache_dir: Optional[str] = None,
    tag: Optional[str] = None,
    printer: Optional[Callable[[str], None]] = None,
) -> int:
    """The ``repro worker`` entry point; returns a process exit code."""
    if printer is None:
        # The announce line must reach a pipe-reading launcher promptly.
        def printer(line: str) -> None:
            print(line, flush=True)

    try:
        asyncio.run(serve_worker(host, port, cache_dir=cache_dir, tag=tag, printer=printer))
    except KeyboardInterrupt:
        printer("repro-worker: interrupted, shutting down")
    return 0
