"""The fleet backend: job lists fanned across worker hosts.

:class:`FleetBackend` is the third :class:`ExecutorBackend` — the
executor above it is unchanged, so everything the engine guarantees
(submission-order results, driver-cache resolution before dispatch,
harvesting into the driver's :class:`ResultCache` after) holds for a
fleet exactly as for a process pool.  What the backend adds:

* **Cache-aware dispatch.**  Before shipping a job list, the driver asks
  every worker which of its content-hash keys it already holds
  (``POST /cache/query``) and *pins* those jobs to the holding worker,
  whose ``/run`` answers from its cache — no host ever recomputes
  another host's job.  (Jobs the *driver's* cache holds never reach
  the backend at all; the executor resolves those first.)
* **Retry-on-worker-failure.**  One dispatch thread per worker pulls
  jobs from its pinned queue, then from the shared queue.  Any
  transport failure — refused, reset, timed out, corrupt payload —
  retires the worker and requeues its in-flight and pinned jobs for
  the survivors.  A job that *raises* on a worker is a deterministic
  failure and propagates as :class:`FleetJobError` instead.
* **Heartbeats.**  A monitor thread probes ``/healthz`` of workers
  with jobs in flight (workers execute jobs off the event loop, so a
  busy worker still answers).  Repeated misses abort the in-flight
  connection, which surfaces as a transport failure on the dispatch
  thread — one code path for every way a worker can die.

Results are collected by submission index, so a fleet run is
bit-identical to a serial run of the same jobs.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence

from repro.engine.backends import ExecutorBackend
from repro.engine.job import Job
from repro.engine.remote.client import HEALTH_TIMEOUT, WorkerClient
from repro.engine.remote.errors import (
    FleetError,
    FleetJobError,
    FleetProtocolError,
    WorkerTransportError,
)
from repro.engine.remote.launch import WorkerHandle, launch_local_workers, launch_ssh_workers
from repro.engine.remote.protocol import decode_result, encode_job
from repro.engine.remote.spec import parse_fleet_spec

_UNSET = object()


class _WorkerSlot:
    """Driver-side state for one worker."""

    def __init__(self, handle: WorkerHandle, job_timeout: float) -> None:
        self.handle = handle
        self.client = WorkerClient(handle.url, timeout=job_timeout)
        # The dispatch client blocks for the whole job; heartbeats need
        # their own connection (WorkerClient tracks one in-flight call).
        self.health_client = WorkerClient(handle.url, timeout=HEALTH_TIMEOUT)
        self.alive = True
        self.pinned: Deque[int] = deque()
        self.inflight: Optional[int] = None
        self.missed_heartbeats = 0
        self.dispatched = 0
        self.completed = 0
        self.remote_hits = 0
        self.failures = 0
        self.last_error: Optional[str] = None

    def snapshot(self) -> Dict[str, Any]:
        return {
            "tag": self.handle.tag,
            "url": self.handle.url,
            "alive": self.alive,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "remote_cache_hits": self.remote_hits,
            "failures": self.failures,
            "last_error": self.last_error,
        }


class FleetBackend(ExecutorBackend):
    """Run jobs across a fleet of ``repro worker`` agents.

    Parameters
    ----------
    spec:
        A ``fleet:`` spec string (see :mod:`repro.engine.remote.spec`).
    cache_dir:
        The driver's campaign cache directory; loopback workers share
        it, making the on-disk content-hash cache the fleet-wide dedup
        layer.
    heartbeat_interval / max_missed_heartbeats:
        A worker with a job in flight that misses this many consecutive
        ``/healthz`` probes is presumed dead and its connection aborted.
    """

    def __init__(
        self,
        spec: str,
        cache_dir: Optional[str] = None,
        heartbeat_interval: float = 2.0,
        max_missed_heartbeats: int = 3,
    ) -> None:
        self.spec = parse_fleet_spec(spec)
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.job_timeout = self.spec.params["timeout"]
        self.heartbeat_interval = heartbeat_interval
        self.max_missed_heartbeats = max_missed_heartbeats
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._slots: List[_WorkerSlot] = []
        self._closed = False
        self.waves = 0
        try:
            self._start_workers()
        except Exception:
            self.close()
            raise
        self.jobs = len(self._slots)

    # ------------------------------------------------------------------
    # Startup / teardown
    # ------------------------------------------------------------------

    def _start_workers(self) -> None:
        family, head = self.spec.family, self.spec.head
        if family == "localhost":
            handles = launch_local_workers(head, cache_dir=self.cache_dir)
        elif family == "ssh":
            handles = launch_ssh_workers(
                list(head), python=self.spec.params["python"], cache_dir=self.cache_dir
            )
        else:  # attach
            handles = [
                WorkerHandle(url=f"http://{endpoint}", tag=f"attach-{index}")
                for index, endpoint in enumerate(head)
            ]
        self._slots = [_WorkerSlot(handle, self.job_timeout) for handle in handles]
        unreachable = []
        for slot in self._slots:
            try:
                slot.health_client.healthz()
            except WorkerTransportError as error:
                unreachable.append(f"{slot.handle.tag} ({slot.handle.url}): {error}")
        if unreachable:
            raise FleetError(
                f"{len(unreachable)} of {len(self._slots)} fleet workers unreachable "
                f"at startup: " + "; ".join(unreachable)
            )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            if slot.alive and slot.handle.owned:
                slot.client.request_shutdown()
            slot.handle.terminate()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def run(self, jobs: Sequence[Job]) -> List[Any]:
        if not jobs:
            return []
        if self._closed:
            raise FleetError("fleet backend is closed")
        live = [slot for slot in self._slots if slot.alive]
        if not live:
            raise FleetError("no live fleet workers remain")
        self.waves += 1

        results: List[Any] = [_UNSET] * len(jobs)
        shared: Deque[int] = deque()
        self._pin_cached(jobs, live, shared)
        self._job_error: Optional[FleetJobError] = None
        self._stop = threading.Event()

        done = threading.Event()
        monitor = threading.Thread(
            target=self._monitor_loop, args=(done,), name="fleet-monitor", daemon=True
        )
        threads = [
            threading.Thread(
                target=self._dispatch_loop,
                args=(slot, jobs, results, shared),
                name=f"fleet-{slot.handle.tag}",
                daemon=True,
            )
            for slot in live
        ]
        monitor.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        done.set()
        monitor.join()

        if self._job_error is not None:
            raise self._job_error
        missing = sum(1 for value in results if value is _UNSET)
        if missing:
            details = "; ".join(
                f"{slot.handle.tag}: {slot.last_error}"
                for slot in self._slots
                if slot.last_error is not None
            )
            raise FleetError(
                f"{missing} of {len(jobs)} jobs could not be executed — "
                f"no live fleet workers remain ({details or 'no worker errors recorded'})"
            )
        return results

    def _pin_cached(self, jobs: Sequence[Job], live: List[_WorkerSlot], shared: Deque[int]) -> None:
        """Pin jobs whose content key a worker already holds to that worker."""
        by_key: Dict[str, List[int]] = {}
        for index, job in enumerate(jobs):
            if job.cache_key is not None:
                by_key.setdefault(job.cache_key, []).append(index)
        claimed: Dict[str, _WorkerSlot] = {}
        if by_key:
            keys = list(by_key)
            for slot in live:
                try:
                    hits = slot.client.cache_query(keys)
                except WorkerTransportError as error:
                    self._retire(slot, None, shared, error)
                    continue
                for key in hits:
                    if key in by_key and key not in claimed:
                        claimed[key] = slot
                        slot.pinned.extend(by_key[key])
        pinned = {index for slot in live for index in slot.pinned}
        shared.extend(index for index in range(len(jobs)) if index not in pinned)

    def _dispatch_loop(
        self, slot: _WorkerSlot, jobs: Sequence[Job], results: List[Any], shared: Deque[int]
    ) -> None:
        while True:
            index = self._next_index(slot, shared)
            if index is None:
                return
            job = jobs[index]
            slot.dispatched += 1
            try:
                status, body = slot.client.run(encode_job(job), timeout=self.job_timeout)
                if status != 200:
                    raise WorkerTransportError(
                        f"{slot.handle.url}/run returned {status}: {body.get('error', body)}"
                    )
                if body.get("status") == "error":
                    with self._work:
                        if self._job_error is None:
                            self._job_error = FleetJobError(
                                f"job {job.key!r} failed on {slot.handle.tag}: "
                                f"{body.get('error')}\n{body.get('traceback', '')}"
                            )
                        self._stop.set()
                        slot.inflight = None
                        self._work.notify_all()
                    return
                if body.get("status") != "ok":
                    raise WorkerTransportError(f"{slot.handle.url}/run: malformed body {body!r}")
                value = decode_result(body.get("result"))
            except (WorkerTransportError, FleetProtocolError) as error:
                self._retire(slot, index, shared, error)
                return
            with self._work:
                results[index] = value
                slot.inflight = None
                slot.completed += 1
                slot.missed_heartbeats = 0
                if body.get("cached"):
                    slot.remote_hits += 1
                self._work.notify_all()

    def _next_index(self, slot: _WorkerSlot, shared: Deque[int]) -> Optional[int]:
        """Claim the next job index for this worker (blocks; None = done).

        A thread must not exit just because the queues are momentarily
        empty: another worker's in-flight job may yet fail and be
        requeued.  It exits only when stopped, retired, or every queue
        is empty with nothing in flight anywhere.
        """
        with self._work:
            while True:
                if self._stop.is_set() or not slot.alive:
                    return None
                if slot.pinned:
                    index = slot.pinned.popleft()
                elif shared:
                    index = shared.popleft()
                else:
                    if all(other.inflight is None for other in self._slots):
                        return None
                    self._work.wait(0.1)
                    continue
                slot.inflight = index
                return index

    def _retire(
        self,
        slot: _WorkerSlot,
        inflight_index: Optional[int],
        shared: Deque[int],
        error: Exception,
    ) -> None:
        """Mark a worker dead and hand its queued work to the survivors."""
        with self._work:
            slot.alive = False
            slot.failures += 1
            slot.last_error = str(error)
            slot.inflight = None
            if inflight_index is not None:
                shared.appendleft(inflight_index)
            while slot.pinned:
                shared.append(slot.pinned.popleft())
            self._work.notify_all()

    def _monitor_loop(self, done: threading.Event) -> None:
        while not done.wait(self.heartbeat_interval):
            for slot in self._slots:
                if not slot.alive or slot.inflight is None:
                    continue
                try:
                    slot.health_client.healthz(
                        timeout=min(self.heartbeat_interval, HEALTH_TIMEOUT)
                    )
                except WorkerTransportError:
                    slot.missed_heartbeats += 1
                    if slot.missed_heartbeats >= self.max_missed_heartbeats:
                        # The dispatch thread is blocked on this worker;
                        # aborting its connection funnels the death into
                        # the one retire-and-reassign path.
                        slot.client.abort()
                else:
                    slot.missed_heartbeats = 0

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Per-worker dispatch/cache counters (the service's ``/stats`` fleet section)."""
        workers = [slot.snapshot() for slot in self._slots]
        return {
            "spec": self.spec.canonical,
            "workers": workers,
            "alive": sum(1 for w in workers if w["alive"]),
            "waves": self.waves,
            "dispatched": sum(w["dispatched"] for w in workers),
            "completed": sum(w["completed"] for w in workers),
            "remote_cache_hits": sum(w["remote_cache_hits"] for w in workers),
            "failures": sum(w["failures"] for w in workers),
        }
