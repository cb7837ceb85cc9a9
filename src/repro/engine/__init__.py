"""The parallel experiment engine.

The engine turns an experiment campaign — thousands of independent
profile / reference-simulation / MPPM-prediction units — into flat
lists of :class:`Job` objects executed by an :class:`Executor` on an
interchangeable backend (:class:`SerialBackend`,
:class:`ProcessPoolBackend` or a fleet), through a persistent
:class:`ResultCache` keyed by content hashes of everything a result
depends on.

Guarantees:

* **Determinism** — results are ordered by job submission order, never
  completion order; a serial and a parallel run of the same jobs are
  bit-identical.
* **Memoisation** — cached results are returned without recomputation,
  within a process and (with a cache directory) across processes.
* **Observability** — every job's fate is reported through a
  :class:`ProgressReporter` hook.

This is the seam every scaling direction plugs into: a new backend
(sharded, async, remote) only has to run picklable jobs in submission
order.
"""

from pathlib import Path
from typing import Optional, Union

from repro.engine.backends import ExecutorBackend, ProcessPoolBackend, SerialBackend
from repro.engine.cache import MISS, ResultCache, content_key, register_result_type
from repro.engine.executor import Executor
from repro.engine.job import Job
from repro.engine.progress import CollectingReporter, ConsoleReporter, ProgressReporter

__all__ = [
    "Job",
    "ExecutorBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "Executor",
    "ResultCache",
    "MISS",
    "content_key",
    "register_result_type",
    "ProgressReporter",
    "ConsoleReporter",
    "CollectingReporter",
    "create_engine",
]


def create_engine(
    jobs: Union[int, str] = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    reporter: Optional[ProgressReporter] = None,
    memory_cache: bool = False,
) -> Executor:
    """Build an executor from the two knobs every caller has.

    ``jobs`` selects the backend: 1 → serial, N → a process pool of N
    workers, or a ``fleet:`` spec string (``"fleet:localhost:2"``,
    ``"fleet:ssh=host1,host2"`` — see :mod:`repro.engine.remote`) → a
    multi-host fleet.  ``cache_dir`` is the campaign cache directory —
    engine results are persisted under ``<cache_dir>/results``, where
    the profile store keeps its profiles too; a loopback fleet's
    workers share it, making the content-hash cache the fleet-wide
    dedup layer.  ``memory_cache`` gives the executor a memory-only
    :class:`ResultCache` when no cache directory is configured, so
    long-running callers (the prediction service) still memoise and
    deduplicate repeated work without touching disk.
    """
    backend: ExecutorBackend
    if isinstance(jobs, str):
        from repro.engine.remote import FleetBackend

        backend = FleetBackend(
            jobs, cache_dir=str(cache_dir) if cache_dir is not None else None
        )
    else:
        if jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        backend = SerialBackend() if jobs == 1 else ProcessPoolBackend(jobs)
    cache: Optional[ResultCache] = None
    if cache_dir is not None:
        cache = ResultCache(Path(cache_dir) / "results")
    elif memory_cache:
        cache = ResultCache(None)
    return Executor(backend=backend, cache=cache, reporter=reporter)
