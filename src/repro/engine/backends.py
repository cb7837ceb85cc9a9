"""Execution backends: where jobs actually run.

Both backends take a list of jobs and return their results **in
submission order**, regardless of completion order, so that everything
downstream of the engine is deterministic and a serial run and a
parallel run of the same jobs are bit-identical.
"""

from __future__ import annotations

import multiprocessing
import os
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from typing import Any, List, Optional, Sequence

from repro.engine.job import Job


class ExecutorBackend(ABC):
    """Runs batches of independent jobs."""

    #: Worker count the backend effectively uses (1 for serial).
    jobs: int = 1

    @abstractmethod
    def run(self, jobs: Sequence[Job]) -> List[Any]:
        """Execute the jobs; results in submission order."""

    def close(self) -> None:
        """Release any worker resources (idempotent)."""

    def refresh(self) -> None:
        """Recycle workers so the next batch observes fresh parent state.

        With a fork-based process pool this makes parent-side caches
        populated *between* batches (e.g. absorbed profiles) visible to
        the workers of the next batch.  No-op for in-process execution.
        """


class SerialBackend(ExecutorBackend):
    """Run every job inline in the submitting process."""

    jobs = 1

    def run(self, jobs: Sequence[Job]) -> List[Any]:
        return [job.run() for job in jobs]


def _run_job(job: Job) -> Any:
    """Top-level trampoline so a Job executes in a pool worker."""
    return job.run()


class ProcessPoolBackend(ExecutorBackend):
    """Fan jobs out over a ``concurrent.futures`` process pool.

    The pool is created lazily on the first parallel batch, and its
    workers are always *forked* (whatever the platform's default start
    method): they therefore inherit the submitting process's state at
    that moment — most importantly a warm profile store — for free.
    Results are gathered in submission order, so completion-order races
    cannot reorder anything.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.jobs = max_workers if max_workers is not None else (os.cpu_count() or 1)
        if self.jobs <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=multiprocessing.get_context("fork")
            )
        return self._pool

    def run(self, jobs: Sequence[Job]) -> List[Any]:
        if not jobs:
            return []
        pool = self._ensure_pool()
        futures = [pool.submit(_run_job, job) for job in jobs]
        return [future.result() for future in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def refresh(self) -> None:
        self.close()
