"""The executor: job lists in, deterministically ordered results out.

The executor ties together the four engine pieces: it resolves jobs
against the :class:`~repro.engine.cache.ResultCache`, runs the rest on
the configured backend in one call (deduplicating identical work by
content key), stores fresh results back into the cache, and reports
progress throughout.

Execution is deterministic by construction: results are keyed and
ordered by job submission order, never by completion order, so a
serial run and a parallel run of the same jobs produce bit-identical
result sequences.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.engine.backends import ExecutorBackend, SerialBackend
from repro.engine.cache import MISS, ResultCache
from repro.engine.job import Job
from repro.engine.progress import ProgressReporter


class Executor:
    """Runs job lists on a backend, through an optional result cache.

    Parameters
    ----------
    backend:
        Where jobs execute; defaults to :class:`SerialBackend`.
    cache:
        Optional :class:`ResultCache` consulted before any job runs.
    reporter:
        Optional :class:`ProgressReporter` receiving per-job events.
    """

    def __init__(
        self,
        backend: Optional[ExecutorBackend] = None,
        cache: Optional[ResultCache] = None,
        reporter: Optional[ProgressReporter] = None,
    ) -> None:
        self.backend = backend if backend is not None else SerialBackend()
        self.cache = cache
        self.reporter = reporter if reporter is not None else ProgressReporter()

    @property
    def jobs(self) -> int:
        """Worker count of the backend (1 for serial execution)."""
        return self.backend.jobs

    def run(self, jobs: Iterable[Job]) -> Dict[str, Any]:
        """Execute independent jobs; returns ``{job key: result}`` in submission order.

        Cache hits are returned without running; of several uncached
        jobs with one content key only the first runs, and the others
        share its result.  Everything else goes to the backend in one
        call.
        """
        jobs = list(jobs)
        if len({job.key for job in jobs}) != len(jobs):
            raise ValueError("job keys must be unique within one run")
        self.reporter.on_start(len(jobs))
        results: Dict[str, Any] = {}
        representatives: List[Job] = []
        aliases: Dict[str, List[Job]] = {}
        seen: Dict[str, Job] = {}
        for job in jobs:
            if job.cache_key is not None:
                value = MISS if self.cache is None else self.cache.get(job.cache_key)
                if value is not MISS:
                    results[job.key] = value
                    self.reporter.on_job(job, "cached")
                    continue
                if job.cache_key in seen:
                    aliases.setdefault(seen[job.cache_key].key, []).append(job)
                    continue
                seen[job.cache_key] = job
            representatives.append(job)

        for job, value in zip(representatives, self.backend.run(representatives)):
            results[job.key] = value
            self.store(job.cache_key, value)
            self.reporter.on_job(job, "done")
            for alias in aliases.get(job.key, ()):
                results[alias.key] = value
                self.reporter.on_job(alias, "shared")
        self.reporter.on_finish()
        return {job.key: results[job.key] for job in jobs}

    def is_cached(self, cache_key: Optional[str]) -> bool:
        """Whether a content key would hit the result cache (no side effects)."""
        return cache_key is not None and self.cache is not None and cache_key in self.cache

    def store(self, cache_key: Optional[str], value: Any) -> None:
        """Store one result under a content key, as :meth:`run` does for a job.

        Batch jobs compute many logical results in one task; the caller
        scatters them and stores each under the per-result key it would
        have had as an individual job, keeping the cache (and its
        ``stores`` counter) indistinguishable from a per-op run.
        """
        if self.cache is not None and cache_key is not None:
            self.cache.put(cache_key, value)

    def cache_stats(self) -> Dict[str, int]:
        """The result cache's live counters (all zero without a cache)."""
        if self.cache is None:
            return {"entries": 0, "hits": 0, "misses": 0, "stores": 0, "loaded": 0}
        return self.cache.stats()

    def refresh_workers(self) -> None:
        """Recycle backend workers (see :meth:`ExecutorBackend.refresh`)."""
        self.backend.refresh()

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
