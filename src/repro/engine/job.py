"""Jobs and job graphs: the unit of work of the experiment engine.

A :class:`Job` is one independent unit of an experiment campaign —
profile this benchmark on this machine, reference-simulate this mix,
MPPM-predict this mix — expressed as a picklable top-level function
plus its (picklable) arguments, so the same job runs unchanged in the
parent process or in a worker of a process pool.

A :class:`JobGraph` collects jobs with explicit dependencies and
linearises them into *waves*: lists of jobs whose dependencies are all
satisfied by earlier waves, in submission order.  Dependencies are
ordering constraints (run the profile wave before the mix wave so that
forked pool workers inherit a warm profile store); jobs do not consume
each other's return values — every job is self-contained so it can run
in any process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple


class JobGraphError(ValueError):
    """Raised for malformed job graphs (duplicate keys, missing deps, cycles)."""


@dataclass(frozen=True)
class Job:
    """One unit of work.

    Parameters
    ----------
    key:
        Unique identifier within a graph; results are keyed by it.
    fn:
        A module-level callable (must be picklable for the process-pool
        backend).
    args, kwargs:
        Arguments for ``fn``; must be picklable for the process-pool
        backend.
    deps:
        Keys of jobs that must complete before this one starts.
    kind:
        Free-form label (``"profile"``, ``"simulate"``, ``"predict"``)
        used by progress reporting.
    cache_key:
        Content-hash key for the :class:`~repro.engine.cache.ResultCache`;
        ``None`` disables result caching for this job.
    local:
        Run in the submitting process even under a process-pool backend.
        Used for warm-up work whose side effects (e.g. a warm profile
        store) the forked workers should inherit.
    optional:
        A warm-up job that may be skipped when every job depending on it
        is served from the result cache.
    """

    key: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    deps: Tuple[str, ...] = ()
    kind: str = "job"
    cache_key: Optional[str] = None
    local: bool = False
    optional: bool = False

    def run(self) -> Any:
        return self.fn(*self.args, **self.kwargs)


class JobGraph:
    """An ordered collection of jobs with dependency edges."""

    def __init__(self, jobs: Iterable[Job] = ()) -> None:
        self._jobs: Dict[str, Job] = {}
        for job in jobs:
            self.add(job)

    def add(self, job: Job) -> Job:
        if job.key in self._jobs:
            raise JobGraphError(f"duplicate job key {job.key!r}")
        self._jobs[job.key] = job
        return job

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs.values())

    def __contains__(self, key: str) -> bool:
        return key in self._jobs

    def job(self, key: str) -> Job:
        try:
            return self._jobs[key]
        except KeyError:
            raise JobGraphError(f"no job with key {key!r}") from None

    def validate(self) -> None:
        """Check that every dependency exists (cycles surface in :meth:`waves`)."""
        for job in self:
            for dep in job.deps:
                if dep not in self._jobs:
                    raise JobGraphError(f"job {job.key!r} depends on unknown job {dep!r}")

    def waves(self) -> List[List[Job]]:
        """Topological levels: each wave depends only on earlier waves.

        Jobs keep their submission order within a wave, so execution —
        and therefore result ordering — is deterministic regardless of
        how the graph was assembled.
        """
        self.validate()
        remaining: Dict[str, Job] = dict(self._jobs)
        done: set = set()
        waves: List[List[Job]] = []
        while remaining:
            wave = [job for job in remaining.values() if all(d in done for d in job.deps)]
            if not wave:
                cycle = ", ".join(sorted(remaining))
                raise JobGraphError(f"dependency cycle among jobs: {cycle}")
            waves.append(wave)
            for job in wave:
                done.add(job.key)
                del remaining[job.key]
        return waves
