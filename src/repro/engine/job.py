"""Jobs: the unit of work of the experiment engine.

A :class:`Job` is one independent unit of an experiment campaign —
profile this benchmark on these machines, reference-simulate this mix,
MPPM-predict these mixes — expressed as a picklable top-level function
plus its (picklable) arguments, so the same job runs unchanged in the
parent process, in a worker of a process pool or on a fleet worker.
Jobs never consume each other's return values: every job is
self-contained, so a sweep is a flat list of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Tuple


@dataclass(frozen=True)
class Job:
    """One unit of work.

    Parameters
    ----------
    key:
        Unique identifier within one :meth:`Executor.run` call; results
        are keyed by it.
    fn:
        A module-level callable (must be picklable for the process-pool
        backend).
    args, kwargs:
        Arguments for ``fn``; must be picklable for the process-pool
        backend.
    kind:
        Free-form label (``"profile"``, ``"simulate"``, ``"predict"``)
        used by progress reporting.
    cache_key:
        Content-hash key for the :class:`~repro.engine.cache.ResultCache`;
        ``None`` disables result caching for this job.
    """

    key: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    kind: str = "job"
    cache_key: Optional[str] = None

    def run(self) -> Any:
        return self.fn(*self.args, **self.kwargs)
