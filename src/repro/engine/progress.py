"""Progress hooks for the experiment engine.

The executor reports every job's fate through a
:class:`ProgressReporter`: ``"done"`` (computed), ``"cached"`` (served
from the result cache) or ``"shared"`` (deduplicated against an
identical job of the same run).  Reporters are deliberately tiny — the
CLI uses :class:`ConsoleReporter` for a live job counter, tests use
:class:`CollectingReporter` to assert engine behaviour.
"""

from __future__ import annotations

import sys
import time
from typing import List, Optional, TextIO, Tuple

from repro.engine.job import Job


class ProgressReporter:
    """No-op base class; subclasses override any subset of the hooks."""

    def on_start(self, total_jobs: int) -> None:  # pragma: no cover - trivial
        pass

    def on_job(self, job: Job, status: str) -> None:  # pragma: no cover - trivial
        pass

    def on_finish(self) -> None:  # pragma: no cover - trivial
        pass


class CollectingReporter(ProgressReporter):
    """Records every event; used by tests and by callers that poll counts."""

    def __init__(self) -> None:
        self.total_jobs = 0
        self.events: List[Tuple[str, str]] = []
        self.finished = False

    def on_start(self, total_jobs: int) -> None:
        self.total_jobs = total_jobs

    def on_job(self, job: Job, status: str) -> None:
        self.events.append((job.key, status))

    def on_finish(self) -> None:
        self.finished = True

    def count(self, status: str) -> int:
        return sum(1 for _, event_status in self.events if event_status == status)


class ConsoleReporter(ProgressReporter):
    """Live single-line job counter (for ``repro run``)."""

    def __init__(self, stream: Optional[TextIO] = None, label: str = "engine") -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.label = label
        self._total = 0
        self._done = 0
        self._cached = 0
        self._started_at = 0.0

    def on_start(self, total_jobs: int) -> None:
        self._total = total_jobs
        self._done = self._cached = 0
        self._started_at = time.perf_counter()

    def on_job(self, job: Job, status: str) -> None:
        self._done += 1
        if status == "cached":
            self._cached += 1
        self.stream.write(
            f"\r[{self.label}] {self._done}/{self._total} jobs ({self._cached} cached)"
        )
        self.stream.flush()

    def on_finish(self) -> None:
        elapsed = time.perf_counter() - self._started_at
        self.stream.write(
            f"\r[{self.label}] {self._done}/{self._total} jobs "
            f"({self._cached} cached) in {elapsed:.1f}s\n"
        )
        self.stream.flush()
