"""Progress hooks for the experiment engine.

The executor reports every job's fate through a
:class:`ProgressReporter`: ``"done"`` (computed), ``"cached"`` (served
from the result cache) or ``"shared"`` (deduplicated against an
identical job of the same run).  Reporters are deliberately tiny — the
CLI uses :class:`ConsoleReporter` for a live job counter.
"""

from __future__ import annotations

import sys
import time
from typing import Optional, TextIO

from repro.engine.job import Job


class ProgressReporter:
    """No-op base class; subclasses override any subset of the hooks."""

    def on_start(self, total_jobs: int) -> None:  # pragma: no cover - trivial
        pass

    def on_job(self, job: Job, status: str) -> None:  # pragma: no cover - trivial
        pass

    def on_finish(self) -> None:  # pragma: no cover - trivial
        pass


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
