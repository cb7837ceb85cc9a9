"""Live service counters: requests, batching, dedup and latency percentiles.

Everything ``GET /stats`` reports that the engine does not already
count lives here.  The counters are plain ints mutated only from the
event loop's thread (batches run there too), so no locking is needed.
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Deque, Dict, List


class LatencyTracker:
    """A bounded reservoir of request latencies with percentile summaries."""

    def __init__(self, maxlen: int = 8192) -> None:
        self._seconds: Deque[float] = deque(maxlen=maxlen)
        self.count = 0

    def record(self, seconds: float) -> None:
        self._seconds.append(seconds)
        self.count += 1

    @staticmethod
    def _percentile(sorted_ms: List[float], percentile: float) -> float:
        # Nearest-rank: the smallest value with at least `percentile`
        # per cent of the sample at or below it.
        rank = max(1, math.ceil(percentile / 100.0 * len(sorted_ms)))
        return sorted_ms[rank - 1]

    def summary(self) -> Dict[str, float]:
        """count / mean / p50 / p95 / p99, in milliseconds."""
        if not self._seconds:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        sorted_ms = sorted(value * 1000.0 for value in self._seconds)
        return {
            "count": self.count,
            "mean": sum(sorted_ms) / len(sorted_ms),
            "p50": self._percentile(sorted_ms, 50),
            "p95": self._percentile(sorted_ms, 95),
            "p99": self._percentile(sorted_ms, 99),
        }


class ServiceStats:
    """Counters behind ``GET /stats``."""

    def __init__(self) -> None:
        self.started = time.monotonic()
        self.requests: Dict[str, int] = {}
        self.errors = 0
        #: Predictions returned to clients (cache hits included).
        self.predictions_served = 0
        #: Predictions actually computed (engine result-cache stores) —
        #: a warm server answers with this number standing still.
        self.predictions_computed = 0
        #: Concurrent identical requests folded onto an in-flight future.
        self.inflight_deduped = 0
        self.batches = 0
        self.batch_items = 0
        self.max_batch_size = 0
        #: Per-predictor solve counters: spec -> batches/items/max_size
        #: and cumulative solve time (seconds, wall clock of the engine
        #: run for that predictor's slice of each coalesced batch).
        self.predictor_batches: Dict[str, Dict[str, float]] = {}
        self.latency = LatencyTracker()

    def record_request(self, endpoint: str) -> None:
        self.requests[endpoint] = self.requests.get(endpoint, 0) + 1

    def record_batch(self, size: int) -> None:
        self.batches += 1
        self.batch_items += size
        self.max_batch_size = max(self.max_batch_size, size)

    def record_predictor_batch(self, predictor: str, size: int, seconds: float) -> None:
        entry = self.predictor_batches.setdefault(
            predictor, {"batches": 0, "items": 0, "max_size": 0, "solve_seconds": 0.0}
        )
        entry["batches"] += 1
        entry["items"] += size
        entry["max_size"] = max(entry["max_size"], size)
        entry["solve_seconds"] += seconds

    def uptime_seconds(self) -> float:
        return time.monotonic() - self.started

    def snapshot(self) -> Dict:
        """The stats payload (engine cache counters are merged in by the app)."""
        return {
            "uptime_seconds": self.uptime_seconds(),
            "requests": {"total": sum(self.requests.values()), "errors": self.errors, **self.requests},
            "predictions": {
                "served": self.predictions_served,
                "computed": self.predictions_computed,
                "inflight_deduped": self.inflight_deduped,
            },
            "batches": {
                "count": self.batches,
                "items": self.batch_items,
                "max_size": self.max_batch_size,
                "mean_size": self.batch_items / self.batches if self.batches else 0.0,
            },
            "predictors": {
                spec: {
                    "batches": entry["batches"],
                    "items": entry["items"],
                    "max_size": entry["max_size"],
                    "mean_size": entry["items"] / entry["batches"]
                    if entry["batches"]
                    else 0.0,
                    "solve_time_ms": entry["solve_seconds"] * 1000.0,
                }
                for spec, entry in sorted(self.predictor_batches.items())
            },
            "latency_ms": self.latency.summary(),
        }
