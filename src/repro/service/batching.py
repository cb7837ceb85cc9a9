"""Micro-batching and in-flight deduplication for predict requests.

Concurrent ``POST /predict`` calls do not each walk into the engine on
their own: the :class:`PredictionBatcher` gathers everything submitted
within a short window (``window`` seconds, flushed early at
``max_batch`` items) into ONE heterogeneous op list and hands it to the
app's batch runner, which turns it into a single engine
:class:`~repro.engine.job.JobGraph` (``ExperimentSetup.predictor_batch``)
on a dedicated worker thread — so the event loop keeps accepting
requests while the engine computes, and N concurrent clients asking
for N different mixes cost one graph, not N.

Identical ``(workload, predictor, mix, machine)`` keys submitted while
a result is still being computed share that computation's future
instead of resubmitting (*in-flight dedup*); once the result lands,
repeats are served by the engine's content-hash
:class:`~repro.engine.cache.ResultCache`, so a warm server recomputes
nothing either way.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor as ThreadExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.config.machine import MachineConfig
from repro.core.result import MixPrediction
from repro.predictors.base import for_machine
from repro.service.stats import ServiceStats
from repro.workloads.mixes import WorkloadMix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.setup import ExperimentSetup


@dataclass(frozen=True)
class PredictOp:
    """One unit of prediction work: which setup, estimator, mix, machine."""

    setup: "ExperimentSetup"
    predictor: str
    mix: WorkloadMix
    machine: MachineConfig

    def key(self) -> Tuple:
        """The in-flight dedup identity (mirrors the engine's cache key)."""
        return (
            self.setup.workload_spec,
            self.predictor,
            self.mix.programs,
            self.machine.profile_key(),
            self.machine.num_cores,
        )


#: The app-side runner: ops in, predictions in the same order out.
BatchRunner = Callable[[Sequence[PredictOp]], List[MixPrediction]]


class BatcherClosed(RuntimeError):
    """Raised into waiters when the service shuts down mid-request."""


class PredictionBatcher:
    """Coalesce concurrent predict submissions into engine batches.

    Parameters
    ----------
    runner:
        Synchronous callable executing one op batch (runs on ``executor``).
    executor:
        A single-thread executor; one batch runs at a time, so the
        engine (which is not thread-safe) is never entered concurrently.
    window:
        Seconds to wait after the first submission before flushing.
    max_batch:
        Flush immediately once this many distinct ops are pending.
    stats:
        Counters to update (batch sizes, dedup hits).
    """

    def __init__(
        self,
        runner: BatchRunner,
        executor: ThreadExecutor,
        window: float = 0.005,
        max_batch: int = 64,
        stats: Optional[ServiceStats] = None,
    ) -> None:
        if window < 0:
            raise ValueError("window must be non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self._runner = runner
        self._executor = executor
        self.window = window
        self.max_batch = max_batch
        self.stats = stats if stats is not None else ServiceStats()
        self._pending: List[Tuple[PredictOp, asyncio.Future]] = []
        self._inflight: Dict[Tuple, asyncio.Future] = {}
        self._flush_task: Optional[asyncio.Task] = None
        self._closed = False

    async def submit(self, op: PredictOp) -> MixPrediction:
        """One prediction; shares work with concurrent identical requests."""
        if self._closed:
            raise BatcherClosed("the prediction service is shutting down")
        key = op.key()
        existing = self._inflight.get(key)
        if existing is not None:
            self.stats.inflight_deduped += 1
            # The key leaves out the machine's name; answer under ours.
            return for_machine(await asyncio.shield(existing), op.machine)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self._pending.append((op, future))
        if len(self._pending) >= self.max_batch:
            # The window timer (if any) will find nothing left to flush.
            asyncio.get_running_loop().create_task(self._flush())
        elif self._flush_task is None or self._flush_task.done():
            self._flush_task = asyncio.get_running_loop().create_task(self._delayed_flush())
        return await asyncio.shield(future)

    async def close(self) -> None:
        """Stop accepting work and fail anything still queued."""
        self._closed = True
        if self._flush_task is not None and not self._flush_task.done():
            self._flush_task.cancel()
            try:
                await self._flush_task
            except asyncio.CancelledError:
                pass
        batch, self._pending = self._pending, []
        for op, future in batch:
            self._inflight.pop(op.key(), None)
            if not future.done():
                future.set_exception(BatcherClosed("the prediction service is shutting down"))

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------

    async def _delayed_flush(self) -> None:
        await asyncio.sleep(self.window)
        await self._flush()

    async def _flush(self) -> None:
        batch, self._pending = self._pending, []
        if not batch:
            return
        ops = [op for op, _ in batch]
        self.stats.record_batch(len(ops))
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(self._executor, self._runner, ops)
        except Exception as error:  # noqa: BLE001 - fan the failure out to every waiter
            for op, future in batch:
                self._inflight.pop(op.key(), None)
                if not future.done():
                    future.set_exception(error)
            return
        for (op, future), prediction in zip(batch, results):
            self._inflight.pop(op.key(), None)
            if not future.done():
                future.set_result(prediction)
