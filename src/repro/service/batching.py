"""Micro-batching and in-flight deduplication for predict requests.

Concurrent ``POST /predict`` calls do not each walk into the engine on
their own: the :class:`PredictionBatcher` hands everything pending to
the app's batch runner as ONE heterogeneous op list, which the runner
turns into one engine sweep — a single flat job list
(``ExperimentSetup.predictor_batch``) — called on the event loop: the
engine is only ever entered from one thread, with no thread hop per
request.  While a batch runs, every other request (``/healthz``
included) waits for it; ``max_batch`` bounds that wait.

There is no batching timer.  A submission to an idle batcher flushes
on the next event-loop turn, so a lone request waits for nothing, and
the ops of one multi-mix request (submitted in the same turn) share
that batch.  Whatever arrives while a batch runs becomes the next
batch, so N clients waiting on one computation cost one sweep, not N;
``max_batch`` caps a batch and the overflow runs next, with one loop
turn in between for other connections.

Identical ``(workload, predictor, mix, machine)`` keys submitted while
a result is still being computed share that computation's future
instead of resubmitting (*in-flight dedup*); once the result lands,
repeats are served by the engine's content-hash
:class:`~repro.engine.cache.ResultCache`, so a warm server recomputes
nothing either way.
"""

from __future__ import annotations

import asyncio
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
        Synchronous callable executing one op batch on the event loop.
    max_batch:
        The most distinct ops one batch takes; the rest wait for the next.
    stats:
        Counters to update (batch sizes, dedup hits).
    """

    def __init__(
        self,
        runner: BatchRunner,
        max_batch: int = 64,
        stats: Optional[ServiceStats] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self._runner = runner
        self.max_batch = max_batch
        self.stats = stats if stats is not None else ServiceStats()
        self._pending: List[Tuple[PredictOp, asyncio.Future]] = []
        self._inflight: Dict[Tuple, asyncio.Future] = {}
        self._drain_task: Optional[asyncio.Task] = None
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
        if self._drain_task is None or self._drain_task.done():
            # Idle: start draining on the next loop turn, after the other
            # submissions of this turn have joined the queue.
            self._drain_task = asyncio.get_running_loop().create_task(self._drain())
        return await asyncio.shield(future)

    async def close(self) -> None:
        """Stop accepting work and fail anything still queued.

        Batches run on the loop, so every op is answered or still queued.
        """
        self._closed = True
        batch, self._pending = self._pending, []
        for op, future in batch:
            self._inflight.pop(op.key(), None)
            if not future.done():
                future.set_exception(BatcherClosed("the prediction service is shutting down"))
        if self._drain_task is not None:
            await self._drain_task

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------

    async def _drain(self) -> None:
        """Run batches back to back until nothing is pending."""
        while self._pending:
            batch = self._pending[: self.max_batch]
            del self._pending[: self.max_batch]
            self._run(batch)
            if self._pending:
                # Overflow: one loop turn for the other connections first.
                await asyncio.sleep(0)

    def _run(self, batch: List[Tuple[PredictOp, asyncio.Future]]) -> None:
        ops = [op for op, _ in batch]
        self.stats.record_batch(len(ops))
        try:
            results = self._runner(ops)
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
