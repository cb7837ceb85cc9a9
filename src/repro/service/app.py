"""The prediction service: registry-backed HTTP endpoints over the engine.

:class:`PredictionService` owns one shared, memoising engine and a lazy
family of :class:`~repro.experiments.setup.ExperimentSetup` objects (one
per workload spec requested), and serves:

* ``POST /predict`` — MPPM (or baseline / detailed) predictions for an
  explicit mix, a list of mixes, or a sampled batch; body fields are
  the same spec strings the CLI takes (``predictor``, ``workload``,
  ``machine``).
* ``GET /models`` / ``GET /workloads`` — the registries, exactly the
  payloads of ``repro models --json`` / ``repro workloads --json``.
* ``GET /healthz`` — liveness (and readiness: the server only starts
  listening after the profile preload finished).
* ``GET /stats`` — live counters: requests, batching, in-flight dedup,
  engine cache hits, latency percentiles.
* ``POST /shutdown`` — clean shutdown (used by the CI smoke test).

Single-core profiles are bundled into the shared
:class:`~repro.profiling.ProfileStore` once at startup
(:meth:`PredictionService.start` preloads the configured workload
before it listens); predictions are computed through the batching
layer and remembered by the engine's content-hash result cache, so a
warm server recomputes nothing.  Everything runs on the event loop's
thread: a batch holds the loop while it computes, so other requests
(``/healthz`` included) wait for it, and ``max_batch`` bounds that wait.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.config import MachineConfig
from repro.engine import create_engine
from repro.experiments.setup import ExperimentConfig, ExperimentSetup
from repro.predictors import DEFAULT_PREDICTOR, canonical_spec
from repro.service.batching import PredictionBatcher, PredictOp
from repro.service.http import HttpError, HttpServer, Request, Response
from repro.service.payloads import models_payload, prediction_payload, workloads_payload
from repro.service.stats import ServiceStats
from repro.specs import SpecError
from repro.workloads import DEFAULT_WORKLOAD, WorkloadMix, canonical_workload_spec
from repro.workloads.benchmark import WorkloadError


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can turn into a running service."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Engine worker count (1 → serial; the batcher still coalesces) or
    #: a ``fleet:`` spec string for a multi-host worker fleet
    #: (``repro serve --fleet``; see :mod:`repro.engine.remote`).
    jobs: Union[int, str] = 1
    #: Campaign cache directory; ``None`` keeps memoisation in memory.
    cache_dir: Optional[Union[str, Path]] = None
    #: The workload preloaded at startup and used when a request names none.
    workload: str = DEFAULT_WORKLOAD
    #: The most mixes one engine batch takes (see :mod:`repro.service.batching`).
    max_batch: int = 64
    #: Experiment knobs — must match the CLI defaults so served
    #: predictions are bit-identical to ``repro predict``.
    instructions: int = 200_000
    scale: int = 16
    seed: int = 0
    #: Skip the startup profile preload (tests; cold-start benchmarks).
    preload: bool = True

    def experiment_config(self) -> ExperimentConfig:
        # Mirrors the CLI's `_build_setup`: 50 intervals per trace.
        return ExperimentConfig(
            scale=self.scale,
            num_instructions=self.instructions,
            interval_instructions=max(1, self.instructions // 50),
            seed=self.seed,
        )


def _integer(value: object, field: str) -> int:
    """A JSON integer request field; fractions and booleans are a 400."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise HttpError(400, f"'{field}' must be an integer, got {json.dumps(value)}")
    return value


class PredictionService:
    """The handler behind the HTTP server (usable without it, too)."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.stats = ServiceStats()
        self.engine = create_engine(
            jobs=self.config.jobs, cache_dir=self.config.cache_dir, memory_cache=True
        )
        self._experiment_config = self.config.experiment_config()
        self._setups: Dict[str, ExperimentSetup] = {}
        self.batcher = PredictionBatcher(self._run_batch, self.config.max_batch, self.stats)
        self.server = HttpServer(self.handle, host=self.config.host, port=self.config.port)
        self.shutdown_event = asyncio.Event()
        self.preloaded_profiles = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "PredictionService":
        """Preload profiles, then start listening (ready when returning)."""
        if self.config.preload:
            setup = self._setup_for(self.config.workload)
            self.preloaded_profiles = setup.store.preload(setup.suite, setup.machine())
        await self.server.start()
        return self

    async def close(self) -> None:
        await self.batcher.close()
        await self.server.close()
        # Every setup shares this engine; closing it here also stops a
        # fleet's workers when no setup was ever built (`--no-preload`).
        self.engine.close()

    @property
    def port(self) -> int:
        return self.server.port

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        endpoint = f"{request.method} {request.path}"
        self.stats.record_request(endpoint)
        try:
            return await self._route(request)
        except HttpError:
            self.stats.errors += 1
            raise

    async def _route(self, request: Request) -> Response:
        path, method = request.path.rstrip("/") or "/", request.method
        if path == "/predict":
            if method != "POST":
                raise HttpError(405, "use POST /predict")
            return await self._handle_predict(request)
        if path == "/shutdown":
            if method != "POST":
                raise HttpError(405, "use POST /shutdown")
            self.shutdown_event.set()
            return Response({"status": "shutting down"})
        if method != "GET":
            raise HttpError(405, f"{method} is not supported on {path}")
        if path == "/":
            return Response(
                {
                    "service": "repro prediction service",
                    "endpoints": [
                        "POST /predict",
                        "GET /models",
                        "GET /workloads",
                        "GET /healthz",
                        "GET /stats",
                        "POST /shutdown",
                    ],
                }
            )
        if path == "/healthz":
            return Response(
                {
                    "status": "ok",
                    "uptime_seconds": self.stats.uptime_seconds(),
                    "preloaded_profiles": self.preloaded_profiles,
                }
            )
        if path == "/models":
            return Response(models_payload())
        if path == "/workloads":
            return Response(workloads_payload())
        if path == "/stats":
            return Response(self.stats_payload())
        raise HttpError(404, f"unknown path {request.path}")

    def stats_payload(self) -> Dict:
        payload = self.stats.snapshot()
        payload["engine_cache"] = self.engine.cache_stats()
        backend = self.engine.backend
        if hasattr(backend, "stats"):
            # Fleet backends expose per-worker dispatch/cache counters.
            payload["fleet"] = backend.stats()
        payload["profiles"] = {
            spec: setup.store.cached_pairs() for spec, setup in sorted(self._setups.items())
        }
        payload["config"] = {
            "workload": canonical_workload_spec(self.config.workload),
            "jobs": self.config.jobs,
            "max_batch": self.config.max_batch,
        }
        return payload

    # ------------------------------------------------------------------
    # /predict
    # ------------------------------------------------------------------

    async def _handle_predict(self, request: Request) -> Response:
        started = time.monotonic()
        payload = request.json()
        predictor, setup, mixes, machines, single, llc_config = self._parse_predict(payload)
        ops = [
            PredictOp(setup=setup, predictor=predictor, mix=mix, machine=machine)
            for mix, machine in zip(mixes, machines)
        ]
        predictions = await asyncio.gather(*(self.batcher.submit(op) for op in ops))
        self.stats.predictions_served += len(predictions)
        self.stats.latency.record(time.monotonic() - started)
        body: Dict = {
            "predictor": predictor,
            "workload": setup.workload_spec,
            "machine": {
                "llc_config": llc_config,
                "cores": [machine.num_cores for machine in machines],
            },
            "mixes": [list(mix.programs) for mix in mixes],
            "count": len(predictions),
            "predictions": [prediction_payload(prediction) for prediction in predictions],
        }
        if single:
            body["prediction"] = body["predictions"][0]
        return Response(body)

    def _parse_predict(
        self, payload: Dict
    ) -> Tuple[str, ExperimentSetup, List[WorkloadMix], List[MachineConfig], bool, int]:
        known = {"predictor", "workload", "mix", "mixes", "sample", "machine"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise HttpError(
                400, f"unknown field(s) {', '.join(unknown)}; expected {', '.join(sorted(known))}"
            )
        try:
            predictor = canonical_spec(str(payload.get("predictor", DEFAULT_PREDICTOR)))
            setup = self._setup_for(str(payload.get("workload", self.config.workload)))
        except (SpecError, WorkloadError) as error:
            raise HttpError(400, str(error)) from None
        mixes, single = self._parse_mixes(payload, setup)
        llc_config, cores = self._parse_machine(payload.get("machine"))
        machines = []
        for mix in mixes:
            if cores is not None and cores != mix.num_programs:
                raise HttpError(
                    400,
                    f"machine cores ({cores}) must match the mix size "
                    f"({mix.num_programs}) — each program runs on its own core",
                )
            try:
                machines.append(setup.machine(num_cores=mix.num_programs, llc_config=llc_config))
            except KeyError as error:
                raise HttpError(400, str(error).strip('"')) from None
        return predictor, setup, mixes, machines, single, llc_config

    def _parse_mixes(
        self, payload: Dict, setup: ExperimentSetup
    ) -> Tuple[List[WorkloadMix], bool]:
        given = [field for field in ("mix", "mixes", "sample") if field in payload]
        if len(given) != 1:
            raise HttpError(400, "provide exactly one of 'mix', 'mixes' or 'sample'")
        field = given[0]
        if field == "sample":
            return self._sample_mixes(payload["sample"], setup), False
        raw = payload[field]
        rows = [raw] if field == "mix" else raw
        if not isinstance(rows, list) or not rows:
            raise HttpError(400, f"'{field}' must be a non-empty list")
        mixes = [self._mix_from(row, setup) for row in rows]
        return mixes, field == "mix"

    def _mix_from(self, row: object, setup: ExperimentSetup) -> WorkloadMix:
        if (
            not isinstance(row, list)
            or not row
            or not all(isinstance(name, str) for name in row)
        ):
            raise HttpError(400, "a mix must be a non-empty list of benchmark names")
        names = setup.benchmark_names
        unknown = sorted(set(row) - set(names))
        if unknown:
            raise HttpError(
                400,
                f"unknown benchmark(s) {', '.join(unknown)} in workload "
                f"{setup.workload_spec}; valid names: {', '.join(names)}",
            )
        return WorkloadMix(programs=tuple(row))

    def _sample_mixes(self, spec: object, setup: ExperimentSetup) -> List[WorkloadMix]:
        if not isinstance(spec, dict):
            raise HttpError(
                400, "'sample' must be an object like {'programs': 4, 'count': 3, 'seed': 0}"
            )
        programs = _integer(spec.get("programs", 4), "sample.programs")
        count = _integer(spec.get("count", 1), "sample.count")
        seed = _integer(spec.get("seed", 0), "sample.seed")
        unique = bool(spec.get("unique", True))
        category = spec.get("category")
        if programs < 1 or count < 1:
            raise HttpError(400, "'programs' and 'count' must be positive")
        try:
            return setup.mixes(programs, count, seed=seed, unique=unique, category=category)
        except WorkloadError as error:
            raise HttpError(400, str(error)) from None

    @staticmethod
    def _parse_machine(value: object) -> Tuple[int, Optional[int]]:
        """``machine`` field → (llc_config, explicit cores or None).

        Accepts nothing (LLC #1), an int, ``"llcN"``/``"N"`` strings, or
        ``{"llc_config": N, "cores": M}``.
        """
        if value is None:
            return 1, None
        if isinstance(value, bool):
            raise HttpError(400, "'machine' must be an LLC configuration number or object")
        if isinstance(value, int):
            return value, None
        if isinstance(value, str):
            text = value.strip().lower()
            if text.startswith("llc"):
                text = text[3:]
            try:
                return int(text), None
            except ValueError:
                raise HttpError(
                    400, f"unknown machine spec {value!r}; use an LLC number like 1 or 'llc3'"
                ) from None
        if isinstance(value, dict):
            unknown = sorted(set(value) - {"llc_config", "cores"})
            if unknown:
                raise HttpError(
                    400,
                    f"unknown machine field(s) {', '.join(unknown)}; "
                    "expected llc_config, cores",
                )
            llc_config = _integer(value.get("llc_config", 1), "machine.llc_config")
            cores = _integer(value["cores"], "machine.cores") if "cores" in value else None
            return llc_config, cores
        raise HttpError(400, "'machine' must be an LLC configuration number or object")

    # ------------------------------------------------------------------
    # Engine side
    # ------------------------------------------------------------------

    def _setup_for(self, workload: str) -> ExperimentSetup:
        spec = canonical_workload_spec(workload)
        setup = self._setups.get(spec)
        if setup is None:
            setup = ExperimentSetup(
                config=self._experiment_config,
                workload=spec,
                engine=self.engine,
                cache_dir=self.config.cache_dir,
            )
            self._setups[spec] = setup
        return setup

    def _run_batch(self, ops: Sequence[PredictOp]) -> List:
        """Execute one coalesced batch (on the event loop, one at a time).

        Ops are grouped by (workload setup, predictor) — each group
        becomes one engine sweep via ``predictor_batch``, so a
        homogeneous ``mppm:*`` group rides the batched solver as one
        mix-major pass — and results are reassembled in submission
        order.  Each group's size and wall-clock solve time feed the
        per-predictor ``/stats`` counters.  Compute accounting is by
        result-cache store delta: entries the engine had to create
        during this batch are computed work, everything else was
        memoised.
        """
        stores_before = self.engine.cache_stats()["stores"]
        groups: Dict[Tuple[str, str], List[int]] = {}
        for index, op in enumerate(ops):
            groups.setdefault((op.setup.workload_spec, op.predictor), []).append(index)
        results: List = [None] * len(ops)
        for (_, predictor), indices in groups.items():
            setup = ops[indices[0]].setup
            started = time.perf_counter()
            predictions = setup.predictor_batch(
                [(predictor, ops[i].mix, ops[i].machine) for i in indices]
            )
            self.stats.record_predictor_batch(
                predictor, len(indices), time.perf_counter() - started
            )
            for index, prediction in zip(indices, predictions):
                results[index] = prediction
        self.stats.predictions_computed += (
            self.engine.cache_stats()["stores"] - stores_before
        )
        return results
