"""What the traced run wraps, and how spans become per-layer metrics.

Each function is wrapped in the namespace its caller resolves it from:
``repro.simulators.multi_core`` imported ``stack_distances`` by name, so
that copy is the detailed interleave's; ``replay_hierarchy`` calls
``stack_distances`` through the ``repro.caches.vectorized`` globals, so
that copy is the LLC's (calls made inside ``replay_private_levels`` stay
part of the private replay).  Model-level counts are read from public
surfaces: ``MixPrediction.iterations``/``converged``,
``ProfileStore.simulated_profiles`` and ``ResultCache.stats()``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Tuple

from tracer import Tracer

#: The six experiments of ``repro run``, by the function each calls.
EXPERIMENTS = (
    ("repro.experiments.workload_space", "workload_space_report", "space"),
    ("repro.experiments.variability", "variability_experiment", "variability"),
    ("repro.experiments.accuracy", "accuracy_experiment", "accuracy"),
    ("repro.experiments.ranking", "ranking_experiment", "ranking"),
    ("repro.experiments.agreement", "agreement_experiment", "agreement"),
    ("repro.experiments.stress", "stress_experiment", "stress"),
)

#: Per-layer metrics in report order: (name, unit, better).
PER_LAYER: List[Tuple[str, str, str]] = [
    ("workloads.generate.calls", "count", "lower"),
    ("workloads.generate.self_s", "s", "lower"),
    ("workloads.generate.distinct_ratio", "ratio", "higher"),
    ("caches.replay_private_levels.calls", "count", "lower"),
    ("caches.replay_private_levels.self_s", "s", "lower"),
    ("caches.replay_private_levels.distinct_ratio", "ratio", "higher"),
    ("caches.stack_distances.llc.self_s", "s", "lower"),
    ("simulators.single_core.run.self_s", "s", "lower"),
    ("simulators.multi_core.run.calls", "count", "lower"),
    ("simulators.multi_core.run.total_s", "s", "lower"),
    ("simulators.multi_core.run.self_s", "s", "lower"),
    ("simulators.multi_core.minstr_per_s", "Minstr/s", "higher"),
    ("caches.stack_distances.interleave.calls", "count", "lower"),
    ("caches.stack_distances.interleave.self_s", "s", "lower"),
    ("caches.stack_distances.interleave.elements", "count", "lower"),
    ("core.mppm.predict_batch.calls", "count", "lower"),
    ("core.mppm.predict_batch.self_s", "s", "lower"),
    ("core.mppm.mixes", "count", "higher"),
    ("core.mppm.iterations_per_mix", "count", "lower"),
    ("core.mppm.unconverged", "count", "lower"),
    ("contention.foa.estimate_batch.self_s", "s", "lower"),
    ("contention.sdc.estimate_batch.self_s", "s", "lower"),
    ("contention.prob.estimate_batch.self_s", "s", "lower"),
    ("experiments.setup.predictor_batch.self_s", "s", "lower"),
    ("engine.executor.run.calls", "count", "lower"),
    ("engine.executor.run.self_s", "s", "lower"),
    ("profiling.store.get_profile.calls", "count", "lower"),
    ("profiling.store.get_profile.self_s", "s", "lower"),
    ("profiling.store.simulated", "count", "lower"),
    ("profiling.store.hit_ratio", "ratio", "higher"),
    ("engine.cache.get.calls", "count", "lower"),
    ("engine.cache.get.self_s", "s", "lower"),
    ("engine.cache.put.calls", "count", "lower"),
    ("engine.cache.put.self_s", "s", "lower"),
    ("engine.cache.hit_ratio", "ratio", "higher"),
    ("engine.remote.client.run.calls", "count", "lower"),
    ("engine.remote.client.run.total_s", "s", "lower"),
    ("engine.remote.encode_job.self_s", "s", "lower"),
    ("engine.remote.decode_result.self_s", "s", "lower"),
    ("engine.remote.request_bytes", "bytes", "lower"),
    ("engine.remote.cache_query.total_s", "s", "lower"),
    ("engine.remote.workers.received", "count", "lower"),
    ("engine.remote.workers.executed", "count", "lower"),
    ("service.handle.calls", "count", "lower"),
    ("service.handle.self_s", "s", "lower"),
    ("service.batcher.submit.total_s", "s", "lower"),
    ("service.batch.mean_size", "count", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.top_level_coverage", "ratio", "higher"),
]


def install_experiments(tracer: Tracer) -> None:
    """Span each ``repro run`` experiment; keep the accuracy errors."""
    import importlib

    for module_name, function, label in EXPERIMENTS:
        module = importlib.import_module(module_name)
        after = _accuracy_errors if label == "accuracy" else None
        tracer.wrap(module, function, f"experiments.{label}", after=after)


def _accuracy_errors(tracer: Tracer, _state: Any, result: Any, *args: Any, **kwargs: Any) -> None:
    evaluations = [
        evaluation
        for entry in result.per_core_count
        if entry.predictor == "mppm:foa"
        for evaluation in entry.evaluations
    ]
    if evaluations:
        count = len(evaluations)
        tracer.add("accuracy.mixes", count)
        tracer.add("accuracy.stp_err_pct", 100.0 * sum(e.stp_error for e in evaluations) / count)
        tracer.add("accuracy.antt_err_pct", 100.0 * sum(e.antt_error for e in evaluations) / count)


def _replay_key(lines: Any, machine: Any) -> Tuple[str, str]:
    digest = hashlib.blake2b(memoryview(lines.astype("int64")), digest_size=16).hexdigest()
    return digest, repr(machine.private_levels)


def _count_instructions(tracer: Tracer, _state: Any, result: Any, *args: Any, **kwargs: Any) -> None:
    tracer.add(
        "simulators.multi_core.instructions",
        sum(program.num_instructions for program in result.programs),
    )


def _count_elements(tracer: Tracer, _state: Any, _result: Any, lines: Any, *args: Any, **kwargs: Any) -> None:
    tracer.add("caches.stack_distances.interleave.elements", len(lines))


def _count_solves(tracer: Tracer, _state: Any, predictions: Any, *args: Any, **kwargs: Any) -> None:
    tracer.add("core.mppm.mixes", len(predictions))
    tracer.add("core.mppm.iterations", sum(p.iterations for p in predictions))
    tracer.add("core.mppm.unconverged", sum(1 for p in predictions if not p.converged))


def _store_state(tracer: Tracer, store: Any, *args: Any, **kwargs: Any) -> int:
    return store.simulated_profiles + store.loaded_profiles


def _count_store_hit(tracer: Tracer, before: int, _result: Any, store: Any, *args: Any, **kwargs: Any) -> None:
    if store.simulated_profiles + store.loaded_profiles == before:
        tracer.add("profiling.store.get_profile.hits")


def _count_request_bytes(tracer: Tracer, _state: Any, _result: Any, _client: Any, payload: Any, *args: Any, **kwargs: Any) -> None:
    tracer.add("engine.remote.request_bytes", len(json.dumps(payload).encode("utf-8")))


def _worker_stats(tracer: Tracer, backend: Any, *args: Any, **kwargs: Any) -> None:
    """Read each live worker's ``/stats`` before the fleet shuts it down."""
    from repro.engine.remote.client import WorkerClient
    from repro.engine.remote.errors import WorkerTransportError

    for worker in backend.stats()["workers"]:
        if not worker["alive"]:
            continue
        try:
            stats = WorkerClient(worker["url"]).stats()
        except WorkerTransportError:
            continue
        tracer.add("engine.remote.workers.received", stats["received"])
        tracer.add("engine.remote.workers.executed", stats["executed"])
        tracer.instances["worker_stats"].append(stats)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from repro.caches import vectorized
    from repro.contention import foa, prob, sdc_competition
    from repro.core import mppm
    from repro.engine import cache, executor
    from repro.engine.remote import backend, client
    from repro.experiments import setup
    from repro.profiling import store
    from repro.service import app, batching
    from repro.simulators import multi_core, single_core
    from repro.workloads import generator

    wrap = tracer.wrap
    wrap(
        generator.TraceGenerator,
        "generate",
        "workloads.generate",
        key=lambda gen, spec, *args, **kwargs: (gen.num_instructions, gen.seed, spec),
    )
    for namespace in (vectorized, single_core):
        wrap(namespace, "replay_private_levels", "caches.replay_private_levels", key=_replay_key)
    wrap(
        vectorized,
        "stack_distances",
        "caches.stack_distances.llc",
        skip_under=("caches.replay_private_levels",),
    )
    wrap(single_core.SingleCoreSimulator, "run", "simulators.single_core.run")
    wrap(multi_core.MultiCoreSimulator, "run", "simulators.multi_core.run", after=_count_instructions)
    wrap(multi_core, "stack_distances", "caches.stack_distances.interleave", after=_count_elements)
    wrap(mppm.MPPM, "predict_batch", "core.mppm.predict_batch", after=_count_solves)
    wrap(foa.FOAModel, "estimate_batch", "contention.foa.estimate_batch")
    wrap(sdc_competition.StackDistanceCompetitionModel, "estimate_batch", "contention.sdc.estimate_batch")
    wrap(prob.InductiveProbabilityModel, "estimate_batch", "contention.prob.estimate_batch")
    wrap(setup.ExperimentSetup, "predictor_batch", "experiments.setup.predictor_batch")
    wrap(executor.Executor, "run", "engine.executor.run")
    wrap(
        store.ProfileStore,
        "get_profile",
        "profiling.store.get_profile",
        before=_store_state,
        after=_count_store_hit,
    )
    wrap(cache.ResultCache, "get", "engine.cache.get")
    wrap(cache.ResultCache, "put", "engine.cache.put")
    wrap(client.WorkerClient, "run", "engine.remote.client.run", after=_count_request_bytes)
    wrap(client.WorkerClient, "cache_query", "engine.remote.cache_query")
    wrap(backend, "encode_job", "engine.remote.encode_job")
    wrap(backend, "decode_result", "engine.remote.decode_result")
    wrap(backend.FleetBackend, "close", "engine.remote.close", before=_worker_stats)
    wrap(app.PredictionService, "handle", "service.handle")
    wrap(batching.PredictionBatcher, "submit", "service.batcher.submit")
    tracer.track_instances(store.ProfileStore, "profile_store")
    tracer.track_instances(cache.ResultCache, "result_cache")


def collect(tracer: Tracer) -> None:
    """Fold the tracked instances' public counters into the tracer's counters."""
    tracer.add(
        "profiling.store.simulated",
        sum(s.simulated_profiles for s in tracer.instances["profile_store"]),
    )
    for result_cache in tracer.instances["result_cache"]:
        stats = result_cache.stats()
        tracer.add("engine.cache.hits", stats["hits"])
        tracer.add("engine.cache.misses", stats["misses"])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    summary: Dict[str, Dict[str, float]],
    counters: Dict[str, float],
    distinct: Dict[str, int],
) -> Dict[str, float]:
    """Every per-layer metric (0 where the workload never reaches the layer)."""
    out: Dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("calls", "total_s", "self_s") and span in summary:
            out[name] = summary[span][field]
        elif name in counters:
            out[name] = counters[name]
        else:
            out[name] = 0.0
    for span in ("workloads.generate", "caches.replay_private_levels"):
        calls = summary.get(span, {}).get("calls", 0)
        out[f"{span}.distinct_ratio"] = _ratio(distinct.get(span, 0), calls)
    interleave = summary.get("simulators.multi_core.run", {}).get("total_s", 0.0)
    out["simulators.multi_core.minstr_per_s"] = _ratio(
        counters.get("simulators.multi_core.instructions", 0.0) / 1e6, interleave
    )
    out["core.mppm.iterations_per_mix"] = _ratio(
        counters.get("core.mppm.iterations", 0.0), counters.get("core.mppm.mixes", 0.0)
    )
    out["profiling.store.hit_ratio"] = _ratio(
        counters.get("profiling.store.get_profile.hits", 0.0),
        summary.get("profiling.store.get_profile", {}).get("calls", 0),
    )
    hits = counters.get("engine.cache.hits", 0.0)
    out["engine.cache.hit_ratio"] = _ratio(hits, hits + counters.get("engine.cache.misses", 0.0))
    return out
