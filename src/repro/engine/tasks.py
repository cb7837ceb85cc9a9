"""Picklable experiment tasks and their job constructors.

A job that must run in a process-pool worker cannot close over an
:class:`~repro.experiments.setup.ExperimentSetup` (the setup holds
caches, a profiler and possibly a process pool of its own).  Instead,
every task carries the setup's *recipe* — its token, its
:class:`ExperimentConfig`, its suite, its workload spec string and its
cache directory — and resolves it through a per-process registry:

* in the submitting process (serial backend) the token maps to the
  live setup, so in-memory caches keep working exactly as for the
  inline code paths;
* in a forked pool worker the registry — including the live setup and
  every profile it had already computed — is inherited at fork time;
* in a fleet worker (forked loopback workers first drop what they
  inherited, :func:`forget_setups`), a spawned worker, or a fork that
  predates the setup, the setup is rebuilt once from the recipe and
  reused for every subsequent task the worker executes; with a cache
  directory configured it loads profiles from disk instead of
  re-simulating them.

The ``*_job`` constructors build :class:`~repro.engine.job.Job` objects
with content-hash cache keys covering everything the result depends on:
machine configuration, workload spec, benchmark/mix specification,
predictor spec, trace length and seed.
"""

from __future__ import annotations

import itertools
import os
import weakref
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.engine.cache import content_key
from repro.engine.job import Job

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config.machine import MachineConfig
    from repro.core.result import MixPrediction
    from repro.experiments.setup import ExperimentConfig, ExperimentSetup
    from repro.profiling.profiler import ProfileBundle
    from repro.simulators.multi_core import MultiCoreRunResult
    from repro.workloads.benchmark import BenchmarkSpec
    from repro.workloads.mixes import WorkloadMix
    from repro.workloads.suite import BenchmarkSuite

#: Setups registered by the parent process (weak: tests create many).
_REGISTERED: "weakref.WeakValueDictionary[str, ExperimentSetup]" = weakref.WeakValueDictionary()
#: Setups reconstructed inside a worker process (strong: reused across tasks).
_RECONSTRUCTED: dict = {}
_TOKENS = itertools.count()


def register_setup(setup: "ExperimentSetup") -> str:
    """Register a live setup; returns the token tasks use to find it."""
    token = f"setup-{os.getpid()}-{next(_TOKENS)}"
    _REGISTERED[token] = setup
    return token


def forget_setups() -> None:
    """Drop every registered and rebuilt setup (a freshly forked fleet worker).

    The worker then rebuilds each setup from its job recipe, as a worker
    on another host does, instead of sharing driver state that another
    driver thread may have been mutating at fork time.
    """
    _REGISTERED.clear()
    _RECONSTRUCTED.clear()


def _resolve_setup(
    token: str,
    config: "ExperimentConfig",
    suite: "BenchmarkSuite",
    workload_spec: str,
    cache_dir: Optional[str],
) -> "ExperimentSetup":
    setup = _REGISTERED.get(token)
    if setup is None:
        setup = _RECONSTRUCTED.get(token)
    if setup is None:
        from repro.experiments.setup import ExperimentSetup
        from repro.workloads import RegisteredWorkload

        # The shipped suite object is authoritative; the spec string
        # keeps cache keys and profile files identical to the parent's.
        workload = RegisteredWorkload(
            workload_spec, f"workload {workload_spec}", lambda: suite
        )
        setup = ExperimentSetup(
            config=config, suite=suite, workload=workload, cache_dir=cache_dir
        )
        _RECONSTRUCTED[token] = setup
    return setup


def reconstructed_store_stats() -> Dict[str, int]:
    """Profile-store counters summed over the setups rebuilt in this process.

    A fleet worker's ``/stats`` reports these: how many profiles and LLC
    traces its jobs simulated and how many they loaded from the cache.
    """
    stores = [setup.store for setup in list(_RECONSTRUCTED.values())]
    names = ("simulated_profiles", "loaded_profiles", "generated_traces", "loaded_traces")
    return {name: sum(getattr(store, name) for store in stores) for name in names}


# ---------------------------------------------------------------------------
# Task functions (top-level, picklable)
# ---------------------------------------------------------------------------


def profile_bundle_task(
    token: str,
    config: "ExperimentConfig",
    suite: "BenchmarkSuite",
    workload_spec: str,
    cache_dir: Optional[str],
    spec: "BenchmarkSpec",
    machines: Tuple["MachineConfig", ...],
) -> "ProfileBundle":
    """Profile one benchmark on several machines; return its :class:`ProfileBundle`.

    The profile step (:meth:`ExperimentSetup.profile_pairs`) absorbs it
    into the submitting process's store.  The trace and private replay
    are paid once per benchmark, and the bundle carries that stage-1
    result too, so no later LLC pays them again.
    """
    setup = _resolve_setup(token, config, suite, workload_spec, cache_dir)
    return setup.store.bundle(spec, machines)


def simulate_task(
    token: str,
    config: "ExperimentConfig",
    suite: "BenchmarkSuite",
    workload_spec: str,
    cache_dir: Optional[str],
    mix: "WorkloadMix",
    machine: "MachineConfig",
) -> "MultiCoreRunResult":
    setup = _resolve_setup(token, config, suite, workload_spec, cache_dir)
    return setup.simulate(mix, machine)


def predict_task(
    token: str,
    config: "ExperimentConfig",
    suite: "BenchmarkSuite",
    workload_spec: str,
    cache_dir: Optional[str],
    predictor: str,
    mix: "WorkloadMix",
    machine: "MachineConfig",
) -> "MixPrediction":
    setup = _resolve_setup(token, config, suite, workload_spec, cache_dir)
    return setup.predict(mix, machine, predictor=predictor)


def predict_mppm_batch_task(
    token: str,
    config: "ExperimentConfig",
    suite: "BenchmarkSuite",
    workload_spec: str,
    cache_dir: Optional[str],
    predictor: str,
    items: Tuple[Tuple["WorkloadMix", "MachineConfig"], ...],
):
    """Solve many (mix, machine) pairs of one ``mppm:*`` spec in one pass.

    Returns the list of predictions in item order.  The submitting
    process scatters them to the per-op results and stores each under
    its per-op predict cache key, so a batched sweep populates exactly
    the same cache entries as per-op jobs would have.
    """
    setup = _resolve_setup(token, config, suite, workload_spec, cache_dir)
    return setup.predictor(predictor).predict_batch(items)


# ---------------------------------------------------------------------------
# Job constructors
# ---------------------------------------------------------------------------


def _recipe(setup: "ExperimentSetup") -> Tuple:
    cache_dir = str(setup.cache_dir) if setup.cache_dir is not None else None
    return (setup.token, setup.config, setup.suite, setup.workload_spec, cache_dir)


def _config_parts(setup: "ExperimentSetup") -> Tuple:
    # The MPPM solver kernel is deliberately NOT part of the cache key:
    # batched and reference predictions are bit-identical (asserted by
    # the equivalence suite), so a prediction computed under either
    # remains valid for both.
    # The workload spec qualifies every result: two workloads that
    # both contain a benchmark named "gamess" must never share a cache
    # entry, even inside one campaign cache directory.
    config = setup.config
    return (
        setup.workload_spec,
        config.num_instructions,
        config.interval_instructions,
        config.seed,
    )


def profile_bundle_job(
    setup: "ExperimentSetup",
    spec: "BenchmarkSpec",
    machines: Sequence["MachineConfig"],
    key: str,
) -> Job:
    """Profile one benchmark on several machines, on a pool worker."""
    return Job(
        key=key,
        fn=profile_bundle_task,
        args=_recipe(setup) + (spec, tuple(machines)),
        kind="profile",
    )


def simulate_job(
    setup: "ExperimentSetup",
    mix: "WorkloadMix",
    machine: "MachineConfig",
    key: str,
) -> Job:
    """Reference-simulate one mix on one machine (result-cached)."""
    return Job(
        key=key,
        fn=simulate_task,
        args=_recipe(setup) + (mix, machine),
        kind="simulate",
        cache_key=content_key(
            "simulate",
            machine.profile_key(),
            mix.num_programs,
            mix.programs,
            *_config_parts(setup),
        ),
    )


def predict_job(
    setup: "ExperimentSetup",
    mix: "WorkloadMix",
    machine: "MachineConfig",
    key: str,
    predictor: Optional[str] = None,
    cache_key: Optional[str] = None,
) -> Job:
    """Predict one mix on one machine with one registry predictor.

    ``predictor`` is a spec from :mod:`repro.predictors` (default
    ``mppm:foa``); the cache key covers ``(spec, mix, machine)`` plus
    the setup recipe, so heterogeneous predictor sweeps cache and
    parallelise through the same :class:`ResultCache`/process pool as
    homogeneous ones.  A caller that already hashed the key
    (:func:`predict_cache_key`) passes it as ``cache_key``.  A
    ``detailed``-spec job is labelled ``kind="simulate"`` because it
    replays LLC traces.
    """
    from repro.predictors import DEFAULT_PREDICTOR, canonical_spec, predictor_requires_traces

    spec = canonical_spec(predictor if predictor is not None else DEFAULT_PREDICTOR)
    if cache_key is None:
        cache_key = predict_cache_key(setup, spec, mix, machine)
    return Job(
        key=key,
        fn=predict_task,
        args=_recipe(setup) + (spec, mix, machine),
        kind="simulate" if predictor_requires_traces(spec) else "predict",
        cache_key=cache_key,
    )


def predict_cache_key(
    setup: "ExperimentSetup",
    spec: str,
    mix: "WorkloadMix",
    machine: "MachineConfig",
) -> str:
    """The content key one (spec, mix, machine) prediction is cached under.

    Shared between per-op predict jobs and the batched MPPM sweep (which
    computes many predictions in one job but stores each under the key a
    per-op job would have used, so the cache cannot tell the difference).
    """
    return content_key(
        "predict",
        spec,
        machine.profile_key(),
        machine.num_cores,
        mix.programs,
        *_config_parts(setup),
    )


def predict_mppm_batch_job(
    setup: "ExperimentSetup",
    items: Tuple[Tuple["WorkloadMix", "MachineConfig"], ...],
    key: str,
    predictor: str = "mppm:foa",
) -> Job:
    """Batch-solve many (mix, machine) pairs of one ``mppm:*`` spec.

    The job itself carries no result-cache key (its value is a list);
    the caller scatters the returned predictions and stores each under
    its :func:`predict_cache_key` via :meth:`Executor.store`.
    """
    return Job(
        key=key,
        fn=predict_mppm_batch_task,
        args=_recipe(setup) + (predictor, tuple(items)),
        kind="predict",
        cache_key=None,
    )
