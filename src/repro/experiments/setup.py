"""Shared experiment setup: suite, machines, profiles and reference runs.

Every experiment needs the same ingredients — the benchmark suite, the
(scaled) machine configurations of Tables 1 and 2, the single-core
profiles on each machine, and detailed multi-core reference simulations
of workload mixes.  :class:`ExperimentSetup` bundles them behind caches
so that a whole benchmark session pays each single-core simulation and
each reference multi-core simulation exactly once, mirroring the
"one-time cost" structure of the paper's methodology.

There are five ways in.  :meth:`~ExperimentSetup.predict` and
:meth:`~ExperimentSetup.simulate` handle one mix in process.  Sweeps go
through the :mod:`repro.engine`: :meth:`~ExperimentSetup.predictor_batch`
takes ``(predictor spec, mix, machine)`` triples,
:meth:`~ExperimentSetup.simulate_batch` takes ``(mix, machine)`` pairs
and returns the raw reference runs, and
:meth:`~ExperimentSetup.evaluate_predictors` pairs several specs with
one shared reference sweep.  Each sweep is one flat list of
independent jobs run on the setup's executor in one call.  With the
default serial backend this behaves exactly like inline loops, each
job profiling what it needs; with ``jobs=N`` the profile step
(:meth:`~ExperimentSetup.profile_pairs`) first fans them out, and with
``cache_dir`` set both profiles and mix results persist across
processes — serial and parallel runs are bit-identical either way.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.config import MachineConfig, llc_design_space, machine_with_llc, scaled
from repro.core import MPPM, MPPM_KERNELS
from repro.core.result import MixPrediction
from repro.engine import Executor, Job, create_engine
from repro.engine import tasks as engine_tasks
from repro.predictors import (
    DEFAULT_PREDICTOR,
    canonical_spec,
    make_predictor,
    parse_spec,
    prediction_from_run,
    tag_prediction,
)
from repro.predictors.base import for_machine
from repro.profiling import ProfileStore, SingleCoreProfile
from repro.simulators import LLCAccessTrace, MultiCoreRunResult, MultiCoreSimulator
from repro.workloads import (
    BenchmarkClass,
    BenchmarkSpec,
    BenchmarkSuite,
    WorkloadMix,
    WorkloadSource,
    classify_suite,
    workload_for,
)
from repro.workloads.registry import MixCategory

#: One (mix, machine) unit of a bulk evaluation.
MixJob = Tuple[WorkloadMix, MachineConfig]

#: One (predictor spec, mix, machine) unit of a heterogeneous sweep.
PredictJob = Tuple[str, WorkloadMix, MachineConfig]

#: Fan-out map of a batched MPPM sweep: batch job key -> per-item
#: ``(op indices, per-op cache key)`` entries, in item order.
BatchScatter = Dict[str, List[Tuple[List[int], Optional[str]]]]

#: Sentinel op for "run the raw reference simulator" in a sweep
#: (returns a MultiCoreRunResult rather than a MixPrediction).
_SIMULATE = "simulate"

#: The ops that run as reference-simulation jobs (and need LLC traces).
_SIMULATES = (_SIMULATE, "detailed")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments.

    The defaults reproduce the paper's structure at laptop scale:
    29 benchmarks, 50 profiling intervals per trace and the Table 1/2
    machines scaled down by 16 (see :mod:`repro.config.scaling`).
    ``seed`` controls all randomness (trace generation and mix sampling).
    """

    scale: int = 16
    num_instructions: int = 200_000
    interval_instructions: int = 4_000
    seed: int = 0
    #: MPPM solver kernel ("batched" or "reference"); the two are
    #: bit-identical, so the choice is never part of a cache key.
    mppm_kernel: str = "batched"

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.mppm_kernel not in MPPM_KERNELS:
            raise ValueError(
                f"mppm_kernel must be one of {MPPM_KERNELS}, got {self.mppm_kernel!r}"
            )
        if self.num_instructions <= 0 or self.interval_instructions <= 0:
            raise ValueError("instruction counts must be positive")
        if self.num_instructions % self.interval_instructions != 0:
            raise ValueError(
                "num_instructions should be a multiple of interval_instructions "
                "so every interval has the same length"
            )


class ExperimentSetup:
    """Caches everything the experiments share.

    Parameters
    ----------
    config:
        Scaling/length/seed parameters.
    workload:
        A workload spec string (see :mod:`repro.workloads.registry` —
        ``"suite:spec29"``, ``"suite:spec29/scaled@8"``,
        ``"random:n=8,seed=0"``, ``"service:n=8,seed=0"``) or a
        :class:`~repro.workloads.WorkloadSource` instance.  Defaults
        to ``suite:spec29``, today's 29-benchmark suite.  The resolved
        spec string (``workload_spec``) qualifies every engine
        content-hash cache key; profiles are keyed by the full
        benchmark spec instead, so workloads sharing a spec share its
        profile.
    suite:
        An explicit benchmark suite object (legacy/ad-hoc path).  When
        given without ``workload`` it is wrapped under a canonical
        spec if the registry recognises it, else under a deterministic
        content-digest ``inline:`` spec; when given *with*
        ``workload`` it is trusted as that workload's suite (the
        engine's worker-reconstruction path).
    engine:
        The :class:`~repro.engine.Executor` bulk evaluations run on.
        Defaults to an engine built from ``jobs`` and ``cache_dir``.
    jobs:
        Worker count for the default engine (1 → serial in-process
        execution, N → a process pool), or a ``fleet:`` spec string
        (``"fleet:localhost:2"``, ``"fleet:ssh=host1,host2"``) for a
        multi-host worker fleet (see :mod:`repro.engine.remote`).
        Ignored when ``engine`` is given.
    cache_dir:
        Optional campaign cache directory: single-core profiles and
        engine results (reference simulations, MPPM predictions) all
        persist as content-addressed entries under
        ``<cache_dir>/results``, making repeated sweeps near-free
        across processes.  The profile store keeps its own
        :class:`~repro.engine.ResultCache` over that directory, so the
        engine's counters only ever count engine results.
    """

    def __init__(
        self,
        config: Optional[ExperimentConfig] = None,
        suite: Optional[BenchmarkSuite] = None,
        engine: Optional[Executor] = None,
        jobs: Union[int, str] = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        workload: Optional[Union[str, WorkloadSource]] = None,
    ) -> None:
        self.config = config if config is not None else ExperimentConfig()
        self.workload = workload_for(workload, suite=suite)
        self.suite = suite if suite is not None else self.workload.suite()
        self.workload_spec = self.workload.spec
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.store = ProfileStore(
            num_instructions=self.config.num_instructions,
            interval_instructions=self.config.interval_instructions,
            seed=self.config.seed,
            cache_dir=self.cache_dir / "results" if self.cache_dir is not None else None,
        )
        self.engine = engine if engine is not None else create_engine(jobs, self.cache_dir)
        self.token = engine_tasks.register_setup(self)
        self._reference_cache: Dict[Tuple[Tuple[str, ...], str, int], MultiCoreRunResult] = {}
        self._prediction_cache: Dict[
            Tuple[str, Tuple[str, ...], str, int], MixPrediction
        ] = {}
        self._profiles_cache: Dict[str, Dict[str, SingleCoreProfile]] = {}

    # ------------------------------------------------------------------
    # Machines
    # ------------------------------------------------------------------

    def machine(self, num_cores: int = 4, llc_config: int = 1) -> MachineConfig:
        """The Table 1 machine with a Table 2 LLC, scaled; calls with equal arguments share it."""
        return _scaled_machine(num_cores, llc_config, self.config.scale)

    def design_space(self, num_cores: int = 4) -> List[MachineConfig]:
        """All six Table 2 machines (scaled), in configuration order."""
        return [scaled(machine, self.config.scale) for machine in llc_design_space(num_cores)]

    # ------------------------------------------------------------------
    # Benchmarks, profiles, classification
    # ------------------------------------------------------------------

    @property
    def benchmark_names(self) -> List[str]:
        return self.suite.names

    def mixes(
        self,
        num_programs: int,
        num_mixes: int,
        seed: int = 0,
        unique: bool = True,
        category: Optional["MixCategory"] = None,
    ) -> List[WorkloadMix]:
        """Sample multi-program mixes through the setup's workload source.

        Identical to ``sample_mixes(self.benchmark_names, ...)`` — the
        registry's sources draw from the same sorted name list — but
        routed through the Workload API so experiments stay agnostic of
        where the suite came from.  ``category`` constrains the sample
        to MEM/COMP/MIX classes ("current practice" sampling): a single
        category or a sequence, in which case ``num_mixes`` counts per
        category (see :meth:`WorkloadSource.mixes`).
        """
        return self.workload.mixes(
            num_programs, num_mixes, seed=seed, unique=unique, category=category
        )

    def classification(self) -> Dict[str, BenchmarkClass]:
        """MEM / COMP / MIX classes used for category-based mix selection."""
        return classify_suite(self.suite)

    def profiles(self, machine: MachineConfig) -> Dict[str, SingleCoreProfile]:
        """Single-core profiles of every benchmark on ``machine`` (cached)."""
        key = machine.profile_key()
        if key not in self._profiles_cache:
            self._profiles_cache[key] = {
                spec.name: self.store.get_profile(spec, machine) for spec in self.suite
            }
        return self._profiles_cache[key]

    def llc_traces(self, mix: WorkloadMix, machine: MachineConfig) -> List[LLCAccessTrace]:
        """The per-program LLC access traces for one mix (cached per benchmark)."""
        return [self.store.get_llc_trace(self.suite[name], machine) for name in mix.programs]

    def benchmark_profiles(
        self, names: Iterable[str], machine: MachineConfig
    ) -> Dict[str, SingleCoreProfile]:
        """Single-core profiles of just the named benchmarks, each resolved once."""
        return {
            name: self.store.get_profile(self.suite[name], machine) for name in sorted(set(names))
        }

    # ------------------------------------------------------------------
    # Model and reference simulation
    # ------------------------------------------------------------------

    def mppm(self, machine: MachineConfig) -> MPPM:
        """An MPPM instance for ``machine`` (on the configured solver kernel)."""
        return MPPM(machine, kernel=self.config.mppm_kernel)

    def predictor(self, spec: str):
        """A :class:`~repro.predictors.Predictor` bound to this setup."""
        return make_predictor(spec, self)

    def predict(
        self, mix: WorkloadMix, machine: MachineConfig, predictor: Optional[str] = None
    ) -> MixPrediction:
        """One predictor's estimate for one mix on one machine.

        ``predictor`` is a registry spec (see :mod:`repro.predictors`);
        the default is the paper's model, ``"mppm:foa"``.  Predictions
        are cached (they are deterministic), so experiments that revisit
        the same mixes — e.g. the ranking and agreement studies — pay
        for each prediction once.
        """
        spec = canonical_spec(predictor if predictor is not None else DEFAULT_PREDICTOR)
        key = (spec, mix.programs, machine.profile_key(), machine.num_cores)
        cached = self._prediction_cache.get(key)
        if cached is not None:
            return for_machine(cached, machine)
        prediction = self.predictor(spec).predict(mix, machine)
        self._prediction_cache[key] = prediction
        return prediction

    def simulate(self, mix: WorkloadMix, machine: MachineConfig) -> MultiCoreRunResult:
        """Detailed (reference) multi-core simulation of one mix, cached."""
        key = (mix.programs, machine.profile_key(), machine.num_cores)
        cached = self._reference_cache.get(key)
        if cached is not None:
            return for_machine(cached, machine)
        if machine.num_cores != mix.num_programs:
            machine = machine.with_num_cores(mix.num_programs)
        result = MultiCoreSimulator(machine).run(self.llc_traces(mix, machine))
        self._reference_cache[key] = result
        return result

    def reference_runs(self) -> int:
        """Number of detailed multi-core simulations performed so far."""
        return len(self._reference_cache)

    # ------------------------------------------------------------------
    # Bulk evaluation through the engine
    # ------------------------------------------------------------------

    def _sweep_jobs(self, ops: Sequence[PredictJob]) -> Tuple[List[Job], "BatchScatter"]:
        """One sweep as a flat job list: per-op jobs, then batched MPPM jobs.

        Each op is ``(spec, mix, machine)`` where ``spec`` is a
        predictor spec or the ``"simulate"`` sentinel for the raw
        reference simulator; op ``i``'s result is keyed ``"op:i"``.
        ``detailed`` ops run as simulate jobs (their expensive part IS
        the reference simulation, and this shares one cache entry with
        every other reference run of the pair); :meth:`_run_ops`
        repackages their results as predictions.  Jobs profile what
        they need lazily, through the setup's :class:`ProfileStore`.

        Uncached ``mppm:*`` ops do not become per-op jobs: they are
        deduplicated by per-op cache key and packed into at most
        ``engine.jobs`` batch jobs per spec, each of which solves its
        items through one mix-major fixed-point pass
        (:func:`repro.engine.tasks.predict_mppm_batch_job`).  The
        returned scatter maps each batch job's key to its
        ``(op indices, per-op cache key)`` entries so :meth:`_run_ops`
        can fan the list result back out and store every prediction
        under the key an individual job would have used.  Cached
        ``mppm:*`` ops keep per-op jobs (which resolve from the cache
        without computing anything), built on the key hashed here.
        Without a result cache nothing is hashed: ops deduplicate on
        the parts the key would hash, and their per-op key is ``None``.
        """
        jobs: List[Job] = []
        # spec -> dedup key -> ([op indices], (mix, machine), per-op cache key)
        batchable: Dict[str, Dict[object, Tuple[List[int], MixJob, Optional[str]]]] = {}
        for i, (spec, mix, machine) in enumerate(ops):
            if spec in _SIMULATES:
                jobs.append(engine_tasks.simulate_job(self, mix, machine, key=f"op:{i}"))
                continue
            cache_key = None
            if spec.startswith("mppm:"):
                if self.engine.cache is None:
                    dedup = (mix.programs, machine.profile_key(), machine.num_cores)
                else:
                    cache_key = dedup = engine_tasks.predict_cache_key(self, spec, mix, machine)
                if not self.engine.is_cached(cache_key):
                    entries = batchable.setdefault(spec, {})
                    if dedup in entries:
                        entries[dedup][0].append(i)
                    else:
                        entries[dedup] = ([i], (mix, machine), cache_key)
                    continue
            jobs.append(
                engine_tasks.predict_job(
                    self, mix, machine, key=f"op:{i}", predictor=spec, cache_key=cache_key
                )
            )
        scatter: BatchScatter = {}
        for spec, entries in batchable.items():
            unique = list(entries.values())
            num_chunks = min(len(unique), max(1, self.engine.jobs))
            chunk_size = -(-len(unique) // num_chunks)
            for chunk_number, start in enumerate(range(0, len(unique), chunk_size)):
                chunk = unique[start : start + chunk_size]
                job_key = f"batch:{spec}:{chunk_number}"
                jobs.append(
                    engine_tasks.predict_mppm_batch_job(
                        self,
                        items=tuple(item for _, item, _ in chunk),
                        key=job_key,
                        predictor=spec,
                    )
                )
                scatter[job_key] = [(indices, cache_key) for indices, _, cache_key in chunk]
        return jobs, scatter

    def profile_pairs(
        self,
        pairs: Iterable[Tuple[str, MachineConfig]],
        trace: bool = False,
        engine: Optional[Callable[[], Executor]] = None,
    ) -> None:
        """The one profile step: make (benchmark name, machine) pairs resident.

        Pairs in memory or in the cache directory (with their LLC traces
        when ``trace`` is set) are skipped.  The rest run as one profile
        bundle job per benchmark, so a worker pays its trace and private
        replay once; the bundles are absorbed into this store and the
        workers refreshed, so later jobs fork from it warm.  ``engine``
        builds the executor for that, only if a pair is missing (default:
        the setup's own); a one-worker executor profiles in process.
        """
        unique: Dict[Tuple[str, str], MachineConfig] = {}
        for name, machine in pairs:
            unique.setdefault((name, machine.profile_key()), machine)
        needed: Dict[BenchmarkSpec, List[MachineConfig]] = {}
        for (name, _), machine in unique.items():
            if not self.store.load_if_cached(self.suite[name], machine, trace=trace):
                needed.setdefault(self.suite[name], []).append(machine)
        if not needed:
            return
        executor = self.engine if engine is None else engine()
        if executor.jobs <= 1:
            for spec, machines in needed.items():
                self.store.get_many(spec, machines)
            return
        bundles = executor.run(
            engine_tasks.profile_bundle_job(self, spec, machines, key=f"warm:{i}")
            for i, (spec, machines) in enumerate(needed.items())
        )
        for (spec, machines), bundle in zip(needed.items(), bundles.values()):
            self.store.absorb(spec, machines, bundle)
        # Refreshing a borrowed process pool closes it.
        executor.refresh_workers()

    def _warm_profiles(self, ops: Sequence[PredictJob], jobs: Sequence[Job]) -> None:
        """Run :meth:`profile_pairs` on the pairs of a sweep's uncached ops.

        Serial and one-worker backends skip it: their jobs profile lazily.
        """
        if self.engine.jobs <= 1:
            return
        # An op is settled only by a per-op job the cache answers; a
        # batched op has no job of its own and is always computed.
        cached = {job.key for job in jobs if self.engine.is_cached(job.cache_key)}
        todo = [op for i, op in enumerate(ops) if f"op:{i}" not in cached]
        self.profile_pairs(
            ((name, machine) for _, mix, machine in todo for name in mix.programs),
            trace=any(spec in _SIMULATES for spec, _, _ in todo),
        )

    def _run_ops(self, ops: Sequence[PredictJob]) -> List[object]:
        """Run a sweep, expanding two-stage ``hybrid:*`` ops if present.

        Plain sweeps go straight to :meth:`_run_plain_ops`.  Hybrid ops
        run the default MPPM spec for the whole pool first, then each
        hybrid spec's predicted worst-``K`` ops (lowest predicted system
        throughput; ties broken by op index, so serial and parallel
        runs pick identical mixes) are re-run as plain ``detailed`` ops
        — through the same sweep path, sharing job and cache entries
        with every other detailed run of those (mix, machine) pairs.
        Every hybrid op's result is tagged with the hybrid spec.
        """
        hybrid_present = any(spec.startswith("hybrid:") for spec, _, _ in ops)
        if not hybrid_present:
            return self._run_plain_ops(ops)
        base_ops = [
            (DEFAULT_PREDICTOR, mix, machine) if spec.startswith("hybrid:") else (spec, mix, machine)
            for spec, mix, machine in ops
        ]
        out = self._run_plain_ops(base_ops)
        by_spec: Dict[str, List[int]] = {}
        for i, (spec, _, _) in enumerate(ops):
            if spec.startswith("hybrid:"):
                by_spec.setdefault(spec, []).append(i)
        spot: List[int] = []
        for spec in sorted(by_spec):
            indices = by_spec[spec]
            ranked = sorted(
                indices, key=lambda index: (out[index].system_throughput, index)
            )
            spot.extend(ranked[: parse_spec(spec).params["k"]])
        spot_results = self._run_plain_ops(
            [("detailed", ops[index][1], ops[index][2]) for index in spot]
        )
        for index, prediction in zip(spot, spot_results):
            out[index] = prediction
        for spec, indices in by_spec.items():
            for index in indices:
                out[index] = tag_prediction(out[index], spec)
        return out

    def _run_plain_ops(self, ops: Sequence[PredictJob]) -> List[object]:
        """Run one sweep's jobs and return op results in input order.

        ``detailed`` ops come back from the engine as raw
        :class:`MultiCoreRunResult`\\ s (they share the reference
        simulation's job and cache entry) and are repackaged as
        predictions here.  Batched ``mppm:*`` jobs come back as lists;
        their predictions are scattered to the op slots (duplicated ops
        share one object) and stored under the per-op cache keys.  Each
        result is labelled with its own op's machine name (cache keys
        leave the name out, see :func:`~repro.predictors.base.for_machine`).
        """
        jobs, scatter = self._sweep_jobs(ops)
        self._warm_profiles(ops, jobs)
        results = self.engine.run(jobs)
        out: List[object] = [None] * len(ops)
        for job_key, entries in scatter.items():
            predictions = results[job_key]
            for prediction, (indices, cache_key) in zip(predictions, entries):
                self.engine.store(cache_key, prediction)
                for index in indices:
                    out[index] = for_machine(prediction, ops[index][2])
        for i, (spec, _, machine) in enumerate(ops):
            key = f"op:{i}"
            if key in results:
                value = for_machine(results[key], machine)
                out[i] = prediction_from_run(value) if spec == "detailed" else value
        return out

    def predictor_batch(self, items: Sequence[PredictJob]) -> List[MixPrediction]:
        """Heterogeneous predictor sweep: (spec, mix, machine) triples.

        Every item becomes one engine job keyed by its spec, so a sweep
        that mixes estimators — e.g. ``mppm:foa`` against the baselines
        and ``detailed`` — caches and parallelises exactly like a
        homogeneous one.  Results come back in input order.
        """
        ops = [(canonical_spec(spec), mix, machine) for spec, mix, machine in items]
        return self._run_ops(ops)

    def simulate_batch(self, pairs: Sequence[MixJob]) -> List[MultiCoreRunResult]:
        """Reference simulations for many (mix, machine) pairs, in input order."""
        return self._run_ops([(_SIMULATE, mix, machine) for mix, machine in pairs])

    def evaluate_predictors(
        self, pairs: Sequence[MixJob], predictors: Sequence[str]
    ) -> Dict[str, List["MixEvaluation"]]:
        """Evaluate several predictors against the reference in ONE sweep.

        Returns ``{spec: [MixEvaluation, ...]}`` with evaluations in
        pair order; the reference simulation of each pair is shared by
        every predictor, so comparing N estimators costs N prediction
        sweeps plus a single simulation sweep.  A ``detailed`` spec in
        the list is served from that same simulation sweep (a pure
        repackaging), not simulated a second time.
        """
        from repro.experiments.results import MixEvaluation

        specs = [canonical_spec(spec) for spec in predictors]
        model_specs = [spec for spec in specs if spec != "detailed"]
        ops: List[PredictJob] = [
            (spec, mix, machine) for spec in model_specs for mix, machine in pairs
        ]
        ops.extend((_SIMULATE, mix, machine) for mix, machine in pairs)
        results = self._run_ops(ops)
        measured = results[len(model_specs) * len(pairs) :]
        predicted_by_spec = {
            spec: results[index * len(pairs) : (index + 1) * len(pairs)]
            for index, spec in enumerate(model_specs)
        }
        if "detailed" in specs:
            predicted_by_spec["detailed"] = [prediction_from_run(run) for run in measured]
        evaluated: Dict[str, List[MixEvaluation]] = {}
        for spec in specs:
            evaluated[spec] = [
                MixEvaluation(mix=mix, predicted=prediction, measured=measurement)
                for (mix, _), prediction, measurement in zip(
                    pairs, predicted_by_spec[spec], measured
                )
            ]
        return evaluated

    def close(self) -> None:
        """Release the engine's worker pool (idempotent; serial is a no-op)."""
        self.engine.close()


@functools.lru_cache(maxsize=64)
def _scaled_machine(num_cores: int, llc_config: int, scale: int) -> MachineConfig:
    return scaled(machine_with_llc(llc_config, num_cores=num_cores), scale)


@functools.lru_cache(maxsize=4)
def default_setup(seed: int = 0) -> ExperimentSetup:
    """A process-wide shared setup (used by the benchmark targets).

    Benchmarks for different figures share single-core profiles and
    reference simulations through this cache, exactly as a research
    group would reuse its simulation results across plots.
    """
    return ExperimentSetup(config=ExperimentConfig(seed=seed))
