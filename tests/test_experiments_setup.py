"""Unit tests for the shared experiment setup (caching, machines, classification)."""

import dataclasses
import json
from collections import Counter

import pytest

from repro.config import machine_with_llc, scaled
from repro.engine import tasks as engine_tasks
from repro.experiments import SIMULATE, ExperimentConfig, ExperimentSetup, default_setup
from repro.simulators import MultiCoreRunResult, MultiCoreSimulator
from repro.workloads import BenchmarkClass, WorkloadMix, small_suite


def _small_setup():
    """A fast setup: 6 benchmarks, short traces."""
    return ExperimentSetup(
        config=ExperimentConfig(scale=16, num_instructions=30_000, interval_instructions=1_000),
        suite=small_suite(6),
    )


@pytest.fixture(scope="module")
def small_setup():
    return _small_setup()


class TestExperimentConfig:
    def test_defaults_are_consistent(self):
        config = ExperimentConfig()
        assert config.num_instructions % config.interval_instructions == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(scale=0),
            dict(num_instructions=0),
            dict(interval_instructions=0),
            dict(num_instructions=1_000, interval_instructions=300),
            dict(mppm_kernel="magic"),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)


class TestExperimentSetup:
    def test_machines_are_scaled_table2_configs(self, small_setup):
        machine = small_setup.machine(num_cores=4, llc_config=1)
        assert machine.num_cores == 4
        assert "config #1" in machine.name
        # Scaled by 16: the 512KB LLC becomes 32KB.
        assert machine.llc.size_bytes == 512 * 1024 // 16
        design_space = small_setup.design_space()
        assert len(design_space) == 6

    def test_machines_are_memoized_per_cores_llc_and_scale(self, small_setup):
        machine = small_setup.machine(num_cores=4, llc_config=3)
        assert small_setup.machine(num_cores=4, llc_config=3) is machine
        assert machine == scaled(machine_with_llc(3, num_cores=4), small_setup.config.scale)
        assert machine.profile_key() == scaled(
            machine_with_llc(3, num_cores=4), small_setup.config.scale
        ).profile_key()
        assert small_setup.machine(num_cores=2, llc_config=3) is not machine
        other = ExperimentSetup(
            config=dataclasses.replace(small_setup.config, scale=8), suite=small_suite(6)
        )
        assert other.machine(num_cores=4, llc_config=3) is not machine
        assert other.machine(num_cores=4, llc_config=3) == scaled(
            machine_with_llc(3, num_cores=4), 8
        )

    def test_profiles_are_cached_per_machine(self, small_setup):
        machine = small_setup.machine()
        first = small_setup.profiles(machine)
        second = small_setup.profiles(machine)
        assert first is second
        assert set(first) == set(small_setup.benchmark_names)

    def test_profiles_shared_across_core_counts(self, small_setup):
        four_core = small_setup.machine(num_cores=4)
        eight_core = small_setup.machine(num_cores=8)
        assert small_setup.profiles(four_core) is small_setup.profiles(eight_core)

    def test_simulation_results_are_cached(self, small_setup):
        machine = small_setup.machine()
        mix = WorkloadMix(programs=tuple(small_setup.benchmark_names[:4]))
        before = small_setup.reference_runs()
        first = small_setup.simulate(mix, machine)
        second = small_setup.simulate(mix, machine)
        assert first is second
        assert small_setup.reference_runs() == before + 1

    def test_predictions_are_cached(self, small_setup):
        machine = small_setup.machine()
        mix = WorkloadMix(programs=tuple(small_setup.benchmark_names[:4]))
        first = small_setup.predict(mix, machine)
        second = small_setup.predict(mix, machine)
        assert first is second

    def test_simulate_adapts_machine_core_count_to_mix_size(self, small_setup):
        machine = small_setup.machine(num_cores=4)
        mix = WorkloadMix(programs=tuple(small_setup.benchmark_names[:2]))
        result = small_setup.simulate(mix, machine)
        assert result.num_cores == 2

    def test_classification_covers_all_benchmarks(self, small_setup):
        classes = small_setup.classification()
        assert set(classes) == set(small_setup.benchmark_names)
        assert all(isinstance(value, BenchmarkClass) for value in classes.values())

    def test_default_setup_is_shared(self):
        assert default_setup() is default_setup()
        assert default_setup(seed=1) is not default_setup(seed=0)


class TestSweepEntryPoints:
    """Every prediction is named by a spec string: one way into a sweep."""

    ENTRY_POINTS = ("predict", "simulate", "predictor_batch")

    def test_setup_sweeps_through_the_three_entry_points(self):
        import repro.experiments as experiments

        public = {
            name
            for name in dir(ExperimentSetup)
            if not name.startswith("_")
            and name.startswith(("predict", "simulate", "evaluate"))
        }
        # ``predictor`` builds a predictor object; it runs no sweep.
        assert public == set(self.ENTRY_POINTS) | {"predictor"}
        assert not hasattr(experiments, "evaluate_mixes")

    def test_a_simulate_op_returns_the_raw_reference_run(self, small_setup):
        machine = small_setup.machine(num_cores=2)
        mix = WorkloadMix(programs=tuple(small_setup.benchmark_names[:2]))
        run, prediction = small_setup.predictor_batch(
            [(SIMULATE, mix, machine), ("DETAILED", mix, machine)]
        )
        assert isinstance(run, MultiCoreRunResult)
        assert run == small_setup.simulate(mix, machine)
        # Every other spec is canonicalised: ``DETAILED`` is the registry's
        # ``detailed``, a prediction repackaged from the same run.
        assert prediction.predictor == "detailed"
        assert prediction.system_throughput == run.system_throughput

    def test_no_function_to_the_solver_takes_a_model_object(self):
        import inspect

        import repro.engine.tasks as tasks
        import repro.experiments.ablations as ablations
        import repro.experiments.setup as setup_module
        import repro.predictors as predictors

        functions = [
            member
            for module in (tasks, ablations, setup_module, predictors)
            for _, member in inspect.getmembers(module, inspect.isfunction)
            if member.__module__ == module.__name__
        ]
        functions += [
            member
            for _, member in inspect.getmembers(ExperimentSetup, inspect.isfunction)
        ]
        assert len(functions) > 20
        for function in functions:
            parameters = inspect.signature(function).parameters
            assert "contention_model" not in parameters, function.__qualname__
            assert "mppm_config" not in parameters, function.__qualname__


class TestBatchedMppmSweeps:
    """The batched solver path through ``predictor_batch`` is invisible:
    bit-identical results, per-op cache entries, shared dedup objects."""

    MPPM_SPECS = ("mppm:foa", "mppm:sdc", "mppm:prob", "mppm:windowed", "mppm:figure2")

    @staticmethod
    def _setup(mppm_kernel, **kwargs):
        return ExperimentSetup(
            config=ExperimentConfig(
                scale=16,
                num_instructions=30_000,
                interval_instructions=1_000,
                mppm_kernel=mppm_kernel,
            ),
            suite=small_suite(6),
            **kwargs,
        )

    def test_default_kernel_is_batched(self):
        assert ExperimentConfig().mppm_kernel == "batched"

    def test_batched_sweep_matches_reference_bitwise(self):
        batched_setup = self._setup("batched")
        reference_setup = self._setup("reference")
        machine = batched_setup.machine(num_cores=2)
        mixes = batched_setup.mixes(num_programs=2, num_mixes=4)
        for spec in self.MPPM_SPECS:
            ops = [(spec, mix, machine) for mix in mixes]
            batched = batched_setup.predictor_batch(ops)
            reference = reference_setup.predictor_batch(ops)
            assert [p.kernel for p in batched] == ["batched"] * len(ops)
            assert [p.kernel for p in reference] == ["reference"] * len(ops)
            for fast, slow in zip(batched, reference):
                assert fast.iterations == slow.iterations
                assert fast.converged == slow.converged
                # Exact equality on purpose: the kernels share op order.
                assert [p.predicted_cpi for p in fast.programs] == [
                    p.predicted_cpi for p in slow.programs
                ]

    def test_duplicate_ops_share_one_prediction_object(self):
        setup = self._setup("batched")
        machine = setup.machine(num_cores=2)
        mix = WorkloadMix(programs=tuple(setup.benchmark_names[:2]))
        other = WorkloadMix(programs=tuple(setup.benchmark_names[2:4]))
        results = setup.predictor_batch(
            [("mppm:foa", mix, machine), ("mppm:foa", other, machine), ("mppm:foa", mix, machine)]
        )
        assert results[0] is results[2]
        assert results[0] is not results[1]

    def test_batch_path_populates_per_op_cache_entries(self, tmp_path):
        setup = self._setup("batched", cache_dir=tmp_path)
        machine = setup.machine(num_cores=2)
        ops = [("mppm:sdc", mix, machine) for mix in setup.mixes(num_programs=2, num_mixes=3)]
        ops.append(ops[0])  # duplicate op: one store, two results
        first = setup.predictor_batch(ops)
        stats = setup.engine.cache_stats()
        predict_stores = 3  # unique (mix, machine) ops, not batch jobs
        assert stats["stores"] >= predict_stores

        # A fresh setup over the same cache directory answers every op
        # from the per-op cache entries the batch job scattered out.
        rerun_setup = self._setup("batched", cache_dir=tmp_path)
        rerun_machine = rerun_setup.machine(num_cores=2)
        rerun_ops = [(spec, mix, rerun_machine) for spec, mix, _ in ops]
        before = rerun_setup.engine.cache_stats()
        rerun = rerun_setup.predictor_batch(rerun_ops)
        after = rerun_setup.engine.cache_stats()
        assert after["hits"] - before["hits"] >= predict_stores
        for fresh, cached in zip(first, rerun):
            assert [p.predicted_cpi for p in fresh.programs] == [
                p.predicted_cpi for p in cached.programs
            ]


class TestSweepJobs:
    """A sweep is a profile step (only with real workers), then one flat job list."""

    @staticmethod
    def _setup(**kwargs):
        return ExperimentSetup(
            config=ExperimentConfig(scale=16, num_instructions=30_000, interval_instructions=1_000),
            suite=small_suite(6),
            **kwargs,
        )

    @staticmethod
    def _ops(setup):
        """Simulate, detailed, baseline and MPPM ops on two LLCs, one machine renamed."""
        machine = setup.machine(num_cores=2)
        renamed = dataclasses.replace(machine, name="renamed")  # same profile key
        large = setup.machine(num_cores=2, llc_config=6)
        names = setup.benchmark_names
        mix = WorkloadMix(programs=(names[0], names[1]))
        swapped = WorkloadMix(programs=(names[1], names[0]))
        twin = WorkloadMix(programs=(names[2], names[2]))
        return [
            ("baseline:one-shot", mix, machine),
            (SIMULATE, swapped, machine),
            ("baseline:no-contention", twin, renamed),
            ("detailed", mix, renamed),
            ("baseline:one-shot", twin, large),
            ("mppm:foa", mix, large),
        ]

    @staticmethod
    def _pairs(ops):
        """The distinct (benchmark, machine profile key) pairs the ops touch."""
        return {(name, machine.profile_key()) for _, mix, machine in ops for name in mix.programs}

    @staticmethod
    def _record_runs(setup, monkeypatch):
        """The job lists every ``engine.run`` call of ``setup`` receives."""
        runs = []
        original = setup.engine.run

        def recording(jobs):
            jobs = list(jobs)
            runs.append(jobs)
            return original(jobs)

        monkeypatch.setattr(setup.engine, "run", recording)
        return runs

    def test_a_cold_serial_sweep_profiles_each_pair_once_inside_its_jobs(self, monkeypatch):
        setup = self._setup()
        ops = self._ops(setup)
        runs = self._record_runs(setup, monkeypatch)
        setup.predictor_batch(ops)
        assert setup.store.simulated_profiles == len(self._pairs(ops)) == 6
        assert setup.store.absorbed_profiles == 0
        # One engine run: a job per op, the MPPM op batched at the end.
        (jobs,) = runs
        assert [job.key for job in jobs] == [f"op:{i}" for i in range(5)] + ["batch:mppm:foa:0"]

    def test_a_cold_parallel_sweep_absorbs_each_pair_from_its_workers(self, monkeypatch):
        serial = self._setup()
        parallel = self._setup(jobs=2)
        ops = self._ops(serial)
        runs = self._record_runs(parallel, monkeypatch)
        try:
            results = parallel.predictor_batch(ops)
        finally:
            parallel.close()
        assert [result.to_dict() for result in results] == [
            result.to_dict() for result in serial.predictor_batch(ops)
        ]
        assert parallel.store.absorbed_profiles == len(self._pairs(ops))
        assert parallel.store.simulated_profiles == 0
        # The profile step (one bundle job per benchmark), then the sweep.
        warm, sweep = runs
        assert len(warm) == len({name for name, _ in self._pairs(ops)})
        assert all(job.kind == "profile" for job in warm)
        assert len(sweep) == len(ops)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_sweep_whose_ops_are_all_cached_touches_no_profile(self, tmp_path, jobs, monkeypatch):
        cold = self._setup(cache_dir=tmp_path)
        ops = self._ops(cold)
        expected = [result.to_dict() for result in cold.predictor_batch(ops)]
        warm = self._setup(cache_dir=tmp_path, jobs=jobs)
        runs = self._record_runs(warm, monkeypatch)
        try:
            assert [result.to_dict() for result in warm.predictor_batch(ops)] == expected
        finally:
            warm.close()
        store = warm.store
        assert (store.loaded_profiles, store.simulated_profiles, store.absorbed_profiles) == (0, 0, 0)
        assert len(runs) == 1

    def test_a_cached_mppm_op_hashes_its_cache_key_once(self, tmp_path, monkeypatch):
        setup = self._setup(cache_dir=tmp_path)
        mix = WorkloadMix(programs=tuple(setup.benchmark_names[:2]))
        ops = [("mppm:foa", mix, setup.machine(num_cores=2))]
        first = setup.predictor_batch(ops)
        calls = []
        original = engine_tasks.predict_cache_key

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine_tasks, "predict_cache_key", counting)
        hits = setup.engine.cache_stats()["hits"]
        assert setup.predictor_batch(ops) == first
        assert setup.engine.cache_stats()["hits"] == hits + 1
        assert len(calls) == 1


    def test_a_cacheless_sweep_hashes_no_key(self, tmp_path, monkeypatch):
        plain, cached = self._setup(), self._setup(cache_dir=tmp_path)
        machine = plain.machine(num_cores=2)
        mixes = plain.mixes(num_programs=2, num_mixes=3)
        ops = [(spec, mix, machine) for spec in ("mppm:foa", "mppm:sdc") for mix in mixes]
        ops += ops[:2]  # repeated ops: one solve and one store each
        hashed, stored = [], []
        original_key = engine_tasks.predict_cache_key

        def counting(*args, **kwargs):
            hashed.append(args)
            return original_key(*args, **kwargs)

        monkeypatch.setattr(engine_tasks, "predict_cache_key", counting)
        plain_results = plain.predictor_batch(ops)
        assert hashed == []
        assert plain_results[0] is plain_results[6]
        original_store = cached.engine.store

        def recording(cache_key, value):
            stored.append(cache_key)
            original_store(cache_key, value)

        monkeypatch.setattr(cached.engine, "store", recording)
        cached_results = cached.predictor_batch(ops)
        assert [p.to_dict() for p in cached_results] == [p.to_dict() for p in plain_results]
        assert len(hashed) == len(ops)
        # Batch jobs themselves run with no key, so ``store`` skips them.
        keys = [key for key in stored if key is not None]
        assert len(keys) == len(set(keys)) == 6


class TestCampaignCacheLayout:
    """Profiles and engine results share one content-addressed directory."""

    def _setup(self, cache_dir):
        return ExperimentSetup(
            config=ExperimentConfig(scale=16, num_instructions=20_000, interval_instructions=1_000),
            suite=small_suite(4),
            cache_dir=cache_dir,
        )

    def test_profiles_are_result_entries_outside_the_engine_counters(self, tmp_path):
        setup = self._setup(tmp_path)
        machine = setup.machine(num_cores=2)
        ops = [("mppm:foa", mix, machine) for mix in setup.mixes(2, 3, seed=1)]
        first = setup.predictor_batch(ops)

        assert not (tmp_path / "profiles").exists()
        entries = [json.loads(path.read_text()) for path in (tmp_path / "results").iterdir()]
        types = Counter(entry["type"] for entry in entries)
        assert types["SingleCoreProfile"] == setup.store.simulated_profiles > 0
        # One stream per benchmark: every profile here shares one
        # private hierarchy.
        assert types["LLCStream"] == setup.store.generated_traces == types["SingleCoreProfile"]
        # The engine's counters (read by the service's /stats) count
        # engine results only, never the store's artefacts.
        assert setup.engine.cache_stats()["stores"] == (
            len(entries) - types["SingleCoreProfile"] - types["LLCStream"]
        )

        rerun = self._setup(tmp_path)
        assert rerun.predictor_batch(ops) == first
        assert rerun.store.simulated_profiles == 0


class TestDetailedSimulation:
    """The setup's reference simulations: bit-identical to the per-access
    heap loop, tagged ``"chunked"`` in ``detailed`` provenance, and the
    same serially and in parallel."""

    @staticmethod
    def _setup(**kwargs):
        return ExperimentSetup(
            config=ExperimentConfig(scale=16, num_instructions=30_000, interval_instructions=1_000),
            suite=small_suite(6),
            **kwargs,
        )

    def test_simulate_matches_the_heap_reference_bitwise(self):
        setup = self._setup()
        machine = setup.machine(num_cores=4)
        mix = WorkloadMix(programs=tuple(setup.benchmark_names[:4]))
        reference = MultiCoreSimulator(machine).run_reference(setup.llc_traces(mix, machine))
        assert setup.simulate(mix, machine) == reference

    def test_detailed_prediction_records_kernel_provenance(self):
        setup = self._setup()
        machine = setup.machine(num_cores=2)
        mix = WorkloadMix(programs=tuple(setup.benchmark_names[:2]))
        direct = setup.predict(mix, machine, predictor="detailed")
        assert direct.predictor == "detailed"
        assert direct.kernel == "chunked"
        # The sweep path repackages simulate jobs the same way.
        swept = setup.predictor_batch([("detailed", mix, machine)])[0]
        assert swept.kernel == "chunked"
        assert swept.programs == direct.programs

    def test_parallel_simulation_matches_serial_bitwise(self):
        serial = self._setup()
        machine = serial.machine(num_cores=2)
        mixes = serial.mixes(num_programs=2, num_mixes=3)
        simulations = [(SIMULATE, mix, machine) for mix in mixes]
        expected = serial.predictor_batch(simulations)
        parallel = self._setup(jobs=2)
        try:
            assert parallel.predictor_batch(simulations) == expected
        finally:
            parallel.close()


class TestMachineNames:
    """Results shared between machines that differ only in name.

    Every result cache keys on ``(profile_key(), num_cores)`` and every
    batch group on the machine values its solver reads, which leave the
    name out; the numbers are shared, but each result must carry the
    name of the machine that asked for it.
    """

    def test_every_path_returns_the_requesting_machines_name(self, small_setup):
        machine = small_setup.machine(num_cores=2)
        renamed = dataclasses.replace(machine, name="renamed")
        mix = WorkloadMix(programs=tuple(small_setup.benchmark_names[:2]))

        batch = small_setup.predictor_batch(
            [("mppm:foa", mix, machine), ("mppm:foa", mix, renamed)]
        )
        assert [p.machine_name for p in batch] == [machine.name, "renamed"]
        assert batch[0].programs == batch[1].programs

        assert small_setup.predict(mix, machine).machine_name == machine.name
        assert small_setup.predict(mix, renamed).machine_name == "renamed"

        assert small_setup.simulate(mix, machine).machine_name == machine.name
        assert small_setup.simulate(mix, renamed).machine_name == "renamed"
        swept = small_setup.predictor_batch(
            [("detailed", mix, machine), ("detailed", mix, renamed)]
        )
        assert [p.machine_name for p in swept] == [machine.name, "renamed"]
        runs = small_setup.predictor_batch([(SIMULATE, mix, machine), (SIMULATE, mix, renamed)])
        assert [run.machine_name for run in runs] == [machine.name, "renamed"]

    def test_mppm_predictor_batch_labels_each_item(self, small_setup):
        machine = small_setup.machine(num_cores=2)
        renamed = dataclasses.replace(machine, name="renamed")
        mix = WorkloadMix(programs=tuple(small_setup.benchmark_names[1:3]))
        predictor = small_setup.predictor("mppm:sdc")
        first, second = predictor.predict_batch([(mix, machine), (mix, renamed)])
        assert (first.machine_name, second.machine_name) == (machine.name, "renamed")
        assert first.programs == second.programs
