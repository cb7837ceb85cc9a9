"""Unit tests for the shared experiment setup (caching, machines, classification)."""

import dataclasses
import json
from collections import Counter

import pytest

from repro.experiments import ExperimentConfig, ExperimentSetup, default_setup
from repro.workloads import BenchmarkClass, WorkloadMix, small_suite


@pytest.fixture(scope="module")
def small_setup():
    """A fast setup: 6 benchmarks, short traces."""
    return ExperimentSetup(
        config=ExperimentConfig(scale=16, num_instructions=30_000, interval_instructions=1_000),
        suite=small_suite(6),
    )


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
            dict(kernel="magic"),
            dict(mppm_kernel="magic"),
            dict(multicore_kernel="magic"),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    def test_kernel_defaults_to_vectorized_and_reaches_the_store(self):
        assert ExperimentConfig().kernel == "vectorized"
        setup = ExperimentSetup(
            config=ExperimentConfig(
                num_instructions=10_000, interval_instructions=1_000, kernel="reference"
            )
        )
        assert setup.store.kernel == "reference"


class TestExperimentSetup:
    def test_machines_are_scaled_table2_configs(self, small_setup):
        machine = small_setup.machine(num_cores=4, llc_config=1)
        assert machine.num_cores == 4
        assert "config #1" in machine.name
        # Scaled by 16: the 512KB LLC becomes 32KB.
        assert machine.llc.size_bytes == 512 * 1024 // 16
        design_space = small_setup.design_space()
        assert len(design_space) == 6

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

    def test_predictions_are_cached_only_for_default_model(self, small_setup):
        from repro.core import MPPMConfig

        machine = small_setup.machine()
        mix = WorkloadMix(programs=tuple(small_setup.benchmark_names[:4]))
        first = small_setup.predict(mix, machine)
        second = small_setup.predict(mix, machine)
        assert first is second
        custom = small_setup.predict(mix, machine, mppm_config=MPPMConfig(smoothing=0.9))
        assert custom is not first

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


class TestBatchedMppmSweeps:
    """The batched solver path through ``predict_batch`` is invisible:
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
        pairs = [
            (mix, machine) for mix in batched_setup.mixes(num_programs=2, num_mixes=4)
        ]
        for spec in self.MPPM_SPECS:
            batched = batched_setup.predict_batch(pairs, predictor=spec)
            reference = reference_setup.predict_batch(pairs, predictor=spec)
            assert [p.kernel for p in batched] == ["batched"] * len(pairs)
            assert [p.kernel for p in reference] == ["reference"] * len(pairs)
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
        results = setup.predict_batch(
            [(mix, machine), (other, machine), (mix, machine)], predictor="mppm:foa"
        )
        assert results[0] is results[2]
        assert results[0] is not results[1]

    def test_batch_path_populates_per_op_cache_entries(self, tmp_path):
        setup = self._setup("batched", cache_dir=tmp_path)
        machine = setup.machine(num_cores=2)
        pairs = [(mix, machine) for mix in setup.mixes(num_programs=2, num_mixes=3)]
        pairs.append(pairs[0])  # duplicate op: one store, two results
        first = setup.predict_batch(pairs, predictor="mppm:sdc")
        stats = setup.engine.cache_stats()
        predict_stores = 3  # unique (mix, machine) ops, not batch jobs
        assert stats["stores"] >= predict_stores

        # A fresh setup over the same cache directory answers every op
        # from the per-op cache entries the batch job scattered out.
        rerun_setup = self._setup("batched", cache_dir=tmp_path)
        rerun_machine = rerun_setup.machine(num_cores=2)
        rerun_pairs = [(mix, rerun_machine) for mix, _ in pairs]
        before = rerun_setup.engine.cache_stats()
        rerun = rerun_setup.predict_batch(rerun_pairs, predictor="mppm:sdc")
        after = rerun_setup.engine.cache_stats()
        assert after["hits"] - before["hits"] >= predict_stores
        for fresh, cached in zip(first, rerun):
            assert [p.predicted_cpi for p in fresh.programs] == [
                p.predicted_cpi for p in cached.programs
            ]


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
        pairs = [(mix, machine) for mix in setup.mixes(2, 3, seed=1)]
        first = setup.predict_batch(pairs)

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
        assert rerun.predict_batch(pairs) == first
        assert rerun.store.simulated_profiles == 0


class TestMulticoreKernelPlumbing:
    """The interleaving kernel threads from ExperimentConfig to the
    reference simulator and into ``detailed`` provenance, without ever
    entering a cache key (the kernels are bit-identical)."""

    @staticmethod
    def _setup(multicore_kernel, **kwargs):
        return ExperimentSetup(
            config=ExperimentConfig(
                scale=16,
                num_instructions=30_000,
                interval_instructions=1_000,
                multicore_kernel=multicore_kernel,
            ),
            suite=small_suite(6),
            **kwargs,
        )

    def test_default_kernel_is_chunked(self):
        assert ExperimentConfig().multicore_kernel == "chunked"

    def test_all_kernels_simulate_bit_identically(self):
        from repro.simulators import MULTI_CORE_KERNELS

        setups = {kernel: self._setup(kernel) for kernel in MULTI_CORE_KERNELS}
        machine = setups["chunked"].machine(num_cores=4)
        mix = WorkloadMix(programs=tuple(setups["chunked"].benchmark_names[:4]))
        results = {
            kernel: setup.simulate(mix, machine) for kernel, setup in setups.items()
        }
        assert results["chunked"] == results["heap"]

    def test_detailed_prediction_records_kernel_provenance(self):
        setup = self._setup("heap")
        machine = setup.machine(num_cores=2)
        mix = WorkloadMix(programs=tuple(setup.benchmark_names[:2]))
        direct = setup.predict(mix, machine, predictor="detailed")
        assert direct.predictor == "detailed"
        assert direct.kernel == "heap"
        # The sweep path repackages simulate jobs the same way.
        swept = setup.predict_batch([(mix, machine)], predictor="detailed")[0]
        assert swept.kernel == "heap"
        assert swept.programs == direct.programs

    def test_kernel_is_not_part_of_the_cache_key(self, tmp_path):
        mix_names = None
        results = []
        for kernel in ("chunked", "heap"):
            setup = self._setup(kernel, cache_dir=tmp_path)
            machine = setup.machine(num_cores=2)
            if mix_names is None:
                mix_names = tuple(setup.benchmark_names[:2])
            results.append(setup.simulate_batch([(WorkloadMix(programs=mix_names), machine)])[0])
        # The second setup must be served from the first one's cache
        # entry (identical bytes either way).
        assert results[0] == results[1]

    def test_parallel_simulation_matches_serial_bitwise(self):
        serial = self._setup("chunked")
        machine = serial.machine(num_cores=2)
        mixes = serial.mixes(num_programs=2, num_mixes=3)
        pairs = [(mix, machine) for mix in mixes]
        expected = serial.simulate_batch(pairs)
        parallel = self._setup("chunked", jobs=2)
        try:
            assert parallel.simulate_batch(pairs) == expected
        finally:
            parallel.close()


class TestMachineNames:
    """Results shared between machines that differ only in name.

    Every result cache and batch group keys on ``(profile_key(),
    num_cores)``, which leaves the name out; the numbers are shared, but
    each result must carry the name of the machine that asked for it.
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
        runs = small_setup.simulate_batch([(mix, machine), (mix, renamed)])
        assert [run.machine_name for run in runs] == [machine.name, "renamed"]

    def test_mppm_predictor_batch_labels_each_item(self, small_setup):
        machine = small_setup.machine(num_cores=2)
        renamed = dataclasses.replace(machine, name="renamed")
        mix = WorkloadMix(programs=tuple(small_setup.benchmark_names[1:3]))
        predictor = small_setup.predictor("mppm:sdc")
        first, second = predictor.predict_batch([(mix, machine), (mix, renamed)])
        assert (first.machine_name, second.machine_name) == (machine.name, "renamed")
        assert first.programs == second.programs
