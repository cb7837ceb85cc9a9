"""Tests for the two-stage ``hybrid:k=K`` predictor.

The contract pinned here: ``hybrid`` canonicalises to ``hybrid:k=4``
and any ``k >= 1`` is valid; a pool sweep predicts the bulk with the
default MPPM spec and re-runs the predicted worst-``K`` mixes (lowest
predicted STP, ties by op index) through the detailed simulator; every
result is tagged with the hybrid spec; and the spot-check stage shares
cache entries with plain ``detailed`` runs of the same pairs.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments import ExperimentConfig, ExperimentSetup
from repro.predictors import (
    DEFAULT_HYBRID_K,
    PredictorError,
    canonical_spec,
    make_predictor,
    predictor_requires_traces,
)
from repro.workloads import WorkloadMix, small_suite

CONFIG = ExperimentConfig(scale=16, num_instructions=20_000, interval_instructions=1_000)


def make_setup(**kwargs) -> ExperimentSetup:
    return ExperimentSetup(config=CONFIG, suite=small_suite(5), **kwargs)


@pytest.fixture(scope="module")
def setup():
    return make_setup()


@pytest.fixture(scope="module")
def machine(setup):
    return setup.machine(num_cores=2)


@pytest.fixture(scope="module")
def pool(setup):
    return setup.mixes(2, 5, seed=3)


class TestSpec:
    @pytest.mark.parametrize(
        "bad", ["hybrid:k=", "hybrid:k=x", "hybrid:k=0", "hybrid:n=2", "hybrid:k=4,k=5"]
    )
    def test_malformed_k_is_rejected(self, bad):
        with pytest.raises(PredictorError):
            canonical_spec(bad)

    def test_hybrid_requires_traces(self):
        assert predictor_requires_traces("hybrid")
        assert predictor_requires_traces("hybrid:k=2")


class TestSingleMix:
    def test_single_mix_is_a_retagged_detailed_prediction(self, setup, machine):
        mix = WorkloadMix(programs=tuple(setup.benchmark_names[:2]))
        hybrid = setup.predict(mix, machine, predictor="hybrid")
        detailed = setup.predict(mix, machine, predictor="detailed")
        assert hybrid.predictor == f"hybrid:k={DEFAULT_HYBRID_K}"
        assert hybrid == replace(detailed, predictor=hybrid.predictor)

    def test_make_predictor_constructs_the_adapter(self, setup, machine):
        predictor = make_predictor("hybrid:k=3", setup)
        assert predictor.worst_k == 3
        assert "worst-3" in predictor.describe()


class TestPoolSweep:
    def test_worst_k_get_detailed_numbers_and_the_rest_mppm(
        self, setup, machine, pool
    ):
        k = 2
        pairs = [(mix, machine) for mix in pool]
        hybrid = setup.predict_batch(pairs, predictor=f"hybrid:k={k}")
        mppm = setup.predict_batch(pairs)
        detailed = setup.predict_batch(pairs, predictor="detailed")
        ranked = sorted(
            range(len(pool)), key=lambda i: (mppm[i].system_throughput, i)
        )
        spot = set(ranked[:k])
        for i, prediction in enumerate(hybrid):
            assert prediction.predictor == f"hybrid:k={k}"
            expected = detailed[i] if i in spot else mppm[i]
            assert prediction == replace(expected, predictor=prediction.predictor)

    def test_k_larger_than_the_pool_is_all_detailed(self, setup, machine, pool):
        pairs = [(mix, machine) for mix in pool]
        hybrid = setup.predict_batch(pairs, predictor="hybrid:k=99")
        detailed = setup.predict_batch(pairs, predictor="detailed")
        for got, expected in zip(hybrid, detailed):
            assert got == replace(expected, predictor="hybrid:k=99")

    def test_parallel_engine_is_bit_identical_to_serial(self, pool, tmp_path):
        serial = make_setup()
        parallel = make_setup(jobs=2, cache_dir=tmp_path / "cache")
        try:
            machine = serial.machine(num_cores=2)
            pairs = [(mix, machine) for mix in pool]
            assert parallel.predict_batch(
                pairs, predictor="hybrid:k=2"
            ) == serial.predict_batch(pairs, predictor="hybrid:k=2")
        finally:
            parallel.close()
            serial.close()

    def test_spot_checks_share_the_detailed_cache(self, pool, tmp_path, monkeypatch):
        """A warm detailed sweep leaves nothing for hybrid to simulate."""
        from repro.simulators.multi_core import MultiCoreSimulator

        cache_dir = tmp_path / "cache"
        cold = make_setup(cache_dir=cache_dir)
        machine = cold.machine(num_cores=2)
        pairs = [(mix, machine) for mix in pool]
        detailed = cold.predict_batch(pairs, predictor="detailed")
        cold.close()

        def forbidden(self, *args, **kwargs):
            raise AssertionError("hybrid spot-checks must reuse cached simulations")

        monkeypatch.setattr(MultiCoreSimulator, "run", forbidden)
        warm = make_setup(cache_dir=cache_dir)
        try:
            hybrid = warm.predict_batch(pairs, predictor="hybrid:k=99")
            for got, expected in zip(hybrid, detailed):
                assert got == replace(expected, predictor="hybrid:k=99")
        finally:
            warm.close()

    def test_mppm_config_is_rejected_with_hybrid(self, setup, machine, pool):
        from repro.core.mppm import MPPMConfig

        pairs = [(mix, machine) for mix in pool]
        with pytest.raises(PredictorError, match="two-stage"):
            setup.predict_batch(
                pairs, predictor="hybrid:k=2", mppm_config=MPPMConfig()
            )

    def test_mixed_spec_sweeps_expand_only_the_hybrid_ops(self, setup, machine, pool):
        items = [
            ("hybrid:k=1", pool[0], machine),
            ("mppm:foa", pool[1], machine),
            ("detailed", pool[2], machine),
        ]
        results = setup.predictor_batch(items)
        assert results[0].predictor == "hybrid:k=1"
        assert results[1].predictor == "mppm:foa"
        assert results[2].predictor == "detailed"
