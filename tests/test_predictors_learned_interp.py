"""Tests for the ``learned:`` and ``interp:`` predictor families.

The contract pinned here: both families canonicalise like ``hybrid:``
(shorthand, parameter validation, structured errors) and register
through the one spec table; ``learned:n=N,seed=S`` is a deterministic
pure function of its recipe, trains on detailed runs pulled from the
engine's ResultCache (a warm cache trains with *zero* new reference
simulations) and never predicts a speed-up; ``interp:anchors=A+B`` is
exact at its anchor configurations, accurate against ``detailed`` at
interior configurations, and rejects machines outside the Table 2
design space instead of extrapolating.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments import ExperimentConfig, ExperimentSetup
from repro.predictors import (
    DEFAULT_INTERP_ANCHORS,
    DEFAULT_LEARNED_MIXES,
    DEFAULT_LEARNED_SEED,
    PredictorError,
    available_predictors,
    canonical_spec,
    make_predictor,
    predictor_requires_traces,
)
from repro.workloads import small_suite

CONFIG = ExperimentConfig(scale=16, num_instructions=20_000, interval_instructions=1_000)

#: Small training recipe so tests stay fast (5-benchmark suite).
LEARNED = "learned:n=6,seed=0"


def make_setup(**kwargs) -> ExperimentSetup:
    return ExperimentSetup(config=CONFIG, suite=small_suite(5), **kwargs)


@pytest.fixture(scope="module")
def setup():
    return make_setup()


@pytest.fixture(scope="module")
def machine(setup):
    return setup.machine(num_cores=2)


@pytest.fixture(scope="module")
def mixes(setup):
    return setup.mixes(2, 4, seed=7)


# ---------------------------------------------------------------------------
# Spec grammar
# ---------------------------------------------------------------------------


class TestSpecs:
    @pytest.mark.parametrize(
        "bad",
        [
            "learned:n=1",
            "learned:n=x",
            "learned:seed=-1",
            "learned:k=4",
            "learned:n=4,n=5",
            "interp:anchors=1+1",
            "interp:anchors=0+6",
            "interp:anchors=1+7",
            "interp:anchors=1",
            "interp:anchors=a+b",
            "interp:span=1+6",
            "interp:anchors=1+6,anchors=2+5",
        ],
    )
    def test_malformed_specs_are_rejected(self, bad):
        with pytest.raises(PredictorError):
            canonical_spec(bad)

    def test_both_families_are_registered(self, setup):
        listed = available_predictors()
        assert f"learned:n={DEFAULT_LEARNED_MIXES},seed={DEFAULT_LEARNED_SEED}" in listed
        low, high = DEFAULT_INTERP_ANCHORS
        assert f"interp:anchors={low}+{high}" in listed
        for spec in (LEARNED, "interp"):
            predictor = make_predictor(spec, setup)
            assert predictor.spec == canonical_spec(spec)
            assert predictor.describe()
            # Both run the detailed simulator, so both need traces.
            assert predictor_requires_traces(spec)


# ---------------------------------------------------------------------------
# learned: behaviour
# ---------------------------------------------------------------------------


class TestLearnedPredictor:
    def test_predictions_are_deterministic_and_tagged(self, setup, machine, mixes):
        first = make_predictor(LEARNED, setup).predict(mixes[0], machine)
        second = make_predictor(LEARNED, setup).predict(mixes[0], machine)
        assert first == second
        assert first.predictor == LEARNED
        assert first.converged and first.iterations == 0

    def test_never_predicts_a_speedup(self, setup, machine, mixes):
        predictor = make_predictor(LEARNED, setup)
        for mix in mixes:
            prediction = predictor.predict(mix, machine)
            assert all(slowdown >= 1.0 for slowdown in prediction.slowdowns)
            assert [p.name for p in prediction.programs] == list(mix.programs)

    def test_trains_from_the_result_cache(self, tmp_path, mixes):
        # First setup computes the training runs and persists them;
        # the second trains entirely from cache: zero new reference
        # simulations, bit-identical model output.
        cold = make_setup(cache_dir=tmp_path)
        machine = cold.machine(num_cores=2)
        first = cold.predict(mixes[0], machine, predictor=LEARNED)
        assert cold.reference_runs() > 0
        warm = make_setup(cache_dir=tmp_path)
        second = warm.predict(
            mixes[0], warm.machine(num_cores=2), predictor=LEARNED
        )
        assert warm.reference_runs() == 0
        assert second == first

    def test_training_runs_share_the_detailed_cache_entries(self, tmp_path):
        # A later plain-detailed sweep of the training mixes finds the
        # entries the learned predictor stored (shared content keys).
        setup = make_setup(cache_dir=tmp_path)
        machine = setup.machine(num_cores=2)
        mix = setup.mixes(2, 1, seed=9)[0]
        setup.predict(mix, machine, predictor=LEARNED)
        stores = setup.engine.cache.stores
        training = setup.mixes(2, 6, seed=0, unique=False)
        setup.simulate_many(training, machine)
        # Every training pair was already cached; nothing new stored.
        assert setup.engine.cache.stores == stores


# ---------------------------------------------------------------------------
# interp: behaviour
# ---------------------------------------------------------------------------


class TestInterpolatedPredictor:
    def test_anchor_configurations_are_exact(self, setup, mixes):
        space = setup.design_space(2)
        for anchor in DEFAULT_INTERP_ANCHORS:
            anchor_machine = space[anchor - 1]
            detailed = setup.predict(mixes[0], anchor_machine, predictor="detailed")
            interp = setup.predict(mixes[0], anchor_machine, predictor="interp")
            assert interp.predictor == "interp:anchors=1+6"
            assert [p.predicted_cpi for p in interp.programs] == [
                p.predicted_cpi for p in detailed.programs
            ]

    def test_interior_configurations_track_detailed(self, setup, mixes):
        # Two detailed anchors per mix predict the other four configs
        # within a 10% per-program CPI envelope at test scale.
        space = setup.design_space(2)
        for config in (2, 3, 4, 5):
            target = space[config - 1]
            for mix in mixes[:2]:
                detailed = setup.predict(mix, target, predictor="detailed")
                interp = setup.predict(mix, target, predictor="interp")
                for ours, reference in zip(interp.programs, detailed.programs):
                    error = abs(ours.predicted_cpi - reference.predicted_cpi)
                    assert error / reference.predicted_cpi < 0.10

    def test_alternate_anchor_pairs_are_honoured(self, setup, mixes):
        space = setup.design_space(2)
        detailed = setup.predict(mixes[0], space[2], predictor="detailed")
        interp = setup.predict(mixes[0], space[2], predictor="interp:anchors=3+5")
        # Config #3 is an anchor of this pair: exact again.
        assert [p.predicted_cpi for p in interp.programs] == [
            p.predicted_cpi for p in detailed.programs
        ]

    def test_machines_outside_the_design_space_are_rejected(self, setup, machine, mixes):
        odd = replace(machine, llc=replace(machine.llc, size_bytes=machine.llc.size_bytes * 3))
        with pytest.raises(PredictorError) as excinfo:
            setup.predict(mixes[0], odd, predictor="interp")
        assert "design" in str(excinfo.value)

    def test_engine_sweep_agrees_with_single_predictions(self, setup, mixes):
        space = setup.design_space(2)
        swept = setup.predict_many(mixes, space[3], predictor="interp")
        singles = [
            setup.predict(mix, space[3], predictor="interp") for mix in mixes
        ]
        assert swept == singles
