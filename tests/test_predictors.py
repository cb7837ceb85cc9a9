"""Tests for the unified Predictor API (registry, adapters, engine wiring).

The contract pinned here: every advertised spec constructs and
predicts; each registry predictor agrees **bit-for-bit** with the
pre-redesign code path it replaced (direct MPPM, the baseline classes,
the detailed reference simulator); unknown specs fail with the list of
available names; predictions are self-describing (the ``predictor``
field survives JSON round-trips and the persistent result cache); and
heterogeneous predictor sweeps run identically serial, parallel and
from a warm cache.
"""

from dataclasses import replace

import pytest

import repro
from repro.core import MPPM
from repro.core.baselines import NoContentionPredictor, OneShotContentionPredictor
from repro.core.result import MixPrediction
from repro.experiments import SIMULATE, ExperimentConfig, ExperimentSetup
from repro.predictors import (
    DEFAULT_PREDICTOR,
    Predictor,
    PredictorError,
    available_predictors,
    describe_predictors,
    make_predictor,
    predictor_requires_traces,
    tag_prediction,
)
from repro.workloads import WorkloadMix, small_suite


CONFIG = ExperimentConfig(scale=16, num_instructions=20_000, interval_instructions=1_000)


def make_setup(**kwargs) -> ExperimentSetup:
    return ExperimentSetup(config=CONFIG, suite=small_suite(5), **kwargs)


@pytest.fixture(scope="module")
def setup():
    return make_setup()


@pytest.fixture(scope="module")
def mix(setup):
    return WorkloadMix(programs=tuple(setup.benchmark_names[:2]))


@pytest.fixture(scope="module")
def machine(setup):
    return setup.machine(num_cores=2)


class TestRegistry:
    def test_advertised_specs(self):
        assert available_predictors() == [
            "mppm:foa",
            "mppm:sdc",
            "mppm:prob",
            "mppm:windowed",
            "mppm:figure2",
            "baseline:no-contention",
            "baseline:one-shot",
            "hybrid:k=4",
            "detailed",
        ]
        assert DEFAULT_PREDICTOR == "mppm:foa"

    @pytest.mark.parametrize("spec", [
        "mppm:foa",
        "mppm:sdc",
        "mppm:prob",
        "mppm:windowed",
        "mppm:figure2",
        "baseline:no-contention",
        "baseline:one-shot",
        "detailed",
    ])
    def test_every_spec_constructs_and_predicts(self, spec, setup, mix, machine):
        predictor = make_predictor(spec, setup)
        assert isinstance(predictor, Predictor)
        assert predictor.spec == spec
        assert predictor.describe().strip()
        prediction = predictor.predict(mix, machine)
        assert prediction.predictor == spec
        assert prediction.num_programs == 2
        assert all(program.predicted_cpi > 0 for program in prediction.programs)

    def test_unknown_spec_lists_available_names(self, setup):
        with pytest.raises(ValueError) as excinfo:
            make_predictor("oracle", setup)
        message = str(excinfo.value)
        for spec in available_predictors():
            assert spec in message
        assert isinstance(excinfo.value, PredictorError)

    def test_unknown_contention_model_lists_available_names(self):
        with pytest.raises(ValueError) as excinfo:
            repro.make_contention_model("oracle")
        for name in repro.available_contention_models():
            assert name in str(excinfo.value)

    def test_trace_requirement_flags(self):
        assert predictor_requires_traces("detailed")
        assert not predictor_requires_traces("mppm:foa")
        assert not predictor_requires_traces("baseline:one-shot")

    def test_descriptions_cover_every_spec(self):
        rows = dict(describe_predictors())
        assert set(rows) == set(available_predictors())
        assert all(description for description in rows.values())

    def test_registries_are_top_level_api(self):
        for name in (
            "make_predictor",
            "available_predictors",
            "make_contention_model",
            "available_contention_models",
            "Predictor",
            "DEFAULT_PREDICTOR",
        ):
            assert name in repro.__all__
            assert hasattr(repro, name)


class TestBitIdentityWithReplacedPaths:
    """Registry predictions equal the pre-redesign code paths exactly."""

    def _profiles(self, setup, mix, machine):
        return {
            name: setup.store.get_profile(setup.suite[name], machine)
            for name in sorted(set(mix.programs))
        }

    @pytest.mark.parametrize("contention", ["foa", "sdc", "prob"])
    def test_mppm_specs_match_direct_mppm(self, contention, setup, mix, machine):
        direct = MPPM(
            machine, contention_model=repro.make_contention_model(contention)
        ).predict_mix(mix, self._profiles(setup, mix, machine))
        via_registry = setup.predict(mix, machine, predictor=f"mppm:{contention}")
        assert replace(via_registry, predictor=None) == direct

    def test_default_spec_matches_default_mppm(self, setup, mix, machine):
        direct = MPPM(machine).predict_mix(mix, self._profiles(setup, mix, machine))
        assert replace(setup.predict(mix, machine), predictor=None) == direct

    @pytest.mark.parametrize("variant,cls", [
        ("no-contention", NoContentionPredictor),
        ("one-shot", OneShotContentionPredictor),
    ])
    def test_baseline_specs_match_direct_baselines(self, variant, cls, setup, mix, machine):
        direct = cls(machine).predict_mix(mix, self._profiles(setup, mix, machine))
        via_registry = setup.predict(mix, machine, predictor=f"baseline:{variant}")
        assert replace(via_registry, predictor=None) == direct

    @pytest.mark.parametrize("variant,flag", [
        ("windowed", "use_windowed_cpi"),
        ("figure2", "literal_figure2_update"),
    ])
    def test_mppm_variant_specs_match_explicit_configs(
        self, variant, flag, setup, mix, machine
    ):
        from repro.core import MPPMConfig

        config = MPPMConfig(**{flag: True})
        direct = MPPM(machine, config=config).predict_mix(
            mix, self._profiles(setup, mix, machine)
        )
        via_registry = setup.predict(mix, machine, predictor=f"mppm:{variant}")
        assert replace(via_registry, predictor=None) == direct
        assert via_registry.predictor == f"mppm:{variant}"
        # Variants run through the cached registry path: a repeat is a
        # cache hit returning the same object.
        assert setup.predict(mix, machine, predictor=f"mppm:{variant}") is via_registry

    def test_detailed_spec_matches_reference_simulation(self, setup, mix, machine):
        measured = setup.simulate(mix, machine)
        wrapped = setup.predict(mix, machine, predictor="detailed")
        # Same floats, not approximately: STP/ANTT/slowdowns are computed
        # over the exact per-program CPI values of the simulator.
        assert wrapped.system_throughput == measured.system_throughput
        assert (
            wrapped.average_normalized_turnaround_time
            == measured.average_normalized_turnaround_time
        )
        assert wrapped.slowdowns == measured.slowdowns
        assert wrapped.predictor == "detailed"


class TestSelfDescribingPredictions:
    def test_predictor_field_round_trips_through_json(self, setup, mix, machine):
        for spec in ("mppm:foa", "baseline:one-shot", "detailed"):
            prediction = setup.predict(mix, machine, predictor=spec)
            restored = MixPrediction.from_dict(prediction.to_dict())
            assert restored == prediction
            assert restored.predictor == spec

    def test_missing_predictor_key_defaults_to_none(self, setup, mix, machine):
        payload = setup.predict(mix, machine).to_dict()
        del payload["predictor"]  # pre-redesign cache entries lack the key
        assert MixPrediction.from_dict(payload).predictor is None

    def test_describe_names_the_predictor(self, setup, mix, machine):
        text = setup.predict(mix, machine, predictor="baseline:no-contention").describe()
        assert "baseline:no-contention" in text

    def test_tagging_an_already_tagged_prediction_returns_it(self, setup, mix, machine):
        prediction = setup.predict(mix, machine, predictor="mppm:sdc")
        assert tag_prediction(prediction, "mppm:sdc") is prediction

    def test_tagging_changes_only_the_predictor_field(self, setup, mix, machine):
        prediction = setup.predict(mix, machine, predictor="mppm:sdc")
        tagged = tag_prediction(prediction, "mppm:foa")
        assert tagged.predictor == "mppm:foa" and prediction.predictor == "mppm:sdc"
        assert replace(tagged, predictor="mppm:sdc") == prediction


class TestEngineWiring:
    def test_heterogeneous_batch_matches_individual_predictions(self, setup, mix, machine):
        other = WorkloadMix(programs=tuple(setup.benchmark_names[2:4]))
        items = [
            ("mppm:foa", mix, machine),
            ("baseline:no-contention", other, machine),
            ("detailed", mix, machine),
        ]
        batched = setup.predictor_batch(items)
        singles = [setup.predict(m, mach, predictor=spec) for spec, m, mach in items]
        assert batched == singles

    def test_parallel_heterogeneous_sweep_is_bit_identical(self):
        serial = make_setup()
        parallel = make_setup(jobs=2)
        mixes = [
            WorkloadMix(programs=tuple(serial.benchmark_names[i : i + 2])) for i in range(3)
        ]
        specs = ["mppm:foa", "baseline:one-shot", "detailed"]
        try:
            machine = serial.machine(num_cores=2)
            items = [(spec, m, machine) for spec in specs for m in mixes]
            assert serial.predictor_batch(items) == parallel.predictor_batch(
                [(spec, m, parallel.machine(num_cores=2)) for spec in specs for m in mixes]
            )
        finally:
            parallel.close()

    def test_warm_cache_recomputes_nothing_for_any_spec(self, tmp_path, monkeypatch):
        from repro.profiling.profiler import Profiler
        from repro.simulators.multi_core import MultiCoreSimulator

        cache_dir = tmp_path / "campaign"
        cold = make_setup(cache_dir=cache_dir)
        machine = cold.machine(num_cores=2)
        mixes = [
            WorkloadMix(programs=tuple(cold.benchmark_names[i : i + 2])) for i in range(3)
        ]
        specs = ["mppm:foa", "mppm:sdc", "baseline:no-contention", "detailed"]
        items = [(spec, m, machine) for spec in specs for m in mixes]
        cold_results = cold.predictor_batch(items)

        def forbidden(self, *args, **kwargs):
            raise AssertionError("a warm cache must not recompute anything")

        monkeypatch.setattr(MultiCoreSimulator, "run", forbidden)
        monkeypatch.setattr(MPPM, "predict_mix", forbidden)
        monkeypatch.setattr(Profiler, "profile", forbidden)

        warm = make_setup(cache_dir=cache_dir)
        warm_results = warm.predictor_batch(
            [(spec, m, warm.machine(num_cores=2)) for spec in specs for m in mixes]
        )
        assert warm_results == cold_results
        assert all(result.predictor in specs for result in warm_results)


class TestExperimentsTakePredictorLists:
    @pytest.fixture(scope="class")
    def experiment_setup(self):
        return ExperimentSetup(config=CONFIG, suite=small_suite(6))

    def test_accuracy_with_multiple_predictors(self, experiment_setup):
        from repro.experiments.accuracy import accuracy_experiment

        result = accuracy_experiment(
            experiment_setup,
            core_counts=(2,),
            mixes_per_core_count=3,
            predictors=("mppm:foa", "baseline:no-contention"),
        )
        assert [entry.predictor for entry in result.per_core_count] == [
            "mppm:foa",
            "baseline:no-contention",
        ]
        # The baseline ignores contention entirely, so it cannot be more
        # accurate than MPPM on average here — and the default lookup
        # returns the first (primary) predictor's entry.
        assert result.for_cores(2).predictor == "mppm:foa"
        assert result.for_cores(2, "baseline:no-contention").num_mixes == 3
        assert "predictor" in result.to_rows()[0]

    def test_accuracy_default_is_bit_identical_to_explicit_mppm_foa(self, experiment_setup):
        from repro.experiments.accuracy import accuracy_experiment

        default = accuracy_experiment(experiment_setup, core_counts=(2,), mixes_per_core_count=3)
        explicit = accuracy_experiment(
            experiment_setup,
            core_counts=(2,),
            mixes_per_core_count=3,
            predictors=["mppm:foa"],
        )
        assert default.per_core_count == explicit.per_core_count

    def test_ranking_with_multiple_predictors(self, experiment_setup):
        from repro.experiments.ranking import ranking_experiment

        result = ranking_experiment(
            experiment_setup,
            num_trials=2,
            mixes_per_trial=2,
            reference_mixes=3,
            mppm_mixes=4,
            predictors=("mppm:foa", "baseline:one-shot"),
        )
        assert [scores.label for scores in result.models] == [
            "mppm:foa",
            "baseline:one-shot",
        ]
        assert result.mppm is result.models[0]
        assert result.model("baseline:one-shot").config_numbers == [1, 2, 3, 4, 5, 6]
        assert {row["set"] for row in result.to_rows()} >= {"mppm:foa", "baseline:one-shot"}
        with pytest.raises(KeyError):
            result.model("detailed")
        with pytest.raises(ValueError):
            ranking_experiment(experiment_setup, predictors=())

    def test_agreement_with_multiple_predictors(self, experiment_setup):
        from repro.experiments.agreement import agreement_experiment

        result = agreement_experiment(
            experiment_setup,
            num_trials=2,
            mixes_per_trial=2,
            reference_mixes=3,
            mppm_mixes=4,
            predictors=("mppm:foa", "baseline:no-contention"),
        )
        assert set(result.by_predictor) == {"mppm:foa", "baseline:no-contention"}
        assert result.pairs == result.by_predictor["mppm:foa"]
        assert len(result.by_predictor["baseline:no-contention"]) == 5

    def test_stress_with_multiple_predictors(self, experiment_setup):
        from repro.experiments.stress import stress_experiment

        result = stress_experiment(
            experiment_setup,
            num_mixes=4,
            worst_k=2,
            predictors=("mppm:foa", "baseline:one-shot"),
        )
        assert result.predictor == "mppm:foa"
        assert set(result.by_predictor) == {"mppm:foa", "baseline:one-shot"}
        assert len(result.by_predictor["baseline:one-shot"]) == 4
        assert result.by_predictor["mppm:foa"] == result.evaluations
        # Both predictors were evaluated against the same measured runs.
        assert [e.measured for e in result.evaluations] == [
            e.measured for e in result.by_predictor["baseline:one-shot"]
        ]

    def test_detailed_predictor_shares_the_simulation_cache_entry(self, tmp_path, monkeypatch):
        from repro.simulators.multi_core import MultiCoreSimulator

        cache_dir = tmp_path / "campaign"
        cold = make_setup(cache_dir=cache_dir)
        machine = cold.machine(num_cores=2)
        mix = WorkloadMix(programs=tuple(cold.benchmark_names[:2]))
        measured = cold.predictor_batch([(SIMULATE, mix, machine)])[0]

        def forbidden(self, *args, **kwargs):
            raise AssertionError("detailed predictions must reuse cached simulations")

        monkeypatch.setattr(MultiCoreSimulator, "run", forbidden)
        warm = make_setup(cache_dir=cache_dir)
        prediction = warm.predictor_batch([("detailed", mix, warm.machine(num_cores=2))])[0]
        assert prediction.system_throughput == measured.system_throughput
        assert prediction.predictor == "detailed"

    def test_detailed_evaluations_reuse_the_reference_sweep(self):
        from repro.experiments.results import evaluation_ops, evaluations
        from repro.predictors import prediction_from_run

        setup = make_setup()
        machine = setup.machine(num_cores=2)
        pairs = [
            (WorkloadMix(programs=tuple(setup.benchmark_names[i : i + 2])), machine)
            for i in range(2)
        ]
        ops = evaluation_ops(("mppm:foa", "detailed"), pairs)
        evaluated = evaluations(ops, setup.predictor_batch(ops))
        # One simulation per pair, not one per (pair, detailed-ish op).
        assert setup.reference_runs() == len(pairs)
        for evaluation in evaluated["detailed"]:
            assert evaluation.predicted == prediction_from_run(evaluation.measured)
            assert evaluation.stp_error == 0.0

    def test_ranking_and_agreement_canonicalise_specs(self, experiment_setup):
        from repro.experiments.agreement import agreement_experiment
        from repro.experiments.ranking import ranking_experiment

        ranked = ranking_experiment(
            experiment_setup,
            num_trials=2,
            mixes_per_trial=2,
            reference_mixes=3,
            mppm_mixes=4,
            predictors=("MPPM",),  # shorthand + case, canonicalised everywhere else
        )
        assert ranked.model("mppm:foa").label == "mppm:foa"
        agreed = agreement_experiment(
            experiment_setup,
            num_trials=2,
            mixes_per_trial=2,
            reference_mixes=3,
            mppm_mixes=4,
            predictors=("MPPM",),
        )
        assert agreed.by_predictor["mppm:foa"] == agreed.pairs

    def test_variability_accepts_predictor_specs(self, experiment_setup):
        from repro.experiments.variability import variability_experiment

        legacy = variability_experiment(
            experiment_setup, max_mixes=4, source="simulation", grid=[4]
        )
        spec = variability_experiment(
            experiment_setup, max_mixes=4, source="detailed", grid=[4]
        )
        assert legacy.points[0] == spec.points[0]
        baseline = variability_experiment(
            experiment_setup, max_mixes=4, source="baseline:no-contention", grid=[4]
        )
        assert baseline.points[0].antt_mean == pytest.approx(1.0)
        with pytest.raises(ValueError):
            variability_experiment(experiment_setup, source="oracle")
