"""Unit and behavioural tests for the MPPM iterative model."""

import pytest

from repro.contention import InductiveProbabilityModel, StackDistanceCompetitionModel
from repro.core import MPPM, MPPMConfig
from repro.core.mppm import MPPMError
from repro.workloads import WorkloadMix


class TestMPPMConfig:
    def test_defaults_follow_the_paper(self):
        config = MPPMConfig()
        assert config.chunk_instructions is None  # one fifth of the trace
        assert config.target_passes == 5.0
        assert 0.0 <= config.smoothing < 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(chunk_instructions=0),
            dict(smoothing=-0.1),
            dict(smoothing=1.0),
            dict(target_passes=0),
            dict(max_iterations=0),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(MPPMError):
            MPPMConfig(**kwargs)


class TestMPPMPredictions:
    def test_single_program_mix_has_no_slowdown(self, machine4, profiles4):
        model = MPPM(machine4.with_num_cores(1))
        prediction = model.predict([profiles4["gamess"]])
        assert prediction.converged
        program = prediction.programs[0]
        assert program.slowdown == pytest.approx(1.0, abs=1e-6)
        assert program.predicted_cpi == pytest.approx(program.single_core_cpi, rel=1e-6)

    def test_predictions_are_deterministic(self, machine4, profiles4):
        model = MPPM(machine4)
        mix = [profiles4[name] for name in ("gamess", "hmmer", "soplex", "mcf")]
        first = model.predict(mix)
        second = model.predict(mix)
        assert first.predicted_cpis == pytest.approx(second.predicted_cpis)

    def test_slowdowns_are_at_least_one_and_converged(self, machine4, profiles4):
        model = MPPM(machine4)
        prediction = model.predict(
            [profiles4[name] for name in ("gamess", "gamess", "hmmer", "soplex")]
        )
        assert prediction.converged
        assert prediction.iterations >= 5
        for program in prediction.programs:
            assert program.slowdown >= 1.0 - 1e-9

    def test_sensitive_program_is_predicted_to_suffer_most(self, machine4, profiles4):
        model = MPPM(machine4)
        prediction = model.predict(
            [profiles4[name] for name in ("gamess", "hmmer", "soplex", "mcf")]
        )
        slowdown = {p.name: p.slowdown for p in prediction.programs}
        assert slowdown["gamess"] == max(slowdown.values())
        assert slowdown["hmmer"] <= 1.2

    def test_stp_bounded_by_core_count(self, machine4, profiles4):
        model = MPPM(machine4)
        prediction = model.predict(
            [profiles4[name] for name in ("lbm", "mcf", "soplex", "hmmer")]
        )
        assert 0 < prediction.system_throughput <= machine4.num_cores
        assert prediction.average_normalized_turnaround_time >= 1.0

    def test_duplicate_programs_get_distinct_labels_but_same_prediction(
        self, machine4, profiles4
    ):
        model = MPPM(machine4)
        prediction = model.predict(
            [profiles4[name] for name in ("gamess", "gamess", "hmmer", "soplex")]
        )
        gamess_predictions = [p for p in prediction.programs if p.name == "gamess"]
        assert len(gamess_predictions) == 2
        assert gamess_predictions[0].slowdown == pytest.approx(
            gamess_predictions[1].slowdown, rel=1e-9
        )

    def test_history_is_recorded_when_requested(self, machine4, profiles4):
        model = MPPM(machine4, config=MPPMConfig(store_history=True))
        prediction = model.predict([profiles4["gamess"], profiles4["soplex"]][:2])
        assert len(prediction.history) == prediction.iterations
        # Instruction pointers advance monotonically across iterations.
        executed = [record.instructions_executed[0] for record in prediction.history]
        assert executed == sorted(executed)

    def test_predict_mix_uses_profile_library(self, machine4, profiles4):
        model = MPPM(machine4)
        mix = WorkloadMix(programs=("gamess", "hmmer", "soplex", "mcf"))
        prediction = model.predict_mix(mix, profiles4)
        assert {p.name for p in prediction.programs} == set(mix.programs)
        with pytest.raises(MPPMError):
            model.predict_mix(WorkloadMix(programs=("gamess", "unknown")), profiles4)

    def test_empty_profile_list_rejected(self, machine4):
        with pytest.raises(MPPMError):
            MPPM(machine4).predict([])

    def test_profile_machine_mismatch_is_detected(self, machine4, profiles4):
        from repro.config import baseline_machine, scaled

        other_machine = scaled(baseline_machine(num_cores=4, llc_config=5), 16)
        with pytest.raises(MPPMError):
            MPPM(other_machine).predict([profiles4["gamess"]] * 4)


class TestModelVariants:
    def test_alternative_contention_models_produce_sane_predictions(self, machine4, profiles4):
        profiles = [profiles4[name] for name in ("gamess", "hmmer", "soplex", "mcf")]
        foa = MPPM(machine4).predict(profiles)
        sdc = MPPM(machine4, contention_model=StackDistanceCompetitionModel()).predict(profiles)
        prob = MPPM(machine4, contention_model=InductiveProbabilityModel()).predict(profiles)
        for prediction in (sdc, prob):
            assert prediction.converged
            for program in prediction.programs:
                assert program.slowdown >= 1.0 - 1e-9
        # All three models agree on the qualitative picture (same ballpark ANTT).
        for prediction in (sdc, prob):
            assert prediction.average_normalized_turnaround_time == pytest.approx(
                foa.average_normalized_turnaround_time, rel=0.6
            )

    def test_literal_figure2_update_underestimates_large_slowdowns(self, machine4, profiles4):
        profiles = [profiles4[name] for name in ("gamess", "gamess", "hmmer", "soplex")]
        default = MPPM(machine4).predict(profiles)
        literal = MPPM(machine4, config=MPPMConfig(literal_figure2_update=True)).predict(profiles)
        assert literal.program("gamess").slowdown <= default.program("gamess").slowdown + 1e-9

    def test_windowed_cpi_variant_runs_and_converges(self, machine4, profiles4):
        model = MPPM(machine4, config=MPPMConfig(use_windowed_cpi=True))
        prediction = model.predict(
            [profiles4[name] for name in ("gamess", "hmmer", "soplex", "mcf")]
        )
        assert prediction.converged

    def test_zero_smoothing_still_converges(self, machine4, profiles4):
        model = MPPM(machine4, config=MPPMConfig(smoothing=0.0))
        prediction = model.predict([profiles4["gamess"], profiles4["soplex"]])
        assert prediction.converged

    def test_explicit_chunk_size_controls_iteration_count(self, machine4, profiles4):
        profiles = [profiles4["gamess"], profiles4["soplex"]]
        trace_length = profiles[0].num_instructions
        coarse = MPPM(machine4, config=MPPMConfig(chunk_instructions=trace_length)).predict(profiles)
        fine = MPPM(machine4, config=MPPMConfig(chunk_instructions=trace_length // 10)).predict(profiles)
        assert fine.iterations > coarse.iterations
        assert coarse.converged and fine.converged

    def test_max_iterations_guard_reports_non_convergence(self, machine4, profiles4):
        model = MPPM(machine4, config=MPPMConfig(max_iterations=2))
        prediction = model.predict(
            [profiles4[name] for name in ("gamess", "hmmer", "soplex", "mcf")]
        )
        assert not prediction.converged
        assert prediction.iterations == 2
