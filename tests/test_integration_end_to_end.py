"""End-to-end integration tests: the full MPPM pipeline versus the reference.

These tests exercise the complete flow the paper describes — generate
workloads, profile them in isolation, run MPPM, and compare against the
detailed shared-LLC simulation — and assert the paper's qualitative
findings at test scale: MPPM is accurate for STP/ANTT, it identifies
the sharing-sensitive program, and it ranks LLC design points the same
way the reference does.
"""

import numpy as np
import pytest

from repro import quickstart_predict
from repro.core import MPPM
from repro.experiments import ExperimentConfig, ExperimentSetup
from repro.metrics import absolute_relative_error, spearman_rank_correlation
from repro.simulators import MultiCoreSimulator
from repro.workloads import WorkloadMix, sample_mixes, small_suite


@pytest.fixture(scope="module")
def setup():
    return ExperimentSetup(
        config=ExperimentConfig(scale=16, num_instructions=40_000, interval_instructions=1_000),
        suite=small_suite(8),
    )


class TestPredictionAccuracy:
    def test_mppm_tracks_detailed_simulation_across_random_mixes(self, setup):
        machine = setup.machine(num_cores=4, llc_config=1)
        mixes = sample_mixes(setup.benchmark_names, 4, 10, seed=99)
        predicted_stp, measured_stp = [], []
        predicted_antt, measured_antt = [], []
        for mix in mixes:
            prediction = setup.predict(mix, machine)
            measurement = setup.simulate(mix, machine)
            predicted_stp.append(prediction.system_throughput)
            measured_stp.append(measurement.system_throughput)
            predicted_antt.append(prediction.average_normalized_turnaround_time)
            measured_antt.append(measurement.average_normalized_turnaround_time)
        assert np.mean(list(map(absolute_relative_error, predicted_stp, measured_stp))) < 0.08
        assert np.mean(list(map(absolute_relative_error, predicted_antt, measured_antt))) < 0.12
        # The per-mix ordering is preserved well enough to rank workloads.
        assert spearman_rank_correlation(predicted_stp, measured_stp) > 0.7

    def test_worst_case_mix_reproduces_figure6_shape(self, setup):
        machine = setup.machine(num_cores=4, llc_config=1)
        mix = WorkloadMix(programs=("gamess", "gamess", "hmmer", "soplex"))
        prediction = setup.predict(mix, machine)
        measurement = setup.simulate(mix, machine)
        predicted = {p.name: p.slowdown for p in prediction.programs}
        measured = {p.name: p.slowdown for p in measurement.programs}
        # gamess is hit hardest, hmmer barely, in both views of the world.
        assert measured["gamess"] == max(measured.values())
        assert predicted["gamess"] == max(predicted.values())
        assert measured["hmmer"] == min(measured.values())
        assert predicted["hmmer"] == min(predicted.values())

    def test_mppm_and_reference_agree_on_llc_design_ranking(self, setup):
        mixes = sample_mixes(setup.benchmark_names, 4, 6, seed=123)
        predicted_scores, measured_scores = [], []
        for llc_config in (1, 4, 6):
            machine = setup.machine(num_cores=4, llc_config=llc_config)
            predicted = [setup.predict(mix, machine).system_throughput for mix in mixes]
            measured = [setup.simulate(mix, machine).system_throughput for mix in mixes]
            predicted_scores.append(sum(predicted) / len(predicted))
            measured_scores.append(sum(measured) / len(measured))
        assert spearman_rank_correlation(predicted_scores, measured_scores) == pytest.approx(1.0)

    def test_larger_llc_helps_in_both_model_and_simulation(self, setup):
        mix = WorkloadMix(programs=("gamess", "soplex", "omnetpp", "mcf"))
        small_machine = setup.machine(num_cores=4, llc_config=1)
        large_machine = setup.machine(num_cores=4, llc_config=6)
        assert (
            setup.simulate(mix, large_machine).average_normalized_turnaround_time
            <= setup.simulate(mix, small_machine).average_normalized_turnaround_time + 1e-9
        )
        assert (
            setup.predict(mix, large_machine).average_normalized_turnaround_time
            <= setup.predict(mix, small_machine).average_normalized_turnaround_time + 0.05
        )


class TestDecoupling:
    def test_profiles_decouple_model_from_simulator(self, setup):
        """MPPM needs only the profiles: predictions from a profile library equal
        predictions computed through the setup's convenience path."""
        machine = setup.machine(num_cores=2, llc_config=1)
        profiles = setup.profiles(machine)
        mix = WorkloadMix(programs=("gamess", "soplex"))
        direct = MPPM(machine).predict_mix(mix, profiles)
        via_setup = setup.predict(mix, machine)
        assert direct.predicted_cpis == pytest.approx(via_setup.predicted_cpis)

    def test_scaling_core_count_reuses_single_core_profiles(self, setup):
        two_core = setup.machine(num_cores=2)
        eight_core = setup.machine(num_cores=8)
        assert setup.profiles(two_core) is setup.profiles(eight_core)
        mixes = sample_mixes(setup.benchmark_names, 8, 2, seed=7)
        for mix in mixes:
            prediction = setup.predict(mix, eight_core)
            assert prediction.num_programs == 8


class TestQuickstart:
    def test_quickstart_predict_single_call(self, setup):
        prediction = quickstart_predict(["gamess", "hmmer"], setup=setup)
        assert prediction.num_programs == 2
        assert prediction.converged
        assert prediction.program("gamess").slowdown >= 1.0
