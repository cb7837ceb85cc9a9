"""Integration tests for the per-figure experiment harnesses.

These run the same code paths as the ``benchmarks/`` targets but on a
reduced setup (8 benchmarks, short traces, few mixes), asserting the
structural invariants of each experiment rather than the paper's
headline numbers (which the benchmark targets check at full scale).
"""

import pytest

from repro.experiments import SIMULATE, ExperimentConfig, ExperimentSetup
from repro.experiments.ablations import (
    contention_model_ablation,
    iteration_ablation,
    smoothing_ablation,
    update_rule_ablation,
)
from repro.experiments.accuracy import accuracy_experiment
from repro.experiments.agreement import agreement_experiment
from repro.experiments.configurations import configuration_tables
from repro.experiments.ranking import ranking_experiment
from repro.experiments.results import evaluation_ops, evaluations
from repro.experiments.speed import speed_experiment
from repro.experiments.stress import (
    benchmark_sensitivity,
    stress_experiment,
    worst_mix_case_study,
)
from repro.experiments.variability import variability_experiment
from repro.experiments.workload_space import workload_space_report
from repro.workloads import small_suite


@pytest.fixture(scope="module")
def setup():
    return ExperimentSetup(
        config=ExperimentConfig(scale=16, num_instructions=30_000, interval_instructions=1_000),
        suite=small_suite(8),
    )


class TestConfigurationAndWorkloadSpace:
    def test_configuration_tables_render(self, setup):
        tables = configuration_tables(setup)
        assert len(tables.to_rows()) == 6
        text = tables.render()
        assert "Table 1" in text and "Table 2" in text

    def test_workload_space_counts_scale_with_suite(self, setup):
        report = workload_space_report(setup, core_counts=[2, 4])
        rows = {row["cores"]: row["possible_mixes"] for row in report.to_rows()}
        assert rows[2] == 36  # C(8 + 1, 2)
        assert rows[4] == 330  # C(11, 4)
        assert "8 benchmarks" in report.render()

    def test_measured_costs_profile_on_the_pool_and_time_in_the_driver(self):
        timed = ("exhaustive_simulation", "exhaustive_mppm")
        rows = {}
        for jobs in (1, 2):
            setup = ExperimentSetup(
                config=ExperimentConfig(
                    scale=16, num_instructions=30_000, interval_instructions=1_000
                ),
                suite=small_suite(8),
                jobs=jobs,
            )
            try:
                report = workload_space_report(setup, core_counts=[2, 4, 8], measure_costs=True)
            finally:
                setup.close()
            assert all(set(timed) < set(row) for row in report.rows)
            rows[jobs] = [
                {key: value for key, value in row.items() if key not in timed}
                for row in report.rows
            ]
            store = setup.store
            if jobs == 2:
                assert store.generated_traces == 0 and store.simulated_profiles == 0
                assert store.absorbed_profiles == store.cached_pairs() > 0
        assert rows[2] == rows[1]


class TestVariability:
    def test_confidence_interval_shrinks_with_more_mixes(self, setup):
        result = variability_experiment(setup, max_mixes=24, source="mppm", grid=[6, 12, 24])
        assert [point.num_mixes for point in result.points] == [6, 12, 24]
        assert result.points[-1].stp_ci_pct <= result.points[0].stp_ci_pct
        assert "Figure 3" in result.render()

    def test_simulation_source_matches_mppm_source_roughly(self, setup):
        simulated = variability_experiment(setup, max_mixes=10, source="simulation", grid=[10])
        modelled = variability_experiment(setup, max_mixes=10, source="mppm", grid=[10])
        assert simulated.points[0].stp_mean == pytest.approx(
            modelled.points[0].stp_mean, rel=0.15
        )

    def test_invalid_source_rejected(self, setup):
        with pytest.raises(ValueError):
            variability_experiment(setup, source="oracle")


class TestAccuracy:
    def test_accuracy_experiment_structure_and_errors(self, setup):
        result = accuracy_experiment(setup, core_counts=(2, 4), mixes_per_core_count=6)
        assert {entry.num_cores for entry in result.per_core_count} == {2, 4}
        for entry in result.per_core_count:
            assert entry.num_mixes == 6
            assert 0 <= entry.average_stp_error < 0.25
            assert len(entry.stp_scatter()) == 6
            assert len(entry.slowdown_scatter()) == 6 * entry.num_cores
        assert "Figures 4 & 5" in result.render()
        with pytest.raises(KeyError):
            result.for_cores(16)

    def test_evaluations_pair_predictions_with_measurements(self, setup):
        from repro.workloads import sample_mixes

        machine = setup.machine(num_cores=2)
        mixes = sample_mixes(setup.benchmark_names, 2, 3, seed=5)
        ops = evaluation_ops(["MPPM"], [(mix, machine) for mix in mixes])
        assert [spec for spec, _, _ in ops] == ["mppm:foa"] * 3 + [SIMULATE] * 3
        results = setup.predictor_batch(ops)
        (spec, evaluated), = evaluations(ops, results).items()
        assert spec == "mppm:foa"
        assert [evaluation.mix for evaluation in evaluated] == mixes
        assert [evaluation.predicted for evaluation in evaluated] == results[:3]
        assert [evaluation.measured for evaluation in evaluated] == results[3:]
        for evaluation in evaluated:
            assert evaluation.predicted.num_programs == 2
            assert len(evaluation.measured.programs) == 2
            assert evaluation.stp_error >= 0
            assert len(evaluation.slowdown_errors) == 2
            assert "STP" in evaluation.describe()


class TestSpeed:
    def test_speed_experiment_reports_positive_times(self, setup):
        result = speed_experiment(setup, num_cores=4, num_mixes=3, campaign_mixes=50)
        assert result.mppm_seconds_per_mix > 0
        assert result.simulation_seconds_per_mix > 0
        assert result.profiling_seconds_per_benchmark > 0
        assert result.speedup_excluding_profiling > 0
        assert result.speedup_including_profiling > 0
        assert result.one_time_profiling_seconds == pytest.approx(
            result.profiling_seconds_per_benchmark * result.num_benchmarks_profiled
        )
        assert "speedup" in result.render()


class TestRankingAndAgreement:
    def test_ranking_experiment_structure(self, setup):
        result = ranking_experiment(
            setup,
            policy="random",
            num_trials=3,
            mixes_per_trial=4,
            reference_mixes=8,
            mppm_mixes=12,
        )
        assert len(result.trials) == 3
        assert len(result.trial_stp_correlations) == 3
        assert -1.0 <= result.mppm_stp_correlation <= 1.0
        assert result.reference.config_numbers == [1, 2, 3, 4, 5, 6]
        rows = result.to_rows()
        assert rows[-1]["set"] == "mppm:foa"
        assert "Figure 7" in result.render()

    def test_ranking_category_policy_and_validation(self, setup):
        result = ranking_experiment(
            setup,
            policy="category",
            num_trials=2,
            mixes_per_trial=3,
            reference_mixes=6,
            mppm_mixes=8,
        )
        assert result.policy == "category"
        with pytest.raises(ValueError):
            ranking_experiment(setup, policy="exhaustive")

    def test_agreement_fractions_sum_to_one(self, setup):
        result = agreement_experiment(
            setup,
            num_trials=4,
            mixes_per_trial=3,
            reference_mixes=6,
            mppm_mixes=8,
        )
        assert len(result.pairs) == 5
        for pair in result.pairs:
            total = (
                pair.agree_both_right
                + pair.agree_both_wrong
                + pair.disagree_mppm_right
                + pair.disagree_practice_right
            )
            assert total == pytest.approx(1.0)
            assert 0 <= pair.disagree_fraction <= 1
            assert 0 <= pair.practice_wrong_fraction <= 1
        assert result.pair(6).challenger_config == 6
        assert "Figure 8" in result.render()
        with pytest.raises(ValueError):
            agreement_experiment(setup, metric="ipc")


class TestStress:
    def test_stress_experiment_sorting_and_overlap(self, setup):
        result = stress_experiment(setup, num_mixes=10, worst_k=3)
        measured = result.measured_stp_curve()
        assert measured == sorted(measured)
        assert len(result.predicted_stp_curve()) == 10
        assert 0 <= result.worst_case_overlap() <= 3
        assert len(result.worst_mixes_measured()) == 3
        assert "Figure 9" in result.render()

    def test_case_study_contains_requested_programs(self, setup):
        from repro.workloads import WorkloadMix

        mix = WorkloadMix(programs=("gamess", "gamess", "hmmer", "soplex"))
        result = worst_mix_case_study(setup, mix=mix)
        assert {program.name for program in result.programs} == {"gamess", "hmmer", "soplex"}
        gamess = result.program("gamess")
        assert gamess.measured_slowdown > 1.0
        assert gamess.predicted_slowdown > 1.0
        assert "Figure 6" in result.render()
        with pytest.raises(KeyError):
            result.program("povray")

    def test_benchmark_sensitivity_aggregation(self, setup):
        stress = stress_experiment(setup, num_mixes=8, worst_k=3)
        sensitivity = benchmark_sensitivity(stress.evaluations)
        rows = sensitivity.to_rows()
        assert rows == sorted(rows, key=lambda row: row["max_slowdown"], reverse=True)
        for row in rows:
            assert row["max_slowdown"] >= row["mean_slowdown"] - 1e-9
            assert row["appearances"] >= 1
        assert sensitivity.most_sensitive() in setup.benchmark_names
        with pytest.raises(KeyError):
            sensitivity.max_slowdown("not-a-benchmark")


class TestAblations:
    def test_contention_model_ablation(self, setup):
        result = contention_model_ablation(setup, models=("foa", "sdc"), num_mixes=4)
        assert {row.variant for row in result.rows} == {"foa", "sdc"}
        assert "Ablation" in result.render()
        with pytest.raises(KeyError):
            result.row("prob")

    def test_smoothing_ablation(self, setup):
        result = smoothing_ablation(setup, smoothing_factors=(0.0, 0.5), num_mixes=4)
        assert {row.variant for row in result.rows} == {"f=0.00", "f=0.50"}
        for row in result.rows:
            assert row.stp_error >= 0

    def test_update_rule_ablation(self, setup):
        result = update_rule_ablation(setup, num_mixes=4)
        assert {row.variant for row in result.rows} == {"self-consistent", "literal Figure 2"}


def _row(variant, stp, antt, slowdown):
    return {
        "variant": variant,
        "STP_error_%": stp,
        "ANTT_error_%": antt,
        "slowdown_error_%": slowdown,
    }


#: Exact ``to_rows()`` of every ablation on the module fixture at
#: ``num_mixes=4`` and each ablation's default seed.  The predictions
#: are deterministic and bit-identical across kernels, so any change to
#: how an ablation reaches the model shows up here as a float mismatch.
ABLATION_GOLDEN = {
    "contention": [
        _row("foa", 1.6110655701080199, 2.031377911034072, 2.62612765345607),
        _row("sdc", 1.2301715595168101, 1.4647277451349914, 3.697524005724732),
        _row("prob", 1.2939630916699312, 1.7123816638699503, 2.916936770785987),
    ],
    "smoothing": [
        _row("f=0.00", 4.517502120120703, 6.28742681301129, 6.753847226918336),
        _row("f=0.50", 2.2142868281549766, 2.9864239272256663, 4.1369459367854935),
        _row("f=0.90", 0.32084552810359357, 0.3877299759585531, 0.6378316320357821),
    ],
    "update rule": [
        _row("self-consistent", 2.2110502824487925, 3.0922069952851614, 4.989476582631792),
        _row("literal Figure 2", 1.231112612207769, 1.6253662142953362, 4.280605761098269),
    ],
    "iteration": [
        _row("MPPM (iterative)", 0.8776031300444243, 1.2657863907707034, 2.190917117914414),
        _row("one-shot contention", 0.30477782213283316, 0.34346147397455473, 0.5131249175043909),
        _row("no contention", 4.773799328519887, 4.819063548510133, 4.48778874674481),
    ],
}


class TestAblationGolden:
    def test_every_ablation_reproduces_its_pinned_rows(self, setup):
        results = {
            "contention": contention_model_ablation(setup, num_mixes=4),
            "smoothing": smoothing_ablation(setup, smoothing_factors=(0.0, 0.5, 0.9), num_mixes=4),
            "update rule": update_rule_ablation(setup, num_mixes=4),
            "iteration": iteration_ablation(setup, num_mixes=4),
        }
        assert {name: result.to_rows() for name, result in results.items()} == ABLATION_GOLDEN

    def test_default_smoothing_is_the_self_consistent_update_rule(self, setup):
        # f = 0.5 is MPPMConfig's default, so on the same mixes the
        # smoothing sweep's f=0.50 row is update-rule's self-consistent row.
        seed = 79  # update_rule_ablation's default seed
        (smoothed,) = smoothing_ablation(
            setup, smoothing_factors=(0.5,), num_mixes=4, seed=seed
        ).to_rows()
        self_consistent, _ = update_rule_ablation(setup, num_mixes=4, seed=seed).to_rows()
        assert smoothed.pop("variant") == "f=0.50"
        assert self_consistent.pop("variant") == "self-consistent"
        assert smoothed == self_consistent


#: Every sweep experiment at a small size, with two predictor specs where it takes a list.
SWEEP_EXPERIMENTS = {
    "variability": lambda setup, specs: variability_experiment(
        setup, max_mixes=4, source=specs[0]
    ),
    "accuracy": lambda setup, specs: accuracy_experiment(
        setup, core_counts=(2, 4), mixes_per_core_count=3, predictors=specs
    ),
    "ranking": lambda setup, specs: ranking_experiment(
        setup, num_trials=2, mixes_per_trial=3, reference_mixes=3, mppm_mixes=4, predictors=specs
    ),
    "agreement": lambda setup, specs: agreement_experiment(
        setup, num_trials=2, mixes_per_trial=3, reference_mixes=3, mppm_mixes=4, predictors=specs
    ),
    "stress": lambda setup, specs: stress_experiment(
        setup, num_mixes=4, worst_k=2, predictors=specs
    ),
    "contention ablation": lambda setup, specs: contention_model_ablation(setup, num_mixes=3),
    "update-rule ablation": lambda setup, specs: update_rule_ablation(setup, num_mixes=3),
    "iteration ablation": lambda setup, specs: iteration_ablation(setup, num_mixes=3),
    "smoothing ablation": lambda setup, specs: smoothing_ablation(
        setup, smoothing_factors=(0.0, 0.5), num_mixes=3
    ),
}


class TestOneSweepPerExperiment:
    """An experiment builds its ops, makes one ``predictor_batch`` call and renders."""

    @staticmethod
    def _count(monkeypatch, target, name):
        calls = []
        original = getattr(target, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(target, name, counting)
        return calls

    @pytest.mark.parametrize("name", sorted(SWEEP_EXPERIMENTS))
    def test_each_experiment_makes_one_sweep(self, setup, name, monkeypatch):
        calls = self._count(monkeypatch, ExperimentSetup, "predictor_batch")
        SWEEP_EXPERIMENTS[name](setup, ("mppm:foa", "baseline:one-shot"))
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["accuracy", "ranking", "agreement", "stress"])
    def test_a_hybrid_sweep_makes_two_engine_runs(self, name, monkeypatch):
        serial = ExperimentSetup(
            config=ExperimentConfig(scale=16, num_instructions=20_000, interval_instructions=1_000),
            suite=small_suite(6),
        )
        sweeps = self._count(monkeypatch, ExperimentSetup, "predictor_batch")
        runs = self._count(monkeypatch, serial.engine, "run")
        SWEEP_EXPERIMENTS[name](serial, ("mppm:foa", "hybrid:k=2"))
        # The MPPM stage, then the hybrid's detailed spot checks.
        assert (len(sweeps), len(runs)) == (1, 2)
