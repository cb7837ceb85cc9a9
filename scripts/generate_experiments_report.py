#!/usr/bin/env python
"""Print every experiment's rendered results in one report.

Runs every experiment harness at (slightly reduced) benchmark-suite
sizes -- Tables 1 and 2, the workload-space explosion, Figures 3 to 9,
the speed section and the ablations -- and prints each rendered table
or series under a section header, then the seconds the report took.
The full-size runs live in ``benchmarks/``.  No document in the
repository quotes this output; redirect it to keep a copy:

    PYTHONPATH=src python scripts/generate_experiments_report.py > experiments_report.txt
"""

from __future__ import annotations

import time

from repro.experiments import ExperimentSetup
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
from repro.experiments.speed import speed_experiment
from repro.experiments.stress import benchmark_sensitivity, stress_experiment, worst_mix_case_study
from repro.experiments.variability import variability_experiment
from repro.experiments.workload_space import workload_space_report


def main() -> None:
    start = time.time()
    setup = ExperimentSetup()

    def section(title: str) -> None:
        print()
        print("=" * 78)
        print(title)
        print("=" * 78)

    section("Tables 1 and 2")
    print(configuration_tables(setup).render())

    section("Workload-space explosion (Section 1)")
    print(workload_space_report(setup).render())

    section("Figure 3 - variability")
    variability = variability_experiment(setup, max_mixes=60, source="simulation")
    print(variability.render())

    section("Figures 4 and 5 - accuracy")
    accuracy = accuracy_experiment(
        setup,
        core_counts=(2, 4, 8),
        mixes_per_core_count=30,
        include_16_core=True,
        mixes_16_core=8,
    )
    print(accuracy.render())

    section("Figure 6 - worst-mix case study")
    print(worst_mix_case_study(setup).render())

    section("Section 4.3 - speed")
    print(speed_experiment(setup, num_cores=8, num_mixes=6).render())

    section("Figure 7 - ranking (random / category)")
    ranking_random = ranking_experiment(
        setup, policy="random", num_trials=10, mixes_per_trial=10,
        reference_mixes=30, mppm_mixes=150,
    )
    print(ranking_random.render())
    ranking_category = ranking_experiment(
        setup, policy="category", num_trials=10, mixes_per_trial=10,
        reference_mixes=30, mppm_mixes=150,
    )
    print(ranking_category.render())

    section("Figure 8 - pairwise agreement")
    agreement = agreement_experiment(
        setup, num_trials=10, mixes_per_trial=10, reference_mixes=30, mppm_mixes=150
    )
    print(agreement.render())

    section("Figure 9 / Section 6 - stress workloads")
    stress = stress_experiment(setup, num_mixes=60, worst_k=10)
    print(stress.render())
    print()
    print(benchmark_sensitivity(stress.evaluations).render())

    section("Ablations")
    print(contention_model_ablation(setup, num_mixes=20).render())
    print()
    print(smoothing_ablation(setup, smoothing_factors=(0.0, 0.25, 0.5, 0.75), num_mixes=20).render())
    print()
    print(update_rule_ablation(setup, num_mixes=20).render())
    print()
    print(iteration_ablation(setup, num_mixes=20).render())

    print()
    print(f"(report generated in {time.time() - start:.0f} seconds)")


if __name__ == "__main__":
    main()
