"""Figures 4 and 5 (+ the §4.2 16-core numbers): MPPM accuracy.

For a set of random workload mixes per core count, the experiment runs
both MPPM and the detailed reference simulator and reports:

* the STP and ANTT scatter points (predicted vs. measured) and the
  average absolute relative error per core count (Figure 4; the paper
  reports 1.4%/1.6%/1.7% STP error and 1.5%/1.9%/2.1% ANTT error for
  2/4/8 cores, and 2.3%/2.9% for the 16-core configuration #4), and
* the per-program slowdown scatter and its average error (Figure 5;
  the paper reports 7% for 2–8 cores and 4.5% for 16 cores).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from repro.experiments.reporting import format_table
from repro.experiments.results import MixEvaluation, average_errors, evaluation_ops, evaluations
from repro.experiments.setup import SIMULATE, ExperimentSetup, PredictJob, llc_config_number


@dataclass(frozen=True)
class AccuracyForCoreCount:
    """Accuracy results for one (predictor, core count, LLC configuration)."""

    num_cores: int
    llc_config: int
    evaluations: List[MixEvaluation]
    predictor: str = "mppm:foa"

    @property
    def num_mixes(self) -> int:
        return len(self.evaluations)

    @property
    def average_stp_error(self) -> float:
        return average_errors(self.evaluations)[0]

    @property
    def average_antt_error(self) -> float:
        return average_errors(self.evaluations)[1]

    @property
    def average_slowdown_error(self) -> float:
        return average_errors(self.evaluations)[2]

    def stp_scatter(self) -> List[Mapping[str, float]]:
        """Predicted/measured STP pairs (the dots of Figure 4a)."""
        return [
            {"predicted": evaluation.predicted_stp, "measured": evaluation.measured_stp}
            for evaluation in self.evaluations
        ]

    def slowdown_scatter(self) -> List[Mapping[str, float]]:
        """Predicted/measured per-program slowdown pairs (the dots of Figure 5)."""
        points = []
        for evaluation in self.evaluations:
            for predicted, measured in zip(
                evaluation.predicted_slowdowns, evaluation.measured_slowdowns
            ):
                points.append({"predicted": predicted, "measured": measured})
        return points


@dataclass(frozen=True)
class AccuracyResult:
    """Figure 4 + Figure 5 + the 16-core paragraph, in one object.

    With several predictors requested, ``per_core_count`` holds one
    entry per (predictor, core count) combination, in predictor order.
    """

    per_core_count: List[AccuracyForCoreCount]

    def for_cores(self, num_cores: int, predictor: Optional[str] = None) -> AccuracyForCoreCount:
        for entry in self.per_core_count:
            if entry.num_cores == num_cores and predictor in (None, entry.predictor):
                return entry
        raise KeyError(f"no accuracy results for {num_cores} cores")

    def to_rows(self) -> List[Mapping[str, object]]:
        return [
            {
                "predictor": entry.predictor,
                "cores": entry.num_cores,
                "llc_config": f"#{entry.llc_config}",
                "mixes": entry.num_mixes,
                "STP_error_%": 100.0 * entry.average_stp_error,
                "ANTT_error_%": 100.0 * entry.average_antt_error,
                "slowdown_error_%": 100.0 * entry.average_slowdown_error,
            }
            for entry in self.per_core_count
        ]

    def render(self) -> str:
        return format_table(
            self.to_rows(),
            title=(
                "Figures 4 & 5 — MPPM prediction error versus detailed simulation "
                "(paper: STP 1.4/1.6/1.7/2.3%, ANTT 1.5/1.9/2.1/2.9%, "
                "slowdown ~7% for 2-8 cores, 4.5% for 16):"
            ),
            float_format="{:.2f}",
        )


def _accuracy_result(ops: Sequence[PredictJob], results: Sequence[object]) -> AccuracyResult:
    """One entry per predictor and run of consecutive pairs on one machine."""
    machines = [machine for spec, _, machine in ops if spec == SIMULATE]
    per_core_count: List[AccuracyForCoreCount] = []
    for spec, evaluated in evaluations(ops, results).items():
        start = 0
        for machine, group in itertools.groupby(machines):
            end = start + len(list(group))
            per_core_count.append(
                AccuracyForCoreCount(
                    num_cores=machine.num_cores,
                    llc_config=llc_config_number(machine),
                    evaluations=evaluated[start:end],
                    predictor=spec,
                )
            )
            start = end
    return AccuracyResult(per_core_count=per_core_count)


def accuracy_experiment(
    setup: ExperimentSetup,
    core_counts: Sequence[int] = (2, 4, 8),
    mixes_per_core_count: int = 40,
    llc_config: int = 1,
    include_16_core: bool = False,
    mixes_16_core: int = 10,
    llc_config_16_core: int = 4,
    predictors: Sequence[str] = ("mppm:foa",),
    seed: int = 23,
) -> AccuracyResult:
    """Run the Figure 4/5 experiment.

    The paper uses 150 mixes for 2/4/8 cores (configuration #1) and 25
    mixes for 16 cores (configuration #4); the defaults are smaller so
    the whole benchmark suite stays fast, and are parameters so the
    paper's sizes can be requested.  ``predictors`` lists the registry
    specs evaluated against the reference — the paper's figure is the
    default ``("mppm:foa",)``, and e.g. adding the baselines quantifies
    what the iterative entanglement buys.

    All core counts and predictors are submitted to the engine as one
    sweep (the reference simulation of each mix is shared by every
    predictor), so a parallel setup overlaps the whole sweep.
    """
    if not predictors:
        raise ValueError("at least one predictor spec is required")
    groups = [(num_cores, llc_config, mixes_per_core_count) for num_cores in core_counts]
    if include_16_core:
        groups.append((16, llc_config_16_core, mixes_16_core))
    pairs = [
        (mix, setup.machine(num_cores=num_cores, llc_config=config))
        for num_cores, config, num_mixes in groups
        for mix in setup.mixes(num_cores, num_mixes, seed=seed + num_cores)
    ]
    ops = evaluation_ops(predictors, pairs)
    return _accuracy_result(ops, setup.predictor_batch(ops))
