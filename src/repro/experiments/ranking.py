"""Figure 7: can a handful of random mixes rank the LLC design space?

The paper compares six LLC configurations (Table 2) on a quad-core
machine.  The reference ranking comes from detailed simulation of a
large set of mixes (150 in the paper).  "Current practice" is emulated
by 20 trials, each detailed-simulating only 12 random mixes — either
fully random (Figure 7a) or 4 MEM + 4 COMP + 4 MIX category mixes
(Figure 7b) — and the Spearman rank correlation of each trial's ranking
against the reference is reported.  MPPM's ranking, computed over a
large number of mixes (5,000 in the paper), is the right-most bar.

The paper's finding: individual current-practice trials can have rank
correlations of 0.5 and below, while MPPM achieves 1.0 (STP) and 0.93
(ANTT).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from repro.config import MachineConfig
from repro.experiments.reporting import format_table
from repro.experiments.setup import ExperimentSetup, PredictJob, llc_config_number
from repro.metrics import spearman_rank_correlation
from repro.predictors import canonical_spec, lookup_spec
from repro.workloads import BenchmarkClass, WorkloadMix

#: One scored set of a design-space sweep: (label, predictor spec, mixes).
_MixSet = Tuple[str, str, Sequence[WorkloadMix]]


@dataclass(frozen=True)
class DesignSpaceScores:
    """Average STP and ANTT of every design point, for one evaluation method."""

    label: str
    config_numbers: List[int]
    stp: List[float]
    antt: List[float]

    def stp_rank_correlation(self, reference: "DesignSpaceScores") -> float:
        return spearman_rank_correlation(self.stp, reference.stp)

    def antt_rank_correlation(self, reference: "DesignSpaceScores") -> float:
        # ANTT is lower-is-better; rank correlation is sign-invariant to
        # that as long as both series use the same orientation.
        return spearman_rank_correlation(self.antt, reference.antt)


@dataclass(frozen=True)
class RankingResult:
    """Everything Figure 7 plots, for one selection policy.

    ``models`` holds one :class:`DesignSpaceScores` per requested
    predictor spec (labelled by it); the paper's single-model figure is
    the special case ``predictors=("mppm:foa",)``, exposed through the
    ``mppm`` convenience accessors.
    """

    policy: str
    reference: DesignSpaceScores
    models: List[DesignSpaceScores]
    trials: List[DesignSpaceScores]

    @property
    def mppm(self) -> DesignSpaceScores:
        """The first (primary) model's scores — MPPM in the paper's setup."""
        return self.models[0]

    def model(self, spec: str) -> DesignSpaceScores:
        """The scores of one requested predictor, by spec label."""
        label = lookup_spec(spec)
        for scores in self.models:
            if scores.label == label:
                return scores
        raise KeyError(f"no ranking scores for predictor {spec!r}")

    @property
    def trial_stp_correlations(self) -> List[float]:
        return [trial.stp_rank_correlation(self.reference) for trial in self.trials]

    @property
    def trial_antt_correlations(self) -> List[float]:
        return [trial.antt_rank_correlation(self.reference) for trial in self.trials]

    @property
    def average_trial_stp_correlation(self) -> float:
        return float(np.mean(self.trial_stp_correlations))

    @property
    def average_trial_antt_correlation(self) -> float:
        return float(np.mean(self.trial_antt_correlations))

    @property
    def mppm_stp_correlation(self) -> float:
        return self.mppm.stp_rank_correlation(self.reference)

    @property
    def mppm_antt_correlation(self) -> float:
        return self.mppm.antt_rank_correlation(self.reference)

    def to_rows(self) -> List[Mapping[str, object]]:
        rows = [
            {
                "set": f"trial {i + 1}",
                "STP_rank_corr": stp_corr,
                "ANTT_rank_corr": antt_corr,
            }
            for i, (stp_corr, antt_corr) in enumerate(
                zip(self.trial_stp_correlations, self.trial_antt_correlations)
            )
        ]
        rows.append(
            {
                "set": "avg (current practice)",
                "STP_rank_corr": self.average_trial_stp_correlation,
                "ANTT_rank_corr": self.average_trial_antt_correlation,
            }
        )
        for scores in self.models:
            rows.append(
                {
                    "set": scores.label,
                    "STP_rank_corr": scores.stp_rank_correlation(self.reference),
                    "ANTT_rank_corr": scores.antt_rank_correlation(self.reference),
                }
            )
        return rows

    def render(self) -> str:
        return format_table(
            self.to_rows(),
            title=(
                f"Figure 7 ({self.policy}) — Spearman rank correlation of the six-LLC-config "
                "ranking against the detailed-simulation reference "
                "(paper: individual trials as low as <=0.5; MPPM 1.0 STP / 0.93 ANTT):"
            ),
        )


def _design_space_sets(
    setup: ExperimentSetup,
    policy: str,
    num_cores: int,
    num_trials: int,
    mixes_per_trial: int,
    reference_mixes: int,
    mppm_mixes: int,
    predictors: Sequence[str],
    seed: int,
) -> List[_MixSet]:
    """The reference set, one set per predictor, then the current-practice trials."""
    reference = setup.mixes(num_cores, reference_mixes, seed=seed)
    sets: List[_MixSet] = [("reference (detailed simulation)", "detailed", reference)]
    model_mixes = setup.mixes(num_cores, mppm_mixes, seed=seed + 1)
    sets.extend((spec, spec, model_mixes) for spec in predictors)
    for trial in range(num_trials):
        if policy == "random":
            trial_mixes = setup.mixes(num_cores, mixes_per_trial, seed=seed + 100 + trial)
        else:
            trial_mixes = setup.mixes(
                num_cores,
                max(1, mixes_per_trial // len(BenchmarkClass)),
                seed=seed + 100 + trial,
                category=tuple(BenchmarkClass),
            )
        sets.append((f"trial {trial + 1}", "detailed", trial_mixes))
    return sets


def _design_space_ops(
    machines: Sequence[MachineConfig], sets: Sequence[_MixSet]
) -> List[PredictJob]:
    """Each set's spec on each of its mixes, on every design point: one sweep."""
    return [(spec, mix, machine) for _, spec, mixes in sets for machine in machines for mix in mixes]


def _design_space_scores(
    machines: Sequence[MachineConfig], sets: Sequence[_MixSet], results: Sequence
) -> List[DesignSpaceScores]:
    """Average STP/ANTT per design point of every set, from its sweep's results."""
    config_numbers = [llc_config_number(machine) for machine in machines]
    scores: List[DesignSpaceScores] = []
    offset = 0
    for label, _, mixes in sets:
        stp, antt = [], []
        for _ in machines:
            chunk = results[offset : offset + len(mixes)]
            offset += len(mixes)
            stp.append(float(np.mean([result.system_throughput for result in chunk])))
            antt.append(
                float(np.mean([result.average_normalized_turnaround_time for result in chunk]))
            )
        scores.append(DesignSpaceScores(label, config_numbers, stp, antt))
    return scores


def ranking_experiment(
    setup: ExperimentSetup,
    policy: str = "random",
    num_cores: int = 4,
    num_trials: int = 20,
    mixes_per_trial: int = 12,
    reference_mixes: int = 60,
    mppm_mixes: int = 600,
    predictors: Sequence[str] = ("mppm:foa",),
    seed: int = 41,
) -> RankingResult:
    """Run one panel of Figure 7.

    ``policy`` is ``"random"`` (Figure 7a) or ``"category"``
    (Figure 7b: equal parts MEM / COMP / MIX category mixes per trial).
    ``predictors`` is the list of registry specs ranked over the large
    (``mppm_mixes``) sample — the paper's figure is the default
    ``("mppm:foa",)``, but any estimators can compete (baselines,
    other contention models, even ``detailed``).  The paper's sizes are
    20 trials x 12 mixes, a 150-mix reference and 5,000 MPPM mixes; the
    defaults are smaller but parameterised.
    """
    if policy not in ("random", "category"):
        raise ValueError("policy must be 'random' or 'category'")
    if not predictors:
        raise ValueError("at least one predictor spec is required")
    predictors = [canonical_spec(spec) for spec in predictors]
    machines = setup.design_space(num_cores=num_cores)
    sets = _design_space_sets(
        setup,
        policy,
        num_cores,
        num_trials,
        mixes_per_trial,
        reference_mixes,
        mppm_mixes,
        predictors,
        seed,
    )
    ops = _design_space_ops(machines, sets)
    reference, *scores = _design_space_scores(machines, sets, setup.predictor_batch(ops))
    return RankingResult(
        policy=policy,
        reference=reference,
        models=scores[: len(predictors)],
        trials=scores[len(predictors) :],
    )
