"""Figure 8: pairwise design decisions — does current practice get them right?

For every pairwise comparison of configuration #1 against configuration
#k (k = 2..6), the paper asks: does a current-practice trial (a small
set of category-sampled mixes, evaluated with detailed simulation) pick
the same winner as MPPM (evaluated over a large mix sample)?  And when
they disagree, who agrees with the reference (detailed simulation of a
large mix set)?  The answers are reported as fractions of trials in
four categories:

* agree, both right
* agree, both wrong
* disagree, MPPM right
* disagree, detailed (current practice) right

The paper's headline: for the #1-vs-#6 comparison current practice
disagrees with MPPM in roughly 40% of the trials and is wrong when it
does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from repro.experiments.ranking import (
    DesignSpaceScores,
    _design_space_ops,
    _design_space_scores,
    _design_space_sets,
)
from repro.experiments.reporting import format_table
from repro.experiments.setup import ExperimentSetup
from repro.predictors import canonical_spec


@dataclass(frozen=True)
class PairwiseAgreement:
    """Agreement fractions for one configuration pair (e.g. #1 vs #4)."""

    baseline_config: int
    challenger_config: int
    num_trials: int
    agree_both_right: float
    agree_both_wrong: float
    disagree_mppm_right: float
    disagree_practice_right: float

    @property
    def disagree_fraction(self) -> float:
        return self.disagree_mppm_right + self.disagree_practice_right

    @property
    def practice_wrong_fraction(self) -> float:
        """Fraction of trials in which current practice picks the wrong winner."""
        return self.agree_both_wrong + self.disagree_mppm_right


@dataclass(frozen=True)
class AgreementResult:
    """Figure 8: one :class:`PairwiseAgreement` per challenger configuration.

    ``pairs`` describes the primary (first requested) predictor;
    ``by_predictor`` maps every requested spec to its own pair list, so
    the experiment generalises from "current practice vs MPPM" to
    "current practice vs any set of estimators".
    """

    metric: str
    pairs: List[PairwiseAgreement]
    by_predictor: Optional[Mapping[str, List[PairwiseAgreement]]] = None

    def pair(self, challenger_config: int) -> PairwiseAgreement:
        for pair in self.pairs:
            if pair.challenger_config == challenger_config:
                return pair
        raise KeyError(f"no agreement entry for config #{challenger_config}")

    def to_rows(self) -> List[Mapping[str, object]]:
        return [
            {
                "comparison": f"#${pair.baseline_config} vs #{pair.challenger_config}".replace("$", ""),
                "agree_both_right_%": 100.0 * pair.agree_both_right,
                "agree_both_wrong_%": 100.0 * pair.agree_both_wrong,
                "disagree_MPPM_right_%": 100.0 * pair.disagree_mppm_right,
                "disagree_practice_right_%": 100.0 * pair.disagree_practice_right,
            }
            for pair in self.pairs
        ]

    def render(self) -> str:
        return format_table(
            self.to_rows(),
            title=(
                f"Figure 8 — pairwise config decisions ({self.metric}): how often current "
                "practice agrees with MPPM, and who is right vs. the reference:"
            ),
            float_format="{:.1f}",
        )


def _winner(stp_a: float, stp_b: float, antt_a: float, antt_b: float, metric: str) -> int:
    """Which of the two configs wins (0 = first, 1 = second) under the metric."""
    if metric == "stp":
        return 0 if stp_a >= stp_b else 1
    return 0 if antt_a <= antt_b else 1


def _pairwise_agreements(
    reference: DesignSpaceScores,
    model_scores: DesignSpaceScores,
    trial_scores: Sequence[DesignSpaceScores],
    metric: str,
) -> List[PairwiseAgreement]:
    """The Figure 8 fractions for one model against the trials and reference."""
    baseline_index = reference.config_numbers.index(1)
    pairs: List[PairwiseAgreement] = []
    for challenger in (2, 3, 4, 5, 6):
        challenger_index = reference.config_numbers.index(challenger)

        def winner_of(scores: DesignSpaceScores) -> int:
            return _winner(
                scores.stp[baseline_index],
                scores.stp[challenger_index],
                scores.antt[baseline_index],
                scores.antt[challenger_index],
                metric,
            )

        reference_winner = winner_of(reference)
        model_winner = winner_of(model_scores)

        agree_right = agree_wrong = disagree_model = disagree_practice = 0
        for scores in trial_scores:
            practice_winner = winner_of(scores)
            practice_correct = practice_winner == reference_winner
            model_correct = model_winner == reference_winner
            if practice_winner == model_winner:
                if practice_correct:
                    agree_right += 1
                else:
                    agree_wrong += 1
            else:
                if model_correct:
                    disagree_model += 1
                else:
                    disagree_practice += 1

        total = float(len(trial_scores))
        pairs.append(
            PairwiseAgreement(
                baseline_config=1,
                challenger_config=challenger,
                num_trials=len(trial_scores),
                agree_both_right=agree_right / total,
                agree_both_wrong=agree_wrong / total,
                disagree_mppm_right=disagree_model / total,
                disagree_practice_right=disagree_practice / total,
            )
        )
    return pairs


def agreement_experiment(
    setup: ExperimentSetup,
    num_cores: int = 4,
    num_trials: int = 20,
    mixes_per_trial: int = 12,
    reference_mixes: int = 60,
    mppm_mixes: int = 600,
    metric: str = "stp",
    predictors: Sequence[str] = ("mppm:foa",),
    seed: int = 53,
) -> AgreementResult:
    """Run the Figure 8 experiment (current practice uses category sampling).

    ``predictors`` lists the registry specs whose pairwise decisions
    are checked against current practice; the paper's figure is the
    default ``("mppm:foa",)`` and ``result.pairs`` always describes the
    first spec (the rest are in ``result.by_predictor``).
    """
    if metric not in ("stp", "antt"):
        raise ValueError("metric must be 'stp' or 'antt'")
    if not predictors:
        raise ValueError("at least one predictor spec is required")
    predictors = [canonical_spec(spec) for spec in predictors]
    machines = setup.design_space(num_cores=num_cores)
    sets = _design_space_sets(
        setup,
        "category",
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
    model_scores, trial_scores = scores[: len(predictors)], scores[len(predictors) :]
    by_predictor = {
        model.label: _pairwise_agreements(reference, model, trial_scores, metric)
        for model in model_scores
    }
    return AgreementResult(
        metric=metric,
        pairs=by_predictor[model_scores[0].label],
        by_predictor=by_predictor,
    )
