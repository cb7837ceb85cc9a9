"""Design-choice ablations of the iterative model.

The paper makes two explicit modelling choices without publishing a
sensitivity analysis: the cache-contention model (FOA, §2.3, "we found
it to be accurate enough") and the exponential-moving-average smoothing
of the slowdown update (§2.2, "we found [it] to be important for
achieving good accuracy").  These ablations quantify both on this
reproduction:

* :func:`contention_model_ablation` — MPPM accuracy with FOA versus the
  SDC-competition and inductive-probability models;
* :func:`smoothing_ablation` — MPPM accuracy as a function of the EMA
  factor ``f`` (``f = 0`` disables smoothing entirely).

Every variant but the smoothing factors is a registry predictor spec
(:mod:`repro.predictors`); the smoothing sweep builds its models through
the :class:`~repro.core.MPPM` class API, since ``f`` is not part of the
spec grammar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence

from repro.core import MPPM, MPPMConfig
from repro.experiments.reporting import format_table
from repro.experiments.results import MixEvaluation, average_errors, evaluation_ops, evaluations
from repro.experiments.setup import SIMULATE, ExperimentSetup
from repro.predictors import canonical_spec


@dataclass(frozen=True)
class AblationRow:
    """Average errors of one model variant."""

    variant: str
    stp_error: float
    antt_error: float
    slowdown_error: float


@dataclass(frozen=True)
class AblationResult:
    """A table of model variants and their accuracy."""

    title: str
    rows: List[AblationRow]

    def row(self, variant: str) -> AblationRow:
        for row in self.rows:
            if row.variant == variant:
                return row
        raise KeyError(f"no ablation row for variant {variant!r}")

    def to_rows(self) -> List[Mapping[str, object]]:
        return [
            {
                "variant": row.variant,
                "STP_error_%": 100.0 * row.stp_error,
                "ANTT_error_%": 100.0 * row.antt_error,
                "slowdown_error_%": 100.0 * row.slowdown_error,
            }
            for row in self.rows
        ]

    def render(self) -> str:
        return format_table(self.to_rows(), title=self.title, float_format="{:.2f}")


def _spec_ablation(
    setup: ExperimentSetup,
    title: str,
    variants: Mapping[str, str],
    num_cores: int,
    llc_config: int,
    num_mixes: int,
    seed: int,
) -> AblationResult:
    """One row per ``{variant: predictor spec}``, all specs and reference runs in one sweep."""
    machine = setup.machine(num_cores=num_cores, llc_config=llc_config)
    pairs = [(mix, machine) for mix in setup.mixes(num_cores, num_mixes, seed=seed)]
    ops = evaluation_ops(list(variants.values()), pairs)
    evaluated = evaluations(ops, setup.predictor_batch(ops))
    rows = [
        AblationRow(variant, *average_errors(evaluated[canonical_spec(spec)]))
        for variant, spec in variants.items()
    ]
    return AblationResult(title=title, rows=rows)


def contention_model_ablation(
    setup: ExperimentSetup,
    models: Sequence[str] = ("foa", "sdc", "prob"),
    num_cores: int = 4,
    llc_config: int = 1,
    num_mixes: int = 30,
    seed: int = 71,
) -> AblationResult:
    """Compare MPPM accuracy across cache-contention models."""
    return _spec_ablation(
        setup,
        "Ablation — cache-contention model inside MPPM "
        "(the paper uses FOA; §2.3 claims the model is pluggable):",
        {model_name: f"mppm:{model_name}" for model_name in models},
        num_cores,
        llc_config,
        num_mixes,
        seed,
    )


def smoothing_ablation(
    setup: ExperimentSetup,
    smoothing_factors: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 0.9),
    num_cores: int = 4,
    llc_config: int = 1,
    num_mixes: int = 30,
    seed: int = 73,
) -> AblationResult:
    """Sweep the EMA smoothing factor of the slowdown update.

    The reference runs are one sweep; the predictions run in process,
    since ``f`` is not part of the spec grammar.
    """
    machine = setup.machine(num_cores=num_cores, llc_config=llc_config)
    mixes = setup.mixes(num_cores, num_mixes, seed=seed)
    measured = setup.predictor_batch([(SIMULATE, mix, machine) for mix in mixes])
    rows = []
    for factor in smoothing_factors:
        model = MPPM(
            machine, config=MPPMConfig(smoothing=factor), kernel=setup.config.mppm_kernel
        )
        evaluated = [
            MixEvaluation(
                mix, model.predict_mix(mix, setup.benchmark_profiles(mix.programs, machine)), run
            )
            for mix, run in zip(mixes, measured)
        ]
        rows.append(AblationRow(f"f={factor:.2f}", *average_errors(evaluated)))
    return AblationResult(
        title=(
            "Ablation — exponential-moving-average smoothing factor of the slowdown update "
            "(§2.2 reports smoothing matters for phased programs):"
        ),
        rows=rows,
    )


def iteration_ablation(
    setup: ExperimentSetup,
    num_cores: int = 4,
    llc_config: int = 1,
    num_mixes: int = 30,
    seed: int = 83,
) -> AblationResult:
    """Quantify the value of MPPM's iterative entanglement modelling.

    Compares full MPPM against two baselines (all three are registry
    predictors now, see :mod:`repro.predictors`): ignoring contention
    entirely, and applying the contention model once without iterating.
    """
    return _spec_ablation(
        setup,
        "Ablation — value of the iterative entanglement model "
        "(full MPPM vs one-shot contention vs ignoring contention):",
        {
            "MPPM (iterative)": "mppm:foa",
            "one-shot contention": "baseline:one-shot",
            "no contention": "baseline:no-contention",
        },
        num_cores,
        llc_config,
        num_mixes,
        seed,
    )


def update_rule_ablation(
    setup: ExperimentSetup,
    num_cores: int = 4,
    llc_config: int = 1,
    num_mixes: int = 30,
    seed: int = 79,
) -> AblationResult:
    """Compare the literal Figure 2 slowdown update with the self-consistent one."""
    return _spec_ablation(
        setup,
        "Ablation — slowdown-update normalisation "
        "(see MPPMConfig.literal_figure2_update for the interpretation difference):",
        {"self-consistent": "mppm:foa", "literal Figure 2": "mppm:figure2"},
        num_cores,
        llc_config,
        num_mixes,
        seed,
    )
