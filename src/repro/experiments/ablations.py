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

import numpy as np

from repro.core import MPPM, MPPMConfig
from repro.core.result import MixPrediction
from repro.experiments.reporting import format_table
from repro.experiments.setup import ExperimentSetup
from repro.metrics import absolute_relative_error
from repro.workloads import WorkloadMix


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

    def best_variant_by_stp(self) -> str:
        return min(self.rows, key=lambda row: row.stp_error).variant

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


def _evaluate_variant(
    setup: ExperimentSetup,
    mixes: Sequence[WorkloadMix],
    machine,
    variant: str,
    predictions: Sequence[MixPrediction],
) -> AblationRow:
    stp_errors, antt_errors, slowdown_errors = [], [], []
    for mix, predicted in zip(mixes, predictions):
        measured = setup.simulate(mix, machine)
        stp_errors.append(
            absolute_relative_error(predicted.system_throughput, measured.system_throughput)
        )
        antt_errors.append(
            absolute_relative_error(
                predicted.average_normalized_turnaround_time,
                measured.average_normalized_turnaround_time,
            )
        )
        for p, m in zip(predicted.programs, measured.programs):
            slowdown_errors.append(absolute_relative_error(p.slowdown, m.slowdown))
    return AblationRow(
        variant=variant,
        stp_error=float(np.mean(stp_errors)),
        antt_error=float(np.mean(antt_errors)),
        slowdown_error=float(np.mean(slowdown_errors)),
    )


def _spec_row(
    setup: ExperimentSetup, mixes: Sequence[WorkloadMix], machine, variant: str, spec: str
) -> AblationRow:
    """The row of one registry predictor spec."""
    predictions = [setup.predict(mix, machine, predictor=spec) for mix in mixes]
    return _evaluate_variant(setup, mixes, machine, variant, predictions)


def contention_model_ablation(
    setup: ExperimentSetup,
    models: Sequence[str] = ("foa", "sdc", "prob"),
    num_cores: int = 4,
    llc_config: int = 1,
    num_mixes: int = 30,
    seed: int = 71,
) -> AblationResult:
    """Compare MPPM accuracy across cache-contention models."""
    machine = setup.machine(num_cores=num_cores, llc_config=llc_config)
    mixes = setup.mixes(num_cores, num_mixes, seed=seed)
    rows = [
        _spec_row(setup, mixes, machine, model_name, f"mppm:{model_name}")
        for model_name in models
    ]
    return AblationResult(
        title=(
            "Ablation — cache-contention model inside MPPM "
            "(the paper uses FOA; §2.3 claims the model is pluggable):"
        ),
        rows=rows,
    )


def smoothing_ablation(
    setup: ExperimentSetup,
    smoothing_factors: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 0.9),
    num_cores: int = 4,
    llc_config: int = 1,
    num_mixes: int = 30,
    seed: int = 73,
) -> AblationResult:
    """Sweep the EMA smoothing factor of the slowdown update."""
    machine = setup.machine(num_cores=num_cores, llc_config=llc_config)
    mixes = setup.mixes(num_cores, num_mixes, seed=seed)
    rows = []
    for factor in smoothing_factors:
        model = MPPM(
            machine, config=MPPMConfig(smoothing=factor), kernel=setup.config.mppm_kernel
        )
        predictions = [
            model.predict_mix(mix, setup.benchmark_profiles(mix.programs, machine)) for mix in mixes
        ]
        rows.append(_evaluate_variant(setup, mixes, machine, f"f={factor:.2f}", predictions))
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
    machine = setup.machine(num_cores=num_cores, llc_config=llc_config)
    mixes = setup.mixes(num_cores, num_mixes, seed=seed)

    variants = {
        "MPPM (iterative)": "mppm:foa",
        "one-shot contention": "baseline:one-shot",
        "no contention": "baseline:no-contention",
    }

    rows = [_spec_row(setup, mixes, machine, variant, spec) for variant, spec in variants.items()]
    return AblationResult(
        title=(
            "Ablation — value of the iterative entanglement model "
            "(full MPPM vs one-shot contention vs ignoring contention):"
        ),
        rows=rows,
    )


def update_rule_ablation(
    setup: ExperimentSetup,
    num_cores: int = 4,
    llc_config: int = 1,
    num_mixes: int = 30,
    seed: int = 79,
) -> AblationResult:
    """Compare the literal Figure 2 slowdown update with the self-consistent one."""
    machine = setup.machine(num_cores=num_cores, llc_config=llc_config)
    mixes = setup.mixes(num_cores, num_mixes, seed=seed)
    variants = {"self-consistent": "mppm:foa", "literal Figure 2": "mppm:figure2"}
    rows = [_spec_row(setup, mixes, machine, variant, spec) for variant, spec in variants.items()]
    return AblationResult(
        title=(
            "Ablation — slowdown-update normalisation "
            "(see MPPMConfig.literal_figure2_update for the interpretation difference):"
        ),
        rows=rows,
    )
