"""Predicted-versus-measured evaluation of workload mixes.

A :class:`MixEvaluation` pairs a prediction with the detailed reference
simulation of the same mix and exposes the error metrics the paper
reports (STP, ANTT, per-program slowdowns).  It is the common currency
of the accuracy, stress and ablation experiments, which all build their
sweep with :func:`evaluation_ops` and read it back with
:func:`evaluations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.result import MixPrediction
from repro.experiments.setup import SIMULATE, MixJob, PredictJob
from repro.metrics import absolute_relative_error
from repro.predictors import canonical_spec
from repro.simulators import MultiCoreRunResult
from repro.workloads import WorkloadMix


@dataclass(frozen=True)
class MixEvaluation:
    """One mix evaluated by both MPPM and the detailed reference simulator."""

    mix: WorkloadMix
    predicted: MixPrediction
    measured: MultiCoreRunResult

    # ------------------------------------------------------------------
    # Metric values
    # ------------------------------------------------------------------

    @property
    def predicted_stp(self) -> float:
        return self.predicted.system_throughput

    @property
    def measured_stp(self) -> float:
        return self.measured.system_throughput

    @property
    def predicted_antt(self) -> float:
        return self.predicted.average_normalized_turnaround_time

    @property
    def measured_antt(self) -> float:
        return self.measured.average_normalized_turnaround_time

    @property
    def predicted_slowdowns(self) -> List[float]:
        return [program.slowdown for program in self.predicted.programs]

    @property
    def measured_slowdowns(self) -> List[float]:
        return [program.slowdown for program in self.measured.programs]

    # ------------------------------------------------------------------
    # Errors
    # ------------------------------------------------------------------

    @property
    def stp_error(self) -> float:
        """Absolute relative STP prediction error."""
        return absolute_relative_error(self.predicted_stp, self.measured_stp)

    @property
    def antt_error(self) -> float:
        """Absolute relative ANTT prediction error."""
        return absolute_relative_error(self.predicted_antt, self.measured_antt)

    @property
    def slowdown_errors(self) -> List[float]:
        """Per-program absolute relative slowdown errors."""
        return [
            absolute_relative_error(predicted, measured)
            for predicted, measured in zip(self.predicted_slowdowns, self.measured_slowdowns)
        ]

    def describe(self) -> str:
        return (
            f"{self.mix.label()}: STP {self.measured_stp:.3f} measured / "
            f"{self.predicted_stp:.3f} predicted ({self.stp_error:.1%} error), "
            f"ANTT {self.measured_antt:.3f} / {self.predicted_antt:.3f} "
            f"({self.antt_error:.1%} error)"
        )


def evaluation_ops(specs: Sequence[str], pairs: Sequence[MixJob]) -> List[PredictJob]:
    """The sweep that evaluates every spec on every ``(mix, machine)`` pair.

    Spec-major (specs canonicalised, repeats dropped), then one
    :data:`~repro.experiments.setup.SIMULATE` op per pair: the reference
    runs :func:`evaluations` pairs the predictions with.
    """
    unique = dict.fromkeys(canonical_spec(spec) for spec in specs)
    ops = [(spec, mix, machine) for spec in unique for mix, machine in pairs]
    return ops + [(SIMULATE, mix, machine) for mix, machine in pairs]


def evaluations(
    ops: Sequence[PredictJob], results: Sequence[object]
) -> Dict[str, List[MixEvaluation]]:
    """``{spec: [MixEvaluation, ...]}`` from an :func:`evaluation_ops` sweep and its results.

    The ``n``-th op of each spec is paired with the ``n``-th reference
    run; specs and evaluations keep op order.
    """
    measured = [result for (spec, _, _), result in zip(ops, results) if spec == SIMULATE]
    out: Dict[str, List[MixEvaluation]] = {}
    for (spec, mix, _), result in zip(ops, results):
        if spec != SIMULATE:
            entries = out.setdefault(spec, [])
            entries.append(MixEvaluation(mix, result, measured[len(entries)]))
    return out


def average_errors(evaluated: Sequence[MixEvaluation]) -> Tuple[float, float, float]:
    """Mean STP, ANTT and per-program slowdown errors of some evaluations."""
    return (
        float(np.mean([evaluation.stp_error for evaluation in evaluated])),
        float(np.mean([evaluation.antt_error for evaluation in evaluated])),
        float(np.mean([error for evaluation in evaluated for error in evaluation.slowdown_errors])),
    )
