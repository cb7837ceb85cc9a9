"""Predicted-versus-measured evaluation of workload mixes.

A :class:`MixEvaluation` pairs MPPM's prediction with the detailed
reference simulation of the same mix and exposes the error metrics the
paper reports (STP, ANTT, per-program slowdowns).  It is the common
currency of the accuracy, ranking and stress experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.result import MixPrediction
from repro.metrics import absolute_relative_error
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

