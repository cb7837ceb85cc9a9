"""The paper's baselines behind the Predictor API (``baseline:*``).

``baseline:no-contention`` assumes cache sharing is free (every program
keeps its single-core CPI); ``baseline:one-shot`` applies the
cache-contention model exactly once, without the iterative
entanglement.  Both delegate to the classes in
:mod:`repro.core.baselines`, so registry predictions are bit-identical
to calling those classes directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.baselines import NoContentionPredictor, OneShotContentionPredictor
from repro.core.result import MixPrediction
from repro.predictors.base import tag_prediction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config.machine import MachineConfig
    from repro.experiments.setup import ExperimentSetup
    from repro.workloads.mixes import WorkloadMix

#: variant name -> (wrapped baseline class, one-line description)
VARIANTS = {
    "no-contention": (
        NoContentionPredictor,
        "assumes cache sharing is free: every program keeps its single-core CPI",
    ),
    "one-shot": (
        OneShotContentionPredictor,
        "one pass of the FOA contention model, no iterative entanglement",
    ),
}


class BaselinePredictor:
    """No-contention and one-shot baselines behind the Predictor API."""

    def __init__(self, setup: "ExperimentSetup", variant: str) -> None:
        self.setup = setup
        self.variant = variant
        self._cls, self._description = VARIANTS[variant]
        self.spec = f"baseline:{variant}"

    def predict(self, mix: "WorkloadMix", machine: "MachineConfig") -> MixPrediction:
        """Run the wrapped baseline on the mix's single-core profiles."""
        profiles = self.setup.benchmark_profiles(mix.programs, machine)
        return tag_prediction(self._cls(machine).predict_mix(mix, profiles), self.spec)

    def describe(self) -> str:
        return self._description
