"""The Predictor protocol: one interface for every performance estimator.

The paper's whole argument is a comparison between *estimators* of
multi-program performance — the iterative MPPM against one-shot and
no-contention baselines and against detailed simulation.  Everything
that can answer "how will this mix perform on this machine?" therefore
implements one small protocol:

* ``spec`` — the canonical registry spec string (``"mppm:foa"``,
  ``"detailed"``, …), used for display and for content-hash cache keys;
* ``predict(mix, machine)`` — return a
  :class:`~repro.core.result.MixPrediction` whose ``predictor`` field
  carries ``spec``, so results are self-describing wherever they end up
  (exports, persistent caches, reports);
* ``describe()`` — a one-line human-readable description.

Concrete predictors are constructed by
:func:`repro.predictors.make_predictor` and are bound to an
:class:`~repro.experiments.setup.ExperimentSetup`, which supplies the
single-core profiles (and, for the detailed adapter, the LLC access
traces) they consume.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.core.result import MixPrediction
from repro.specs import SpecError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config.machine import MachineConfig
    from repro.workloads.mixes import WorkloadMix


class PredictorError(SpecError):
    """Raised for unknown or malformed predictor specs."""


@runtime_checkable
class Predictor(Protocol):
    """Anything that predicts a workload mix's multi-core performance."""

    #: Canonical spec string (registry name), e.g. ``"mppm:foa"``.
    spec: str

    def predict(self, mix: "WorkloadMix", machine: "MachineConfig") -> MixPrediction:
        """Estimate ``mix``'s performance on ``machine``."""
        ...  # pragma: no cover - protocol

    def describe(self) -> str:
        """One-line human-readable description of the estimator."""
        ...  # pragma: no cover - protocol


def tag_prediction(prediction: MixPrediction, spec: str) -> MixPrediction:
    """Attach the predictor spec to a prediction (self-describing results).

    Only the metadata field changes; every numeric field is carried
    over untouched, so tagged predictions stay bit-identical to the
    underlying estimator's output.
    """
    if prediction.predictor == spec:
        return prediction
    return replace(prediction, predictor=spec)
