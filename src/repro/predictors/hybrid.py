"""The hybrid predictor: MPPM for the bulk, detailed spot-checks for the tail.

The paper's own workflow packaged as one registry spec: rank a whole
pool of mixes with the fast iterative model, then re-run only the
predicted worst-``K`` mixes (lowest predicted system throughput)
through the detailed reference simulator.  ``hybrid:k=K`` predictions
are therefore MPPM predictions for most of the pool and
detailed-simulation results for its predicted tail — each tagged with
the hybrid spec so results stay self-describing.

The pool-level logic lives in
:meth:`repro.experiments.setup.ExperimentSetup._run_ops`, which expands
hybrid ops inside the one sweep graph: the MPPM stage batches like any
``mppm:*`` sweep, and the spot-check stage submits plain ``detailed``
ops — sharing job *and* cache entries with every other detailed run of
the same (mix, machine) pair.  This class is the single-mix adapter
behind ``make_predictor``: a pool of one mix is its own worst-K, so
``predict`` is a detailed simulation re-tagged as hybrid.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.result import MixPrediction
from repro.predictors.base import tag_prediction
from repro.predictors.detailed import prediction_from_run

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config.machine import MachineConfig
    from repro.experiments.setup import ExperimentSetup
    from repro.workloads.mixes import WorkloadMix


class HybridPredictor:
    """Single-mix adapter for ``hybrid:k=K`` (see module docstring)."""

    def __init__(self, setup: "ExperimentSetup", worst_k: int, spec: str) -> None:
        self.setup = setup
        self.worst_k = worst_k
        self.spec = spec

    def predict(self, mix: "WorkloadMix", machine: "MachineConfig") -> MixPrediction:
        # A pool of one mix IS its own predicted worst-K (K >= 1), so the
        # single-mix answer is always the detailed spot-check.
        run = self.setup.simulate(mix, machine)
        return tag_prediction(prediction_from_run(run), self.spec)

    def describe(self) -> str:
        return (
            f"MPPM for the bulk, detailed spot-checks for the predicted "
            f"worst-{self.worst_k} mixes of each pool"
        )
