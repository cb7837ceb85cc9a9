"""Detailed reference simulation as just another predictor (``detailed``).

Runs the shared-LLC :class:`~repro.simulators.MultiCoreSimulator`
through the setup's memoised ``simulate`` path and repackages the
result as a :class:`~repro.core.result.MixPrediction`, so experiments
can treat the reference like any other estimator.  The per-program
CPIs are copied verbatim (``isolated_cpi`` → ``single_core_cpi``,
``cpi`` → ``predicted_cpi``), which makes the wrapped prediction's STP
and ANTT bit-identical to the simulator's own — both compute the same
divisions over the same per-program CPI floats.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.result import MixPrediction, ProgramPrediction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config.machine import MachineConfig
    from repro.experiments.setup import ExperimentSetup
    from repro.simulators.multi_core import MultiCoreRunResult
    from repro.workloads.mixes import WorkloadMix


def prediction_from_run(result: "MultiCoreRunResult") -> MixPrediction:
    """Package a finished reference simulation as a ``detailed`` prediction.

    Pure transformation (no simulation): callers that already hold the
    :class:`MultiCoreRunResult` — e.g. an evaluation sweep whose
    reference jobs just ran — reuse it instead of simulating again.
    The prediction's ``kernel`` field is always ``"chunked"``, the
    interleave :meth:`~repro.simulators.MultiCoreSimulator.run`
    performs: provenance, not semantics.
    """
    programs = tuple(
        ProgramPrediction(
            name=stats.name,
            core=stats.core,
            single_core_cpi=stats.isolated_cpi,
            predicted_cpi=stats.cpi,
        )
        for stats in result.programs
    )
    return MixPrediction(
        machine_name=result.machine_name,
        programs=programs,
        iterations=0,
        converged=True,
        predictor=DetailedSimulationPredictor.spec,
        kernel="chunked",
    )


class DetailedSimulationPredictor:
    """The detailed multi-core reference simulation behind the Predictor API."""

    spec = "detailed"

    def __init__(self, setup: "ExperimentSetup") -> None:
        self.setup = setup

    def predict(self, mix: "WorkloadMix", machine: "MachineConfig") -> MixPrediction:
        """Reference-simulate the mix and package the outcome as a prediction."""
        return prediction_from_run(self.setup.simulate(mix, machine))

    def describe(self) -> str:
        return "detailed shared-LLC multi-core simulation (the reference, not a model)"
