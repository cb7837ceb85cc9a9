"""MPPM as a registry predictor (``mppm:<contention-model>`` and variants).

One registry entry per cache-contention model: ``mppm:foa`` (the
paper's choice and the package default), ``mppm:sdc`` and
``mppm:prob`` — plus one per model *variant* used by the ablations:
``mppm:windowed`` (windowed per-interval CPI progress) and
``mppm:figure2`` (the paper's literal Figure 2 slowdown update), both
over the FOA contention model.  The predictor draws single-core
profiles through the setup's
:class:`~repro.profiling.store.ProfileStore` — exactly the code path
the pre-registry ``ExperimentSetup.predict`` used, so predictions are
bit-identical to it by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.contention import make_contention_model
from repro.core import MPPM, MPPMConfig
from repro.core.mppm import solver_values
from repro.core.result import MixPrediction
from repro.predictors.base import tag_prediction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config.machine import MachineConfig
    from repro.experiments.setup import ExperimentSetup
    from repro.workloads.mixes import WorkloadMix

#: Most mixes per :meth:`MPPM.predict_batch` call; a larger group is
#: split into equal chunks, near the batched kernel's lowest cost per
#: mix (README's "The batched MPPM solver" has the measurements).
CHUNK_MIXES = 500


class MPPMPredictor:
    """The iterative Multi-Program Performance Model behind the Predictor API."""

    def __init__(
        self,
        setup: "ExperimentSetup",
        contention: str = "foa",
        mppm_config: Optional[MPPMConfig] = None,
        spec: Optional[str] = None,
    ) -> None:
        self.setup = setup
        self.contention = contention
        self.mppm_config = mppm_config
        # Variant entries (mppm:windowed, mppm:figure2) override the
        # spec: they are named after their MPPMConfig, not the
        # contention model they run on.
        self.spec = spec if spec is not None else f"mppm:{contention}"

    def _model(self, machine: "MachineConfig") -> MPPM:
        return MPPM(
            machine,
            contention_model=make_contention_model(self.contention),
            config=self.mppm_config,
            kernel=self.setup.config.mppm_kernel,
        )

    def predict(self, mix: "WorkloadMix", machine: "MachineConfig") -> MixPrediction:
        """Run the iterative model on the mix's single-core profiles."""
        profiles = self.setup.benchmark_profiles(mix.programs, machine)
        return tag_prediction(self._model(machine).predict_mix(mix, profiles), self.spec)

    def predict_batch(
        self, items: Sequence[Tuple["WorkloadMix", "MachineConfig"]]
    ) -> List[MixPrediction]:
        """Solve many (mix, machine) pairs in a few batched fixed-point passes.

        Pairs are grouped by core count and :func:`~repro.core.mppm.solver_values`
        (Table 2's six LLCs make two groups per core count); each group goes
        to :meth:`MPPM.predict_batch` in equal chunks of at most
        :data:`CHUNK_MIXES` mixes, every mix with its own machine's profiles
        and name.  Results come back in input order, bit-identical to
        per-pair :meth:`predict` calls.
        """
        wanted: Dict[str, Tuple["MachineConfig", set]] = {}
        groups: Dict[Tuple[int, int, int], List[int]] = {}
        for index, (mix, machine) in enumerate(items):
            wanted.setdefault(machine.profile_key(), (machine, set()))[1].update(mix.programs)
            groups.setdefault((machine.num_cores, *solver_values(machine)), []).append(index)
        libraries = {
            key: self.setup.benchmark_profiles(names, machine)
            for key, (machine, names) in wanted.items()
        }
        predictions: List[Optional[MixPrediction]] = [None] * len(items)
        for indices in groups.values():
            model = self._model(items[indices[0]][1])
            for chunk in np.array_split(indices, -(-len(indices) // CHUNK_MIXES)):
                machines = [items[index][1] for index in chunk]
                mixes = [
                    [libraries[machine.profile_key()][name] for name in items[index][0].programs]
                    for index, machine in zip(chunk, machines)
                ]
                solved = model.predict_batch(mixes, predictor=self.spec, machines=machines)
                for index, prediction in zip(chunk, solved):
                    predictions[index] = prediction
        return predictions

    def describe(self) -> str:
        return (
            f"iterative MPPM with the {self.contention.upper()} cache-contention model "
            "(single-core profiles only)"
        )
