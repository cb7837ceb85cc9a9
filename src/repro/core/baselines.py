"""Baseline predictors that MPPM is compared against.

The paper's central claim is that the *iterative* entanglement between
per-core progress and cache contention must be modelled; these two
baselines remove parts of that machinery so the benefit can be
quantified (the iteration ablation benchmark uses them):

* :class:`NoContentionPredictor` — assumes cache sharing is free: every
  program runs at its single-core CPI.  This is the implicit assumption
  behind evaluating multi-core designs with single-program workloads,
  and it is what MPPM's first iteration starts from.
* :class:`OneShotContentionPredictor` — applies the cache-contention
  model exactly once, using each program's whole-trace stack-distance
  counters and assuming all programs progress at single-core speed.
  This is "MPPM without the iteration and without time-varying
  behaviour": it captures first-order contention but not the
  entanglement (a slowed-down program issues fewer LLC accesses per
  cycle, which changes everyone else's contention) nor phases.

Both return the same :class:`MixPrediction` type as MPPM, so every
metric and experiment works with them unchanged.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.config.machine import MachineConfig
from repro.contention import FOAModel
from repro.contention.base import ContentionModel
from repro.core.result import MixPrediction, ProgramPrediction
from repro.profiling.profile import ProfileWindowTable, SingleCoreProfile
from repro.workloads.mixes import WorkloadMix


class NoContentionPredictor:
    """Predicts multi-core performance assuming cache sharing is free."""

    def __init__(self, machine: MachineConfig) -> None:
        self.machine = machine

    def predict(self, profiles: Sequence[SingleCoreProfile]) -> MixPrediction:
        """Every program keeps its single-core CPI (slowdown 1.0)."""
        if not profiles:
            raise ValueError("at least one program profile is required")
        programs = tuple(
            ProgramPrediction(
                name=profile.benchmark,
                core=core,
                single_core_cpi=profile.cpi,
                predicted_cpi=profile.cpi,
            )
            for core, profile in enumerate(profiles)
        )
        return MixPrediction(
            machine_name=self.machine.name, programs=programs, iterations=0, converged=True
        )

    def predict_mix(
        self, mix: WorkloadMix, profiles: Mapping[str, SingleCoreProfile]
    ) -> MixPrediction:
        return self.predict([profiles[name] for name in mix.programs])


class OneShotContentionPredictor:
    """Applies the contention model once, without the iterative entanglement."""

    def __init__(
        self, machine: MachineConfig, contention_model: Optional[ContentionModel] = None
    ) -> None:
        self.machine = machine
        self.contention_model = contention_model if contention_model is not None else FOAModel()

    def predict(self, profiles: Sequence[SingleCoreProfile]) -> MixPrediction:
        """One pass of the contention model over the whole-trace SDCs."""
        if not profiles:
            raise ValueError("at least one program profile is required")
        # Each profile's whole-trace SDCs: the last row of its running sums.
        counts = np.stack(
            [profile.interval_prefix[-1, ProfileWindowTable.SDC_OFFSET :] for profile in profiles]
        )
        instructions = np.array([float(profile.num_instructions) for profile in profiles])
        shared = self.contention_model.estimate_mix(
            counts, instructions, self.machine.llc.associativity
        )
        isolated = counts[:, -1].tolist()

        programs = []
        for core, profile in enumerate(profiles):
            if profile.total_llc_misses > 0:
                penalty = (
                    profile.memory_cpi * profile.num_instructions / profile.total_llc_misses
                )
            else:
                penalty = float(self.machine.memory.latency)
            extra_cycles = max(0.0, shared[core] - isolated[core]) * penalty
            slowdown = 1.0 + extra_cycles / profile.total_cycles
            programs.append(
                ProgramPrediction(
                    name=profile.benchmark,
                    core=core,
                    single_core_cpi=profile.cpi,
                    predicted_cpi=profile.cpi * slowdown,
                )
            )
        return MixPrediction(
            machine_name=self.machine.name,
            programs=tuple(programs),
            iterations=1,
            converged=True,
        )

    def predict_mix(
        self, mix: WorkloadMix, profiles: Mapping[str, SingleCoreProfile]
    ) -> MixPrediction:
        return self.predict([profiles[name] for name in mix.programs])
