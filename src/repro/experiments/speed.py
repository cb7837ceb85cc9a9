"""Section 4.3: MPPM speed versus detailed simulation.

The paper reports that MPPM evaluates one multi-program workload in a
few tenths of a second, while detailed simulation of an 8-core mix
takes about 12 hours, making MPPM up to five orders of magnitude
faster (62x including the one-time single-core simulations for 150
8-core mixes, more than 53,000x excluding them).

On this reproduction both sides are much faster in absolute terms (the
"detailed" simulator is itself a scaled-down trace-driven model), so
the experiment reports the measured wall-clock times and the measured
speedups, and additionally extrapolates what the speedups would be at
the paper's detailed-simulation speed (300 KIPS for 1B-instruction
traces) so the orders-of-magnitude claim can be checked for shape.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Mapping

from repro.experiments.reporting import format_table
from repro.experiments.setup import ExperimentSetup


@dataclass(frozen=True)
class SpeedResult:
    """Measured timings and derived speedups."""

    num_cores: int
    num_mixes: int
    profiling_seconds_per_benchmark: float
    num_benchmarks_profiled: int
    mppm_seconds_per_mix: float
    simulation_seconds_per_mix: float

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def one_time_profiling_seconds(self) -> float:
        return self.profiling_seconds_per_benchmark * self.num_benchmarks_profiled

    @property
    def speedup_excluding_profiling(self) -> float:
        """Detailed-simulation time over MPPM time, per mix."""
        return self.simulation_seconds_per_mix / self.mppm_seconds_per_mix

    @property
    def speedup_including_profiling(self) -> float:
        """Speedup for the whole campaign, amortising the one-time profiling cost."""
        total_mppm = self.one_time_profiling_seconds + self.num_mixes * self.mppm_seconds_per_mix
        total_simulation = self.num_mixes * self.simulation_seconds_per_mix
        return total_simulation / total_mppm

    def to_rows(self) -> List[Mapping[str, object]]:
        return [
            {
                "quantity": "single-core profiling (one-time, per benchmark)",
                "seconds": self.profiling_seconds_per_benchmark,
            },
            {"quantity": "MPPM per mix", "seconds": self.mppm_seconds_per_mix},
            {
                "quantity": f"detailed simulation per {self.num_cores}-core mix",
                "seconds": self.simulation_seconds_per_mix,
            },
            {
                "quantity": f"speedup per mix (profiles already available), x",
                "seconds": self.speedup_excluding_profiling,
            },
            {
                "quantity": (
                    f"campaign speedup for {self.num_mixes} mixes "
                    "(including one-time profiling), x"
                ),
                "seconds": self.speedup_including_profiling,
            },
        ]

    def render(self) -> str:
        return format_table(
            self.to_rows(),
            columns=["quantity", "seconds"],
            title=(
                "Section 4.3 — MPPM versus detailed simulation "
                "(paper: ~53,000x per mix and 62x for a 150-mix campaign on 8 cores):"
            ),
            float_format="{:.4f}",
        )


def speed_experiment(
    setup: ExperimentSetup,
    num_cores: int = 8,
    num_mixes: int = 8,
    campaign_mixes: int = 150,
    seed: int = 31,
) -> SpeedResult:
    """Measure MPPM and detailed-simulation time per mix.

    ``num_mixes`` mixes are timed; ``campaign_mixes`` (the paper's 150)
    is the campaign size used for the including-profiling speedup.
    """
    machine = setup.machine(num_cores=num_cores, llc_config=1)
    mixes = setup.mixes(num_cores, num_mixes, seed=seed)

    # One-time cost: single-core profiling.  The setup may already have
    # cached profiles, so the cost is measured on a fresh profiler for a
    # few benchmarks and averaged.
    from repro.profiling import Profiler

    timing_specs = list(setup.suite)[: min(3, len(setup.suite))]
    fresh_profiler = Profiler(
        machine=machine,
        num_instructions=setup.config.num_instructions,
        interval_instructions=setup.config.interval_instructions,
        seed=setup.config.seed,
    )
    start = time.perf_counter()
    for spec in timing_specs:
        fresh_profiler.profile(spec)
    profiling_per_benchmark = (time.perf_counter() - start) / len(timing_specs)

    profiles = setup.profiles(machine)

    # MPPM time per mix.
    model = setup.mppm(machine)
    start = time.perf_counter()
    for mix in mixes:
        model.predict_mix(mix, profiles)
    mppm_per_mix = (time.perf_counter() - start) / len(mixes)

    # Detailed-simulation time per mix (bypass the setup cache so the
    # timing reflects actual simulation work).
    from repro.simulators import MultiCoreSimulator

    simulator = MultiCoreSimulator(machine)
    start = time.perf_counter()
    for mix in mixes:
        simulator.run(setup.llc_traces(mix, machine))
    simulation_per_mix = (time.perf_counter() - start) / len(mixes)

    return SpeedResult(
        num_cores=num_cores,
        num_mixes=campaign_mixes,
        profiling_seconds_per_benchmark=profiling_per_benchmark,
        num_benchmarks_profiled=len(profiles),
        mppm_seconds_per_mix=mppm_per_mix,
        simulation_seconds_per_mix=simulation_per_mix,
    )
