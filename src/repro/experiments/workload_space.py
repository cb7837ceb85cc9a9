"""Section 1: the multi-program workload-space explosion.

The paper motivates MPPM with the number of possible multi-program
workloads: for 29 SPEC CPU2006 benchmarks there are 435 two-program
mixes, 35,960 four-program mixes and more than 30.2 million
eight-program mixes, so exhaustive detailed simulation is infeasible.
This experiment recomputes those counts and — when asked — measures
what exhausting the space would cost with the detailed reference
simulator versus with MPPM on this machine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Mapping, Sequence

from repro.experiments.reporting import format_table
from repro.experiments.setup import ExperimentSetup
from repro.simulators import MultiCoreSimulator
from repro.workloads import count_mixes


def _humanize_seconds(seconds: float) -> str:
    """A coarse human-readable duration ("3.4 hours", "2.1e+03 years")."""
    for unit, width in (("seconds", 60.0), ("minutes", 60.0), ("hours", 24.0), ("days", 365.0)):
        if seconds < width:
            return f"{seconds:.3g} {unit}"
        seconds /= width
    return f"{seconds:.3g} years"


@dataclass(frozen=True)
class WorkloadSpaceReport:
    """Counts of possible multi-program workloads per core count."""

    num_benchmarks: int
    rows: List[Mapping[str, object]]
    workload: str = "suite:spec29"

    def to_rows(self) -> List[Mapping[str, object]]:
        return list(self.rows)

    def render(self) -> str:
        columns = list(self.rows[0]) if self.rows else None
        return format_table(
            self.rows,
            columns=columns,
            title=(
                f"Multi-program workload space for {self.workload} "
                f"({self.num_benchmarks} benchmarks, combinations with repetition):"
            ),
            float_format="{:.0f}",
        )


#: The counts quoted in the paper's introduction for 29 benchmarks.
PAPER_COUNTS = {2: "435", 4: "35,960", 8: "more than 30.2 million"}


def workload_space_report(
    setup: ExperimentSetup,
    core_counts: Sequence[int] = (2, 4, 8, 16),
    measure_costs: bool = False,
    llc_config: int = 1,
    seed: int = 7,
) -> WorkloadSpaceReport:
    """Count all possible mixes of the setup's suite for each core count.

    With ``measure_costs`` the report also times one reference
    simulation and one MPPM prediction per core count and extrapolates
    what evaluating the *entire* space would cost each way — the
    per-mix costs behind the paper's "exhaustive simulation is
    infeasible" argument.  Their profiles and LLC traces, the paper's
    one-time cost, come first and untimed from one profile step on the
    setup's engine.  The timed calls run here and go straight to the
    simulator and the model (bypassing the setup's memo caches and the
    engine's result cache), so the estimates reflect real computation
    even in a warm-cache campaign.
    """
    num_benchmarks = len(setup.suite)
    timed = {}
    if measure_costs:
        for cores in core_counts:
            machine = setup.machine(num_cores=cores, llc_config=llc_config)
            timed[cores] = (machine, setup.mixes(cores, 1, seed=seed + cores)[0])
        pairs = [(name, machine) for machine, mix in timed.values() for name in mix.programs]
        setup.profile_pairs(pairs, trace=True)
    rows = []
    for cores in core_counts:
        row = {
            "cores": cores,
            "possible_mixes": count_mixes(num_benchmarks, cores),
            "paper_reports": PAPER_COUNTS.get(cores, "-"),
        }
        if measure_costs:
            machine, mix = timed[cores]
            profiles = setup.benchmark_profiles(mix.programs, machine)
            traces = setup.llc_traces(mix, machine)
            start = time.perf_counter()
            MultiCoreSimulator(machine).run(traces)
            simulate_seconds = time.perf_counter() - start
            model = setup.mppm(machine)
            start = time.perf_counter()
            model.predict_mix(mix, profiles)
            predict_seconds = time.perf_counter() - start
            count = row["possible_mixes"]
            row["exhaustive_simulation"] = _humanize_seconds(simulate_seconds * count)
            row["exhaustive_mppm"] = _humanize_seconds(predict_seconds * count)
        rows.append(row)
    return WorkloadSpaceReport(
        num_benchmarks=num_benchmarks, rows=rows, workload=setup.workload_spec
    )
