"""The profiler: from benchmark specs to single-core profiles.

This is the "single-core simulation, one-time cost" box of the paper's
Figure 1: generate the benchmark's trace, run it in isolation on the
target machine with the detailed single-core simulator, and package the
per-interval measurements into a :class:`SingleCoreProfile`.  The
filtered LLC access trace produced by the same run is kept alongside
the profile because the multi-core *reference* simulator (the stand-in
for detailed CMP$im simulation) replays it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.config.machine import MachineConfig
from repro.profiling.profile import IntervalProfile, SingleCoreProfile
from repro.simulators.llc_trace import LLCAccessTrace
from repro.simulators.single_core import SingleCoreRunResult, SingleCoreSimulator
from repro.workloads.benchmark import BenchmarkSpec
from repro.workloads.generator import TraceGenerator
from repro.workloads.suite import BenchmarkSuite


@dataclass(frozen=True)
class ProfiledBenchmark:
    """A benchmark's profile plus the LLC trace of the same isolated run."""

    profile: SingleCoreProfile
    llc_trace: LLCAccessTrace

    @property
    def name(self) -> str:
        return self.profile.benchmark

    def to_dict(self) -> Dict:
        """Plain-data representation suitable for JSON (bit-exact)."""
        return {"profile": self.profile.to_dict(), "llc_trace": self.llc_trace.to_dict()}

    @classmethod
    def from_dict(cls, data: Dict) -> "ProfiledBenchmark":
        """Inverse of :meth:`to_dict`."""
        return cls(
            profile=SingleCoreProfile.from_dict(data["profile"]),
            llc_trace=LLCAccessTrace.from_dict(data["llc_trace"]),
        )


class Profiler:
    """Profiles benchmarks on a given machine.

    Every call pays the full one-time cost — trace generation and both
    profiling stages — with nothing memoized, which is what a cold
    profiling-cost measurement wants.  :class:`ProfileStore` is the
    memoizing path.

    Parameters
    ----------
    machine:
        The target machine; profiling runs the benchmark in isolation
        on this machine's core and cache hierarchy.
    num_instructions:
        Trace length per benchmark.
    interval_instructions:
        Profiling interval (50 intervals per trace at the defaults,
        matching the paper's 50 x 20M structure).
    seed:
        Trace-generation seed.
    kernel:
        Replay kernel of the underlying simulator: ``"vectorized"``
        (default, batched stack distances) or ``"reference"``
        (per-access simulation).  Both yield bit-identical profiles.
    """

    def __init__(
        self,
        machine: MachineConfig,
        num_instructions: int = 200_000,
        interval_instructions: int = 4_000,
        seed: int = 0,
        kernel: str = "vectorized",
    ) -> None:
        self.machine = machine
        self.generator = TraceGenerator(num_instructions=num_instructions, seed=seed)
        self.simulator = SingleCoreSimulator(
            machine=machine, interval_instructions=interval_instructions, kernel=kernel
        )

    def profile(self, spec: BenchmarkSpec) -> ProfiledBenchmark:
        """Profile one benchmark (generate trace, simulate in isolation)."""
        trace = self.generator.generate(spec)
        run = self.simulator.run(trace)
        return ProfiledBenchmark(
            profile=profile_from_run(run, self.machine), llc_trace=run.llc_trace
        )

    def profile_suite(self, suite: BenchmarkSuite) -> Dict[str, ProfiledBenchmark]:
        """Profile every benchmark of a suite; returns name → profiled benchmark."""
        return {spec.name: self.profile(spec) for spec in suite}


def profile_from_run(run: SingleCoreRunResult, machine: MachineConfig) -> SingleCoreProfile:
    """Convert a raw single-core simulation result into a profile."""
    intervals = [
        IntervalProfile(
            index=measurement.index,
            instructions=measurement.instructions,
            cpi=measurement.cpi,
            memory_cpi=measurement.memory_cpi,
            llc_accesses=float(measurement.llc_accesses),
            llc_misses=float(measurement.llc_misses),
            sdc=measurement.sdc,
        )
        for measurement in run.intervals
    ]
    return SingleCoreProfile(
        benchmark=run.benchmark,
        machine_key=machine.profile_key(),
        machine_name=machine.name,
        interval_instructions=run.interval_instructions,
        intervals=intervals,
        llc_associativity=machine.llc.associativity,
    )
