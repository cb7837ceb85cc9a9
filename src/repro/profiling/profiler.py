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
from typing import Dict, Iterable, Optional, Tuple

from repro.config.machine import MachineConfig
from repro.profiling.profile import IntervalProfile, SingleCoreProfile
from repro.simulators.llc_trace import LLCAccessTrace
from repro.simulators.single_core import PrivateRun, SingleCoreRunResult, SingleCoreSimulator
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


@dataclass(frozen=True)
class ProfileBundle:
    """One benchmark profiled on several machines, as one store hands it to another.

    ``profiled`` holds each machine's profile and LLC trace, in the
    order the machines were asked for.  ``private_runs`` holds the
    stage-1 results behind them: one per private hierarchy that the
    producing store had in memory (none for pairs it loaded from the
    cache).  A store that absorbs them resolves any further LLC of the
    benchmark without generating its trace again.

    In JSON each private run carries its LLC stream once, and a trace
    that shares a run's arrays travels as that run's index plus its
    isolated cycle count.
    """

    profiled: Tuple[ProfiledBenchmark, ...]
    private_runs: Tuple[PrivateRun, ...] = ()

    def to_dict(self) -> Dict:
        """Plain-data representation suitable for JSON (bit-exact)."""
        run_of = {id(run.line): index for index, run in enumerate(self.private_runs)}

        def trace_dict(trace: LLCAccessTrace) -> Dict:
            index = run_of.get(id(trace.line))
            if index is None:
                return trace.to_dict()
            return {"run": index, "isolated_cycles": trace.isolated_cycles}

        return {
            "private_runs": [run.to_dict() for run in self.private_runs],
            "profiled": [
                {"profile": item.profile.to_dict(), "llc_trace": trace_dict(item.llc_trace)}
                for item in self.profiled
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ProfileBundle":
        """Inverse of :meth:`to_dict`."""
        runs = tuple(PrivateRun.from_dict(run) for run in data["private_runs"])

        def trace(entry: Dict) -> LLCAccessTrace:
            if "run" not in entry:
                return LLCAccessTrace.from_dict(entry)
            index = int(entry["run"])
            if not 0 <= index < len(runs):
                raise ValueError(f"trace names stage-1 run {index} of {len(runs)}")
            return runs[index].llc_trace(float(entry["isolated_cycles"]))

        profiled = tuple(
            ProfiledBenchmark(
                profile=SingleCoreProfile.from_dict(item["profile"]),
                llc_trace=trace(item["llc_trace"]),
            )
            for item in data["profiled"]
        )
        return cls(profiled=profiled, private_runs=runs)


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
    """

    def __init__(
        self,
        machine: MachineConfig,
        num_instructions: int = 200_000,
        interval_instructions: int = 4_000,
        seed: int = 0,
    ) -> None:
        self.machine = machine
        self.generator = TraceGenerator(num_instructions=num_instructions, seed=seed)
        self.simulator = SingleCoreSimulator(
            machine=machine, interval_instructions=interval_instructions
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
