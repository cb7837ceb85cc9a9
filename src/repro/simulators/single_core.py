"""Single-core detailed simulation (the profiling run).

Running a benchmark in isolation on the target machine is the paper's
one-time cost per benchmark: it yields the per-interval single-core
CPI, memory CPI and stack-distance counters that MPPM consumes, plus —
in our trace-driven setup — the filtered LLC access stream that the
multi-core reference simulator replays.

A run is two stages, and :meth:`SingleCoreSimulator.run` is their
composition:

1. :meth:`~SingleCoreSimulator.filter_private` replays the trace
   through the private L1/L2 and returns a compact :class:`PrivateRun`:
   the filtered LLC stream, its upstream-cycle gaps and the per-interval
   base cycles and private-level hit counts.  It depends only on the
   trace and the private hierarchy (:meth:`MachineConfig.private_key`),
   so the six Table 2 LLCs share one.
2. :meth:`~SingleCoreSimulator.resolve_llc` computes the LLC stack
   distances of that stream — an access hits an A-way LRU set iff its
   stack distance is at most A (Mattson et al., 1970) — and does the
   latency-dependent CPI assembly, producing a
   :class:`SingleCoreRunResult` with the interval measurements, the
   overall CPI stack and the :class:`LLCAccessTrace`.

Both stages resolve every cache level with batched per-set stack
distances (:mod:`repro.caches.vectorized`) — a handful of array passes
over the whole trace.  :meth:`~SingleCoreSimulator.run_reference` is
their test witness: it walks every access through stateful
:class:`~repro.caches.hierarchy.CacheHierarchy`,
:class:`~repro.caches.set_associative.SetAssociativeCache` and
:class:`~repro.caches.stack_distance.StackDistanceProfiler` objects,
one at a time — the direct transcription of what profiling hardware
would observe.

Both paths emit the same outcome arrays and share one assembly routine
per stage for all cycle accounting, so their
:class:`SingleCoreRunResult`\\ s are bit-identical — asserted by the
equivalence suite and guarded by ``benchmarks/bench_singlecore_kernel``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.caches.hierarchy import CacheHierarchy
from repro.caches.set_associative import SetAssociativeCache
from repro.caches.stack_distance import (
    StackDistanceCounters,
    StackDistanceProfiler,
    distance_slots,
)
from repro.caches.vectorized import lru_hit_mask, replay_llc, replay_private_levels
from repro.config.machine import MachineConfig
from repro.cores.core_model import CoreTimingModel
from repro.cores.cpi_stack import CPIStack
from repro.simulators.llc_trace import (
    LLCAccessTrace,
    decode_array,
    encode_array,
    stream_from_dict,
    stream_to_dict,
)
from repro.workloads.benchmark import BenchmarkSpec
from repro.workloads.trace import MemoryTrace


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class PrivateRun:
    """A trace filtered through the private cache levels (profiling stage 1).

    Holds everything the LLC stage needs and nothing else: the trace
    itself is not kept.  The LLC-stream arrays are read-only because
    the :class:`LLCAccessTrace` of every LLC resolved on top of this
    run reuses them rather than copying them.

    Attributes
    ----------
    spec, num_instructions, interval_instructions:
        The benchmark, its trace length and the profiling interval.
    private_key:
        :meth:`MachineConfig.private_key` of the hierarchy that filtered
        the trace; the LLC stage only accepts machines with this key.
    line, insn, upstream_cycle_gap:
        The filtered LLC stream: line address and instruction index of
        each LLC access and the upstream cycles since the previous one.
    interval_id:
        The profiling interval of each LLC access.
    instructions, base_cycles:
        Per interval: instruction count and base cycles (the last
        interval includes the cycles after the last memory access).
    private_hits:
        Per interval and private level: accesses that level served.
    tail_cycles:
        Upstream cycles after the last LLC access.
    """

    spec: BenchmarkSpec
    private_key: str
    num_instructions: int
    interval_instructions: int
    line: np.ndarray
    insn: np.ndarray
    upstream_cycle_gap: np.ndarray
    interval_id: np.ndarray
    instructions: np.ndarray
    base_cycles: np.ndarray
    private_hits: np.ndarray
    tail_cycles: float

    @property
    def num_intervals(self) -> int:
        return len(self.base_cycles)

    def llc_trace(self, isolated_cycles: float) -> LLCAccessTrace:
        """The trace of an LLC resolved on this run (it shares the arrays)."""
        return LLCAccessTrace(
            spec=self.spec,
            num_instructions=self.num_instructions,
            line=self.line,
            insn=self.insn,
            upstream_cycle_gap=self.upstream_cycle_gap,
            tail_cycles=self.tail_cycles,
            isolated_cycles=isolated_cycles,
        )

    def to_dict(self) -> Dict:
        """Plain-data representation suitable for JSON (bit-exact).

        ``interval_id`` never decreases along the stream, so it travels
        as the number of LLC accesses per interval.
        """
        return {
            **stream_to_dict(self),
            "private_key": self.private_key,
            "interval_instructions": self.interval_instructions,
            "interval_accesses": encode_array(
                np.bincount(self.interval_id, minlength=self.num_intervals)
            ),
            "instructions": encode_array(self.instructions),
            "base_cycles": encode_array(self.base_cycles),
            "private_hits": encode_array(self.private_hits.ravel()),
            "private_levels": self.private_hits.shape[1],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "PrivateRun":
        """Inverse of :meth:`to_dict`."""
        accesses = decode_array(data["interval_accesses"])
        interval_id = np.repeat(np.arange(len(accesses), dtype=np.int64), accesses)
        private_hits = decode_array(data["private_hits"])
        stream = stream_from_dict(data)
        if len(interval_id) != len(stream["line"]):
            raise ValueError(
                f"{len(interval_id)} interval ids for {len(stream['line'])} LLC accesses"
            )
        return cls(
            **stream,
            private_key=str(data["private_key"]),
            interval_instructions=int(data["interval_instructions"]),
            interval_id=_read_only(interval_id),
            instructions=decode_array(data["instructions"]),
            base_cycles=decode_array(data["base_cycles"]),
            private_hits=private_hits.reshape(len(accesses), int(data["private_levels"])),
        )


@dataclass(frozen=True)
class IntervalMeasurement:
    """Measurements for one profiling interval (the paper uses 20M instructions)."""

    index: int
    instructions: int
    cycles: float
    memory_cycles: float
    llc_accesses: int
    llc_hits: int
    llc_misses: int
    sdc: StackDistanceCounters

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def memory_cpi(self) -> float:
        return self.memory_cycles / self.instructions if self.instructions else 0.0


@dataclass(frozen=True)
class SingleCoreRunResult:
    """Everything one isolated profiling run produces."""

    benchmark: str
    machine_name: str
    interval_instructions: int
    intervals: List[IntervalMeasurement]
    cpi_stack: CPIStack
    llc_trace: LLCAccessTrace

    @property
    def num_instructions(self) -> int:
        return self.cpi_stack.instructions

    @property
    def cycles(self) -> float:
        return self.cpi_stack.total_cycles

    @property
    def cpi(self) -> float:
        """Single-core CPI of the whole run (the paper's CPI_SC)."""
        return self.cpi_stack.cpi

    @property
    def memory_cpi(self) -> float:
        """Memory CPI of the whole run (the paper's CPI_mem)."""
        return self.cpi_stack.memory_cpi

    @property
    def llc_miss_rate(self) -> float:
        accesses = sum(interval.llc_accesses for interval in self.intervals)
        misses = sum(interval.llc_misses for interval in self.intervals)
        return misses / accesses if accesses else 0.0


class SingleCoreSimulator:
    """Trace-driven simulation of one benchmark in isolation.

    Parameters
    ----------
    machine:
        The target machine.  Only one core is used; the LLC is present
        but not shared with anyone.
    interval_instructions:
        Profiling interval length in dynamic instructions (the paper
        uses 20M out of 1B; the default of 4,000 out of 200,000 keeps
        the same 50-interval structure at our trace scale).
    """

    def __init__(self, machine: MachineConfig, interval_instructions: int = 4_000) -> None:
        if interval_instructions <= 0:
            raise ValueError("interval_instructions must be positive")
        self.machine = machine
        self.interval_instructions = interval_instructions

    def run(self, trace: MemoryTrace) -> SingleCoreRunResult:
        """Simulate ``trace`` in isolation and collect the profile data.

        The composition of :meth:`filter_private` and :meth:`resolve_llc`.
        """
        return self.resolve_llc(self.filter_private(trace))

    def run_reference(self, trace: MemoryTrace) -> SingleCoreRunResult:
        """:meth:`run` through stateful per-access cache objects.

        The test witness for the vectorized stages: the same two
        assembly routines over outcomes from :meth:`_reference_private`
        and :meth:`_reference_llc`, so the result is bit-identical.
        """
        served_level, llc_index = self._reference_private(trace)
        private_run = self._assemble_private_run(trace, served_level, llc_index)
        hits, distances = self._reference_llc(private_run, self.machine)
        return self._assemble_result(private_run, self.machine, hits, distances)

    def filter_private(self, trace: MemoryTrace) -> PrivateRun:
        """Profiling stage 1: filter ``trace`` through the private cache levels."""
        served_level, llc_index, _ = replay_private_levels(trace.access_line, self.machine)
        return self._assemble_private_run(trace, served_level, llc_index)

    def resolve_llc(
        self, private_run: PrivateRun, machine: Optional[MachineConfig] = None
    ) -> SingleCoreRunResult:
        """Profiling stage 2: resolve ``private_run``'s stream against an LLC.

        ``machine`` (default: the simulator's) supplies the LLC and the
        latencies; its private hierarchy must be the one that filtered
        the stream.
        """
        machine = self.machine if machine is None else machine
        return self.resolve_llc_many(private_run, [machine])[0]

    def resolve_llc_many(
        self, private_run: PrivateRun, machines: Sequence[MachineConfig]
    ) -> List[SingleCoreRunResult]:
        """:meth:`resolve_llc` for several LLCs over one private hierarchy.

        The stream's stack distances are computed once per distinct LLC
        set count; each associativity's hits derive from them.
        """
        distances_by_sets: Dict[int, np.ndarray] = {}
        results = []
        for machine in machines:
            if machine.private_key() != private_run.private_key:
                raise ValueError(
                    f"{machine.name} has private levels {machine.private_key()!r}; "
                    f"the stream was filtered by {private_run.private_key!r}"
                )
            llc = machine.llc
            distances = distances_by_sets.get(llc.num_sets)
            if distances is None:
                distances = replay_llc(private_run.line, llc.num_sets)
                distances_by_sets[llc.num_sets] = distances
            hits = lru_hit_mask(distances, llc.associativity)
            results.append(self._assemble_result(private_run, machine, hits, distances))
        return results

    def run_with_perfect_llc(self, trace: MemoryTrace) -> float:
        """CPI of a run where every LLC access hits (the paper's perfect-LLC run).

        The paper describes two ways of obtaining the memory CPI; the
        two-run method subtracts the perfect-LLC CPI from the real CPI.
        Our accounting method gives the same number directly, but this
        run is kept for cross-validation in the test suite.
        """
        private_run = self.filter_private(trace)
        core_model = CoreTimingModel(self.machine, trace.spec)
        # With a perfect LLC every access that reaches it is a hit, so
        # the cycle count is a closed-form weighted sum of the level
        # populations.
        cycles = float(trace.base_cycle_gap.sum()) + trace.tail_base_cycles
        for level_index in range(len(self.machine.private_levels)):
            penalty = core_model.private_hit_penalty(level_index)
            if penalty:
                cycles += float(private_run.private_hits[:, level_index].sum()) * penalty
        cycles += float(len(private_run.line)) * core_model.llc_hit_penalty
        return cycles / trace.num_instructions

    # ------------------------------------------------------------------
    # Reference: per-access stateful cache simulation (test witness)
    # ------------------------------------------------------------------

    def _reference_private(self, trace: MemoryTrace) -> Tuple[np.ndarray, np.ndarray]:
        """Walk every access through stateful private caches, one at a time.

        Produces the same outcome arrays as
        :func:`repro.caches.vectorized.replay_private_levels`: the
        private level that served each access (``P + 1`` for accesses
        that missed them all) and the indices of the filtered LLC stream.
        """
        hierarchy = CacheHierarchy(self.machine, include_llc=False)
        served_level = np.full(trace.num_accesses, len(hierarchy.levels) + 1, dtype=np.int64)
        llc_index: List[int] = []
        for i, line in enumerate(trace.access_line.tolist()):
            for level_index, level in enumerate(hierarchy.levels):
                if level.access(line).hit:
                    served_level[i] = level_index
                    break
            else:
                llc_index.append(i)
        return served_level, np.asarray(llc_index, dtype=np.int64)

    @staticmethod
    def _reference_llc(
        private_run: PrivateRun, machine: MachineConfig
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Walk the filtered stream through a stateful LLC and SDC profiler.

        Returns the per-access LLC hit mask and stack distances, as the
        vectorized stage derives them from :func:`replay_llc`.
        """
        llc = SetAssociativeCache(machine.llc)
        profiler = StackDistanceProfiler(
            num_sets=machine.llc.num_sets, associativity=machine.llc.associativity
        )
        lines = private_run.line.tolist()
        hits = np.fromiter((llc.access(line).hit for line in lines), dtype=bool, count=len(lines))
        distances = np.fromiter(
            (profiler.access(line) for line in lines), dtype=np.int64, count=len(lines)
        )
        return hits, distances

    # ------------------------------------------------------------------
    # Shared assembly: outcomes -> PrivateRun -> SingleCoreRunResult
    # ------------------------------------------------------------------

    def _assemble_private_run(
        self, trace: MemoryTrace, served_level: np.ndarray, llc_index: np.ndarray
    ) -> PrivateRun:
        """Turn private-level outcomes into the stage-1 result.

        All cycle accounting that does not depend on the LLC happens
        here, as weighted sums over the outcome arrays; the vectorized
        stage and the reference both route through this method, which is
        what makes their results bit-identical.
        """
        machine = self.machine
        core_model = CoreTimingModel(machine, trace.spec)
        num_private = len(machine.private_levels)
        penalties = [core_model.private_hit_penalty(level) for level in range(num_private)]

        # Leading-zero cumulative sums: sum over accesses [a, b) is c[b] - c[a].
        # Full per-access cumsums are only needed where windows are cut at
        # arbitrary positions (the LLC gap windows): base cycles, plus the
        # populations of private levels with a non-zero exposed penalty.
        cum_base = np.concatenate(([0.0], np.cumsum(trace.base_cycle_gap)))
        cum_level = {
            level: np.concatenate(([0], np.cumsum(served_level == level)))
            for level in range(num_private)
            if penalties[level]
        }

        # Filtered LLC stream: upstream cycles between consecutive LLC
        # accesses are the base cycles of the window ending at (and
        # including) each LLC access, plus the exposed private-hit
        # penalties inside the window.
        window_start = np.concatenate(([0], llc_index[:-1] + 1))
        window_stop = llc_index + 1
        gaps = cum_base[window_stop] - cum_base[window_start]
        for level, cum in cum_level.items():
            gaps = gaps + (cum[window_stop] - cum[window_start]) * penalties[level]

        num_accesses = trace.num_accesses
        tail_start = int(llc_index[-1]) + 1 if len(llc_index) else 0
        tail_cycles = cum_base[num_accesses] - cum_base[tail_start]
        for level, cum in cum_level.items():
            tail_cycles += float(cum[num_accesses] - cum[tail_start]) * penalties[level]
        tail_cycles += trace.tail_base_cycles

        # Per-interval private-level populations, as one fused histogram
        # over (interval, outcome) pairs.
        slices = trace.interval_slices(self.interval_instructions)
        num_intervals = len(slices)
        starts = np.fromiter((start for start, _ in slices), dtype=np.int64, count=num_intervals)
        stops = np.fromiter((stop for _, stop in slices), dtype=np.int64, count=num_intervals)
        interval_id = np.repeat(np.arange(num_intervals, dtype=np.int64), stops - starts)
        outcomes = num_private + 2
        outcome_hist = np.bincount(
            interval_id * outcomes + served_level, minlength=num_intervals * outcomes
        ).reshape(num_intervals, outcomes)

        base_cycles = cum_base[stops] - cum_base[starts]
        # Cycles after the last memory access belong to the last interval.
        base_cycles[-1] += trace.tail_base_cycles
        boundaries = np.minimum(
            np.arange(1, num_intervals + 1, dtype=np.int64) * self.interval_instructions,
            trace.num_instructions,
        )

        return PrivateRun(
            spec=trace.spec,
            private_key=machine.private_key(),
            num_instructions=trace.num_instructions,
            interval_instructions=self.interval_instructions,
            line=_read_only(np.asarray(trace.access_line[llc_index], dtype=np.int64)),
            insn=_read_only(np.asarray(trace.access_insn[llc_index], dtype=np.int64)),
            upstream_cycle_gap=_read_only(np.asarray(gaps, dtype=np.float64)),
            interval_id=_read_only(interval_id[llc_index]),
            instructions=_read_only(np.diff(boundaries, prepend=0)),
            base_cycles=_read_only(base_cycles),
            private_hits=_read_only(np.ascontiguousarray(outcome_hist[:, :num_private])),
            tail_cycles=float(tail_cycles),
        )

    def _assemble_result(
        self,
        private_run: PrivateRun,
        machine: MachineConfig,
        llc_hits: np.ndarray,
        llc_distances: np.ndarray,
    ) -> SingleCoreRunResult:
        """Turn LLC outcomes into the run result.

        The LLC-dependent cycle accounting — LLC hit and memory
        penalties, SDC histograms and the isolated cycle count — happens
        here; the vectorized stage and the reference both route through
        this method.
        """
        core_model = CoreTimingModel(machine, private_run.spec)
        num_private = len(machine.private_levels)
        associativity = machine.llc.associativity
        penalties = [core_model.private_hit_penalty(level) for level in range(num_private)]

        # Per-interval LLC populations and SDC counters of each
        # interval's slice of the LLC stream (the per-set stacks persist
        # across interval boundaries).
        num_intervals = private_run.num_intervals
        interval_id = private_run.interval_id
        llc_accesses = np.bincount(interval_id, minlength=num_intervals)
        llc_hit_counts = np.bincount(interval_id[llc_hits], minlength=num_intervals)
        slots = distance_slots(llc_distances, associativity)
        sdc_hist = np.bincount(
            interval_id * (associativity + 1) + slots,
            minlength=num_intervals * (associativity + 1),
        ).reshape(num_intervals, associativity + 1).astype(np.float64)

        overall = CPIStack()
        intervals: List[IntervalMeasurement] = []
        for interval_index in range(num_intervals):
            interval_stack = CPIStack()
            interval_stack.add_base(float(private_run.base_cycles[interval_index]))
            for level in range(num_private):
                if penalties[level]:
                    count = int(private_run.private_hits[interval_index, level])
                    interval_stack.add_private_cache(count * penalties[level])
            llc_hits_in_interval = int(llc_hit_counts[interval_index])
            llc_misses = int(llc_accesses[interval_index]) - llc_hits_in_interval
            interval_stack.add_llc(llc_hits_in_interval * core_model.llc_hit_penalty)
            interval_stack.add_memory(llc_misses * core_model.memory_penalty)
            interval_instructions = int(private_run.instructions[interval_index])
            interval_stack.add_instructions(interval_instructions)

            intervals.append(
                IntervalMeasurement(
                    index=interval_index,
                    instructions=interval_instructions,
                    cycles=interval_stack.total_cycles,
                    memory_cycles=interval_stack.memory,
                    llc_accesses=llc_hits_in_interval + llc_misses,
                    llc_hits=llc_hits_in_interval,
                    llc_misses=llc_misses,
                    sdc=StackDistanceCounters(
                        associativity=associativity, counts=sdc_hist[interval_index]
                    ),
                )
            )
            overall = overall.merged_with(interval_stack)

        return SingleCoreRunResult(
            benchmark=private_run.spec.name,
            machine_name=machine.name,
            interval_instructions=private_run.interval_instructions,
            intervals=intervals,
            cpi_stack=overall,
            llc_trace=private_run.llc_trace(overall.total_cycles),
        )
