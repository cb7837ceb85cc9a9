"""In-memory representation of a benchmark's execution trace.

The detailed simulators in :mod:`repro.simulators` are *trace driven*:
they replay a :class:`MemoryTrace`, which records every memory access
(cache-line address plus the dynamic instruction index at which it
occurs) and the number of non-memory core cycles accumulated between
consecutive accesses.  Traces are produced deterministically by
:mod:`repro.workloads.generator` from a :class:`BenchmarkSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.workloads.benchmark import BenchmarkSpec, WorkloadError


@dataclass(frozen=True)
class MemoryTrace:
    """A benchmark's memory-access trace.

    Attributes
    ----------
    spec:
        The benchmark specification the trace was generated from.
    num_instructions:
        Total number of dynamic instructions in the trace.
    access_insn:
        For each memory access, the (0-based) dynamic instruction index
        at which it occurs; non-decreasing, shape ``(num_accesses,)``.
    access_line:
        For each memory access, the cache-line address (an opaque
        integer; different benchmarks use disjoint address spaces).
    base_cycle_gap:
        For each memory access, the number of non-memory core cycles
        accumulated since the previous access (or since the start of
        the trace for the first access).  The core timing model adds
        cache/memory latencies on top of these.
    tail_base_cycles:
        Non-memory cycles accumulated after the last memory access up
        to the end of the trace.
    """

    spec: BenchmarkSpec
    num_instructions: int
    access_insn: np.ndarray
    access_line: np.ndarray
    base_cycle_gap: np.ndarray
    tail_base_cycles: float

    def __post_init__(self) -> None:
        n = len(self.access_insn)
        if len(self.access_line) != n or len(self.base_cycle_gap) != n:
            raise WorkloadError("trace arrays must all have the same length")
        if self.num_instructions <= 0:
            raise WorkloadError("a trace must contain at least one instruction")
        if n == 0:
            raise WorkloadError("a trace must contain at least one memory access")
        if self.tail_base_cycles < 0:
            raise WorkloadError("tail_base_cycles must be non-negative")

    @property
    def name(self) -> str:
        """The benchmark's name."""
        return self.spec.name

    @property
    def num_accesses(self) -> int:
        """Number of memory accesses in the trace."""
        return len(self.access_insn)

    @property
    def memory_access_rate(self) -> float:
        """Memory accesses per instruction."""
        return self.num_accesses / self.num_instructions

    @cached_property
    def footprint_lines(self) -> int:
        """Number of distinct cache lines touched by the trace.

        Computed once per trace: ``cached_property`` writes straight to
        the instance ``__dict__``, which works on this frozen dataclass
        (it bypasses the blocked ``__setattr__``), so repeated reads —
        classifiers and reports probe this per benchmark — skip the
        ``np.unique`` pass over the whole access stream.
        """
        return int(np.unique(self.access_line).size)

    def interval_slices(self, interval_instructions: int) -> list:
        """Split the trace into per-interval access slices.

        Returns a list of ``(start, stop)`` access-index pairs, one per
        interval of ``interval_instructions`` dynamic instructions.
        The last interval may be shorter.  Used by the single-core
        profiler, which measures CPI / memory CPI / SDCs per interval
        (the paper uses 20M-instruction intervals).
        """
        if interval_instructions <= 0:
            raise WorkloadError("interval_instructions must be positive")
        boundaries = np.arange(
            interval_instructions, self.num_instructions + interval_instructions, interval_instructions
        )
        boundaries[-1] = self.num_instructions
        slices = []
        start = 0
        for boundary in boundaries:
            stop = int(np.searchsorted(self.access_insn, boundary, side="left"))
            slices.append((start, stop))
            start = stop
        return slices

    def describe(self) -> str:
        """One-line summary used in reports and logs."""
        return (
            f"{self.name}: {self.num_instructions} instructions, "
            f"{self.num_accesses} memory accesses "
            f"({self.memory_access_rate:.1%}), footprint {self.footprint_lines} lines"
        )
