"""The single-core profile data model.

A :class:`SingleCoreProfile` is exactly what the paper's §2.1 collects
per benchmark: for every interval of the isolated run,

* the single-core CPI,
* the memory CPI (cycles waiting for memory per instruction), and
* the LLC stack-distance counters (SDCs),

plus enough bookkeeping (interval length, trace length, LLC geometry)
for MPPM to aggregate windows of the profile as its iterative process
advances each program's instruction pointer.  Profiles are plain data:
they can be serialised to JSON and reloaded without touching the
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence

import numpy as np

from repro.caches.stack_distance import StackDistanceCounters


class ProfileError(ValueError):
    """Raised for inconsistent profile data or invalid window queries."""


@dataclass(frozen=True)
class IntervalProfile:
    """Profile of one interval (the paper's 20M-instruction granularity)."""

    index: int
    instructions: int
    cpi: float
    memory_cpi: float
    llc_accesses: float
    llc_misses: float
    sdc: StackDistanceCounters

    def __post_init__(self) -> None:
        if self.instructions <= 0:
            raise ProfileError(f"interval {self.index}: instructions must be positive")
        if self.cpi <= 0:
            raise ProfileError(f"interval {self.index}: CPI must be positive, got {self.cpi}")
        if self.memory_cpi < 0 or self.memory_cpi > self.cpi:
            raise ProfileError(
                f"interval {self.index}: memory CPI {self.memory_cpi} must be within [0, CPI]"
            )
        if self.llc_accesses < 0 or self.llc_misses < 0 or self.llc_misses > self.llc_accesses:
            raise ProfileError(f"interval {self.index}: inconsistent LLC access/miss counts")

    @property
    def cycles(self) -> float:
        return self.cpi * self.instructions

    @property
    def memory_cycles(self) -> float:
        return self.memory_cpi * self.instructions


@dataclass(frozen=True)
class ProfileWindow:
    """Aggregation of a profile over a window of instructions.

    MPPM repeatedly needs "the SDCs, the memory cycles and the isolated
    LLC miss count over the next N_p instructions starting from the
    program's current position I_p"; a :class:`ProfileWindow` is that
    aggregate.  Partial intervals are scaled proportionally.
    """

    instructions: float
    cycles: float
    memory_cycles: float
    llc_accesses: float
    llc_misses: float
    sdc: StackDistanceCounters

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def memory_cpi(self) -> float:
        return self.memory_cycles / self.instructions if self.instructions else 0.0

    @property
    def average_miss_penalty(self) -> float:
        """Average exposed cycles per isolated LLC miss over the window.

        This is the paper's ``LLC_miss_penalty_p = CPI_mem,p * N_p /
        #LLC misses``; zero when the window contains no misses.
        """
        if self.llc_misses <= 0:
            return 0.0
        return self.memory_cycles / self.llc_misses


class ProfileWindowTable:
    """Stacked prefix-sum counter tables of any number of profiles.

    MPPM aggregates each program's profile over a window ``[I_p, I_p +
    N_p)`` every iteration.  With exclusive prefix sums of every
    per-interval counter, any window is two gathered point evaluations
    and a subtract (plus the whole-trace totals once per full
    wrap-around pass).  The table holds those prefix sums for a list of
    profiles at once, padded to the longest one, so windows of any mix
    of profiles are one gather: the batched mix-major solver builds one
    table over every distinct profile of a batch, and the scalar
    reference loop goes through :meth:`SingleCoreProfile.window`, whose
    cached table is the one-profile case.  Both kernels go through
    :class:`WindowSlots`, so they apply the same float operations and
    stay bit-identical by construction.

    The point evaluation ``P(x)`` (cumulative counters over ``[0, x)``)
    locates the interval containing ``x`` and interpolates the partial
    interval proportionally; a window starting at ``s`` (already
    wrapped into the trace) of length ``n`` with ``e = s + n``,
    ``q = floor(e / L)`` full passes and remainder ``r = e - q*L`` then
    aggregates to ``(P(r) - P(s)) + q * totals``.

    Row ``k`` of profile ``p`` is its interval ``k``; profiles with
    fewer intervals are padded with zero counters and ``+inf``
    boundaries, which an interval lookup never selects.
    """

    #: Column layout of :attr:`values` / :attr:`prefix` / window rows:
    #: the five scalar counters, then the A+1 stack-distance counters.
    COL_INSTRUCTIONS = 0
    COL_CYCLES = 1
    COL_MEMORY_CYCLES = 2
    COL_LLC_ACCESSES = 3
    COL_LLC_MISSES = 4
    SDC_OFFSET = 5

    def __init__(self, profiles: Sequence["SingleCoreProfile"]) -> None:
        counters = [profile.interval_counters for profile in profiles]
        shape = (len(counters), max(len(values) for values in counters))
        width = counters[0].shape[1]
        #: Per-interval counter matrices, ``values[p, k]`` for interval k.
        #: All profiles share one LLC associativity, hence one width.
        self.values = np.zeros(shape + (width,))
        #: Exclusive prefix sums: ``prefix[p, k]`` = counters over intervals < k.
        self.prefix = np.zeros((shape[0], shape[1] + 1, width))
        #: Instruction positions where each interval ends.  Interval
        #: lengths are integers, so the cumulative sums are exact in
        #: float64 and partial-interval fractions land in [0, 1].
        self.boundaries = np.full(shape, np.inf)
        for p, values in enumerate(counters):
            rows = len(values)
            self.values[p, :rows] = values
            self.prefix[p, 1 : rows + 1] = np.cumsum(values, axis=0)
            self.boundaries[p, :rows] = self.prefix[p, 1 : rows + 1, self.COL_INSTRUCTIONS]
        #: Index of each profile's last interval.
        self.last = np.array([len(values) - 1 for values in counters])
        #: Whole-trace totals (each profile's last prefix row).
        self.totals = self.prefix[np.arange(shape[0]), self.last + 1]
        self.trace_length = np.array([float(profile.num_instructions) for profile in profiles])
        # Interval rows flattened to one axis (row ``p * K + k``), so a
        # point evaluation gathers its rows with one flat index.  An
        # interval's start is its prefix row's instruction column and
        # its length its value row's.
        self.prefix_rows = self.prefix[:, :-1].reshape(-1, width)
        self.value_rows = self.values.reshape(-1, width)

    def slots(self, profile_ids: np.ndarray) -> "WindowSlots":
        """Gather the per-profile rows of ``profile_ids`` once, for many windows."""
        return WindowSlots(self, profile_ids)

    def windows(
        self,
        profile_ids: np.ndarray,
        start_instructions: np.ndarray,
        num_instructions: np.ndarray,
    ) -> np.ndarray:
        """Aggregate counters over ``[start, start + n)`` windows.

        ``profile_ids`` picks each window's profile (its index in the
        list the table was built from).  Starts wrap around the end of
        the trace and windows may span the wrap-around point any number
        of times.  Accepts scalars or arrays (broadcast together);
        returns rows in the column layout above, with one extra leading
        axis per input axis.
        """
        return self.slots(profile_ids).windows(start_instructions, num_instructions)


class WindowSlots:
    """A :class:`ProfileWindowTable`'s rows gathered for fixed slots.

    Slot ``i`` reads profile ``profile_ids[i]``.  The batched MPPM
    solver keeps one instance per set of live mixes and asks it for
    every iteration's windows, so the per-profile rows (trace length,
    boundaries, last interval, totals and flat row bases) are gathered
    once per live set instead of once per iteration.
    """

    def __init__(self, table: ProfileWindowTable, profile_ids: np.ndarray) -> None:
        self.table = table
        self.length = table.trace_length[profile_ids]
        self.boundaries = table.boundaries[profile_ids]
        self.totals = table.totals[profile_ids]
        base = np.asarray(profile_ids) * table.boundaries.shape[1]
        # Flat row of the last interval, and the first row past the
        # profile's padded rows: the interval lookup below is
        # ``min(top - #boundaries above x, last_row)``.
        self.last_row = table.last[profile_ids] + base
        self.top = base + table.boundaries.shape[1]

    def point(self, positions: np.ndarray) -> np.ndarray:
        """``P(x)``: cumulative counters over ``[0, x)`` for ``x`` in [0, L].

        ``positions`` has the slots' shape, optionally behind extra
        leading axes.  The interval index is the number of boundaries
        not above ``x`` (``searchsorted(boundaries, x, side="right")``;
        padded ``+inf`` boundaries never count), capped at the
        profile's last interval.  Counting ``boundaries > x`` (not
        summing ``boundaries <= x``) keeps a NaN position's lookup.
        """
        above = np.add.reduce(self.boundaries > positions[..., None], axis=-1)
        rows = np.minimum(self.top - above, self.last_row)
        prefix = self.table.prefix_rows[rows]
        values = self.table.value_rows[rows]
        col = ProfileWindowTable.COL_INSTRUCTIONS
        fraction = (positions - prefix[..., col]) / values[..., col]
        return prefix + fraction[..., None] * values

    def windows(self, start_instructions: np.ndarray, num_instructions: np.ndarray) -> np.ndarray:
        """:meth:`ProfileWindowTable.windows` for these slots.

        ``P(remainder)`` and ``P(start)`` are evaluated in one stacked
        :meth:`point` call.
        """
        length = self.length
        start = np.mod(np.asarray(start_instructions, dtype=np.float64), length)
        end = start + np.asarray(num_instructions, dtype=np.float64)
        full_passes = np.floor(end / length)
        points = np.empty((2,) + end.shape)
        points[0] = np.minimum(np.maximum(end - full_passes * length, 0.0), length)
        points[1] = start
        rows = self.point(points)
        return (rows[0] - rows[1]) + full_passes[..., None] * self.totals


class SingleCoreProfile:
    """Per-benchmark single-core profile on a given machine.

    A profile is immutable once built: its whole-trace aggregates and
    its window table are computed on first use and cached.
    """

    def __init__(
        self,
        benchmark: str,
        machine_key: str,
        machine_name: str,
        interval_instructions: int,
        intervals: Sequence[IntervalProfile],
        llc_associativity: int,
    ) -> None:
        if not intervals:
            raise ProfileError("a profile needs at least one interval")
        if interval_instructions <= 0:
            raise ProfileError("interval_instructions must be positive")
        expected_index = list(range(len(intervals)))
        if [interval.index for interval in intervals] != expected_index:
            raise ProfileError("profile intervals must be consecutively indexed from 0")
        for interval in intervals:
            if interval.sdc.associativity != llc_associativity:
                raise ProfileError(
                    "interval SDC associativity does not match the profile's LLC associativity"
                )
        self.benchmark = benchmark
        self.machine_key = machine_key
        self.machine_name = machine_name
        self.interval_instructions = interval_instructions
        self.intervals: List[IntervalProfile] = list(intervals)
        self.llc_associativity = llc_associativity

    # ------------------------------------------------------------------
    # Whole-trace aggregates (cached: MPPM reads them once per program
    # per prediction, and each is a Python sum over every interval)
    # ------------------------------------------------------------------

    @property
    def num_intervals(self) -> int:
        return len(self.intervals)

    @cached_property
    def num_instructions(self) -> int:
        """Total instructions of the profiled trace."""
        return sum(interval.instructions for interval in self.intervals)

    @cached_property
    def total_cycles(self) -> float:
        return sum(interval.cycles for interval in self.intervals)

    @cached_property
    def cpi(self) -> float:
        """Overall single-core CPI (the paper's CPI_SC)."""
        return self.total_cycles / self.num_instructions

    @cached_property
    def memory_cpi(self) -> float:
        """Overall memory CPI (the paper's CPI_mem)."""
        return sum(interval.memory_cycles for interval in self.intervals) / self.num_instructions

    @property
    def memory_cpi_fraction(self) -> float:
        """Memory CPI as a fraction of total CPI (used for MEM/COMP classification)."""
        return self.memory_cpi / self.cpi if self.cpi else 0.0

    @cached_property
    def total_llc_accesses(self) -> float:
        return sum(interval.llc_accesses for interval in self.intervals)

    @cached_property
    def total_llc_misses(self) -> float:
        return sum(interval.llc_misses for interval in self.intervals)

    @property
    def llc_misses_per_kilo_instruction(self) -> float:
        return 1000.0 * self.total_llc_misses / self.num_instructions

    def total_sdc(self) -> StackDistanceCounters:
        """Sum of all interval SDCs."""
        return StackDistanceCounters.sum(
            (interval.sdc for interval in self.intervals), self.llc_associativity
        )

    # ------------------------------------------------------------------
    # Window aggregation (the operation MPPM performs every iteration)
    # ------------------------------------------------------------------

    @cached_property
    def interval_counters(self) -> np.ndarray:
        """Per-interval counters, one row per interval (read-only).

        Columns follow :class:`ProfileWindowTable`'s layout: the five
        scalar counters, then the A+1 stack-distance counters.
        """
        intervals = self.intervals
        sdc = np.stack([interval.sdc.counts for interval in intervals]).astype(np.float64)
        values = np.column_stack(
            [
                np.array([interval.instructions for interval in intervals], dtype=np.float64),
                np.array([interval.cycles for interval in intervals], dtype=np.float64),
                np.array([interval.memory_cycles for interval in intervals], dtype=np.float64),
                np.array([interval.llc_accesses for interval in intervals], dtype=np.float64),
                np.array([interval.llc_misses for interval in intervals], dtype=np.float64),
                sdc,
            ]
        )
        values.flags.writeable = False
        return values

    @cached_property
    def window_table(self) -> ProfileWindowTable:
        """The profile's own window table (the one-profile stack)."""
        return ProfileWindowTable([self])

    def window(self, start_instruction: float, num_instructions: float) -> ProfileWindow:
        """Aggregate the profile over ``[start, start + num_instructions)``.

        The start position wraps around the end of the trace (MPPM lets
        fast programs iterate over their trace more than once), and the
        window itself may span the wrap-around point.  Partial
        intervals contribute proportionally.  The aggregation goes
        through :class:`ProfileWindowTable` — the same float operations
        the batched MPPM kernel applies to whole arrays of windows.
        """
        if num_instructions <= 0:
            raise ProfileError(f"window length must be positive, got {num_instructions}")
        row = self.window_table.windows(0, float(start_instruction), float(num_instructions))
        return ProfileWindow(
            instructions=float(row[ProfileWindowTable.COL_INSTRUCTIONS]),
            cycles=float(row[ProfileWindowTable.COL_CYCLES]),
            memory_cycles=float(row[ProfileWindowTable.COL_MEMORY_CYCLES]),
            llc_accesses=float(row[ProfileWindowTable.COL_LLC_ACCESSES]),
            llc_misses=float(row[ProfileWindowTable.COL_LLC_MISSES]),
            sdc=StackDistanceCounters(
                associativity=self.llc_associativity,
                counts=row[ProfileWindowTable.SDC_OFFSET :].copy(),
            ),
        )

    # ------------------------------------------------------------------
    # Derived profiles
    # ------------------------------------------------------------------

    def reduced_associativity(self, ways: int) -> "SingleCoreProfile":
        """Derive the profile for an LLC with fewer ways (same sets).

        The paper points out that profiles collected for a 16-way LLC
        can be reused for an 8-way LLC without re-simulation.  The SDCs
        fold exactly; the CPI and memory CPI are adjusted by charging
        the additional misses the average miss penalty observed in the
        interval (an approximation the paper shares).
        """
        new_intervals = []
        for interval in self.intervals:
            new_sdc = interval.sdc.reduced_associativity(ways)
            extra_misses = new_sdc.misses - interval.sdc.misses
            if interval.llc_misses > 0:
                penalty = interval.memory_cycles / interval.llc_misses
            else:
                penalty = 0.0
            extra_cycles = extra_misses * penalty
            cycles = interval.cycles + extra_cycles
            memory_cycles = interval.memory_cycles + extra_cycles
            new_intervals.append(
                IntervalProfile(
                    index=interval.index,
                    instructions=interval.instructions,
                    cpi=cycles / interval.instructions,
                    memory_cpi=memory_cycles / interval.instructions,
                    llc_accesses=interval.llc_accesses,
                    llc_misses=interval.llc_misses + extra_misses,
                    sdc=new_sdc,
                )
            )
        return SingleCoreProfile(
            benchmark=self.benchmark,
            machine_key=f"{self.machine_key}|derived_ways={ways}",
            machine_name=f"{self.machine_name} (derived {ways}-way LLC)",
            interval_instructions=self.interval_instructions,
            intervals=new_intervals,
            llc_associativity=ways,
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        """Plain-data representation suitable for JSON."""
        return {
            "benchmark": self.benchmark,
            "machine_key": self.machine_key,
            "machine_name": self.machine_name,
            "interval_instructions": self.interval_instructions,
            "llc_associativity": self.llc_associativity,
            "intervals": [
                {
                    "index": interval.index,
                    "instructions": interval.instructions,
                    "cpi": interval.cpi,
                    "memory_cpi": interval.memory_cpi,
                    "llc_accesses": interval.llc_accesses,
                    "llc_misses": interval.llc_misses,
                    "sdc": interval.sdc.counts.tolist(),
                }
                for interval in self.intervals
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SingleCoreProfile":
        """Inverse of :meth:`to_dict`."""
        associativity = int(data["llc_associativity"])
        intervals = [
            IntervalProfile(
                index=int(entry["index"]),
                instructions=int(entry["instructions"]),
                cpi=float(entry["cpi"]),
                memory_cpi=float(entry["memory_cpi"]),
                llc_accesses=float(entry["llc_accesses"]),
                llc_misses=float(entry["llc_misses"]),
                sdc=StackDistanceCounters(
                    associativity=associativity,
                    counts=np.asarray(entry["sdc"], dtype=np.float64),
                ),
            )
            for entry in data["intervals"]
        ]
        return cls(
            benchmark=data["benchmark"],
            machine_key=data["machine_key"],
            machine_name=data["machine_name"],
            interval_instructions=int(data["interval_instructions"]),
            intervals=intervals,
            llc_associativity=associativity,
        )

    def describe(self) -> str:
        return (
            f"{self.benchmark} on {self.machine_name}: CPI_SC {self.cpi:.3f}, "
            f"CPI_mem {self.memory_cpi:.3f} ({self.memory_cpi_fraction:.0%}), "
            f"{self.llc_misses_per_kilo_instruction:.2f} LLC MPKI, "
            f"{self.num_intervals} intervals"
        )
