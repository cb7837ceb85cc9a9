"""The single-core profile data model.

A :class:`SingleCoreProfile` is exactly what the paper's §2.1 collects
per benchmark: for every interval of the isolated run,

* the single-core CPI,
* the memory CPI (cycles waiting for memory per instruction), and
* the LLC stack-distance counters (SDCs),

plus enough bookkeeping (interval length, trace length, LLC geometry)
for MPPM to aggregate windows of the profile as its iterative process
advances each program's instruction pointer.  A profile holds these
series as per-interval columns (one array each, the SDCs one row of
A+1 counters per interval); the constructor checks whole columns at
once.  Profiles are plain data: they can be serialised to JSON and
reloaded without touching the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Sequence

import numpy as np

from repro.caches.stack_distance import StackDistanceCounters


class ProfileError(ValueError):
    """Raised for inconsistent profile data or invalid window queries."""


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
    fewer intervals are padded with zero counters, which an interval
    lookup never selects (it is capped at the profile's last interval).
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
        counts = [profile.num_intervals for profile in profiles]
        shape = (len(profiles), max(counts))
        width = profiles[0].interval_counters.shape[1]
        #: Per-interval counter matrices, ``values[p, k]`` for interval k,
        #: and their exclusive prefix sums, ``prefix[p, k]`` = counters over
        #: intervals < k (each profile's cached running sums; padding rows
        #: are zero).  All profiles share one LLC associativity, hence width.
        self.values = np.zeros(shape + (width,))
        self.prefix = np.zeros((shape[0], shape[1] + 1, width))
        self.trace_length = np.array([float(profile.num_instructions) for profile in profiles])
        #: Flat interval lookup keys (see :meth:`WindowSlots.point`): profile
        #: p's inner interval ends plus ``p * key_stride``; its last end (its
        #: trace length) and its padding are raised to ``key_stride - 1``.
        #: Interval lengths are integers (checked by :class:`SingleCoreProfile`),
        #: so the ends are exact in float64 and as int64, and partial-interval
        #: fractions land in [0, 1].  The stride exceeds every trace length by
        #: two, so the keys are sorted, the raised keys lie above every query
        #: for p, and no query for one profile reaches another profile's keys.
        self.key_stride = max(profile.num_instructions for profile in profiles) + 2
        ends = np.full(shape, self.key_stride - 1)
        for p, (profile, count) in enumerate(zip(profiles, counts)):
            self.values[p, :count] = profile.interval_counters
            self.prefix[p, : count + 1] = profile.interval_prefix
            ends[p, : count - 1] = profile.interval_prefix[1:count, self.COL_INSTRUCTIONS]
        self.keys = (ends + np.arange(shape[0])[:, None] * self.key_stride).ravel()
        #: Index of each profile's last interval.
        self.last = np.array(counts) - 1
        #: The one length of every inner interval (the profiler's), else None.
        step = profiles[0].interval_instructions
        grid = step * np.arange(1, shape[1] + 1)
        self.interval = step if ((ends == grid) | (ends == self.key_stride - 1)).all() else None
        #: Whole-trace totals (each profile's last prefix row).
        self.totals = self.prefix[np.arange(shape[0]), self.last + 1]
        # Interval rows flattened to one axis (row ``p * K + k``), so a
        # point evaluation gathers its rows with one flat index.  An
        # interval's start is its prefix row's instruction column and
        # its length its value row's.
        self.prefix_rows = self.prefix[:, :-1].reshape(-1, width)
        self.value_rows = self.values.reshape(-1, width)

    def slots(self, profile_ids: np.ndarray) -> "WindowSlots":
        """Gather the per-profile rows of ``profile_ids`` (an array or a
        scalar) once, for many windows."""
        return WindowSlots(self, profile_ids)


class WindowSlots:
    """A :class:`ProfileWindowTable`'s rows gathered for fixed slots.

    Slot ``i`` reads profile ``profile_ids[i]``.  The batched MPPM
    solver keeps one instance per set of live mixes, so the per-profile
    rows (trace length, totals, lookup bases) are gathered once per live
    set instead of once per iteration.
    """

    def __init__(self, table: ProfileWindowTable, profile_ids: np.ndarray) -> None:
        self.table = table
        self.length = table.trace_length[profile_ids]
        self.totals = table.totals[profile_ids]
        self.key_base = np.asarray(profile_ids) * table.key_stride
        self.row_base = np.asarray(profile_ids) * table.values.shape[1]
        self.last = table.last[profile_ids]

    def point(self, positions: np.ndarray) -> np.ndarray:
        """``P(x)``: cumulative counters over ``[0, x)`` for ``x`` in [0, L].

        ``positions`` has the slots' shape, optionally behind extra
        leading axes.  The interval index is the number of boundaries
        not above ``x``, capped at the profile's last interval; a NaN
        position, or one beyond ``L``, reads the last interval.  It is
        one ``searchsorted`` over the table's integer keys, exact
        because every boundary ``b`` is an integer: ``b <= x`` holds
        exactly when ``b <= floor(x)``.  ``fmin`` clamps ``x`` to ``L``
        first (NaN included); for ``x >= 0`` the truncating int64 cast
        is then a floor.  The query ``p * stride + floor(x)`` lies above
        every key before ``p``'s and below ``p``'s raised keys, so the
        search returns ``p * K`` plus the number of ``p``'s inner
        boundaries not above ``floor(x)``: its capped boundary count (a
        table of one interval length divides instead: ``floor(x) // interval``).
        """
        floor = np.fmin(positions, self.length).astype(np.int64)
        if self.table.interval is None:
            rows = self.table.keys.searchsorted(self.key_base + floor, side="right")
        else:
            rows = self.row_base + np.minimum(floor // self.table.interval, self.last)
        prefix = self.table.prefix_rows.take(rows, axis=0)
        values = self.table.value_rows.take(rows, axis=0)
        col = ProfileWindowTable.COL_INSTRUCTIONS
        fraction = (positions - prefix[..., col]) / values[..., col]
        return prefix + fraction[..., None] * values

    def windows(self, start_instructions: np.ndarray, num_instructions: np.ndarray) -> np.ndarray:
        """Aggregate counters over ``[start, start + n)`` windows, one per slot.

        Starts wrap around the trace's end, any number of times.  Takes
        scalars or arrays (broadcast with the slots), returns rows in the
        table's column layout, and evaluates ``P(remainder)`` and
        ``P(start)`` in one stacked :meth:`point` call.
        """
        length = self.length
        start = np.mod(start_instructions, length)
        end = start + num_instructions
        full_passes = np.floor(end / length)
        points = np.empty((2,) + end.shape)
        points[0] = np.minimum(np.maximum(end - full_passes * length, 0.0), length)
        points[1] = start
        rows = self.point(points)
        return (rows[0] - rows[1]) + full_passes[..., None] * self.totals


#: A profile's per-interval columns in JSON field order; ``sdc`` holds
#: one row of A+1 counters per interval.
_COLUMNS = ("instructions", "cpi", "memory_cpi", "llc_accesses", "llc_misses", "sdc")


def _instruction_counts(values: Sequence) -> np.ndarray:
    """Instruction counts as float64 for the integer check, a boolean as NaN.

    numpy reads ``True`` (JSON's ``true``) as 1, which is no count.
    """
    if not isinstance(values, np.ndarray) or values.dtype == bool:
        values = [np.nan if isinstance(value, (bool, np.bool_)) else value for value in values]
    return np.array(values, dtype=np.float64)


class SingleCoreProfile:
    """Per-benchmark single-core profile on a given machine.

    A profile is immutable once built.  It is held as per-interval
    :attr:`columns`, which the profiler and the JSON loader hand to the
    constructor.  Its whole-trace aggregates and its window table are
    computed on first use and cached.
    """

    def __init__(
        self,
        benchmark: str,
        machine_key: str,
        machine_name: str,
        interval_instructions: int,
        llc_associativity: int,
        **columns: Sequence,
    ) -> None:
        """A profile from its per-interval columns, checked once per column.

        ``columns`` are ``instructions``, ``cpi``, ``memory_cpi``,
        ``llc_accesses``, ``llc_misses`` (one entry per interval) and
        ``sdc`` (one row of A+1 counters per interval).
        """
        if interval_instructions <= 0:
            raise ProfileError("interval_instructions must be positive")
        if columns.keys() != set(_COLUMNS):
            raise ProfileError(f"profile columns must be {', '.join(_COLUMNS)}")
        self.benchmark = benchmark
        self.machine_key = machine_key
        self.machine_name = machine_name
        self.interval_instructions = interval_instructions
        self.llc_associativity = llc_associativity
        #: The per-interval columns (read-only arrays), keyed as ``_COLUMNS``:
        #: ``instructions`` as int64, the others as float64.
        self.columns = {"instructions": _instruction_counts(columns["instructions"])}
        self.columns.update(
            (name, np.array(columns[name], dtype=np.float64)) for name in _COLUMNS[1:]
        )
        count = len(self.columns["instructions"])
        if not count:
            raise ProfileError("a profile needs at least one interval")
        if any(column.shape[:1] != (count,) for column in self.columns.values()):
            raise ProfileError("profile columns must have one entry per interval")
        if llc_associativity <= 0 or self.columns["sdc"].shape[1:] != (llc_associativity + 1,):
            raise ProfileError(
                "interval SDC associativity does not match the profile's LLC associativity"
            )
        self._check_intervals()
        self.columns["instructions"] = self.columns["instructions"].astype(np.int64)
        for column in self.columns.values():
            column.flags.writeable = False

    def _check_intervals(self) -> None:
        """Raise the first failed check of the first bad interval.

        Each check covers whole columns at once.  NaN compares false with
        anything, so it fails every check it appears in; an infinity fails
        the upper bounds.
        """
        c = self.columns
        instructions, cpi, memory_cpi = c["instructions"], c["cpi"], c["memory_cpi"]
        accesses, misses, sdc = c["llc_accesses"], c["llc_misses"], c["sdc"]
        checks = (
            (
                (instructions > 0)
                & (instructions < np.inf)
                & (instructions == np.floor(instructions)),
                "instructions must be a positive integer",
            ),
            ((cpi > 0) & (cpi < np.inf), "CPI must be positive and finite, got {cpi}"),
            (
                (memory_cpi >= 0) & (memory_cpi <= cpi),
                "memory CPI {memory_cpi} must be within [0, CPI]",
            ),
            (
                (misses >= 0) & (misses <= accesses) & (accesses < np.inf),
                "inconsistent LLC access/miss counts",
            ),
            (
                ((sdc >= 0) & (sdc < np.inf)).all(axis=1),
                "stack-distance counters must be finite and non-negative",
            ),
        )
        failed = ~np.array([passed for passed, _ in checks])
        if failed.any():
            index = int(failed.any(axis=0).argmax())
            message = checks[int(failed[:, index].argmax())][1]
            detail = message.format(cpi=cpi[index], memory_cpi=memory_cpi[index])
            raise ProfileError(f"interval {index}: {detail}")

    # ------------------------------------------------------------------
    # Whole-trace aggregates (cached: MPPM reads them once per program
    # per prediction; each is a left-to-right sum over the intervals)
    # ------------------------------------------------------------------

    @property
    def num_intervals(self) -> int:
        return len(self.columns["instructions"])

    @cached_property
    def num_instructions(self) -> int:
        """Total instructions of the profiled trace."""
        return int(self.columns["instructions"].sum())

    @cached_property
    def total_cycles(self) -> float:
        return sum(self.interval_counters[:, ProfileWindowTable.COL_CYCLES].tolist())

    @cached_property
    def cpi(self) -> float:
        """Overall single-core CPI (the paper's CPI_SC)."""
        return self.total_cycles / self.num_instructions

    @cached_property
    def memory_cpi(self) -> float:
        """Overall memory CPI (the paper's CPI_mem)."""
        memory_cycles = self.interval_counters[:, ProfileWindowTable.COL_MEMORY_CYCLES]
        return sum(memory_cycles.tolist()) / self.num_instructions

    @property
    def memory_cpi_fraction(self) -> float:
        """Memory CPI as a fraction of total CPI (used for MEM/COMP classification)."""
        return self.memory_cpi / self.cpi if self.cpi else 0.0

    @cached_property
    def total_llc_accesses(self) -> float:
        return sum(self.columns["llc_accesses"].tolist())

    @cached_property
    def total_llc_misses(self) -> float:
        return sum(self.columns["llc_misses"].tolist())

    @property
    def llc_misses_per_kilo_instruction(self) -> float:
        return 1000.0 * self.total_llc_misses / self.num_instructions

    # ------------------------------------------------------------------
    # Window aggregation (the operation MPPM performs every iteration)
    # ------------------------------------------------------------------

    @cached_property
    def interval_counters(self) -> np.ndarray:
        """Per-interval counters, one row per interval (read-only).

        Columns follow :class:`ProfileWindowTable`'s layout: the five
        scalar counters, then the A+1 stack-distance counters.
        """
        c = self.columns
        instructions = c["instructions"].astype(np.float64)
        values = np.column_stack(
            [
                instructions,
                c["cpi"] * instructions,
                c["memory_cpi"] * instructions,
                c["llc_accesses"],
                c["llc_misses"],
                c["sdc"],
            ]
        )
        values.flags.writeable = False
        return values

    @cached_property
    def interval_prefix(self) -> np.ndarray:
        """Exclusive running sums of :attr:`interval_counters`, one row longer (read-only)."""
        prefix = np.zeros((self.num_intervals + 1, self.interval_counters.shape[1]))
        np.cumsum(self.interval_counters, axis=0, out=prefix[1:])
        prefix.flags.writeable = False
        return prefix

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
        row = self.window_table.slots(0).windows(float(start_instruction), float(num_instructions))
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

        The paper (§2) points out that profiles collected for a 16-way
        LLC can be reused for an 8-way LLC without re-simulation.  The
        SDCs fold exactly: distances 1..ways keep their counters and
        everything deeper folds into the new ``C>A``.  The CPI and memory
        CPI are adjusted by charging the additional misses the average
        miss penalty observed in the interval (an approximation the
        paper shares).
        """
        if not 1 <= ways <= self.llc_associativity:
            raise ProfileError(f"ways must be in [1, {self.llc_associativity}], got {ways}")
        c = self.columns
        sdc = np.column_stack([c["sdc"][:, :ways], c["sdc"][:, ways:].sum(axis=1)])
        extra_misses = sdc[:, ways] - c["sdc"][:, self.llc_associativity]
        instructions = c["instructions"].astype(np.float64)
        memory_cycles = c["memory_cpi"] * instructions
        misses = c["llc_misses"]
        penalty = np.divide(memory_cycles, misses, out=np.zeros_like(misses), where=misses > 0)
        extra_cycles = extra_misses * penalty
        return SingleCoreProfile(
            self.benchmark,
            f"{self.machine_key}|derived_ways={ways}",
            f"{self.machine_name} (derived {ways}-way LLC)",
            self.interval_instructions,
            ways,
            instructions=c["instructions"],
            cpi=(c["cpi"] * instructions + extra_cycles) / instructions,
            memory_cpi=(memory_cycles + extra_cycles) / instructions,
            llc_accesses=c["llc_accesses"],
            llc_misses=misses + extra_misses,
            sdc=sdc,
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        """Plain-data representation suitable for JSON."""
        rows = zip(*(column.tolist() for column in self.columns.values()))
        return {
            "benchmark": self.benchmark,
            "machine_key": self.machine_key,
            "machine_name": self.machine_name,
            "interval_instructions": self.interval_instructions,
            "llc_associativity": self.llc_associativity,
            "intervals": [
                {"index": index, **dict(zip(_COLUMNS, row))} for index, row in enumerate(rows)
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SingleCoreProfile":
        """Inverse of :meth:`to_dict`."""
        entries = data["intervals"]
        if [int(entry["index"]) for entry in entries] != list(range(len(entries))):
            raise ProfileError("profile intervals must be consecutively indexed from 0")
        return cls(
            benchmark=data["benchmark"],
            machine_key=data["machine_key"],
            machine_name=data["machine_name"],
            interval_instructions=int(data["interval_instructions"]),
            llc_associativity=int(data["llc_associativity"]),
            **{name: [entry[name] for entry in entries] for name in _COLUMNS},
        )

    def describe(self) -> str:
        return (
            f"{self.benchmark} on {self.machine_name}: CPI_SC {self.cpi:.3f}, "
            f"CPI_mem {self.memory_cpi:.3f} ({self.memory_cpi_fraction:.0%}), "
            f"{self.llc_misses_per_kilo_instruction:.2f} LLC MPKI, "
            f"{self.num_intervals} intervals"
        )
