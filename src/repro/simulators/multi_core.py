"""Multi-core detailed simulation with a shared last-level cache.

This is the reproduction's stand-in for detailed CMP$im simulation of a
multi-program workload: every core replays its program's filtered LLC
access trace; the accesses of all cores interleave in global time order
against a single shared LLC (LRU, as in the paper); a hit costs the
LLC latency, a miss the memory latency (both MLP-discounted per
program, consistently with the single-core runs).

The methodology follows the paper's references to Tuck & Tullsen and
Vera et al. (FAME): a program that finishes its trace before the
slowest one restarts from the beginning so that contention pressure is
maintained, and each program's multi-core CPI is measured over its
*first* complete pass.

:meth:`MultiCoreSimulator.run` advances all cores in numpy windows of
a fixed size, each read from the core's *periodic* access stream, so a
window runs across the trace end — the FAME restart — as often as it
needs to.  Each core's window access times are estimated under its
expected CPI (its measured hit rate so far, plus the exact penalties of
any accesses rolled back from the previous round, plus the exact
post-LLC tails at trace ends), the K-way merge of those estimates
proposes a global order, the proposed order is replayed through
:func:`repro.caches.vectorized.llc_hits` (a batched per-set LRU
hit/miss decision, seeded with the LLC's live recency state), and the
exact ready times implied by the replayed outcomes — one ``cumsum`` per
core over ``[cycle, (gap, penalty, tail_or_0) × w]`` — are re-sorted to
detect order violations.  Only the provably correct prefix commits, the
rest rolls back and the next round re-speculates from the exact times
(see :meth:`MultiCoreSimulator._run_chunked`).

:meth:`MultiCoreSimulator.run_reference` keeps the per-core ready times
in a binary heap and walks one access at a time: the test witness.
Both break ready-time ties by core index and share one result assembly,
so they are bit-identical — asserted by the equivalence matrix in the
test suite and guarded by ``benchmarks/bench_multicore_interleave.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.caches.set_associative import SetAssociativeCache
# ``stack_distances`` stays importable here: perfbench wraps this name.
from repro.caches.vectorized import llc_hits, stack_distances  # noqa: F401
from repro.config.machine import MachineConfig
from repro.cores.core_model import CoreTimingModel
from repro.simulators.llc_trace import LLCAccessTrace

#: Chunked-walk window: accesses speculated per core per round, taken
#: from the core's periodic access stream (windows run across the trace
#: end).  A fixed size: measured faster than a window adapting to the
#: commit rate, and larger windows (3072, 4096) were slower.
_WINDOW = 2_048
#: How many times a round refines its speculative order (the first
#: attempt orders by estimated ready times, later attempts re-sort by
#: the exact ready times of the previous attempt's outcomes) before
#: committing the longest validated prefix.
_ORDER_ATTEMPTS = 2


class MultiCoreSimulationError(ValueError):
    """Raised when a multi-core simulation is set up inconsistently."""


@dataclass(frozen=True)
class ProgramRunStats:
    """Per-program outcome of a multi-core simulation."""

    name: str
    core: int
    num_instructions: int
    cycles: float
    isolated_cycles: float
    llc_accesses_first_pass: int
    llc_hits_first_pass: int
    llc_misses_first_pass: int
    passes_completed: int

    @property
    def cpi(self) -> float:
        """Multi-core CPI over the program's first complete trace pass."""
        return self.cycles / self.num_instructions

    @property
    def isolated_cpi(self) -> float:
        return self.isolated_cycles / self.num_instructions

    @property
    def slowdown(self) -> float:
        """Per-program slowdown relative to isolated execution (the paper's R_p)."""
        return self.cycles / self.isolated_cycles

    @property
    def llc_miss_rate_first_pass(self) -> float:
        if not self.llc_accesses_first_pass:
            return 0.0
        return self.llc_misses_first_pass / self.llc_accesses_first_pass


@dataclass(frozen=True)
class MultiCoreRunResult:
    """Outcome of simulating one multi-program workload mix."""

    machine_name: str
    num_cores: int
    programs: List[ProgramRunStats]
    total_llc_accesses: int
    total_llc_misses: int

    def __post_init__(self) -> None:
        # Guard both fresh constructions and deserialised payloads: a
        # result whose program list disagrees with its core count would
        # silently produce nonsense STP/ANTT (both average over the
        # program list).
        if self.num_cores <= 0:
            raise MultiCoreSimulationError(
                f"num_cores must be positive, got {self.num_cores}"
            )
        if len(self.programs) != self.num_cores:
            raise MultiCoreSimulationError(
                f"run result claims {self.num_cores} cores but carries "
                f"{len(self.programs)} programs"
            )
        cores = sorted(stats.core for stats in self.programs)
        if cores != list(range(self.num_cores)):
            raise MultiCoreSimulationError(
                f"program core indices must be exactly 0..{self.num_cores - 1}, "
                f"got {cores}"
            )

    def program(self, name: str, core: Optional[int] = None) -> ProgramRunStats:
        """Stats of the program with the given name (and core, if given).

        A bare name is ambiguous in mixes that run several copies of
        one benchmark; pass ``core=`` to pick a specific copy.  An
        ambiguous name-only lookup raises instead of silently returning
        the first copy.
        """
        matches = [stats for stats in self.programs if stats.name == name]
        if core is not None:
            for stats in matches:
                if stats.core == core:
                    return stats
            raise KeyError(f"no program named {name!r} on core {core} in this run")
        if not matches:
            raise KeyError(f"no program named {name!r} in this run")
        if len(matches) > 1:
            raise KeyError(
                f"{len(matches)} programs named {name!r} in this run (cores "
                f"{[stats.core for stats in matches]}); pass core= to disambiguate"
            )
        return matches[0]

    @property
    def per_program_cpi(self) -> Dict[int, float]:
        """Multi-core CPI keyed by core index."""
        return {stats.core: stats.cpi for stats in self.programs}

    @property
    def slowdowns(self) -> List[float]:
        return [stats.slowdown for stats in self.programs]

    @property
    def system_throughput(self) -> float:
        """STP (weighted speedup): sum over programs of CPI_SC / CPI_MC."""
        return sum(stats.isolated_cpi / stats.cpi for stats in self.programs)

    @property
    def average_normalized_turnaround_time(self) -> float:
        """ANTT: average over programs of CPI_MC / CPI_SC."""
        return sum(stats.cpi / stats.isolated_cpi for stats in self.programs) / len(self.programs)

    # ------------------------------------------------------------------
    # Serialisation (for the engine's persistent result cache)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        """Plain-data representation suitable for JSON."""
        return {
            "machine_name": self.machine_name,
            "num_cores": self.num_cores,
            "total_llc_accesses": self.total_llc_accesses,
            "total_llc_misses": self.total_llc_misses,
            "programs": [
                {
                    "name": stats.name,
                    "core": stats.core,
                    "num_instructions": stats.num_instructions,
                    "cycles": stats.cycles,
                    "isolated_cycles": stats.isolated_cycles,
                    "llc_accesses_first_pass": stats.llc_accesses_first_pass,
                    "llc_hits_first_pass": stats.llc_hits_first_pass,
                    "llc_misses_first_pass": stats.llc_misses_first_pass,
                    "passes_completed": stats.passes_completed,
                }
                for stats in self.programs
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "MultiCoreRunResult":
        """Inverse of :meth:`to_dict`.

        Inconsistent payloads — a program list that disagrees with the
        core count, or out-of-range core indices — are rejected here
        (via ``__post_init__``) rather than round-tripped into results
        whose STP/ANTT silently average over the wrong program count.
        """
        programs = [
            ProgramRunStats(
                name=entry["name"],
                core=int(entry["core"]),
                num_instructions=int(entry["num_instructions"]),
                cycles=float(entry["cycles"]),
                isolated_cycles=float(entry["isolated_cycles"]),
                llc_accesses_first_pass=int(entry["llc_accesses_first_pass"]),
                llc_hits_first_pass=int(entry["llc_hits_first_pass"]),
                llc_misses_first_pass=int(entry["llc_misses_first_pass"]),
                passes_completed=int(entry["passes_completed"]),
            )
            for entry in data["programs"]
        ]
        return cls(
            machine_name=data["machine_name"],
            num_cores=int(data["num_cores"]),
            programs=programs,
            total_llc_accesses=int(data["total_llc_accesses"]),
            total_llc_misses=int(data["total_llc_misses"]),
        )


#: Per-core offset added to line addresses so that two copies of the same
#: benchmark running on different cores do not share data in the LLC.  The
#: paper's multi-program workloads are independent processes with distinct
#: physical addresses, so constructive sharing between copies must not
#: happen.  The offset is far smaller than the per-benchmark address-space
#: stride used by the trace generator, so different benchmarks stay disjoint,
#: and it is not a multiple of any power-of-two set count, so copies of the
#: same benchmark land in (slightly) different sets — as distinct physical
#: page mappings would.
_CORE_ADDRESS_OFFSET = (1 << 30) + 12_347


def _resident_stacks(stream: np.ndarray, num_sets: int, associativity: int) -> np.ndarray:
    """Recency state of a cold-started LRU cache after replaying ``stream``.

    Returns the resident lines, grouped by set, each set's lines in
    LRU→MRU order — exactly the warm-up stream that, prepended to the
    next chunk, makes :func:`llc_hits` see the chunk with the correct
    live stack depths.  Evicted lines (per-set recency rank beyond the
    associativity) are dropped: their next access misses either way,
    and re-inserting them perturbs nobody above them.
    """
    n = len(stream)
    if n == 0:
        return stream
    # Unique (line, position) and (set, recency) keys: ``stream`` holds
    # ``_run_chunked``'s dense labels, below (distinct lines) x
    # (sets), so the products stay far inside int64.
    position = np.arange(n, dtype=np.int64)
    by_line = np.argsort(stream * n + position)
    ordered = stream[by_line]
    last = np.empty(n, dtype=bool)
    last[:-1] = ordered[1:] != ordered[:-1]
    last[-1] = True
    resident = ordered[last]
    last_position = by_line[last]
    sets = resident % num_sets
    by_set = np.argsort(sets * n + last_position)
    sets_sorted = sets[by_set]
    m = len(sets_sorted)
    boundary = np.empty(m, dtype=bool)
    boundary[0] = True
    boundary[1:] = sets_sorted[1:] != sets_sorted[:-1]
    group = np.cumsum(boundary) - 1
    starts = np.flatnonzero(boundary)
    sizes = np.diff(np.append(starts, m))
    rank = np.arange(m) - starts[group]
    keep = rank >= sizes[group] - associativity
    return resident[by_set][keep]


class MultiCoreSimulator:
    """Shared-LLC simulation of a multi-program workload mix.

    :meth:`run` vectorizes the interleaving in speculative
    merge-and-rollback rounds; :meth:`run_reference` is the per-access
    heap loop it is tested against (see the module docstring).  The two
    are bit-identical.
    """

    def __init__(self, machine: MachineConfig) -> None:
        self.machine = machine

    def run(self, llc_traces: Sequence[LLCAccessTrace]) -> MultiCoreRunResult:
        """Simulate one workload mix (one LLC trace per core)."""
        self._check_core_count(llc_traces)
        return self._run_chunked(llc_traces)

    def _check_core_count(self, llc_traces: Sequence[LLCAccessTrace]) -> None:
        num_cores = self.machine.num_cores
        if len(llc_traces) != num_cores:
            raise MultiCoreSimulationError(
                f"machine has {num_cores} cores but {len(llc_traces)} programs were given"
            )

    # ------------------------------------------------------------------
    # Reference: one access at a time (test witness)
    # ------------------------------------------------------------------

    def run_reference(self, llc_traces: Sequence[LLCAccessTrace]) -> MultiCoreRunResult:
        """:meth:`run` as a per-access loop over a binary heap of ready times.

        The test witness for the chunked walk; bit-identical to it.
        """
        self._check_core_count(llc_traces)
        machine = self.machine
        shared_llc = SetAssociativeCache(machine.llc)
        num_cores = machine.num_cores

        core_models = [CoreTimingModel(machine, trace.spec) for trace in llc_traces]
        hit_penalty = [model.llc_hit_penalty for model in core_models]
        miss_penalty = [model.memory_penalty for model in core_models]

        # Per-core mutable state.
        index = [0] * num_cores
        cycle = [0.0] * num_cores
        first_pass_cycles: List[Optional[float]] = [None] * num_cores
        passes = [0] * num_cores
        accesses_first = [0] * num_cores
        hits_first = [0] * num_cores
        misses_first = [0] * num_cores
        total_accesses = 0
        total_misses = 0

        gaps = [trace.upstream_cycle_gap for trace in llc_traces]
        lines = [trace.line for trace in llc_traces]
        lengths = [trace.num_llc_accesses for trace in llc_traces]
        tails = [trace.tail_cycles for trace in llc_traces]

        unfinished = num_cores
        # (ready time, core): the tuple ordering breaks ready-time ties
        # by lowest core index.
        ready_heap = [(cycle[core] + gaps[core][0], core) for core in range(num_cores)]
        heapq.heapify(ready_heap)

        # Interleave LLC accesses in global time order: repeatedly pick the
        # core whose next LLC access is ready earliest.
        while unfinished:
            best_ready, core = heapq.heappop(ready_heap)

            in_first_pass = first_pass_cycles[core] is None
            line = int(lines[core][index[core]]) + core * _CORE_ADDRESS_OFFSET
            hit = shared_llc.access(line).hit
            total_accesses += 1
            if in_first_pass:
                accesses_first[core] += 1
            if hit:
                penalty = hit_penalty[core]
                if in_first_pass:
                    hits_first[core] += 1
            else:
                penalty = miss_penalty[core]
                total_misses += 1
                if in_first_pass:
                    misses_first[core] += 1
            cycle[core] = best_ready + penalty

            index[core] += 1
            if index[core] >= lengths[core]:
                # End of the trace: account for the post-LLC tail, then
                # restart the program (FAME re-iteration).
                cycle[core] += tails[core]
                passes[core] += 1
                index[core] = 0
                if in_first_pass:
                    first_pass_cycles[core] = cycle[core]
                    unfinished -= 1
            if unfinished:
                heapq.heappush(ready_heap, (cycle[core] + gaps[core][index[core]], core))

        return self._assemble(
            llc_traces,
            first_pass_cycles,
            passes,
            accesses_first,
            hits_first,
            misses_first,
            total_accesses,
            total_misses,
        )

    # ------------------------------------------------------------------
    # Chunked walk: speculative vectorized merge with rollback
    # ------------------------------------------------------------------

    def _run_chunked(self, llc_traces: Sequence[LLCAccessTrace]) -> MultiCoreRunResult:
        """Advance all cores in numpy chunks; commit only validated prefixes.

        Each round takes a window of the next ``_WINDOW`` accesses of
        every core's *periodic* access stream — access ``(index + j) %
        L`` for ``j < _WINDOW``, crossing the trace end (a FAME
        wraparound) as often as the window needs — trims the windows to
        a common estimated time span, and

        1. proposes a global order by merging per-core ready-time
           estimates — first under each core's expected penalty
           (measured hit rate, with the exact penalties of accesses
           rolled back from the previous round carried in front), then,
           if the proposal is refuted, under the exact times computed
           from the previous attempt's outcomes;
        2. replays the proposed order through ``llc_hits`` — one
           batched per-set LRU hit/miss pass over the shared LLC,
           seeded with the LLC's live recency stacks as a warm-up
           prefix;
        3. recomputes every access's *exact* ready time from those
           outcomes with the reference's own operation order, and
           re-sorts by (ready, core, index).  Each core's window is laid
           out as ``[cycle, (gap, penalty, tail_or_0) × w]``: the third
           slot holds the post-LLC tail after a trace's last access and
           ``0.0`` elsewhere, so ``cumsum``'s left fold performs the
           reference's ``((ready + penalty) + tail) + gap`` addition for
           addition (adding ``0.0`` to a non-negative cycle count is
           exact).

        Where the re-sorted true order agrees with the proposal, the
        outcomes — which only depend on the preceding access sequence —
        are provably the reference's, so that prefix commits; the first
        disagreement and everything after it rolls back.  Two further
        cuts keep the prefix honest: accesses ordered at or after a
        core's first *out-of-window* ready time cannot commit (that
        core's next access might interleave first), and the round stops
        exactly where the last first-pass trace end would stop the
        reference loop.  Progress is unconditional: estimates are exact
        for each core's first window access (no penalty enters before
        it) and nondecreasing within a core, so every proposal's
        leading access is the true earliest (ready, core) head — the
        prefix never validates empty.
        """
        machine = self.machine
        num_cores = machine.num_cores
        num_sets = machine.llc.num_sets
        associativity = machine.llc.associativity
        window = _WINDOW

        core_models = [CoreTimingModel(machine, trace.spec) for trace in llc_traces]
        hit_penalty = np.array([model.llc_hit_penalty for model in core_models])
        miss_penalty = np.array([model.memory_penalty for model in core_models])
        # Cold-start expected penalty, used only until a core has a
        # measured hit rate; min() rather than the hit penalty so the
        # seed stays sane even for exotic machines whose hit penalty
        # exceeds the miss penalty.
        optimistic_penalty = np.minimum(hit_penalty, miss_penalty)

        lengths = [trace.num_llc_accesses for trace in llc_traces]
        # Lines are relabeled densely, each label keeping its line's set:
        # LLC outcomes only depend on line equality and set, and small
        # labels let ``llc_hits``'s occurrence sort take its fast path.
        offset_lines = np.concatenate(
            [
                np.asarray(trace.line, dtype=np.int64) + core * _CORE_ADDRESS_OFFSET
                for core, trace in enumerate(llc_traces)
            ]
        )
        labels = np.unique(offset_lines, return_inverse=True)[1]
        labels = labels * num_sets + offset_lines % num_sets
        core_labels = np.split(labels, np.cumsum(lengths)[:-1])
        # Each core's periodic access stream, unrolled to L + _WINDOW
        # entries so that any window — and the gap of the access right
        # after it — is one slice: entry k is trace access k % L, and
        # ``tails[k]`` is the post-LLC tail after a trace's last access
        # and 0.0 everywhere else.
        lines = []
        gaps = []
        tails = []
        for core, trace in enumerate(llc_traces):
            length = lengths[core]
            unrolled = length + window
            repeats = -(-unrolled // length)
            line = core_labels[core]
            gap = np.asarray(trace.upstream_cycle_gap, dtype=np.float64)
            lines.append(np.tile(line, repeats)[:unrolled])
            gaps.append(np.tile(gap, repeats)[:unrolled])
            tail = np.zeros(unrolled)
            tail[length - 1 :: length] = trace.tail_cycles
            tails.append(tail)

        index = [0] * num_cores
        cycle = [0.0] * num_cores
        first_pass_cycles: List[Optional[float]] = [None] * num_cores
        passes = [0] * num_cores
        accesses_first = [0] * num_cores
        hits_first = [0] * num_cores
        misses_first = [0] * num_cores
        total_accesses = 0
        total_misses = 0
        unfinished = num_cores

        # Running all-pass per-core totals and the rolled-back tail of
        # the previous round's speculative penalties: only used to
        # estimate ready times when sizing and ordering the next window
        # (never for the committed results, which come from the exact
        # replay).
        accesses_all = [0] * num_cores
        hits_all = [0] * num_cores
        carried = [np.empty(0, dtype=np.float64) for _ in range(num_cores)]

        #: The shared LLC's recency stacks, as a warm-up access stream.
        warm = np.empty(0, dtype=np.int64)

        while unfinished:
            # Estimated ready time of each window access under the core's
            # *expected* penalty (its measured hit rate so far) plus the
            # exact tails.  Two uses: trimming the windows to a common
            # time horizon, and proposing the round's global order.
            # Estimates are exact for each core's first access (no
            # penalty enters before it) and nondecreasing within a core,
            # which is all the progress guarantee below needs.
            estimates = []
            for core in range(num_cores):
                start = index[core]
                if accesses_all[core]:
                    hit_rate = hits_all[core] / accesses_all[core]
                    expected = hit_rate * hit_penalty[core] + (1.0 - hit_rate) * miss_penalty[core]
                else:
                    expected = optimistic_penalty[core]
                expected_pen = np.full(window, expected)
                rolled_back = carried[core][:window]
                expected_pen[: len(rolled_back)] = rolled_back
                expected_pen += tails[core][start : start + window]
                # ready_est[j] = cycle + gaps[0..j] + penalties[0..j-1]:
                # exact for j = 0, whatever the penalty estimates.
                step = gaps[core][start : start + window].copy()
                step[1:] += expected_pen[:-1]
                estimates.append(cycle[core] + np.cumsum(step))
            windows = [window] * num_cores
            if num_cores > 1:
                # Equalize the *time* the windows cover: programs differ
                # wildly in cycles-per-LLC-access, and any access ordered
                # after the earliest-exhausted core's horizon rolls back
                # anyway.
                span = min(float(estimate[-1]) for estimate in estimates)
                windows = [
                    max(1, int(np.searchsorted(estimate, span, side="right")))
                    for estimate in estimates
                ]
                estimates = [estimates[core][: windows[core]] for core in range(num_cores)]
            offsets = np.concatenate(([0], np.cumsum(windows)))
            n = int(offsets[-1])
            merged_lines = np.concatenate(
                [lines[core][index[core] : index[core] + windows[core]] for core in range(num_cores)]
            )
            core_id = np.repeat(np.arange(num_cores), windows)
            # Window position of each first-pass core's trace end, if
            # this window reaches it.
            first_ends = {
                core: lengths[core] - 1 - index[core]
                for core in range(num_cores)
                if first_pass_cycles[core] is None
                and lengths[core] - 1 - index[core] < windows[core]
            }

            def exact_times(penalties):
                """Per-access ready times under given per-access penalties.

                Reproduces the reference's float operation order exactly:
                the per-core array [cycle, gap0, pen0, tail0, gap1, pen1,
                tail1, ...] (tail_j is 0.0 except after a trace's last
                access) makes ``cumsum``'s left fold perform the same
                sequence of binary additions as the sequential
                ``ready = cycle + gap; cycle = ready + penalty (+ tail)``
                loop.
                """
                ready = np.empty(n, dtype=np.float64)
                cumsums = []
                for core in range(num_cores):
                    w = windows[core]
                    start = index[core]
                    arr = np.empty(1 + 3 * w)
                    arr[0] = cycle[core]
                    arr[1::3] = gaps[core][start : start + w]
                    arr[2::3] = penalties[offsets[core] : offsets[core] + w]
                    arr[3::3] = tails[core][start : start + w]
                    cs = np.cumsum(arr)
                    ready[offsets[core] : offsets[core] + w] = cs[1::3]
                    cumsums.append(cs)
                return ready, cumsums

            # Propose a global order from the estimates; refine with the
            # exact times of the replayed outcomes until the validated
            # prefix stops growing.  The validated prefix IS the true
            # interleaving (see below), so refinements freeze it and
            # re-sort/replay only the suffix — against an intra-round
            # warm state advanced past the frozen part.  Progress is
            # unconditional: each core's first window access has an
            # exact estimate, and the per-core estimate/ready sequences
            # are both nondecreasing, so every proposal's leading access
            # is the true earliest (ready, core) head — the prefix
            # never validates empty.
            #
            # Both orders are by (time, core, window position).  The
            # windows are laid out core-major, so a *stable* sort of
            # times taken in layout order breaks ties exactly that way,
            # and it merges one nondecreasing run per core.
            order = np.argsort(np.concatenate(estimates), kind="stable")
            # Round-level buffers, updated only past the frozen prefix
            # on refinement attempts (prefix entries cannot change: the
            # stream prefix is fixed, and a prefix access's ready time
            # only depends on its own core's prefix penalties).
            hit_in_order = np.empty(n, dtype=bool)
            core_in_order = np.empty(n, dtype=np.int64)
            ready_in_order = np.empty(n, dtype=np.float64)
            penalties = np.empty(n, dtype=np.float64)
            positions = np.arange(n, dtype=np.int64)
            warm_attempt = warm
            frozen = 0
            best = None
            for attempt in range(_ORDER_ATTEMPTS):
                suffix = order[frozen:]
                hit_in_order[frozen:] = llc_hits(
                    np.concatenate((warm_attempt, merged_lines[suffix])),
                    num_sets,
                    associativity,
                )[len(warm_attempt) :]
                core_in_order[frozen:] = core_id[suffix]
                penalties[suffix] = np.where(
                    hit_in_order[frozen:],
                    hit_penalty[core_in_order[frozen:]],
                    miss_penalty[core_in_order[frozen:]],
                )
                ready, cumsums = exact_times(penalties)
                ready_in_order[frozen:] = ready[suffix]
                in_suffix = np.zeros(n, dtype=bool)
                in_suffix[suffix] = True
                layout = np.flatnonzero(in_suffix)
                resort = layout[np.argsort(ready[layout], kind="stable")]
                differs = suffix != resort
                agreed = n if not differs.any() else frozen + int(differs.argmax())

                # Horizon cut: once all of a core's window accesses have
                # been consumed, its true head lies beyond the window at
                # exactly the ready time the reference would push next
                # (known, because the whole window is inside the
                # validated prefix); later accesses may only commit if
                # they still precede that head in (ready, core) order.
                commit = agreed
                last_position = np.empty(num_cores, dtype=np.int64)
                last_position[core_in_order] = positions  # last write wins
                for core in range(num_cores):
                    last = last_position[core]
                    if last >= commit:
                        continue
                    horizon = cumsums[core][-1] + gaps[core][index[core] + windows[core]]
                    region_ready = ready_in_order[last + 1 : commit]
                    region_core = core_in_order[last + 1 : commit]
                    violating = np.flatnonzero(
                        (region_ready > horizon)
                        | ((region_ready == horizon) & (region_core > core))
                    )
                    if len(violating):
                        commit = last + 1 + int(violating[0])

                # Termination cut: the reference stops the moment the
                # last first-pass core reaches its trace end; accesses
                # ordered after that access are never processed.
                if len(first_ends) == unfinished:
                    position_of = np.empty(n, dtype=np.int64)
                    position_of[order] = positions
                    stop = max(
                        int(position_of[offsets[core] + end])
                        for core, end in first_ends.items()
                    )
                    commit = min(commit, stop + 1)

                if best is None or commit > best[0]:
                    # Later attempts never touch positions below their
                    # frozen prefix (>= this commit), so the references
                    # stored here stay valid without copies.
                    best = (commit, order, hit_in_order, core_in_order, cumsums, penalties)
                if commit == n or commit < agreed:
                    # Fully committed, or bound by a cut that another
                    # ordering attempt cannot lift.
                    break
                # Re-speculate the suffix: keep the validated prefix,
                # re-sort the rest by the exact times the previous
                # outcomes imply (usually the fixed point of the round),
                # and advance the intra-round warm state so the next
                # replay starts where the frozen prefix ends.
                if attempt + 1 == _ORDER_ATTEMPTS:
                    break
                new_order = np.concatenate((order[:frozen], resort))
                if agreed > frozen:
                    warm_attempt = _resident_stacks(
                        np.concatenate((warm_attempt, merged_lines[order[frozen:agreed]])),
                        num_sets,
                        associativity,
                    )
                    frozen = agreed
                order = new_order
            commit, order, hit_in_order, core_in_order, cumsums, penalties = best
            commit = int(commit)
            assert commit >= 1

            # Commit the validated prefix: outcomes, counters, exact
            # per-core cycle state, and the LLC's new recency stacks.
            # Each core's committed accesses are a prefix of its window
            # (both orders keep a core's accesses in window order).
            committed_core = core_in_order[:commit]
            committed_hit = hit_in_order[:commit]
            total_accesses += commit
            total_misses += commit - int(committed_hit.sum())
            committed_counts = np.bincount(committed_core, minlength=num_cores)
            committed_hits = np.bincount(
                committed_core[committed_hit], minlength=num_cores
            )
            for core in range(num_cores):
                done = int(committed_counts[core])
                accesses_all[core] += done
                hits_all[core] += int(committed_hits[core])
                # The uncommitted tail's speculative penalties seed the
                # next round's proposal.
                carried[core] = penalties[offsets[core] + done : offsets[core] + windows[core]]
                if done == 0:
                    continue
                start = index[core]
                crossings = (start + done) // lengths[core]
                if first_pass_cycles[core] is None:
                    if crossings:
                        # The first pass ends inside the committed
                        # prefix: count it up to the trace's last access.
                        end = first_ends[core]
                        done_first = end + 1
                        core_hits = committed_hit[committed_core == core]
                        hits_done = int(core_hits[:done_first].sum())
                        first_pass_cycles[core] = float(cumsums[core][3 * done_first])
                        unfinished -= 1
                    else:
                        done_first = done
                        hits_done = int(committed_hits[core])
                    accesses_first[core] += done_first
                    hits_first[core] += hits_done
                    misses_first[core] += done_first - hits_done
                passes[core] += crossings
                cycle[core] = float(cumsums[core][3 * done])
                index[core] = (start + done) % lengths[core]
            if unfinished:
                # The final commit never falls below the frozen prefix
                # (the attempt that froze it had already validated a
                # commit that long), so the intra-round warm state can
                # be advanced instead of rebuilding from round start.
                warm = _resident_stacks(
                    np.concatenate((warm_attempt, merged_lines[order[frozen:commit]])),
                    num_sets,
                    associativity,
                )

        return self._assemble(
            llc_traces,
            first_pass_cycles,
            passes,
            accesses_first,
            hits_first,
            misses_first,
            total_accesses,
            total_misses,
        )

    # ------------------------------------------------------------------
    # Shared assembly: per-core state -> MultiCoreRunResult
    # ------------------------------------------------------------------

    def _assemble(
        self,
        llc_traces: Sequence[LLCAccessTrace],
        first_pass_cycles: List[Optional[float]],
        passes: List[int],
        accesses_first: List[int],
        hits_first: List[int],
        misses_first: List[int],
        total_accesses: int,
        total_misses: int,
    ) -> MultiCoreRunResult:
        programs = []
        for core, trace in enumerate(llc_traces):
            cycles = first_pass_cycles[core]
            assert cycles is not None
            programs.append(
                ProgramRunStats(
                    name=trace.name,
                    core=core,
                    num_instructions=trace.num_instructions,
                    cycles=cycles,
                    isolated_cycles=trace.isolated_cycles,
                    llc_accesses_first_pass=accesses_first[core],
                    llc_hits_first_pass=hits_first[core],
                    llc_misses_first_pass=misses_first[core],
                    passes_completed=passes[core],
                )
            )

        return MultiCoreRunResult(
            machine_name=self.machine.name,
            num_cores=self.machine.num_cores,
            programs=programs,
            total_llc_accesses=total_accesses,
            total_llc_misses=total_misses,
        )
