"""Stack-distance counters (SDCs) and profiling.

The paper's single-core profile contains, per 20M-instruction interval,
the stack-distance counters of the program's accesses to the last-level
cache: for an A-way set-associative cache, A+1 counters ``C1 .. CA,
C>A`` where ``Ci`` counts accesses that found their line at LRU
position ``i`` of the accessed set, and ``C>A`` counts accesses whose
line was deeper than the associativity (i.e. misses).  This follows
Mattson et al.'s classic stack algorithm evaluated per cache set.

:class:`StackDistanceCounters` is the counter vector with the
operations MPPM and the contention models need (hit/miss counts,
miss counts under a reduced or fractional number of ways).  :class:`StackDistanceProfiler` computes the counters from an
access stream by maintaining an unbounded per-set LRU stack.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np


class StackDistanceError(ValueError):
    """Raised for invalid stack-distance operations."""


def distance_slots(distances: np.ndarray, associativity: int) -> np.ndarray:
    """Map 1-based stack distances to counter slots for an A-way cache.

    Distance ``d`` in ``[1, A]`` lands in slot ``d - 1``; cold accesses
    (``d <= 0``) and distances beyond the associativity land in the
    ``C>A`` slot ``A``.  Used by the simulator's per-interval
    histograms; :meth:`StackDistanceCounters.record`
    applies the same rule inline for scalars (it sits on the reference
    replay's per-access path), with the unit suite pinning the two
    together.
    """
    if associativity <= 0:
        raise StackDistanceError(f"associativity must be positive, got {associativity}")
    distances = np.asarray(distances, dtype=np.int64)
    return np.where(
        (distances <= 0) | (distances > associativity), associativity, distances - 1
    )


class StackDistanceCounters:
    """The ``C1 .. CA, C>A`` counter vector for an A-way cache.

    ``counts[i]`` for ``i < associativity`` is the number of accesses
    that hit at LRU position ``i + 1``; ``counts[associativity]`` is
    ``C>A``, the number of accesses deeper than the associativity
    (misses, including cold misses).  Omitting ``counts`` starts an
    all-zero vector.
    """

    def __init__(self, associativity: int, counts: Optional[np.ndarray] = None) -> None:
        if associativity <= 0:
            raise StackDistanceError(
                f"associativity must be positive, got {associativity}"
            )
        self.associativity = int(associativity)
        if counts is None:
            self.counts = np.zeros(self.associativity + 1, dtype=np.float64)
        else:
            self.counts = np.asarray(counts, dtype=np.float64)
            if self.counts.shape != (self.associativity + 1,):
                raise StackDistanceError(
                    f"expected {self.associativity + 1} counters, got shape {self.counts.shape}"
                )
            if (self.counts < 0).any():
                raise StackDistanceError("counters must be non-negative")

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(self, distance: int) -> None:
        """Record one access at 1-based LRU stack ``distance`` (0 = cold miss).

        Distances of 0 (never seen before) or greater than the
        associativity go to the ``C>A`` counter — the scalar form of
        :func:`distance_slots`.
        """
        if distance <= 0 or distance > self.associativity:
            self.counts[self.associativity] += 1
        else:
            self.counts[distance - 1] += 1

    def copy(self) -> "StackDistanceCounters":
        return StackDistanceCounters(associativity=self.associativity, counts=self.counts.copy())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def total_accesses(self) -> float:
        return float(self.counts.sum())

    @property
    def hits(self) -> float:
        """Accesses that hit in the A-way cache (distance <= A)."""
        return float(self.counts[: self.associativity].sum())

    @property
    def misses(self) -> float:
        """The ``C>A`` counter: accesses deeper than the associativity."""
        return float(self.counts[self.associativity])

    @property
    def miss_rate(self) -> float:
        total = self.total_accesses
        return self.misses / total if total else 0.0

    def misses_for_ways(self, ways: int) -> float:
        """Misses if the cache only offered ``ways`` ways per set.

        ``ways`` may not exceed the profiled associativity (the
        counters do not distinguish distances beyond it).
        """
        if ways < 0:
            raise StackDistanceError(f"ways must be non-negative, got {ways}")
        if ways > self.associativity:
            raise StackDistanceError(
                f"cannot evaluate {ways} ways from an {self.associativity}-way profile"
            )
        return float(self.counts[ways:].sum())

    def misses_for_effective_ways(self, effective_ways: float) -> float:
        """Misses for a *fractional* number of ways, by linear interpolation.

        The FOA contention model assigns each program an effective
        cache share proportional to its access frequency, which is not
        an integer number of ways; this interpolates between the two
        neighbouring integer counts.
        """
        if effective_ways < 0:
            effective_ways = 0.0
        if effective_ways >= self.associativity:
            return self.misses
        lower = int(np.floor(effective_ways))
        upper = lower + 1
        fraction = effective_ways - lower
        return (1.0 - fraction) * self.misses_for_ways(lower) + fraction * self.misses_for_ways(
            upper
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StackDistanceCounters):
            return NotImplemented
        return self.associativity == other.associativity and np.allclose(
            self.counts, other.counts
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StackDistanceCounters(A={self.associativity}, "
            f"hits={self.hits:.0f}, misses={self.misses:.0f})"
        )


class StackDistanceProfiler:
    """Computes per-set LRU stack distances for an access stream.

    The profiler maintains an *unbounded* LRU stack per cache set (the
    Mattson stack algorithm): the recorded distance of an access is the
    1-based position of its line in the stack of the accessed set, or 0
    if the line was never seen before.  Distances greater than the
    associativity, and cold accesses, are misses for the profiled
    cache.
    """

    def __init__(self, num_sets: int, associativity: int) -> None:
        if num_sets <= 0:
            raise StackDistanceError(f"num_sets must be positive, got {num_sets}")
        self.num_sets = num_sets
        self.associativity = associativity
        self._stacks: List[List[int]] = [[] for _ in range(num_sets)]
        self.counters = StackDistanceCounters(associativity=associativity)

    def reset(self) -> None:
        """Clear the stacks and the counters."""
        self._stacks = [[] for _ in range(self.num_sets)]
        self.counters = StackDistanceCounters(associativity=self.associativity)

    def access(self, line: int) -> int:
        """Record one access; returns its stack distance (0 for cold)."""
        stack = self._stacks[line % self.num_sets]
        try:
            index = stack.index(line)
        except ValueError:
            stack.insert(0, line)
            self.counters.record(0)
            return 0
        distance = index + 1
        if index:
            del stack[index]
            stack.insert(0, line)
        else:
            # Already MRU: nothing to reorder.
            pass
        self.counters.record(distance)
        return distance

    def profile_stream(self, lines: Sequence[int]) -> StackDistanceCounters:
        """Profile a whole access stream and return the resulting counters."""
        for line in lines:
            self.access(line)
        return self.counters.copy()

    def snapshot_and_reset_counters(self) -> StackDistanceCounters:
        """Return the counters accumulated so far and start a fresh vector.

        The per-set stacks are preserved — interval boundaries reset the
        counters, not the cache state, exactly as a real profiling run
        would.  The simulator now derives per-interval counters from
        distance arrays instead; this stays as the ground-truth
        statement of interval semantics, exercised by the unit suite.
        """
        snapshot = self.counters.copy()
        self.counters = StackDistanceCounters(associativity=self.associativity)
        return snapshot
