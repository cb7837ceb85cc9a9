"""A set-associative cache model.

The cache operates on cache-line addresses (the trace generator already
works at line granularity, so there is no offset arithmetic here).  The
set index is the line address modulo the number of sets, and the tag is
the full line address.

Replacement is LRU, as on every machine in the paper (Table 1): each
set is a recency-ordered list of tags, most recently used first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config.cache_config import CacheConfig


@dataclass(frozen=True)
class AccessOutcome:
    """Result of a single cache access."""

    hit: bool
    evicted_line: Optional[int] = None

    @property
    def miss(self) -> bool:
        return not self.hit


class SetAssociativeCache:
    """A set-associative LRU cache of cache-line addresses.

    Parameters
    ----------
    config:
        The cache level configuration (size, associativity, line size).
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self.reset()

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Empty the cache and zero the statistics."""
        # Each set is a list of tags, MRU first.
        self._lru_sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Miss rate over all accesses so far (0 when nothing was accessed)."""
        total = self.accesses
        return self.misses / total if total else 0.0

    def set_index(self, line: int) -> int:
        """Set index of a cache-line address."""
        return line % self.num_sets

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def access(self, line: int) -> AccessOutcome:
        """Access a line: look it up and fill it on a miss.

        Returns whether the access hit and, on a miss that caused an
        eviction, which line was evicted (so an outer hierarchy could
        model write-back traffic if it ever needs to).
        """
        entries = self._lru_sets[line % self.num_sets]
        try:
            index = entries.index(line)
        except ValueError:
            self.misses += 1
            evicted = None
            if len(entries) >= self.associativity:
                evicted = entries.pop()
            entries.insert(0, line)
            return AccessOutcome(hit=False, evicted_line=evicted)
        self.hits += 1
        if index:
            del entries[index]
            entries.insert(0, line)
        return AccessOutcome(hit=True)

    def contains(self, line: int) -> bool:
        """Whether the line is currently resident (no state change)."""
        return line in self._lru_sets[line % self.num_sets]

    def resident_lines(self) -> List[int]:
        """All resident lines (order unspecified); mainly for tests."""
        return [line for entries in self._lru_sets for line in entries]

    def occupancy(self) -> int:
        """Number of resident lines."""
        return len(self.resident_lines())
