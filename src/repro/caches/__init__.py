"""Cache substrate: set-associative caches, hierarchies and stack-distance profiling.

This package provides the building blocks that both the detailed
simulators (:mod:`repro.simulators`) and the single-core profiler use:

* :class:`SetAssociativeCache` — a set-associative LRU cache (the
  replacement policy of the paper's Table 1),
* :class:`CacheHierarchy` — private L1/L2 plus the last-level cache,
* :class:`StackDistanceCounters` and :class:`StackDistanceProfiler` —
  the per-set LRU stack-distance counters (SDCs) of Mattson et al. that
  the paper collects per 20M-instruction interval and feeds to the
  cache-contention model.
"""

from repro.caches.set_associative import AccessOutcome, SetAssociativeCache
from repro.caches.hierarchy import CacheHierarchy, HierarchyAccess
from repro.caches.stack_distance import (
    StackDistanceCounters,
    StackDistanceProfiler,
)
from repro.caches.vectorized import (
    lru_hit_mask,
    replay_llc,
    replay_private_levels,
    stack_distances,
)

__all__ = [
    "AccessOutcome",
    "SetAssociativeCache",
    "CacheHierarchy",
    "HierarchyAccess",
    "StackDistanceCounters",
    "StackDistanceProfiler",
    "lru_hit_mask",
    "replay_llc",
    "replay_private_levels",
    "stack_distances",
]
