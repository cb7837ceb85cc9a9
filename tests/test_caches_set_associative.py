"""Unit and property tests for the set-associative cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.set_associative import SetAssociativeCache
from repro.config.cache_config import CacheConfig


def _cache(num_sets=4, associativity=2):
    config = CacheConfig(
        name="test", size_bytes=num_sets * associativity * 64, associativity=associativity
    )
    return SetAssociativeCache(config)


class TestBasicBehaviour:
    def test_first_access_misses_then_hits(self):
        cache = _cache()
        assert cache.access(0).miss
        assert cache.access(0).hit
        assert cache.hits == 1 and cache.misses == 1
        assert cache.miss_rate == pytest.approx(0.5)

    def test_lru_eviction_within_a_set(self):
        cache = _cache(num_sets=1, associativity=2)
        cache.access(0)
        cache.access(1)
        cache.access(2)  # evicts 0 (the LRU line)
        assert not cache.contains(0)
        assert cache.contains(1) and cache.contains(2)
        assert cache.access(0).miss

    def test_hit_refreshes_recency(self):
        cache = _cache(num_sets=1, associativity=2)
        cache.access(0)
        cache.access(1)
        cache.access(0)  # 1 is now the LRU
        outcome = cache.access(2)
        assert outcome.miss
        assert outcome.evicted_line == 1
        assert cache.contains(0)

    def test_lines_map_to_sets_by_modulo(self):
        cache = _cache(num_sets=4, associativity=1)
        assert cache.set_index(5) == 1
        assert cache.set_index(8) == 0
        cache.access(0)
        cache.access(4)  # same set, 1-way -> evicts 0
        assert not cache.contains(0)
        cache.access(1)  # different set, does not interfere
        assert cache.contains(4) and cache.contains(1)

    def test_occupancy_is_bounded_by_capacity(self):
        cache = _cache(num_sets=2, associativity=2)
        for line in range(100):
            cache.access(line)
        assert cache.occupancy() <= 4
        assert len(cache.resident_lines()) == cache.occupancy()

    def test_reset_clears_contents_and_statistics(self):
        cache = _cache()
        cache.access(1)
        cache.access(1)
        cache.reset()
        assert cache.hits == 0 and cache.misses == 0
        assert cache.occupancy() == 0
        assert cache.access(1).miss

    def test_empty_cache_has_zero_miss_rate(self):
        assert _cache().miss_rate == 0.0


class TestPolicies:
    """Properties of the LRU replacement policy."""

    @given(
        accesses=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=300),
        associativity=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=25, deadline=None)
    def test_occupancy_and_counters_are_always_consistent(self, accesses, associativity):
        cache = _cache(num_sets=4, associativity=associativity)
        for line in accesses:
            cache.access(line)
        assert cache.hits + cache.misses == len(accesses)
        assert cache.occupancy() <= 4 * associativity
        assert cache.occupancy() == len(set(cache.resident_lines()))

    @given(accesses=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=200))
    @settings(max_examples=20, deadline=None)
    def test_larger_associativity_never_increases_misses(self, accesses):
        """LRU caches have the stack property: more ways can only help."""
        small = _cache(num_sets=2, associativity=2)
        large = _cache(num_sets=2, associativity=8)
        for line in accesses:
            small.access(line)
            large.access(line)
        assert large.misses <= small.misses
