"""Unit tests for the multi-level cache hierarchy."""

import pytest

from repro.caches.hierarchy import CacheHierarchy
from repro.caches.set_associative import SetAssociativeCache
from repro.config.cache_config import CacheConfig
from repro.config.machine import MachineConfig


def _tiny_machine(num_cores=1):
    """A hierarchy small enough to reason about by hand (line-granular sizes)."""
    return MachineConfig(
        num_cores=num_cores,
        private_levels=(
            CacheConfig(name="L1D", size_bytes=4 * 64, associativity=2, latency=1),
            CacheConfig(name="L2", size_bytes=16 * 64, associativity=4, latency=10),
        ),
        llc=CacheConfig(name="L3", size_bytes=64 * 64, associativity=8, latency=16, shared=True),
        name="tiny",
    )


class TestCacheHierarchy:
    def test_first_access_goes_all_the_way_to_memory(self):
        hierarchy = CacheHierarchy(_tiny_machine())
        outcome = hierarchy.access(0)
        assert outcome.served_by_memory
        assert outcome.reached_llc
        assert not outcome.llc_hit

    def test_second_access_hits_in_l1(self):
        hierarchy = CacheHierarchy(_tiny_machine())
        hierarchy.access(0)
        outcome = hierarchy.access(0)
        assert outcome.level_name == "L1D"
        assert outcome.level_index == 0
        assert not outcome.reached_llc

    def test_l1_victim_still_hits_in_l2(self):
        hierarchy = CacheHierarchy(_tiny_machine())
        # Fill set 0 of the 2-way L1 (lines 0, 2, 4 map to L1 set 0 for 2 sets).
        hierarchy.access(0)
        hierarchy.access(2)
        hierarchy.access(4)  # evicts line 0 from L1
        outcome = hierarchy.access(0)
        assert outcome.level_name == "L2"
        assert not outcome.reached_llc

    def test_line_evicted_from_l1_and_l2_hits_in_llc(self):
        hierarchy = CacheHierarchy(_tiny_machine())
        hierarchy.access(0)
        # Touch enough distinct lines mapping over the whole L2 to evict line 0
        # from both private levels, but not from the larger L3.
        for line in range(1, 40):
            hierarchy.access(line)
        outcome = hierarchy.access(0)
        assert outcome.level_name == "L3"
        assert outcome.reached_llc and outcome.llc_hit

    def test_shared_llc_mode_requires_external_llc(self):
        machine = _tiny_machine()
        hierarchy = CacheHierarchy(machine, include_llc=False)
        with pytest.raises(ValueError):
            hierarchy.access(0)
        # A different (cold) line routed through an externally supplied shared
        # LLC reaches memory and records the miss in that shared cache.
        shared = SetAssociativeCache(machine.llc)
        outcome = hierarchy.access(1, shared_llc=shared)
        assert outcome.served_by_memory
        assert shared.misses == 1

    def test_reset_and_miss_rates(self):
        hierarchy = CacheHierarchy(_tiny_machine())
        for line in range(10):
            hierarchy.access(line)
        rates = hierarchy.miss_rates()
        assert set(rates) == {"L1D", "L2", "L3"}
        assert rates["L1D"] == 1.0  # all cold misses
        hierarchy.reset()
        assert hierarchy.access(0).served_by_memory

    def test_level_names_with_and_without_llc(self):
        machine = _tiny_machine()
        assert CacheHierarchy(machine).level_names == ["L1D", "L2", "L3"]
        assert CacheHierarchy(machine, include_llc=False).level_names == ["L1D", "L2"]
