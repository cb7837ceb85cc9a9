"""Unit and property tests for stack-distance counters and profiling.

The key property test here ties the two halves of the substrate
together: for any access stream, the misses predicted by the
stack-distance counters at associativity A must equal the misses of an
actual A-way LRU cache with the same set count (the classic inclusion
property of LRU that both MPPM and the FOA contention model rely on).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.set_associative import SetAssociativeCache
from repro.caches.stack_distance import (
    StackDistanceCounters,
    StackDistanceError,
    StackDistanceProfiler,
)
from repro.config.cache_config import CacheConfig
from repro.profiling.profile import ProfileError, SingleCoreProfile


class TestStackDistanceCounters:
    def test_record_routes_to_the_right_counter(self):
        counters = StackDistanceCounters(associativity=4)
        counters.record(1)
        counters.record(4)
        counters.record(5)  # beyond associativity -> miss
        counters.record(0)  # cold -> miss
        assert counters.hits == 2
        assert counters.misses == 2
        assert counters.total_accesses == 4
        assert counters.miss_rate == pytest.approx(0.5)

    def test_misses_for_fewer_ways_is_monotonic(self):
        counters = StackDistanceCounters(
            associativity=4, counts=np.array([10.0, 5.0, 3.0, 2.0, 7.0])
        )
        misses = [counters.misses_for_ways(w) for w in range(5)]
        assert misses[0] == counters.total_accesses
        assert misses[4] == counters.misses
        assert all(a >= b for a, b in zip(misses, misses[1:]))
        with pytest.raises(StackDistanceError):
            counters.misses_for_ways(5)

    def test_effective_ways_interpolates(self):
        counters = StackDistanceCounters(
            associativity=4, counts=np.array([10.0, 5.0, 3.0, 2.0, 7.0])
        )
        at_2 = counters.misses_for_ways(2)
        at_3 = counters.misses_for_ways(3)
        halfway = counters.misses_for_effective_ways(2.5)
        assert min(at_2, at_3) <= halfway <= max(at_2, at_3)
        assert halfway == pytest.approx((at_2 + at_3) / 2)
        # Out-of-range values clamp sensibly.
        assert counters.misses_for_effective_ways(10.0) == counters.misses
        assert counters.misses_for_effective_ways(-1.0) == counters.total_accesses

    def test_reduced_associativity_folds_deep_counters(self):
        # The paper's §2 fold, done on a profile's per-interval SDC rows.
        profile = _profile([[10.0, 5.0, 3.0, 2.0, 7.0], [1.0, 0.0, 4.0, 0.5, 2.5]])
        reduced = profile.reduced_associativity(2)
        assert reduced.llc_associativity == 2
        assert reduced.columns["sdc"].tolist() == [[10.0, 5.0, 12.0], [1.0, 0.0, 7.0]]
        assert reduced.total_llc_accesses == profile.total_llc_accesses
        assert reduced.columns["llc_misses"].tolist() == [12.0, 7.0]
        with pytest.raises(ProfileError):
            profile.reduced_associativity(0)
        with pytest.raises(ProfileError):
            profile.reduced_associativity(5)

    def test_validation_of_counter_vectors(self):
        with pytest.raises(StackDistanceError):
            StackDistanceCounters(associativity=0)
        with pytest.raises(StackDistanceError):
            StackDistanceCounters(associativity=2, counts=np.array([1.0, 2.0]))
        with pytest.raises(StackDistanceError):
            StackDistanceCounters(associativity=2, counts=np.array([1.0, -2.0, 0.0]))

    def test_equality_and_copy(self):
        counters = StackDistanceCounters(associativity=2, counts=np.array([1.0, 2.0, 3.0]))
        assert counters == counters.copy()
        assert counters != StackDistanceCounters(associativity=2)


class TestStackDistanceProfiler:
    def test_distances_follow_lru_positions(self):
        profiler = StackDistanceProfiler(num_sets=1, associativity=4)
        assert profiler.access(10) == 0  # cold
        assert profiler.access(11) == 0
        assert profiler.access(10) == 2  # one line accessed in between
        assert profiler.access(10) == 1  # immediately reused

    def test_counters_accumulate_and_snapshot_resets_them(self):
        profiler = StackDistanceProfiler(num_sets=2, associativity=2)
        profiler.profile_stream([0, 1, 0, 2, 0])
        snapshot = profiler.snapshot_and_reset_counters()
        assert snapshot.total_accesses == 5
        assert profiler.counters.total_accesses == 0
        # The LRU stacks survive the snapshot: the next access to a known
        # line is not a cold miss.
        assert profiler.access(0) > 0

    def test_invalid_geometry_rejected(self):
        with pytest.raises(StackDistanceError):
            StackDistanceProfiler(num_sets=0, associativity=4)

    @given(
        accesses=st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=300),
        num_sets=st.sampled_from([1, 2, 4]),
        associativity=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=30, deadline=None)
    def test_sdc_misses_match_real_lru_cache(self, accesses, num_sets, associativity):
        """Mattson's stack property: SDC-predicted misses == simulated LRU misses."""
        profiler = StackDistanceProfiler(num_sets=num_sets, associativity=associativity)
        config = CacheConfig(
            name="ref", size_bytes=num_sets * associativity * 64, associativity=associativity
        )
        cache = SetAssociativeCache(config)
        for line in accesses:
            profiler.access(line)
            cache.access(line)
        assert profiler.counters.misses == cache.misses
        assert profiler.counters.hits == cache.hits

    @given(
        accesses=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=200),
        cuts=st.lists(st.integers(min_value=1, max_value=199), max_size=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_reduced_associativity_matches_directly_profiled_smaller_cache(self, accesses, cuts):
        """Deriving a profile for fewer ways equals profiling the smaller cache directly."""
        wide = StackDistanceProfiler(num_sets=2, associativity=8)
        narrow = StackDistanceProfiler(num_sets=2, associativity=4)
        wide_rows, narrow_rows = [], []
        for interval in np.split(np.array(accesses), sorted(set(cuts))):
            for line in interval.tolist():
                wide.access(line)
                narrow.access(line)
            wide_rows.append(wide.snapshot_and_reset_counters().counts)
            narrow_rows.append(narrow.snapshot_and_reset_counters().counts)
        derived = _profile(wide_rows).reduced_associativity(4)
        np.testing.assert_array_equal(derived.columns["sdc"], narrow_rows)

    @given(
        rows=st.integers(min_value=1, max_value=6).flatmap(
            lambda count: st.lists(
                st.lists(_fractional, min_size=17, max_size=17), min_size=count, max_size=count
            )
        ),
        ways=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_reduced_associativity_folds_fractional_counts_bit_for_bit(self, rows, ways):
        """The row-wise fold equals each row's slice sum ``counts[ways:].sum()``
        (the per-vector fold it replaced), on either side of numpy's
        eight-way unrolled summation."""
        derived = _profile(rows).reduced_associativity(ways)
        want = [row[:ways] + [np.array(row[ways:]).sum()] for row in rows]
        got = derived.columns["sdc"]
        assert got.view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()

    def test_a_subnormal_miss_count_overflows_the_miss_penalty(self):
        # Memory cycles over a subnormal C>A count overflow the interval's
        # average miss penalty to inf: the derived CPI is not finite, and
        # the derived profile is rejected rather than built with a NaN.
        rows = [[0.0, 1.0, 0.0, 0.0, 5e-324], [0.0, 0.0, 0.0, 0.0, 5e-324]]
        for reduced_rows in (rows, rows[1:]):  # 1 and 0 extra misses
            with pytest.raises(ProfileError, match="interval 0: CPI must be positive and finite"):
                _profile(reduced_rows, memory_cpi=0.5).reduced_associativity(1)


_fractional = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def _profile(rows, memory_cpi=0.0):
    """A profile whose intervals have the given SDC rows (and one instruction each).

    With no memory cycles the fold's CPI adjustment is zero, whatever
    the counts; the SDC fold is what these tests check.
    """
    sdc = np.array(rows, dtype=np.float64)
    return SingleCoreProfile(
        "sdc", "k", "m", 1, sdc.shape[1] - 1,
        instructions=[1] * len(sdc),
        cpi=[1.0] * len(sdc),
        memory_cpi=[memory_cpi] * len(sdc),
        # Room for the fold's extra misses, whatever their rounding.
        llc_accesses=2.0 * sdc.sum(axis=1),
        llc_misses=sdc[:, -1],
        sdc=sdc,
    )
