"""Unit tests for the vectorized stack-distance kernel.

The kernel's contract is exact equivalence with the per-access
reference machinery: :func:`stack_distances` must reproduce
:class:`StackDistanceProfiler` access by access, and
:func:`replay_private_levels` followed by :func:`replay_llc` must
reproduce a stateful :class:`CacheHierarchy` walk, for any stream and any cache geometry —
including single-set (fully associative) and direct-mapped corners.
:func:`llc_hits` must reproduce ``lru_hit_mask(stack_distances(...))``
whichever of its tiers decides an access.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches import vectorized
from repro.caches.hierarchy import CacheHierarchy
from repro.caches.set_associative import SetAssociativeCache
from repro.caches.stack_distance import (
    StackDistanceCounters,
    StackDistanceProfiler,
    distance_slots,
)
from repro.caches.vectorized import (
    _count_preceding_greater,
    llc_hits,
    lru_hit_mask,
    replay_llc,
    replay_private_levels,
    stack_distances,
)
from repro.config.cache_config import CacheConfig
from repro.config.machine import MachineConfig


def _random_stream(rng, n, num_lines, repeat_runs=False):
    """A random line-address stream, optionally with MRU repeat runs."""
    lines = rng.integers(0, num_lines, n).astype(np.int64)
    if repeat_runs:
        lines = np.repeat(lines, 3)[:n]
    # Scatter the address space the way the generator does (large
    # per-benchmark bases, non-contiguous line ids).
    return lines * int(rng.choice([1, 7, 1 << 20])) + int(rng.choice([0, 1 << 40]))


class TestCountPrecedingGreater:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(1, 150))
            values = rng.integers(0, int(rng.choice([1, 2, 4, 30, 10**6])), n)
            brute = np.array([(values[:k] > values[k]).sum() for k in range(n)])
            assert np.array_equal(_count_preceding_greater(values), brute)

    def test_trivial_inputs(self):
        assert _count_preceding_greater(np.array([], dtype=np.int64)).size == 0
        assert np.array_equal(_count_preceding_greater(np.array([7])), [0])
        assert np.array_equal(
            _count_preceding_greater(np.array([3, 2, 1, 0])), [0, 1, 2, 3]
        )
        assert np.array_equal(
            _count_preceding_greater(np.array([0, 0, 0])), [0, 0, 0]
        )


class TestStackDistances:
    @pytest.mark.parametrize("num_sets", [1, 2, 4, 5, 16, 64])
    def test_matches_profiler(self, num_sets):
        rng = np.random.default_rng(num_sets)
        for trial in range(25):
            n = int(rng.integers(1, 500))
            lines = _random_stream(
                rng, n, int(rng.integers(1, 90)), repeat_runs=trial % 3 == 0
            )
            profiler = StackDistanceProfiler(num_sets=num_sets, associativity=4)
            expected = np.array([profiler.access(int(line)) for line in lines])
            assert np.array_equal(stack_distances(lines, num_sets), expected)

    def test_cold_accesses_are_zero(self):
        lines = np.array([10, 20, 30], dtype=np.int64)
        assert np.array_equal(stack_distances(lines, 4), [0, 0, 0])

    def test_mru_repeats_are_distance_one(self):
        lines = np.array([5, 5, 5, 5], dtype=np.int64)
        assert np.array_equal(stack_distances(lines, 8), [0, 1, 1, 1])

    def test_rejects_bad_num_sets(self):
        with pytest.raises(ValueError):
            stack_distances(np.array([1, 2]), 0)

    def test_empty_stream(self):
        assert stack_distances(np.array([], dtype=np.int64), 4).size == 0

    @pytest.mark.parametrize("associativity", [1, 2, 8])
    def test_hit_mask_matches_lru_cache(self, associativity):
        """Stack inclusion: distance <= A iff an A-way LRU cache hits."""
        rng = np.random.default_rng(associativity)
        config = CacheConfig(
            name="c", size_bytes=8 * 64 * associativity, associativity=associativity
        )
        for _ in range(10):
            lines = _random_stream(rng, 400, 60)
            cache = SetAssociativeCache(config)
            expected = np.array([cache.access(int(line)).hit for line in lines])
            distances = stack_distances(lines, config.num_sets)
            assert np.array_equal(lru_hit_mask(distances, associativity), expected)


def _reference_hits(lines, num_sets, associativity):
    return lru_hit_mask(stack_distances(lines, num_sets), associativity)


def _single_set_tiers(lines, associativity):
    """Per-reuse tier counts of a single-set stream, by brute force.

    Returns ``(certain_hits, certain_misses, undecided)``: reuses whose
    previous occurrence is at most A accesses back, reuses with at
    least A first occurrences since it, and the rest.
    """
    firsts_before = [0]  # first occurrences before each position
    last_seen = {}
    tiers = [0, 0, 0]
    for position, line in enumerate(lines):
        if line in last_seen:
            previous = last_seen[line]
            if position - previous <= associativity:
                tiers[0] += 1
            elif firsts_before[position] - firsts_before[previous + 1] >= associativity:
                tiers[1] += 1
            else:
                tiers[2] += 1
        firsts_before.append(firsts_before[-1] + (line not in last_seen))
        last_seen[line] = position
    return tuple(tiers)


#: A hot line for the hand-built streams (far from their other lines).
HOT = 999


@pytest.fixture
def counted_passes(monkeypatch):
    """Which of :func:`llc_hits`' counting passes ran, and how often."""
    counts = {}
    for name in ("_count_head_below", "_count_below", "_count_preceding_greater"):
        original = getattr(vectorized, name)

        def counting(*args, _original=original, _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(vectorized, name, counting)
    return counts


@st.composite
def skewed_streams(draw):
    """2,000-20,000 accesses, most of them to a few hot lines."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2_000, 20_000))
    hot = draw(st.integers(1, 16))
    warm = draw(st.integers(8, 2_000))
    hot_share = draw(st.floats(0.5, 0.95))
    return np.where(
        rng.random(n) < hot_share, rng.integers(0, hot, n), hot + rng.integers(0, warm, n)
    ).astype(np.int64)


@st.composite
def tiny_streams(draw):
    """Short streams over a small line alphabet, so reuses are common."""
    alphabet = draw(st.integers(1, 24))
    return draw(st.lists(st.integers(0, alphabet - 1), max_size=80))


class TestLlcHits:
    @settings(max_examples=300, deadline=None)
    @given(
        lines=tiny_streams(),
        num_sets=st.sampled_from([1, 2, 3, 5, 8, 16]),
        associativity=st.sampled_from([1, 2, 4, 8, 16]),
    )
    def test_matches_reference(self, lines, num_sets, associativity):
        lines = np.asarray(lines, dtype=np.int64)
        assert np.array_equal(
            llc_hits(lines, num_sets, associativity),
            _reference_hits(lines, num_sets, associativity),
        )

    @settings(max_examples=40, deadline=None)
    @given(lines=skewed_streams(), shape=st.sampled_from([(4, 8), (32, 8)]))
    def test_matches_reference_on_long_skewed_streams(self, lines, shape):
        """The private levels' shapes at 1/16 scale (L1: 4 sets x 8
        ways, L2: 32 x 8) on long streams whose warm-line reuses enclose
        many hot reuses, so ranges stay open past the first head."""
        num_sets, associativity = shape
        assert np.array_equal(
            llc_hits(lines, num_sets, associativity),
            _reference_hits(lines, num_sets, associativity),
        )

    def test_empty_and_single_access_streams(self):
        assert llc_hits(np.array([], dtype=np.int64), 4, 2).size == 0
        assert llc_hits(np.array([], dtype=np.int64), 4, 2).dtype == bool
        assert np.array_equal(llc_hits(np.array([7]), 1, 1), [False])
        assert np.array_equal(llc_hits(np.array([7]), 3, 16), [False])

    @pytest.mark.parametrize("associativity", [1, 2, 16])
    def test_mru_runs_hit(self, associativity):
        lines = np.array([5, 5, 5, 5, 9, 9, 5, 5], dtype=np.int64)
        expected = _reference_hits(lines, 1, associativity)
        assert np.array_equal(llc_hits(lines, 1, associativity), expected)
        assert np.array_equal(expected[:4], [False, True, True, True])

    @pytest.mark.parametrize("associativity", [1, 2, 4, 16])
    def test_every_reuse_but_the_first_undecided(self, associativity):
        """A cycle of A + 1 lines in one set: every reuse is more than A
        accesses back, and only the first one has A first occurrences
        since, so every other reuse needs the exact count.  (No stream
        can do without that first decided reuse: the earliest reuse of a
        set only has first occurrences before it.)"""
        laps = 6
        lines = np.tile(np.arange(associativity + 1, dtype=np.int64) * 3, laps)
        reuses = (laps - 1) * (associativity + 1)
        assert _single_set_tiers(lines.tolist(), associativity) == (0, 1, reuses - 1)
        assert np.array_equal(
            llc_hits(lines, 1, associativity), _reference_hits(lines, 1, associativity)
        )

    def test_undecided_reuses_in_short_ranges(self):
        """A few undecided reuses with short ranges: the last one's range
        outgrows the head scan of A reuses and is scanned to its end."""
        lines = np.array([0, 1, 1, 1, 1, 1, 0, 2, 2, 2, 2, 2, 0, 1], dtype=np.int64)
        assert _single_set_tiers(lines.tolist(), 4)[2] == 3
        for num_sets in (1, 2, 3):
            assert np.array_equal(
                llc_hits(lines, num_sets, 4), _reference_hits(lines, num_sets, 4)
            )

    def test_adversarial_cycle_matches_reference(self):
        """4,096 distinct lines, 8 laps, one 16-way set: the undecided
        ranges sum to about n x L, but the first A reuses of each range
        already hold A older lines, so the count stops there."""
        lines = np.tile(np.arange(4_096, dtype=np.int64), 8)
        _, _, undecided = _single_set_tiers(lines.tolist(), 16)
        assert undecided >= 6 * 4_096
        hits = llc_hits(lines, 1, 16)
        assert not hits.any()
        assert np.array_equal(hits, _reference_hits(lines, 1, 16))

    @pytest.mark.parametrize("associativity", [4, 16])
    def test_nested_reuses_are_skipped_past_the_head(self, associativity):
        """Ten lines cycled with a hot line's MRU pair after each: the
        hot line's many reuses sit nested inside every outer reuse, so
        the first A reuses of a range hold too few older lines; past
        them, only the outer lines' long reuses are read."""
        outer = np.arange(10, dtype=np.int64) * 5
        lap = np.stack([outer, np.full(10, 999), np.full(10, 999)], axis=1).ravel()
        lines = np.tile(lap, 6)
        expected = _reference_hits(lines, 1, associativity)
        # Each outer reuse has 9 outer lines and the hot line above it.
        outer_reuses = expected[len(lap) :: 3]
        assert (outer_reuses == (associativity >= 11)).all()
        assert np.array_equal(llc_hits(lines, 1, associativity), expected)

    def test_the_long_reuse_head_settles_a_range(self, counted_passes):
        """Line 0's reuse: ten hot reuses fill the first head with no
        older line, and the long reuses of lines 1-5 (all from before
        line 0's first access) settle it as a miss."""
        lines = np.array([1, 2, 3, 4, 5, 0] + [HOT] * 10 + [1, 2, 3, 4, 5, 0], dtype=np.int64)
        expected = _reference_hits(lines, 1, 4)
        counted_passes.clear()
        assert np.array_equal(llc_hits(lines, 1, 4), expected)
        assert not expected[-1]
        assert counted_passes == {"_count_head_below": 2}

    def test_open_ranges_are_counted_over_long_reuses(self, counted_passes):
        """Line 0's reuse: line 1 comes back four times, each a long
        reuse but only the first from before line 0, so both heads leave
        the range open; the linear count over long reuses finds line 2
        at its end, and the reuse hits (distance 4 = A)."""
        lines = np.array(
            [1, 2, 0] + [HOT] * 5 + ([1] + [HOT] * 5) * 4 + [2, 0], dtype=np.int64
        )
        expected = _reference_hits(lines, 1, 4)
        counted_passes.clear()
        assert np.array_equal(llc_hits(lines, 1, 4), expected)
        assert expected[-1]
        assert counted_passes == {"_count_head_below": 2, "_count_below": 1}

    def test_long_open_ranges_take_the_bounded_count(self, counted_passes):
        """Ten outer lines around 30 laps of three inner lines, each
        followed by five hot accesses: every inner reuse is long but
        nested, so all ten outer reuses stay open to the end, over more
        long reuses in total than the stream has accesses, and the
        preceding-greater pass counts them."""
        inner = []
        for line in (50, 51, 52):
            inner += [line] + [HOT] * 5
        outer = list(range(10))
        lines = np.array(outer + inner * 30 + outer, dtype=np.int64)
        expected = _reference_hits(lines, 1, 16)
        counted_passes.clear()
        assert np.array_equal(llc_hits(lines, 1, 16), expected)
        assert expected[-10:].all()
        assert counted_passes == {"_count_head_below": 2, "_count_preceding_greater": 1}

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="num_sets"):
            llc_hits(np.array([1, 2]), 0, 4)
        with pytest.raises(ValueError, match="associativity"):
            llc_hits(np.array([1, 2]), 4, 0)
        with pytest.raises(ValueError, match="num_sets"):
            llc_hits(np.array([1, 2]), -1, 4)
        with pytest.raises(ValueError, match="associativity"):
            llc_hits(np.array([1, 2]), 4, -2)

    @pytest.mark.parametrize("num_sets", [1, 4, 5, 64])
    def test_matches_reference_on_random_streams(self, num_sets):
        rng = np.random.default_rng(100 + num_sets)
        for trial in range(20):
            lines = _random_stream(
                rng, int(rng.integers(1, 800)), int(rng.integers(1, 300)),
                repeat_runs=trial % 3 == 0,
            )
            for associativity in (1, 8, 16, 64):
                assert np.array_equal(
                    llc_hits(lines, num_sets, associativity),
                    _reference_hits(lines, num_sets, associativity),
                )


class TestReplayHierarchy:
    def _machines(self):
        line = 64
        return [
            MachineConfig(),  # default L1/L2/L3
            MachineConfig(  # single-set (fully associative) everything
                private_levels=(
                    CacheConfig(name="L1D", size_bytes=4 * line, associativity=4),
                ),
                llc=CacheConfig(
                    name="L3", size_bytes=16 * line, associativity=16, shared=True
                ),
            ),
            MachineConfig(  # direct-mapped private levels and LLC
                private_levels=(
                    CacheConfig(name="L1D", size_bytes=8 * line, associativity=1),
                    CacheConfig(name="L2", size_bytes=32 * line, associativity=1),
                ),
                llc=CacheConfig(
                    name="L3", size_bytes=128 * line, associativity=1, shared=True
                ),
            ),
        ]

    def test_matches_stateful_hierarchy(self):
        rng = np.random.default_rng(7)
        for machine in self._machines():
            lines = _random_stream(rng, 600, 200)
            hierarchy = CacheHierarchy(machine, include_llc=True)
            num_private = len(machine.private_levels)
            expected_levels = []
            expected_llc = []
            for line in lines:
                outcome = hierarchy.access(int(line))
                if not outcome.reached_llc:
                    expected_levels.append(outcome.level_index)
                else:
                    expected_levels.append(
                        num_private if outcome.llc_hit else num_private + 1
                    )
                    expected_llc.append(int(line))
            served, llc_index, stream = replay_private_levels(lines, machine)
            llc_distances = replay_llc(stream, machine.llc.num_sets)
            llc_hits = lru_hit_mask(llc_distances, machine.llc.associativity)
            served[llc_index[llc_hits]] = num_private
            assert np.array_equal(served, expected_levels)
            assert np.array_equal(lines[llc_index], expected_llc)
            # The distances reproduce the SDC profiler on the filtered stream.
            profiler = StackDistanceProfiler(
                num_sets=machine.llc.num_sets, associativity=machine.llc.associativity
            )
            expected_distances = [profiler.access(line) for line in expected_llc]
            assert np.array_equal(llc_distances, expected_distances)


class TestDistanceSlots:
    def test_matches_record(self):
        rng = np.random.default_rng(3)
        distances = rng.integers(0, 14, 300)
        recorded = StackDistanceCounters(associativity=8)
        for distance in distances:
            recorded.record(int(distance))
        batched = np.bincount(distance_slots(distances, 8), minlength=9).astype(np.float64)
        assert np.array_equal(batched, recorded.counts)

    def test_empty_batch(self):
        assert distance_slots(np.array([], dtype=np.int64), 4).size == 0

    def test_rejects_bad_associativity(self):
        with pytest.raises(ValueError):
            distance_slots(np.array([1]), 0)
