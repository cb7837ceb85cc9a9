"""The stacked window table against the per-profile formula, and the profile/machine memos.

``ProfileWindowTable`` stacks any number of profiles into one padded
table so that the batched MPPM solver gathers every (mix, core) window
of an iteration at once.  Its rows must equal, bit for bit, what the
earlier one-table-per-profile formula returned; that formula is kept
verbatim below (:class:`_PerProfileTable`) as the oracle.
"""

import dataclasses
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MachineConfig, machine_with_llc, scaled
from repro.engine.cache import content_key
from repro.profiling.profile import ProfileError, ProfileWindowTable, SingleCoreProfile


class _PerProfileTable:
    """The one-profile window table the stacked table replaced (the oracle)."""

    COL_INSTRUCTIONS = 0

    def __init__(self, profile):
        c = profile.columns
        instructions = c["instructions"].astype(np.float64)
        self.values = np.column_stack(
            [
                instructions,
                c["cpi"] * instructions,
                c["memory_cpi"] * instructions,
                c["llc_accesses"],
                c["llc_misses"],
                c["sdc"],
            ]
        )
        self.prefix = np.vstack(
            [np.zeros((1, self.values.shape[1])), np.cumsum(self.values, axis=0)]
        )
        self.totals = self.prefix[-1]
        self.starts = self.prefix[:-1, self.COL_INSTRUCTIONS]
        self.boundaries = self.prefix[1:, self.COL_INSTRUCTIONS]
        self.instructions = self.values[:, self.COL_INSTRUCTIONS]
        self.trace_length = float(profile.num_instructions)

    def point(self, positions):
        index = np.minimum(
            np.searchsorted(self.boundaries, positions, side="right"),
            len(self.instructions) - 1,
        )
        fraction = (positions - self.starts[index]) / self.instructions[index]
        return self.prefix[index] + fraction[..., None] * self.values[index]

    def windows(self, start_instructions, num_instructions):
        length = self.trace_length
        start = np.mod(np.asarray(start_instructions, dtype=np.float64), length)
        end = start + np.asarray(num_instructions, dtype=np.float64)
        full_passes = np.floor(end / length)
        remainder = np.minimum(np.maximum(end - full_passes * length, 0.0), length)
        return (self.point(remainder) - self.point(start)) + full_passes[
            ..., None
        ] * self.totals


ASSOCIATIVITY = 4

_counter = st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False)


def _profile(rows, interval_instructions=1_000):
    """A profile from ``(instructions, cpi, memory_cpi, accesses, misses, sdc)``
    rows, one per interval."""
    names = ("instructions", "cpi", "memory_cpi", "llc_accesses", "llc_misses", "sdc")
    columns = {name: list(column) for name, column in zip(names, zip(*rows))}
    return SingleCoreProfile(
        "p", "key", "machine", interval_instructions, ASSOCIATIVITY, **columns
    )


@st.composite
def intervals(draw):
    instructions = draw(st.integers(min_value=1, max_value=5_000))
    cpi = draw(st.floats(min_value=0.05, max_value=20.0))
    memory_cpi = draw(st.floats(min_value=0.0, max_value=1.0)) * cpi
    accesses = draw(_counter)
    misses = draw(st.floats(min_value=0.0, max_value=1.0)) * accesses
    counts = draw(st.lists(_counter, min_size=ASSOCIATIVITY + 1, max_size=ASSOCIATIVITY + 1))
    return (instructions, cpi, memory_cpi, accesses, misses, counts)


@st.composite
def profiles(draw):
    count = draw(st.integers(min_value=1, max_value=7))
    return _profile([draw(intervals()) for _ in range(count)])


@st.composite
def uniform_stacks(draw):
    """Profiles whose inner intervals all share one length, as the profiler
    cuts them (the last interval of each may be any length)."""
    length = draw(st.integers(min_value=1, max_value=5_000))
    stack = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        drawn = [draw(intervals()) for _ in range(draw(st.integers(1, 7)))]
        drawn[:-1] = [(length,) + interval[1:] for interval in drawn[:-1]]
        stack.append(_profile(drawn, interval_instructions=length))
    return stack


@st.composite
def positions(draw, profile):
    """A start or length: on a boundary, at L, beyond L, or anywhere."""
    length = float(profile.num_instructions)
    boundaries = np.cumsum(profile.columns["instructions"])
    laps = draw(st.integers(min_value=0, max_value=4))
    kind = draw(st.sampled_from(["boundary", "trace-end", "anywhere"]))
    if kind == "boundary":
        base = float(draw(st.sampled_from([0, *boundaries.tolist()])))
    elif kind == "trace-end":
        base = length
    else:
        base = draw(st.floats(min_value=0.0, max_value=length))
    return base + laps * length


@st.composite
def stacked_queries(draw):
    stack = draw(st.lists(profiles(), min_size=1, max_size=4))
    queries = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        profile_id = draw(st.integers(min_value=0, max_value=len(stack) - 1))
        start = draw(positions(stack[profile_id]))
        length = draw(positions(stack[profile_id]))
        queries.append((profile_id, start, max(length, 1.0)))
    return stack, queries


def _bits(rows):
    return np.ascontiguousarray(rows).view(np.uint64)


class TestStackedTableMatchesPerProfileFormula:
    @settings(max_examples=200, deadline=None)
    @given(stacked_queries())
    def test_rows_are_bit_identical(self, case):
        stack, queries = case
        ids = np.array([profile_id for profile_id, _, _ in queries])
        starts = np.array([start for _, start, _ in queries])
        lengths = np.array([length for _, _, length in queries])
        got = ProfileWindowTable(stack).slots(ids).windows(starts, lengths)
        for profile_id, profile in enumerate(stack):
            mask = ids == profile_id
            if mask.any():
                want = _PerProfileTable(profile).windows(starts[mask], lengths[mask])
                np.testing.assert_array_equal(_bits(got[mask]), _bits(want))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_one_profile_path_is_bit_identical(self, data):
        profile = data.draw(profiles())
        start = data.draw(positions(profile))
        length = max(data.draw(positions(profile)), 1.0)
        want = _PerProfileTable(profile).windows(start, length)
        got = profile.window_table.slots(0).windows(start, length)
        np.testing.assert_array_equal(_bits(got), _bits(want))
        window = profile.window(start, length)
        assert window.instructions == want[ProfileWindowTable.COL_INSTRUCTIONS]
        assert window.memory_cycles == want[ProfileWindowTable.COL_MEMORY_CYCLES]
        np.testing.assert_array_equal(
            _bits(window.sdc.counts), _bits(want[ProfileWindowTable.SDC_OFFSET :])
        )

    def test_two_dimensional_slots_keep_their_shape(self, profiles4):
        stack = [profiles4[name] for name in sorted(profiles4)]
        table = ProfileWindowTable(stack)
        ids = np.array([[0, 1, 2], [2, 1, 0]])
        starts = np.array([[0.0, 1e5, 3.5e4], [7.0, 0.0, 5e4]])
        lengths = np.full(ids.shape, 1.2e4)
        rows = table.slots(ids).windows(starts, lengths)
        assert rows.shape == ids.shape + (table.values.shape[2],)
        flat = table.slots(ids.ravel()).windows(starts.ravel(), lengths.ravel())
        np.testing.assert_array_equal(_bits(rows.reshape(flat.shape)), _bits(flat))


def _count_lookup_point(table, ids, positions):
    """``P(x)`` through the interval lookup the searched one replaced (the oracle).

    The interval index is ``K - count(boundaries > x)``, capped at the
    profile's last interval; padded boundaries are ``+inf``.
    """
    col = ProfileWindowTable.COL_INSTRUCTIONS
    width = table.values.shape[1]
    boundaries = np.where(
        np.arange(width) <= table.last[:, None], table.prefix[:, 1:, col], np.inf
    )[ids]
    base = ids * width
    above = np.add.reduce(boundaries > positions[..., None], axis=-1)
    rows = np.minimum(base + width - above, table.last[ids] + base)
    prefix = table.prefix_rows[rows]
    values = table.value_rows[rows]
    fraction = (positions - prefix[..., col]) / values[..., col]
    return prefix + fraction[..., None] * values


def _edge_positions(profile):
    """0, L, beyond L, NaN, and on, one ulp below and one ulp above every boundary."""
    length = float(profile.num_instructions)
    edges = [0.0, length, length + 0.5, 3.0 * length, 1e300, np.nan]
    for boundary in np.cumsum(profile.columns["instructions"]):
        boundary = float(boundary)
        edges += [boundary, np.nextafter(boundary, -np.inf), np.nextafter(boundary, np.inf)]
    return edges


class TestSearchedIntervalLookup:
    """``WindowSlots.point`` finds a position's interval with one
    ``searchsorted`` over integer keys; it must pick the interval the
    boundary count picks, at and around every boundary."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(profiles(), min_size=1, max_size=4))
    def test_point_matches_the_boundary_count(self, stack):
        self._assert_point_matches_the_boundary_count(ProfileWindowTable(stack), stack)

    @settings(max_examples=150, deadline=None)
    @given(uniform_stacks())
    def test_one_interval_length_divides_instead_of_searching(self, stack):
        table = ProfileWindowTable(stack)
        assert table.interval == stack[0].interval_instructions
        self._assert_point_matches_the_boundary_count(table, stack)
        # The same table made to search finds the same rows, bit for bit.
        searched = ProfileWindowTable(stack)
        searched.interval = None
        self._assert_point_matches_the_boundary_count(searched, stack)

    def test_any_other_inner_length_searches(self):
        def profile(*lengths):
            counts = np.ones(ASSOCIATIVITY + 1)
            return _profile([(n, 1.0, 0.5, 2.0, 1.0, counts) for n in lengths])

        # Last intervals may be any length; inner ones must all match.
        assert ProfileWindowTable([profile(1_000, 1_000, 7), profile(1_000, 3)]).interval == 1_000
        assert ProfileWindowTable([profile(5), profile(1_000, 3)]).interval == 1_000
        assert ProfileWindowTable([profile(1_000, 1_000, 7), profile(999, 3)]).interval is None
        assert ProfileWindowTable([profile(1_000, 1_001, 7)]).interval is None

    @staticmethod
    def _assert_point_matches_the_boundary_count(table, stack):
        ids = np.array(
            [p for p, profile in enumerate(stack) for _ in _edge_positions(profile)]
        )
        xs = np.array([x for profile in stack for x in _edge_positions(profile)])
        got = table.slots(ids).point(xs)
        want = _count_lookup_point(table, ids, xs)
        np.testing.assert_array_equal(_bits(got), _bits(want))
        # The same lookups behind an extra leading axis, as the solver
        # stacks its two points per window.
        stacked = table.slots(ids).point(np.stack([xs, xs[::-1]]))
        np.testing.assert_array_equal(_bits(stacked[0]), _bits(want))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(profiles(), min_size=1, max_size=4), st.data())
    def test_edge_windows_match_the_profile_window(self, stack, data):
        table = ProfileWindowTable(stack)
        for p, profile in enumerate(stack):
            for start in _edge_positions(profile):
                length = data.draw(st.sampled_from([1.0, 0.5, float(profile.num_instructions)]))
                row = table.slots(p).windows(start, length)
                window = profile.window(start, length)
                assert _bits(row[ProfileWindowTable.COL_INSTRUCTIONS]) == _bits(
                    window.instructions
                )
                assert _bits(row[ProfileWindowTable.COL_CYCLES]) == _bits(window.cycles)
                np.testing.assert_array_equal(
                    _bits(row[ProfileWindowTable.SDC_OFFSET :]), _bits(window.sdc.counts)
                )

    def test_non_integral_interval_lengths_are_rejected(self):
        # The lookup keys are interval end positions as integers.
        with pytest.raises(ProfileError, match="positive integer"):
            _profile([(10.5, 1.0, 0.5, 1.0, 0.0, np.zeros(ASSOCIATIVITY + 1))])


def _fresh_sums(profile):
    c = profile.columns
    counts = c["instructions"].tolist()
    instructions = sum(counts)
    return {
        "num_instructions": instructions,
        "cpi": sum(cpi * n for cpi, n in zip(c["cpi"].tolist(), counts)) / instructions,
        "memory_cpi": sum(cpi * n for cpi, n in zip(c["memory_cpi"].tolist(), counts))
        / instructions,
        "total_llc_misses": sum(c["llc_misses"].tolist()),
    }


class TestProfileAggregateMemos:
    @pytest.fixture(scope="class")
    def variants(self, profiles4):
        generated = next(iter(profiles4.values()))
        return {
            "generated": generated,
            "from_dict": SingleCoreProfile.from_dict(json.loads(json.dumps(generated.to_dict()))),
            "reduced": generated.reduced_associativity(2),
        }

    @pytest.mark.parametrize("kind", ["generated", "from_dict", "reduced"])
    def test_cached_aggregates_equal_fresh_sums(self, variants, kind):
        profile = variants[kind]
        for name, value in _fresh_sums(profile).items():
            assert getattr(profile, name) == value
            assert getattr(profile, name) == value  # second read: the memo

    def test_to_dict_is_unchanged_by_the_memos(self, profiles4):
        original = next(iter(profiles4.values()))
        payload = json.dumps(original.to_dict())
        loaded = SingleCoreProfile.from_dict(json.loads(payload))
        before = json.dumps(loaded.to_dict())
        loaded.cpi, loaded.memory_cpi, loaded.total_llc_misses, loaded.window_table
        loaded.window(0.0, 1_000.0)
        assert json.dumps(loaded.to_dict()) == before == payload


class TestMachineKeyMemos:
    def _machine(self):
        return scaled(machine_with_llc(3, num_cores=4), 16)

    def test_repr_eq_hash_and_content_key_do_not_change(self):
        machine, twin = self._machine(), self._machine()
        before = (repr(machine), hash(machine), content_key("m", machine))
        keys = (machine.private_key(), machine.profile_key())
        assert (repr(machine), hash(machine), content_key("m", machine)) == before
        assert machine == twin and hash(machine) == hash(twin)
        assert (twin.private_key(), twin.profile_key()) == keys
        assert pickle.loads(pickle.dumps(machine)) == twin

    def test_replaced_machines_get_their_own_keys(self):
        machine = self._machine()
        key = machine.profile_key()
        other = dataclasses.replace(
            machine, llc=dataclasses.replace(machine.llc, associativity=4)
        )
        assert other.profile_key() != key
        assert other.private_key() == machine.private_key()
        fresh = MachineConfig(
            num_cores=other.num_cores,
            core=other.core,
            private_levels=other.private_levels,
            llc=other.llc,
            memory=other.memory,
            name=other.name,
        )
        assert fresh.profile_key() == other.profile_key()
