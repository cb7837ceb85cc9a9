"""Unit and property tests for the single-core profile data model."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiling.profile import ProfileError, SingleCoreProfile


def _columns(
    num_intervals=5, instructions=1_000, cpi=1.0, memory_cpi=0.2, accesses=50.0, misses=10.0, assoc=4
):
    counts = np.zeros(assoc + 1)
    counts[0] = max(accesses - misses, 0.0)
    counts[assoc] = misses
    return dict(
        instructions=[instructions] * num_intervals,
        cpi=[cpi] * num_intervals,
        memory_cpi=[memory_cpi] * num_intervals,
        llc_accesses=[accesses] * num_intervals,
        llc_misses=[misses] * num_intervals,
        sdc=[counts] * num_intervals,
    )


def _profile(num_intervals=5, **interval_kwargs):
    return SingleCoreProfile(
        benchmark="unit",
        machine_key="machine-key",
        machine_name="test machine",
        interval_instructions=1_000,
        llc_associativity=4,
        **_columns(num_intervals, **interval_kwargs),
    )


class TestConstructorChecks:
    """The constructor checks whole columns and raises the first bad
    interval's error, in the order the checks are listed."""

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            (dict(instructions=0), "instructions must be a positive integer"),
            (dict(cpi=0.0), "CPI must be positive"),
            (dict(memory_cpi=-0.1), "memory CPI -0.1 must be within"),
            (dict(memory_cpi=2.0, cpi=1.0), "memory CPI 2.0 must be within"),
            (dict(misses=60.0, accesses=50.0), "inconsistent LLC access/miss counts"),
        ],
    )
    def test_invalid_intervals_rejected(self, kwargs, error):
        with pytest.raises(ProfileError, match=f"^interval 0: {error}"):
            _profile(num_intervals=1, **kwargs)

    @pytest.mark.parametrize(
        "values",
        [[1_000.5], [True], np.array([True]), [np.nan], [np.inf], [-np.inf]],
        ids=["fractional", "true", "bool-array", "nan", "inf", "-inf"],
    )
    def test_instruction_counts_must_be_positive_integers(self, values):
        columns = _columns(num_intervals=1)
        columns["instructions"] = values
        with pytest.raises(ProfileError, match="^interval 0: instructions must be a positive integer"):
            SingleCoreProfile("unit", "k", "m", 1_000, 4, **columns)

    def test_integral_float_counts_are_accepted(self):
        profile = _profile(num_intervals=2, instructions=4_000.0)
        assert profile.columns["instructions"].dtype == np.int64
        assert profile.columns["instructions"].tolist() == [4_000, 4_000]
        assert profile.num_instructions == 8_000

    def test_the_first_bad_interval_reports_its_first_failed_check(self):
        columns = _columns(num_intervals=4)
        columns["llc_misses"] = [10.0, 10.0, 99.0, 10.0]  # interval 2: inconsistent
        columns["cpi"] = [1.0, 1.0, 0.0, -1.0]  # intervals 2 and 3: CPI
        with pytest.raises(ProfileError, match="^interval 2: CPI must be positive"):
            SingleCoreProfile("unit", "k", "m", 1_000, 4, **columns)

    def test_columns_are_read_only_copies(self):
        columns = _columns(num_intervals=2)
        cpi = np.array(columns["cpi"])
        profile = SingleCoreProfile("unit", "k", "m", 1_000, 4, **dict(columns, cpi=cpi))
        cpi[0] = 5.0
        assert profile.columns["cpi"].tolist() == [1.0, 1.0]
        for column in profile.columns.values():
            assert not column.flags.writeable


class TestSingleCoreProfile:
    def test_whole_trace_aggregates(self):
        profile = _profile(num_intervals=10)
        assert profile.num_intervals == 10
        assert profile.num_instructions == 10_000
        assert profile.cpi == pytest.approx(1.0)
        assert profile.memory_cpi == pytest.approx(0.2)
        assert profile.memory_cpi_fraction == pytest.approx(0.2)
        assert profile.total_llc_accesses == pytest.approx(500.0)
        assert profile.total_llc_misses == pytest.approx(100.0)
        assert profile.llc_misses_per_kilo_instruction == pytest.approx(10.0)
        assert profile.interval_prefix[-1, 5:].sum() == pytest.approx(500.0)
        assert "unit" in profile.describe()

    def test_validation_of_interval_sequence(self):
        data = _profile(num_intervals=2).to_dict()
        data["intervals"][1]["index"] = 2
        with pytest.raises(ProfileError, match="consecutively indexed"):
            SingleCoreProfile.from_dict(data)
        with pytest.raises(ProfileError, match="at least one interval"):
            SingleCoreProfile("bad", "k", "m", 1_000, 4, **_columns(num_intervals=0))
        with pytest.raises(ProfileError, match="SDC associativity"):
            SingleCoreProfile("bad", "k", "m", 1_000, 4, **_columns(num_intervals=1, assoc=8))
        with pytest.raises(ProfileError, match="one entry per interval"):
            SingleCoreProfile("bad", "k", "m", 1_000, 4, **dict(_columns(2), cpi=[1.0]))
        with pytest.raises(ProfileError, match="columns must be"):
            SingleCoreProfile("bad", "k", "m", 1_000, 4, **dict(_columns(1), cpis=[1.0]))
        with pytest.raises(ProfileError, match="interval_instructions"):
            SingleCoreProfile("bad", "k", "m", 0, 4, **_columns(1))

    def test_window_over_whole_trace_equals_totals(self):
        profile = _profile(num_intervals=5)
        window = profile.window(0, profile.num_instructions)
        assert window.instructions == pytest.approx(profile.num_instructions)
        assert window.cycles == pytest.approx(profile.total_cycles)
        assert window.llc_misses == pytest.approx(profile.total_llc_misses)
        assert window.sdc.total_accesses == pytest.approx(profile.total_llc_accesses)
        assert window.cpi == pytest.approx(profile.cpi)
        assert window.memory_cpi == pytest.approx(profile.memory_cpi)

    def test_partial_window_scales_proportionally(self):
        profile = _profile(num_intervals=5)
        window = profile.window(0, 500)  # half of the first interval
        assert window.instructions == pytest.approx(500)
        assert window.llc_accesses == pytest.approx(25.0)
        assert window.llc_misses == pytest.approx(5.0)

    def test_window_wraps_around_the_end_of_the_trace(self):
        profile = _profile(num_intervals=5)
        window = profile.window(4_500, 1_000)  # last half-interval + first half-interval
        assert window.instructions == pytest.approx(1_000)
        assert window.llc_accesses == pytest.approx(50.0)
        # Start positions beyond the trace length wrap modulo the trace.
        wrapped = profile.window(5_000 + 4_500, 1_000)
        assert wrapped.llc_accesses == pytest.approx(window.llc_accesses)

    def test_window_longer_than_trace_covers_it_multiple_times(self):
        profile = _profile(num_intervals=5)
        window = profile.window(0, 2 * profile.num_instructions)
        assert window.llc_misses == pytest.approx(2 * profile.total_llc_misses)

    def test_window_rejects_non_positive_length(self):
        with pytest.raises(ProfileError):
            _profile().window(0, 0)

    def test_average_miss_penalty(self):
        profile = _profile()
        window = profile.window(0, 1_000)
        assert window.average_miss_penalty == pytest.approx(window.memory_cycles / window.llc_misses)
        # A window with no misses reports a zero penalty (callers fall back).
        no_miss_profile = _profile(misses=0.0, memory_cpi=0.0)
        assert no_miss_profile.window(0, 1_000).average_miss_penalty == 0.0

    @given(
        start=st.floats(min_value=0, max_value=20_000),
        length=st.floats(min_value=1, max_value=15_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_window_instruction_count_is_exact_for_any_start(self, start, length):
        profile = _profile(num_intervals=5)
        window = profile.window(start, length)
        assert window.instructions == pytest.approx(length, rel=1e-9)
        assert window.llc_accesses >= 0
        assert window.cycles >= 0

    def test_serialisation_roundtrip(self):
        profile = _profile(num_intervals=3)
        data = profile.to_dict()
        restored = SingleCoreProfile.from_dict(data)
        assert restored.benchmark == profile.benchmark
        assert restored.cpi == pytest.approx(profile.cpi)
        assert restored.num_instructions == profile.num_instructions
        for name, column in profile.columns.items():
            assert restored.columns[name].dtype == column.dtype
            np.testing.assert_array_equal(restored.columns[name], column)

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("instructions", 0, "interval 1: instructions"),
            ("instructions", 1_000.5, "interval 1: instructions must be a positive integer"),
            ("instructions", True, "interval 1: instructions must be a positive integer"),
            ("cpi", 0.0, "interval 1: CPI"),
            ("cpi", float("nan"), "interval 1: CPI must be positive and finite, got nan"),
            ("cpi", float("inf"), "interval 1: CPI must be positive and finite, got inf"),
            ("memory_cpi", -0.1, "interval 1: memory CPI"),
            ("memory_cpi", 2.0, "interval 1: memory CPI"),
            ("memory_cpi", float("nan"), "interval 1: memory CPI nan"),
            ("memory_cpi", float("inf"), "interval 1: memory CPI inf"),
            ("llc_misses", 60.0, "interval 1: inconsistent"),
            ("llc_misses", float("nan"), "interval 1: inconsistent"),
            ("llc_accesses", float("nan"), "interval 1: inconsistent"),
            ("llc_accesses", float("inf"), "interval 1: inconsistent"),
            ("sdc", [-1.0, 0.0, 0.0, 0.0, 1.0], "interval 1: stack-distance counters"),
            ("sdc", [float("nan"), 0.0, 0.0, 0.0, 1.0], "interval 1: stack-distance counters"),
            ("sdc", [0.0, 0.0, 0.0, 0.0, float("inf")], "interval 1: stack-distance counters"),
        ],
    )
    def test_loading_rejects_what_an_interval_rejects(self, field, value, error):
        # JSON carries NaN and infinities, so a stored profile can hold them.
        data = _profile(num_intervals=3).to_dict()
        data["intervals"][1][field] = value
        with pytest.raises(ProfileError, match=error):
            SingleCoreProfile.from_dict(json.loads(json.dumps(data)))

    def test_reduced_associativity_profile(self):
        columns = _columns(num_intervals=3, memory_cpi=0.3)
        columns["sdc"] = [np.array([20.0, 10.0, 5.0, 5.0, 10.0])] * 3  # 4-way SDC
        profile = SingleCoreProfile("unit", "k", "m", 1_000, 4, **columns)
        reduced = profile.reduced_associativity(2)
        assert reduced.llc_associativity == 2
        # Fewer ways -> more misses -> higher CPI and memory CPI.
        assert reduced.cpi > profile.cpi
        assert reduced.memory_cpi > profile.memory_cpi
        assert reduced.total_llc_misses > profile.total_llc_misses
        assert "derived" in reduced.machine_name
        # The full associativity is a fold that adds no miss.
        same = profile.reduced_associativity(4)
        for name in ("instructions", "llc_accesses", "llc_misses", "sdc"):
            np.testing.assert_array_equal(same.columns[name], profile.columns[name])
        for ways in (0, 5):
            with pytest.raises(ProfileError, match=r"ways must be in \[1, 4\]"):
                profile.reduced_associativity(ways)
