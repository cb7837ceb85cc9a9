"""Unit and property tests for the single-core profile data model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.stack_distance import StackDistanceCounters
from repro.profiling.profile import IntervalProfile, ProfileError, SingleCoreProfile


def _interval(index, instructions=1_000, cpi=1.0, memory_cpi=0.2, accesses=50.0, misses=10.0, assoc=4):
    counts = np.zeros(assoc + 1)
    counts[0] = max(accesses - misses, 0.0)
    counts[assoc] = misses
    return IntervalProfile(
        index=index,
        instructions=instructions,
        cpi=cpi,
        memory_cpi=memory_cpi,
        llc_accesses=accesses,
        llc_misses=misses,
        sdc=StackDistanceCounters(associativity=assoc, counts=counts),
    )


def _profile(num_intervals=5, **interval_kwargs):
    intervals = [_interval(i, **interval_kwargs) for i in range(num_intervals)]
    return SingleCoreProfile(
        benchmark="unit",
        machine_key="machine-key",
        machine_name="test machine",
        interval_instructions=1_000,
        intervals=intervals,
        llc_associativity=4,
    )


class TestIntervalProfile:
    def test_derived_quantities(self):
        interval = _interval(0, instructions=2_000, cpi=1.5, memory_cpi=0.5)
        assert interval.cycles == pytest.approx(3_000.0)
        assert interval.memory_cycles == pytest.approx(1_000.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(instructions=0),
            dict(cpi=0.0),
            dict(memory_cpi=-0.1),
            dict(memory_cpi=2.0, cpi=1.0),
            dict(misses=60.0, accesses=50.0),
        ],
    )
    def test_invalid_intervals_rejected(self, kwargs):
        with pytest.raises(ProfileError):
            _interval(0, **kwargs)


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
        assert profile.total_sdc().total_accesses == pytest.approx(500.0)
        assert "unit" in profile.describe()

    def test_validation_of_interval_sequence(self):
        intervals = [_interval(0), _interval(2)]
        with pytest.raises(ProfileError):
            SingleCoreProfile(
                benchmark="bad",
                machine_key="k",
                machine_name="m",
                interval_instructions=1_000,
                intervals=intervals,
                llc_associativity=4,
            )
        with pytest.raises(ProfileError):
            SingleCoreProfile(
                benchmark="bad",
                machine_key="k",
                machine_name="m",
                interval_instructions=1_000,
                intervals=[],
                llc_associativity=4,
            )
        with pytest.raises(ProfileError):
            SingleCoreProfile(
                benchmark="bad",
                machine_key="k",
                machine_name="m",
                interval_instructions=1_000,
                intervals=[_interval(0, assoc=8)],
                llc_associativity=4,
            )

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
        for original, loaded in zip(profile.intervals, restored.intervals):
            assert loaded.sdc == original.sdc

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("instructions", 0, "interval 1: instructions"),
            ("cpi", 0.0, "interval 1: CPI"),
            ("memory_cpi", -0.1, "interval 1: memory CPI"),
            ("memory_cpi", 2.0, "interval 1: memory CPI"),
            ("llc_misses", 60.0, "interval 1: inconsistent"),
            ("sdc", [-1.0, 0.0, 0.0, 0.0, 1.0], "non-negative"),
        ],
    )
    def test_loading_rejects_what_an_interval_rejects(self, field, value, error):
        # Loading checks whole columns at once, then lets the first bad
        # interval raise its own error.
        data = _profile(num_intervals=3).to_dict()
        data["intervals"][1][field] = value
        with pytest.raises(ValueError, match=error):
            SingleCoreProfile.from_dict(data)

    def test_reduced_associativity_profile(self):
        intervals = []
        for i in range(3):
            counts = np.array([20.0, 10.0, 5.0, 5.0, 10.0])  # 4-way SDC
            intervals.append(
                IntervalProfile(
                    index=i,
                    instructions=1_000,
                    cpi=1.0,
                    memory_cpi=0.3,
                    llc_accesses=50.0,
                    llc_misses=10.0,
                    sdc=StackDistanceCounters(associativity=4, counts=counts),
                )
            )
        profile = SingleCoreProfile(
            benchmark="unit",
            machine_key="k",
            machine_name="m",
            interval_instructions=1_000,
            intervals=intervals,
            llc_associativity=4,
        )
        reduced = profile.reduced_associativity(2)
        assert reduced.llc_associativity == 2
        # Fewer ways -> more misses -> higher CPI and memory CPI.
        assert reduced.cpi > profile.cpi
        assert reduced.memory_cpi > profile.memory_cpi
        assert reduced.total_llc_misses > profile.total_llc_misses
        assert "derived" in reduced.machine_name
