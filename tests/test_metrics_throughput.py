"""Unit and property tests for STP, ANTT and prediction-error metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    absolute_relative_error,
    antt,
    stp,
)
from repro.metrics.errors import ErrorMetricError
from repro.metrics.throughput import MetricError


class TestSTPAndANTT:
    def test_known_values(self):
        single = [1.0, 2.0]
        multi = [2.0, 2.0]
        # Program 1: progress 0.5, slowdown 2; program 2: progress 1, slowdown 1.
        assert stp(single, multi) == pytest.approx(1.5)
        assert antt(single, multi) == pytest.approx(1.5)

    def test_no_contention_gives_ideal_metrics(self):
        single = [0.8, 1.2, 2.0]
        assert stp(single, single) == pytest.approx(3.0)
        assert antt(single, single) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(MetricError):
            stp([1.0], [1.0, 2.0])
        with pytest.raises(MetricError):
            antt([], [])
        with pytest.raises(MetricError):
            stp([1.0, -1.0], [1.0, 1.0])

    @given(
        single=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=8),
        factors=st.lists(st.floats(min_value=1.0, max_value=5.0), min_size=1, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_bounds_hold_for_any_slowdowns(self, single, factors):
        n = min(len(single), len(factors))
        single = single[:n]
        multi = [cpi * factor for cpi, factor in zip(single, factors[:n])]
        # Slowdowns >= 1 imply: 0 < STP <= n and ANTT >= 1.
        assert 0 < stp(single, multi) <= n + 1e-9
        assert antt(single, multi) >= 1.0 - 1e-9

    @given(single=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_stp_and_antt_are_reciprocal_for_uniform_slowdown(self, single):
        multi = [cpi * 2.0 for cpi in single]
        assert stp(single, multi) == pytest.approx(len(single) / 2.0)
        assert antt(single, multi) == pytest.approx(2.0)


class TestErrorMetrics:
    def test_absolute_relative_error(self):
        assert absolute_relative_error(1.1, 1.0) == pytest.approx(0.1)
        assert absolute_relative_error(0.9, 1.0) == pytest.approx(0.1)
        with pytest.raises(ErrorMetricError):
            absolute_relative_error(1.0, 0.0)
