"""Unit and property tests for confidence intervals and rank statistics."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.metrics import statistics
from repro.metrics.statistics import (
    StatisticsError,
    confidence_interval,
    spearman_rank_correlation,
)


class TestConfidenceInterval:
    def test_interval_contains_the_sample_mean(self):
        samples = [3.0, 3.2, 3.4, 3.1, 3.3]
        interval = confidence_interval(samples)
        assert interval.lower <= interval.mean <= interval.upper
        assert interval.num_samples == 5
        assert interval.confidence == 0.95

    def test_more_samples_tighten_the_interval(self):
        rng = np.random.default_rng(0)
        population = rng.normal(loc=3.5, scale=0.4, size=200)
        small = confidence_interval(population[:10])
        large = confidence_interval(population)
        assert large.halfwidth < small.halfwidth
        assert large.halfwidth_pct_of_mean < small.halfwidth_pct_of_mean

    def test_zero_variance_gives_zero_width(self):
        interval = confidence_interval([2.0] * 10)
        assert interval.halfwidth == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(StatisticsError):
            confidence_interval([1.0])
        with pytest.raises(StatisticsError):
            confidence_interval([1.0, 2.0], confidence=1.5)

    @given(
        samples=st.lists(st.floats(min_value=1.0, max_value=10.0), min_size=3, max_size=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_interval_always_brackets_the_mean(self, samples):
        interval = confidence_interval(samples)
        assert interval.lower - 1e-9 <= np.mean(samples) <= interval.upper + 1e-9


@pytest.fixture()
def fresh_quantile_import():
    """Forget the cached SciPy quantile before and after the test."""
    statistics._load_stdtrit.cache_clear()
    yield
    statistics._load_stdtrit.cache_clear()


class TestStudentTQuantile:
    """SciPy is imported lazily, on the first interval, and only
    ``scipy.special``; the quantiles must still be ``scipy.stats``'s."""

    def test_critical_values_are_bit_identical_to_scipy_stats(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for confidence in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
            for dof in range(1, 201):
                expected = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, dof))
                assert statistics._critical_value(confidence, dof) == expected

    def test_without_scipy_the_interval_uses_the_normal_approximation(
        self, monkeypatch, fresh_quantile_import
    ):
        # A None entry makes `from scipy.special import ...` raise ImportError.
        monkeypatch.setitem(sys.modules, "scipy.special", None)
        samples = [3.0, 3.2, 3.4, 3.1, 3.3]
        interval = confidence_interval(samples)
        stderr = float(np.std(samples, ddof=1) / np.sqrt(len(samples)))
        normal = float(np.sqrt(2.0) * statistics._erfinv(0.95))
        assert statistics._load_stdtrit() is None
        assert normal == pytest.approx(1.96, abs=2e-3)
        assert interval.mean == pytest.approx(3.2)
        assert interval.halfwidth == pytest.approx(normal * stderr)

    def test_cli_startup_and_intervals_never_import_scipy_stats(self):
        pytest.importorskip("scipy.special")
        script = textwrap.dedent(
            """
            import sys
            import repro.cli
            repro.cli.build_parser()
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            assert not loaded, loaded
            from repro.metrics.statistics import confidence_interval
            confidence_interval([1.0, 2.0, 3.0])
            assert "scipy.special" in sys.modules
            assert "scipy.stats" not in sys.modules
            """
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr


class TestRanking:
    def test_spearman_known_cases(self):
        assert spearman_rank_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman_rank_correlation([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)
        # A single swapped pair lowers but does not destroy the correlation.
        partial = spearman_rank_correlation([1, 2, 3, 4], [10, 20, 40, 30])
        assert 0.5 < partial < 1.0

    def test_spearman_handles_ties(self):
        value = spearman_rank_correlation([1.0, 1.0, 2.0], [1.0, 1.0, 3.0])
        assert value == pytest.approx(1.0)

    def test_spearman_with_constant_series(self):
        assert spearman_rank_correlation([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert spearman_rank_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == pytest.approx(0.0)

    def test_spearman_validation(self):
        with pytest.raises(StatisticsError):
            spearman_rank_correlation([1.0], [1.0])
        with pytest.raises(StatisticsError):
            spearman_rank_correlation([1.0, 2.0], [1.0])

    def test_spearman_matches_scipy_when_available(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(3)
        first = list(rng.normal(size=30))
        second = list(rng.normal(size=30))
        ours = spearman_rank_correlation(first, second)
        theirs = scipy_stats.spearmanr(first, second).correlation
        assert ours == pytest.approx(theirs, abs=1e-9)

    @given(
        values=st.lists(
            st.floats(min_value=-100, max_value=100), min_size=2, max_size=20, unique=True
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_spearman_is_symmetric_and_bounded(self, values):
        other = list(reversed(values))
        forward = spearman_rank_correlation(values, other)
        backward = spearman_rank_correlation(other, values)
        assert forward == pytest.approx(backward)
        assert -1.0 - 1e-9 <= forward <= 1.0 + 1e-9
        assert spearman_rank_correlation(values, values) == pytest.approx(1.0)
