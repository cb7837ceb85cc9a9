"""Unit and property tests for benchmark specifications."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.benchmark import (
    BenchmarkSpec,
    PhaseSpec,
    ReuseProfile,
    WorkloadError,
    validate_suite,
)


class TestReuseProfile:
    def test_probabilities_are_normalised_and_ordered(self):
        profile = ReuseProfile(buckets=((16, 0.6), (128, 0.3)), new_weight=0.1)
        triples = profile.probabilities()
        assert triples[0][:2] == (0, 16)
        assert triples[1][:2] == (16, 128)
        total = sum(probability for _, _, probability in triples) + profile.new_probability
        assert total == pytest.approx(1.0)
        assert profile.new_probability == pytest.approx(0.1)

    def test_weights_do_not_need_to_be_normalised(self):
        profile = ReuseProfile(buckets=((8, 3.0), (64, 1.0)), new_weight=0.0)
        triples = profile.probabilities()
        assert triples[0][2] == pytest.approx(0.75)
        assert triples[1][2] == pytest.approx(0.25)

    def test_streaming_only_profile(self):
        profile = ReuseProfile(buckets=(), new_weight=1.0)
        assert profile.probabilities() == ()
        assert profile.new_probability == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "buckets, new_weight",
        [
            ((), 0.0),  # no mass at all
            (((16, 0.5), (8, 0.5)), 0.0),  # non-increasing depths
            (((16, -0.1),), 0.0),  # negative weight
            (((16, 0.5),), -0.1),  # negative new-line weight
        ],
    )
    def test_invalid_profiles_rejected(self, buckets, new_weight):
        with pytest.raises(WorkloadError):
            ReuseProfile(buckets=buckets, new_weight=new_weight)

    def test_scaled_depths_stay_strictly_increasing(self):
        profile = ReuseProfile(buckets=((4, 0.5), (5, 0.3), (6, 0.2)))
        squeezed = profile.scaled(depth_scale=0.1)
        depths = [depth for depth, _ in squeezed.buckets]
        assert depths == sorted(set(depths))
        assert all(depth >= 1 for depth in depths)

    @given(scale=st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=30, deadline=None)
    def test_scaled_preserves_total_weight_distribution(self, scale):
        profile = ReuseProfile(buckets=((8, 0.5), (64, 0.3), (512, 0.1)), new_weight=0.1)
        rescaled = profile.scaled(depth_scale=scale, new_scale=1.0)
        assert rescaled.new_probability == pytest.approx(profile.new_probability)
        assert len(rescaled.buckets) == len(profile.buckets)


class TestPhaseSpec:
    def test_defaults_are_neutral(self):
        phase = PhaseSpec(fraction=1.0)
        assert phase.cpi_multiplier == 1.0
        assert phase.mem_fraction_multiplier == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(fraction=0.0),
            dict(fraction=1.5),
            dict(fraction=0.5, cpi_multiplier=0.0),
            dict(fraction=0.5, mem_fraction_multiplier=-1.0),
            dict(fraction=0.5, reuse_depth_multiplier=0.0),
            dict(fraction=0.5, new_line_multiplier=-0.1),
        ],
    )
    def test_invalid_phases_rejected(self, kwargs):
        with pytest.raises(WorkloadError):
            PhaseSpec(**kwargs)


class TestBenchmarkSpec:
    def test_default_spec_is_valid(self):
        spec = BenchmarkSpec(name="example")
        assert spec.num_phases == 1

    def test_phase_fractions_must_sum_to_one(self):
        with pytest.raises(WorkloadError):
            BenchmarkSpec(
                name="bad",
                phases=(PhaseSpec(fraction=0.5), PhaseSpec(fraction=0.3)),
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name=""),
            dict(name="x", base_cpi=0.0),
            dict(name="x", mem_ref_fraction=0.0),
            dict(name="x", mem_ref_fraction=1.0),
            dict(name="x", working_set_lines=0),
            dict(name="x", mlp=0.0),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(WorkloadError):
            BenchmarkSpec(**kwargs)

    def test_phase_boundaries_cover_whole_trace(self):
        spec = BenchmarkSpec(
            name="phased",
            phases=(PhaseSpec(fraction=0.4), PhaseSpec(fraction=0.35), PhaseSpec(fraction=0.25)),
        )
        boundaries = spec.phase_boundaries(10_000)
        assert len(boundaries) == 3
        assert boundaries[-1] == 10_000
        assert list(boundaries) == sorted(boundaries)

    @given(num_instructions=st.integers(min_value=100, max_value=1_000_000))
    @settings(max_examples=30, deadline=None)
    def test_phase_boundaries_always_end_at_trace_length(self, num_instructions):
        spec = BenchmarkSpec(
            name="phased",
            phases=(PhaseSpec(fraction=1 / 3), PhaseSpec(fraction=1 / 3), PhaseSpec(fraction=1 / 3)),
        )
        boundaries = spec.phase_boundaries(num_instructions)
        assert boundaries[-1] == num_instructions

    def test_describe_mentions_name_and_phases(self):
        spec = BenchmarkSpec(name="sample")
        assert "sample" in spec.describe()
        assert "1 phase" in spec.describe()

    def test_spec_is_hashable(self):
        spec = BenchmarkSpec(name="hashme")
        assert hash(spec) == hash(BenchmarkSpec(name="hashme"))


class TestValidateSuite:
    def test_duplicate_names_rejected(self):
        specs = [BenchmarkSpec(name="dup"), BenchmarkSpec(name="dup", seed=1)]
        with pytest.raises(WorkloadError):
            validate_suite(specs)

    def test_unique_names_accepted(self):
        validate_suite([BenchmarkSpec(name="a"), BenchmarkSpec(name="b")])
