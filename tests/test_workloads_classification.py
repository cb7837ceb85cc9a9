"""Unit tests for MEM / COMP / MIX benchmark classification."""

import pytest

from repro.workloads import BenchmarkClass, classify_benchmark, classify_suite
from repro.workloads.benchmark import BenchmarkSpec, ReuseProfile
from repro.workloads.classification import (
    memory_intensity,
)


def _spec_with_reuse(buckets, new_weight, mem_ref_fraction=0.3, name="clf"):
    return BenchmarkSpec(
        name=name,
        mem_ref_fraction=mem_ref_fraction,
        reuse=ReuseProfile(buckets=buckets, new_weight=new_weight),
        working_set_lines=10_000,
    )


class TestMemoryIntensity:
    def test_cache_resident_spec_has_low_intensity(self):
        spec = _spec_with_reuse(((8, 0.7), (64, 0.3)), new_weight=0.0)
        assert memory_intensity(spec) == pytest.approx(0.0)

    def test_streaming_spec_has_high_intensity(self):
        spec = _spec_with_reuse(((8, 0.5),), new_weight=0.5)
        assert memory_intensity(spec) == pytest.approx(0.3 * 0.5)

    def test_straddling_bucket_counts_partially(self):
        # Bucket from 128 to 384 lines straddles the 256-line private boundary:
        # half its mass lies beyond it.
        spec = _spec_with_reuse(((128, 0.5), (384, 0.5)), new_weight=0.0)
        assert memory_intensity(spec, private_lines=256) == pytest.approx(0.3 * 0.5 * 0.5)

    def test_intensity_scales_with_memory_reference_rate(self):
        low = _spec_with_reuse(((8, 0.5),), new_weight=0.5, mem_ref_fraction=0.1)
        high = _spec_with_reuse(((8, 0.5),), new_weight=0.5, mem_ref_fraction=0.4)
        assert memory_intensity(high) == pytest.approx(4 * memory_intensity(low))


class TestClassification:
    def test_thresholds_split_into_three_classes(self):
        comp = _spec_with_reuse(((8, 1.0),), new_weight=0.0)
        mem = _spec_with_reuse(((8, 0.3),), new_weight=0.7)
        middle = _spec_with_reuse(((8, 0.95),), new_weight=0.02)
        assert classify_benchmark(comp) == BenchmarkClass.COMP
        assert classify_benchmark(mem) == BenchmarkClass.MEM
        assert classify_benchmark(middle) == BenchmarkClass.MIX

    def test_suite_classification_matches_roles(self, full_suite):
        classes = classify_suite(full_suite)
        assert classes["lbm"] == BenchmarkClass.MEM
        assert classes["libquantum"] == BenchmarkClass.MEM
        assert classes["hmmer"] == BenchmarkClass.COMP
        assert classes["povray"] == BenchmarkClass.COMP
