"""Unit tests for the SPEC CPU2006-like benchmark suite."""

import pytest

from repro.workloads import BenchmarkClass, classify_suite, small_suite, spec_cpu2006_like_suite
from repro.workloads.benchmark import WorkloadError
from repro.workloads.suite import BenchmarkSuite


class TestFullSuite:
    def test_suite_has_29_benchmarks_with_unique_names(self, full_suite):
        assert len(full_suite) == 29
        assert len(set(full_suite.names)) == 29

    def test_paper_benchmarks_are_present(self, full_suite):
        # Benchmarks the paper calls out by name in Figures 6 and Section 6.
        for name in ("gamess", "hmmer", "soplex", "gobmk", "omnetpp", "h264ref", "xalancbmk"):
            assert name in full_suite

    def test_lookup_by_name(self, full_suite):
        gamess = full_suite["gamess"]
        assert gamess.name == "gamess"
        with pytest.raises(KeyError):
            full_suite["not_a_benchmark"]

    def test_gamess_is_designed_to_be_llc_sensitive(self, full_suite):
        gamess = full_suite["gamess"]
        # Deep temporal reuse close to (but inside) the scaled shared L3 of
        # config #1 (512 lines), little streaming, no MLP to hide misses.
        assert 256 <= gamess.reuse.buckets[-1][0] <= 512
        assert gamess.mlp <= 1.5
        assert gamess.reuse.new_probability < 0.01

    def test_suite_contains_phased_benchmarks(self, full_suite):
        phased = [spec.name for spec in full_suite if spec.num_phases > 1]
        assert len(phased) >= 4

    def test_suite_covers_all_workload_classes(self, full_suite):
        classes = set(classify_suite(full_suite).values())
        assert classes == {BenchmarkClass.MEM, BenchmarkClass.COMP, BenchmarkClass.MIX}

    def test_subset_preserves_order_and_content(self, full_suite):
        subset = full_suite.subset(["soplex", "gamess"])
        assert subset.names == ["soplex", "gamess"]
        assert subset["gamess"] == full_suite["gamess"]

    def test_describe(self, full_suite):
        text = full_suite.describe()
        assert "gamess" in text and "lbm" in text

    def test_contains_operator(self, full_suite):
        assert "mcf" in full_suite
        assert "quake" not in full_suite

    def test_duplicate_specs_rejected_at_construction(self, full_suite):
        gamess = full_suite["gamess"]
        with pytest.raises(WorkloadError):
            BenchmarkSuite(specs=(gamess, gamess))


class TestSmallSuite:
    def test_small_suite_size_and_membership(self):
        suite = small_suite(6)
        assert len(suite) == 6
        assert "gamess" in suite and "hmmer" in suite

    def test_small_suite_larger_than_preferred_list_falls_back_to_full(self):
        suite = small_suite(25)
        assert len(suite) == 25
        assert len(set(suite.names)) == 25

    def test_small_suite_rejects_non_positive_size(self):
        with pytest.raises(WorkloadError):
            small_suite(0)

    def test_small_suite_keeps_behavioural_diversity(self):
        suite = small_suite(8)
        classes = set(classify_suite(suite).values())
        assert len(classes) >= 2
