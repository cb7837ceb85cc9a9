"""Unit and property tests for workload-mix counting, enumeration and sampling."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    BenchmarkClass,
    WorkloadMix,
    count_mixes,
    enumerate_mixes,
    sample_category_mixes,
    sample_mixes,
)
from repro.workloads.benchmark import WorkloadError


class TestWorkloadMix:
    def test_programs_are_canonically_sorted(self):
        mix = WorkloadMix(programs=("soplex", "gamess", "hmmer"))
        assert mix.programs == ("gamess", "hmmer", "soplex")
        assert mix == WorkloadMix(programs=("hmmer", "soplex", "gamess"))

    def test_counts_and_label_for_duplicates(self):
        mix = WorkloadMix(programs=("gamess", "gamess", "hmmer", "soplex"))
        assert mix.counts() == {"gamess": 2, "hmmer": 1, "soplex": 1}
        assert mix.label() == "2x gamess + hmmer + soplex"
        assert mix.num_programs == 4

    def test_empty_mix_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadMix(programs=())

    def test_mixes_are_hashable_and_usable_in_sets(self):
        a = WorkloadMix(programs=("a", "b"))
        b = WorkloadMix(programs=("b", "a"))
        assert len({a, b}) == 1


class TestCounting:
    @pytest.mark.parametrize(
        "benchmarks, programs, expected",
        [
            (29, 2, 435),
            (29, 4, 35_960),
            (29, 8, 30_260_340),
            (3, 2, 6),
            (1, 5, 1),
        ],
    )
    def test_paper_counts(self, benchmarks, programs, expected):
        assert count_mixes(benchmarks, programs) == expected

    def test_count_rejects_non_positive_inputs(self):
        with pytest.raises(WorkloadError):
            count_mixes(0, 2)
        with pytest.raises(WorkloadError):
            count_mixes(5, 0)

    @given(n=st.integers(min_value=1, max_value=7), m=st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_count_matches_enumeration(self, n, m):
        names = [f"b{i}" for i in range(n)]
        assert count_mixes(n, m) == sum(1 for _ in enumerate_mixes(names, m))

    def test_enumeration_yields_unique_canonical_mixes(self):
        mixes = list(enumerate_mixes(["a", "b", "c"], 2))
        assert len(mixes) == 6
        assert len({mix.programs for mix in mixes}) == 6


class TestSampling:
    def test_sampling_is_deterministic_per_seed(self):
        names = [f"b{i}" for i in range(10)]
        assert sample_mixes(names, 4, 20, seed=5) == sample_mixes(names, 4, 20, seed=5)
        assert sample_mixes(names, 4, 20, seed=5) != sample_mixes(names, 4, 20, seed=6)

    def test_unique_sampling_returns_distinct_mixes(self):
        names = [f"b{i}" for i in range(10)]
        mixes = sample_mixes(names, 4, 50, seed=1, unique=True)
        assert len(mixes) == 50
        assert len({mix.programs for mix in mixes}) == 50

    def test_sampling_whole_space_returns_every_mix(self):
        names = ["a", "b", "c"]
        mixes = sample_mixes(names, 2, 100, seed=0, unique=True)
        assert len(mixes) == count_mixes(3, 2)

    def test_non_unique_sampling_may_repeat(self):
        names = ["a", "b"]
        mixes = sample_mixes(names, 2, 30, seed=0, unique=False)
        assert len(mixes) == 30

    def test_sampling_rejects_bad_arguments(self):
        with pytest.raises(WorkloadError):
            sample_mixes([], 4, 5)
        with pytest.raises(WorkloadError):
            sample_mixes(["a"], 4, 0)

    @given(
        num_programs=st.integers(min_value=1, max_value=8),
        num_mixes=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=25, deadline=None)
    def test_sampled_mixes_only_use_known_benchmarks(self, num_programs, num_mixes):
        names = [f"b{i}" for i in range(12)]
        mixes = sample_mixes(names, num_programs, num_mixes, seed=3)
        for mix in mixes:
            assert mix.num_programs == num_programs
            assert set(mix.programs) <= set(names)


class TestCategorySampling:
    @pytest.fixture()
    def classification(self):
        return {
            "mem1": BenchmarkClass.MEM,
            "mem2": BenchmarkClass.MEM,
            "comp1": BenchmarkClass.COMP,
            "comp2": BenchmarkClass.COMP,
            "mix1": BenchmarkClass.MIX,
        }

    def test_category_mixes_respect_their_category(self, classification):
        mixes = sample_category_mixes(classification, num_programs=4, mixes_per_category=3, seed=0)
        assert len(mixes) == 9
        mem_mixes = mixes[:3]
        comp_mixes = mixes[3:6]
        for mix in mem_mixes:
            assert set(mix.programs) <= {"mem1", "mem2"}
        for mix in comp_mixes:
            assert set(mix.programs) <= {"comp1", "comp2"}

    def test_mixed_category_combines_classes(self, classification):
        mixes = sample_category_mixes(
            classification,
            num_programs=4,
            mixes_per_category=5,
            seed=1,
            categories=[BenchmarkClass.MIX],
        )
        pooled = {name for mix in mixes for name in mix.programs}
        # The mixed category draws from both the MEM and the COMP side.
        assert pooled & {"mem1", "mem2", "mix1"}
        assert pooled & {"comp1", "comp2", "mix1"}

    def test_category_sampling_validates_arguments(self, classification):
        with pytest.raises(WorkloadError):
            sample_category_mixes(classification, num_programs=4, mixes_per_category=0)
        with pytest.raises(WorkloadError):
            sample_category_mixes(
                classification, num_programs=4, mixes_per_category=1, mixed_fraction_mem=1.5
            )

    def test_empty_category_pool_is_an_error(self):
        classification = {"comp1": BenchmarkClass.COMP}
        with pytest.raises(WorkloadError):
            sample_category_mixes(
                classification,
                num_programs=2,
                mixes_per_category=1,
                categories=[BenchmarkClass.MEM],
            )
