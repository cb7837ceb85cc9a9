"""Unit and property tests for the synthetic trace generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.benchmark import BenchmarkSpec, PhaseSpec, ReuseProfile, WorkloadError
from repro.workloads.generator import TraceGenerator
from repro.workloads.trace import MemoryTrace


def _small_spec(**overrides) -> BenchmarkSpec:
    defaults = dict(
        name="unit-test",
        base_cpi=0.5,
        mem_ref_fraction=0.3,
        reuse=ReuseProfile(buckets=((8, 0.6), (64, 0.3)), new_weight=0.1),
        working_set_lines=256,
        mlp=2.0,
        seed=7,
    )
    defaults.update(overrides)
    return BenchmarkSpec(**defaults)


def generate_trace(spec: BenchmarkSpec, num_instructions: int, seed: int = 0) -> MemoryTrace:
    return TraceGenerator(num_instructions=num_instructions, seed=seed).generate(spec)


class TestTraceGenerator:
    def test_trace_has_expected_shape(self):
        trace = generate_trace(_small_spec(), num_instructions=20_000, seed=0)
        assert isinstance(trace, MemoryTrace)
        assert trace.num_instructions == 20_000
        # Access count tracks the memory-reference fraction closely.
        assert trace.num_accesses == pytest.approx(20_000 * 0.3, rel=0.05)
        # Instruction indices are non-decreasing and in range.
        assert (np.diff(trace.access_insn) >= 0).all()
        assert trace.access_insn[0] >= 0
        assert trace.access_insn[-1] < 20_000

    def test_generation_is_deterministic(self):
        spec = _small_spec()
        first = generate_trace(spec, num_instructions=10_000, seed=3)
        second = generate_trace(spec, num_instructions=10_000, seed=3)
        assert np.array_equal(first.access_line, second.access_line)
        assert np.array_equal(first.access_insn, second.access_insn)
        assert np.allclose(first.base_cycle_gap, second.base_cycle_gap)

    def test_different_seeds_produce_different_traces(self):
        spec = _small_spec()
        first = generate_trace(spec, num_instructions=10_000, seed=1)
        second = generate_trace(spec, num_instructions=10_000, seed=2)
        assert not np.array_equal(first.access_line, second.access_line)

    def test_footprint_respects_working_set(self):
        spec = _small_spec(working_set_lines=100, reuse=ReuseProfile(buckets=((8, 0.2),), new_weight=0.8))
        trace = generate_trace(spec, num_instructions=20_000)
        assert trace.footprint_lines <= 100

    def test_footprint_is_memoized_on_the_frozen_trace(self):
        spec = _small_spec()
        trace = generate_trace(spec, num_instructions=10_000)
        assert "footprint_lines" not in trace.__dict__
        first = trace.footprint_lines
        # cached_property writes through to __dict__ despite the frozen
        # dataclass, so the unique() pass runs only once.
        assert trace.__dict__["footprint_lines"] == first
        assert trace.footprint_lines == first

    def test_streaming_spec_touches_many_lines(self):
        streaming = _small_spec(
            name="streamy",
            reuse=ReuseProfile(buckets=((8, 0.2),), new_weight=0.8),
            working_set_lines=50_000,
        )
        friendly = _small_spec(name="friendly")
        streaming_trace = generate_trace(streaming, num_instructions=20_000)
        friendly_trace = generate_trace(friendly, num_instructions=20_000)
        assert streaming_trace.footprint_lines > 3 * friendly_trace.footprint_lines

    def test_benchmarks_use_disjoint_address_spaces(self, full_suite, generator):
        gamess = generator.generate(full_suite["gamess"])
        hmmer = generator.generate(full_suite["hmmer"])
        assert set(np.unique(gamess.access_line)).isdisjoint(set(np.unique(hmmer.access_line)))

    def test_base_cycle_gaps_match_base_cpi(self):
        spec = _small_spec(base_cpi=0.8)
        trace = generate_trace(spec, num_instructions=10_000)
        # Total base cycles equal base CPI x instructions (single phase).
        total = float(trace.base_cycle_gap.sum()) + trace.tail_base_cycles
        assert total == pytest.approx(0.8 * 10_000, rel=0.01)

    def test_phases_change_memory_intensity(self):
        phased = _small_spec(
            name="phased",
            phases=(
                PhaseSpec(fraction=0.5, mem_fraction_multiplier=0.5),
                PhaseSpec(fraction=0.5, mem_fraction_multiplier=2.0),
            ),
        )
        trace = generate_trace(phased, num_instructions=20_000)
        midpoint = 10_000
        first_half = int((trace.access_insn < midpoint).sum())
        second_half = trace.num_accesses - first_half
        assert second_half > 2 * first_half

    def test_invalid_num_instructions_rejected(self):
        with pytest.raises(WorkloadError):
            TraceGenerator(num_instructions=0)

    @given(
        mem_fraction=st.floats(min_value=0.05, max_value=0.6),
        new_weight=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=15, deadline=None)
    def test_generated_traces_are_always_consistent(self, mem_fraction, new_weight):
        spec = _small_spec(
            mem_ref_fraction=mem_fraction,
            reuse=ReuseProfile(buckets=((8, 0.5), (64, 0.3)), new_weight=new_weight),
        )
        trace = generate_trace(spec, num_instructions=5_000)
        # MemoryTrace validates array lengths; check the semantic invariants.
        assert trace.num_accesses >= 1
        assert trace.access_insn.max() < trace.num_instructions
        assert (trace.base_cycle_gap >= 0).all()
        assert trace.tail_base_cycles >= 0
        assert trace.footprint_lines <= spec.working_set_lines


def _assert_traces_identical(vectorized: MemoryTrace, reference: MemoryTrace) -> None:
    assert np.array_equal(vectorized.access_insn, reference.access_insn)
    assert np.array_equal(vectorized.access_line, reference.access_line)
    assert np.array_equal(vectorized.base_cycle_gap, reference.base_cycle_gap)
    assert vectorized.access_line.dtype == reference.access_line.dtype
    assert vectorized.base_cycle_gap.dtype == reference.base_cycle_gap.dtype
    assert vectorized.tail_base_cycles == reference.tail_base_cycles
    assert vectorized.num_instructions == reference.num_instructions


#: The equivalence matrix: every row is a (label, spec, num_instructions)
#: corner the vectorized kernel must reproduce bit-for-bit.
EQUIVALENCE_CASES = [
    (
        "phased",
        _small_spec(
            name="phased",
            phases=(
                PhaseSpec(fraction=0.3, mem_fraction_multiplier=0.5),
                PhaseSpec(fraction=0.4, reuse_depth_multiplier=1.8, cpi_multiplier=1.3),
                PhaseSpec(fraction=0.3, new_line_multiplier=3.0, mem_fraction_multiplier=1.5),
            ),
        ),
        20_000,
    ),
    (
        "streaming",
        _small_spec(
            name="streaming",
            reuse=ReuseProfile(buckets=((8, 0.3),), new_weight=0.7),
            working_set_lines=50_000,
        ),
        20_000,
    ),
    (
        "wrap-around",
        _small_spec(
            name="wrappy",
            reuse=ReuseProfile(buckets=((8, 0.3), (64, 0.1)), new_weight=0.6),
            working_set_lines=48,
        ),
        20_000,
    ),
    (
        "deep-reuse-beyond-footprint",
        _small_spec(
            name="deep",
            reuse=ReuseProfile(buckets=((2048, 0.6),), new_weight=0.05),
            working_set_lines=128,
        ),
        10_000,
    ),
    (
        "streaming-only-no-buckets",
        _small_spec(name="cold", reuse=ReuseProfile(buckets=(), new_weight=1.0)),
        5_000,
    ),
    ("shorter-than-interval", _small_spec(name="tiny"), 17),
    (
        "tiny-trace-many-phases",
        _small_spec(
            name="tiny-phased",
            phases=(
                PhaseSpec(fraction=0.4),
                PhaseSpec(fraction=0.3, mem_fraction_multiplier=2.0),
                PhaseSpec(fraction=0.3),
            ),
        ),
        7,
    ),
]


class TestKernelEquivalence:
    """``generate`` is bit-identical to ``generate_reference``."""

    @pytest.mark.parametrize(
        "spec,num_instructions",
        [case[1:] for case in EQUIVALENCE_CASES],
        ids=[case[0] for case in EQUIVALENCE_CASES],
    )
    def test_equivalence_matrix(self, spec, num_instructions):
        generator = TraceGenerator(num_instructions=num_instructions, seed=0)
        _assert_traces_identical(
            generator.generate(spec),
            generator.generate_reference(spec),
        )

    def test_suite_benchmarks_are_identical_across_kernels(self, full_suite, generator):
        for name in ("gamess", "lbm", "mcf", "gcc", "cactusADM"):
            spec = full_suite[name]
            _assert_traces_identical(
                generator.generate(spec),
                generator.generate_reference(spec),
            )

    @given(
        mem_fraction=st.floats(min_value=0.05, max_value=0.6),
        new_weight=st.floats(min_value=0.0, max_value=0.8),
        working_set=st.integers(min_value=16, max_value=2_000),
        deep_depth=st.integers(min_value=65, max_value=4_096),
        num_instructions=st.integers(min_value=5, max_value=8_000),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_randomized_equivalence(
        self, mem_fraction, new_weight, working_set, deep_depth, num_instructions, seed
    ):
        spec = _small_spec(
            name="prop",
            mem_ref_fraction=mem_fraction,
            reuse=ReuseProfile(
                buckets=((8, 0.5), (64, 0.3), (deep_depth, 0.1)), new_weight=new_weight
            ),
            working_set_lines=working_set,
        )
        generator = TraceGenerator(num_instructions=num_instructions, seed=seed)
        _assert_traces_identical(
            generator.generate(spec),
            generator.generate_reference(spec),
        )


class TestIntervalSlices:
    def test_slices_cover_all_accesses_exactly_once(self):
        trace = generate_trace(_small_spec(), num_instructions=20_000)
        slices = trace.interval_slices(1_000)
        assert len(slices) == 20
        assert slices[0][0] == 0
        assert slices[-1][1] == trace.num_accesses
        for (_, stop), (start, _) in zip(slices, slices[1:]):
            assert stop == start

    def test_interval_length_must_be_positive(self):
        trace = generate_trace(_small_spec(), num_instructions=5_000)
        with pytest.raises(WorkloadError):
            trace.interval_slices(0)

    def test_describe_contains_key_numbers(self):
        trace = generate_trace(_small_spec(), num_instructions=5_000)
        text = trace.describe()
        assert "unit-test" in text
        assert "5000 instructions" in text
