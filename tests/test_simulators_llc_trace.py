"""Unit tests for the LLC access trace type and its JSON codec."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.engine.cache import deserialize_result, serialize_result
from repro.profiling.profiler import ProfiledBenchmark
from repro.simulators.llc_trace import (
    LLCAccessTrace,
    LLCStream,
    LLCTraceError,
    decode_array,
    encode_array,
)
from repro.workloads import make_workload
from repro.workloads.benchmark import BenchmarkSpec


def _trace(num_accesses=10, num_instructions=1_000, **overrides):
    kwargs = dict(
        spec=BenchmarkSpec(name="llc-test"),
        num_instructions=num_instructions,
        line=np.arange(num_accesses, dtype=np.int64),
        insn=np.linspace(0, num_instructions - 1, num_accesses).astype(np.int64),
        upstream_cycle_gap=np.full(num_accesses, 5.0),
        tail_cycles=10.0,
        isolated_cycles=2_000.0,
    )
    kwargs.update(overrides)
    return LLCAccessTrace(**kwargs)


class TestLLCAccessTrace:
    def test_derived_quantities(self):
        trace = _trace(num_accesses=20, num_instructions=2_000)
        assert trace.name == "llc-test"
        assert trace.num_llc_accesses == 20
        assert trace.llc_accesses_per_kilo_instruction == pytest.approx(10.0)
        assert trace.isolated_cpi == pytest.approx(1.0)
        assert trace.total_upstream_cycles == pytest.approx(20 * 5.0 + 10.0)
        assert "llc-test" in trace.describe()

    def test_array_lengths_must_match(self):
        with pytest.raises(LLCTraceError):
            _trace(line=np.arange(5, dtype=np.int64))

    def test_empty_trace_is_rejected(self):
        with pytest.raises(LLCTraceError):
            _trace(
                num_accesses=0,
                line=np.array([], dtype=np.int64),
                insn=np.array([], dtype=np.int64),
                upstream_cycle_gap=np.array([], dtype=np.float64),
            )

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(num_instructions=0), "num_instructions"),
            (dict(tail_cycles=-1.0), "tail_cycles must be non-negative"),
            (dict(isolated_cycles=0.0), "isolated_cycles must be positive"),
            (dict(isolated_cycles=-3.0), "isolated_cycles must be positive"),
        ],
    )
    def test_invalid_scalars_rejected_with_precise_message(self, overrides, message):
        with pytest.raises(LLCTraceError, match=message):
            _trace(**overrides)

    def test_zero_tail_cycles_is_legal(self):
        trace = _trace(tail_cycles=0.0)
        assert trace.tail_cycles == 0.0

    def test_real_traces_from_the_store_are_consistent(self, store, tiny_suite, machine4):
        for name in ("gamess", "hmmer"):
            trace = store.get_llc_trace(tiny_suite[name], machine4)
            profile = store.get_profile(tiny_suite[name], machine4)
            assert trace.num_instructions == profile.num_instructions
            assert trace.isolated_cpi == pytest.approx(profile.cpi)
            assert trace.num_llc_accesses == pytest.approx(profile.total_llc_accesses)


# ---------------------------------------------------------------------------
# JSON codec: bit-exact round trips
# ---------------------------------------------------------------------------

#: Benchmarks of every built-in workload family (phased, random, service).
CODEC_SPECS = [
    spec
    for family in ("suite:spec29", "random:n=3,seed=2", "service:n=3,seed=1")
    for spec in make_workload(family).suite()
]

_lengths = st.integers(min_value=1, max_value=64)
_any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@st.composite
def traces(draw):
    n = draw(_lengths)
    return LLCAccessTrace(
        spec=draw(st.sampled_from(CODEC_SPECS)),
        num_instructions=draw(st.integers(min_value=1, max_value=2**62)),
        line=draw(hnp.arrays(np.int64, n)),
        insn=draw(hnp.arrays(np.int64, n)),
        upstream_cycle_gap=draw(hnp.arrays(np.float64, n, elements=_any_float)),
        tail_cycles=draw(st.floats(min_value=0.0, allow_infinity=False, allow_subnormal=True)),
        isolated_cycles=draw(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_subnormal=True)
        ),
    )


def _through_json(data):
    return json.loads(json.dumps(data))


def assert_bit_identical(a, b):
    assert a.spec == b.spec and repr(a.spec) == repr(b.spec)
    assert a.num_instructions == b.num_instructions
    for name in ("line", "insn", "upstream_cycle_gap"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype
        assert left.tobytes() == right.tobytes()
    for name in ("tail_cycles", "isolated_cycles"):
        assert np.float64(getattr(a, name)).tobytes() == np.float64(getattr(b, name)).tobytes()


class TestTraceCodec:
    @settings(max_examples=150, deadline=None)
    @given(hnp.arrays(hnp.scalar_dtypes(), _lengths))
    def test_arrays_round_trip_bit_for_bit(self, array):
        decoded = decode_array(_through_json(encode_array(array)))
        assert decoded.dtype == array.dtype
        assert decoded.tobytes() == array.tobytes()
        assert not decoded.flags.writeable

    @settings(max_examples=150, deadline=None)
    @given(traces())
    def test_trace_round_trips_bit_for_bit(self, trace):
        assert_bit_identical(LLCAccessTrace.from_dict(_through_json(trace.to_dict())), trace)

    @settings(max_examples=100, deadline=None)
    @given(traces(), st.dictionaries(st.text(min_size=1), st.floats(min_value=1e-300, max_value=1e300)))
    def test_stream_round_trips_every_llc_bit_for_bit(self, trace, others):
        cycles = {**others, "mine": trace.isolated_cycles}
        envelope = _through_json(serialize_result(LLCStream.of(trace, cycles)))
        assert envelope["type"] == "LLCStream"
        stream = deserialize_result(envelope)
        assert_bit_identical(stream.trace("mine"), trace)
        assert stream.isolated_cycles == cycles

    def test_profile_bundles_travel_as_registry_envelopes(self, store, tiny_suite, machine4):
        bundle = store.get(tiny_suite["mcf"], machine4)
        envelope = _through_json(serialize_result(bundle))
        assert envelope["type"] == "ProfiledBenchmark"
        decoded = deserialize_result(envelope)
        assert isinstance(decoded, ProfiledBenchmark)
        assert decoded.profile.to_dict() == bundle.profile.to_dict()
        assert_bit_identical(decoded.llc_trace, bundle.llc_trace)
