"""Equivalence matrix for the multi-core interleave and its reference.

The chunked walk of :meth:`MultiCoreSimulator.run` claims
*bit-identical* results to the per-access heap loop of
:meth:`MultiCoreSimulator.run_reference` — not approximately equal.
Frozen-dataclass equality on :class:`MultiCoreRunResult` compares every
cycle count, CPI input and counter exactly, so each case below asserts
plain ``==`` between the two on the situations where a speculative
merge-and-rollback walk could diverge: duplicated-program mixes, exact
ready-time ties, zero tails, traces shorter than (or exactly as long
as) one speculation window, whose windows run across the trace end, and
1/2/4/8-core machines.  A Hypothesis property test then shrinks the
window to a few accesses so that windows wrap several times per round
and land exactly on trace ends.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulators import multi_core
from repro.simulators.llc_trace import LLCAccessTrace
from repro.simulators.multi_core import MultiCoreSimulationError, MultiCoreSimulator
from repro.workloads.benchmark import BenchmarkSpec, ReuseProfile


def assert_all_identical(machine, traces):
    simulator = MultiCoreSimulator(machine)
    reference = simulator.run_reference(traces)
    assert simulator.run(traces) == reference, "the chunked walk diverged from the heap loop"
    return reference


def synthetic_trace(name, gaps, lines, tail_cycles=7.0, seed=1):
    """A hand-built LLC trace (the generator never emits 1-2 accesses)."""
    gaps = np.asarray(gaps, dtype=np.float64)
    lines = np.asarray(lines, dtype=np.int64)
    spec = BenchmarkSpec(
        name=name,
        base_cpi=0.5,
        mem_ref_fraction=0.3,
        reuse=ReuseProfile(buckets=((8, 0.5),), new_weight=0.1),
        working_set_lines=64,
        mlp=1.0,
        seed=seed,
    )
    return LLCAccessTrace(
        spec=spec,
        num_instructions=max(4 * len(lines), 8),
        line=lines,
        insn=np.arange(len(lines), dtype=np.int64),
        upstream_cycle_gap=gaps,
        tail_cycles=tail_cycles,
        isolated_cycles=float(gaps.sum()) + tail_cycles + 10.0 * len(lines),
    )


def _traces(store, suite, machine, names):
    return [store.get_llc_trace(suite[name], machine) for name in names]


class TestKernelEquivalenceMatrix:
    def test_four_core_heterogeneous_mix(self, store, tiny_suite, machine4):
        traces = _traces(store, tiny_suite, machine4, ["gamess", "mcf", "soplex", "lbm"])
        assert_all_identical(machine4, traces)

    def test_two_core_mix(self, store, tiny_suite, machine2):
        traces = _traces(store, tiny_suite, machine2, ["gamess", "soplex"])
        assert_all_identical(machine2, traces)

    def test_single_core_degenerates_to_isolated_run(self, store, tiny_suite, machine4):
        machine1 = machine4.with_num_cores(1)
        traces = _traces(store, tiny_suite, machine1, ["mcf"])
        result = assert_all_identical(machine1, traces)
        program = result.programs[0]
        assert program.cpi == pytest.approx(program.isolated_cpi, rel=1e-9)

    def test_duplicated_program_mix(self, store, tiny_suite, machine4):
        """Same benchmark on every core: identical gaps make ready-time
        ties the common case, so the core-index tie-break is exercised
        on every wave of accesses."""
        traces = _traces(store, tiny_suite, machine4, ["gamess"] * 4)
        result = assert_all_identical(machine4, traces)
        # The per-core address offset keeps the copies contending
        # rather than prefetching for each other.
        for program in result.programs:
            assert program.slowdown > 1.0

    def test_duplicated_pair_on_two_cores(self, store, tiny_suite, machine2):
        traces = _traces(store, tiny_suite, machine2, ["soplex", "soplex"])
        assert_all_identical(machine2, traces)

    def test_randomized_mixes(self, store, tiny_suite, machine4):
        """Random mixes with repetition across 1/2/4-core machines."""
        rng = np.random.default_rng(20260808)
        names = tiny_suite.names
        for _ in range(6):
            num_cores = int(rng.choice([1, 2, 4]))
            machine = machine4.with_num_cores(num_cores)
            mix = [names[i] for i in rng.integers(0, len(names), num_cores)]
            traces = _traces(store, tiny_suite, machine, mix)
            assert_all_identical(machine, traces)

    def test_exact_ready_time_ties_across_cores(self, machine2):
        """Hand-built traces with equal integer gaps: every access of
        core 0 ties core 1's to the cycle, so the interleaving is
        decided purely by the core-index tie-break."""
        gaps = [10.0] * 40
        lines = list(range(20)) * 2
        traces = [
            synthetic_trace("tie-a", gaps, lines, seed=11),
            synthetic_trace("tie-b", gaps, lines, seed=12),
        ]
        assert_all_identical(machine2, traces)

    def test_single_access_traces(self, machine2):
        """One LLC access per program: windows collapse to a single
        element and the FAME wraparound fires on the very first round."""
        traces = [
            synthetic_trace("one-a", [5.0], [3], seed=21),
            synthetic_trace("one-b", [6.0], [3], seed=22),
        ]
        assert_all_identical(machine2, traces)

    def test_single_access_against_long_trace(self, machine2):
        """Extreme pass-count imbalance: the single-access program laps
        the long one hundreds of times before its first pass ends."""
        rng = np.random.default_rng(7)
        long_gaps = rng.integers(1, 30, size=600).astype(np.float64)
        long_lines = rng.integers(0, 512, size=600).astype(np.int64)
        traces = [
            synthetic_trace("one", [4.0], [9], seed=31),
            synthetic_trace("long", long_gaps, long_lines, seed=32),
        ]
        assert_all_identical(machine2, traces)

    def test_traces_shorter_than_one_window(self, machine4):
        """Every trace is shorter than one speculation window, with
        unequal lengths: windows run across the trace end, several
        times for the shortest trace, so first passes end mid-window."""
        rng = np.random.default_rng(13)
        traces = []
        for core, length in enumerate([3, 17, 96, 41]):
            gaps = rng.integers(1, 12, size=length).astype(np.float64)
            lines = rng.integers(0, 256, size=length).astype(np.int64)
            traces.append(synthetic_trace(f"short-{core}", gaps, lines, seed=40 + core))
        assert_all_identical(machine4, traces)

    def test_zero_tail_cycles(self, machine4):
        """A zero post-LLC tail: the tail slot after each trace end adds
        exactly 0.0, so a trace end shifts no later ready time and its
        ties with other cores stay ties."""
        rng = np.random.default_rng(17)
        traces = []
        for core, length in enumerate([5, 60, 200, 31]):
            gaps = rng.integers(0, 6, size=length).astype(np.float64)
            lines = rng.integers(0, 192, size=length).astype(np.int64)
            traces.append(
                synthetic_trace(f"no-tail-{core}", gaps, lines, tail_cycles=0.0, seed=60 + core)
            )
        assert_all_identical(machine4, traces)

    @pytest.mark.parametrize("num_cores", [1, 2])
    def test_trace_exactly_one_window_long(self, machine4, num_cores):
        """A trace of exactly ``_WINDOW`` accesses: an untrimmed window
        ends precisely on the trace end, and the next window starts at
        the trace's first access again."""
        rng = np.random.default_rng(19)
        traces = []
        for core, length in enumerate([multi_core._WINDOW, 700][:num_cores]):
            gaps = rng.integers(1, 20, size=length).astype(np.float64)
            lines = rng.integers(0, 1_024, size=length).astype(np.int64)
            traces.append(synthetic_trace(f"window-{core}", gaps, lines, seed=70 + core))
        assert_all_identical(machine4.with_num_cores(num_cores), traces)

    def test_eight_core_mix(self, store, tiny_suite, machine4):
        """Eight cores, with two benchmarks duplicated."""
        machine8 = machine4.with_num_cores(8)
        names = list(tiny_suite.names) + ["mcf", "gamess"]
        assert_all_identical(machine8, _traces(store, tiny_suite, machine8, names))

    def test_zero_gap_bursts(self, machine2):
        """Zero upstream gaps produce exact ready-time ties *within* a
        core's own burst as well as across cores."""
        gaps = [0.0, 0.0, 3.0] * 12
        rng = np.random.default_rng(3)
        lines = rng.integers(0, 128, size=36).astype(np.int64)
        traces = [
            synthetic_trace("burst-a", gaps, lines, seed=51),
            synthetic_trace("burst-b", gaps, lines[::-1].copy(), seed=52),
        ]
        assert_all_identical(machine2, traces)


@st.composite
def contended_mixes(draw):
    """1-8 short synthetic traces contending for a few shared LLC sets.

    Lengths and tails (zero included) are drawn directly; the per-access
    integer gaps (0-12, so ties are common) and lines come from a drawn
    seed.  Lines use four sets spaced so that the per-core address
    offset maps one core's sets onto its neighbours', and twelve tags
    per set, so the LLC's eight ways evict across cores.
    """
    num_cores = draw(st.integers(1, 8))
    lengths = draw(st.lists(st.integers(1, 300), min_size=num_cores, max_size=num_cores))
    tails = draw(
        st.lists(
            st.one_of(st.just(0.0), st.integers(1, 40).map(float)),
            min_size=num_cores,
            max_size=num_cores,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_sets = 64  # the scaled test machine's LLC
    set_step = -multi_core._CORE_ADDRESS_OFFSET % num_sets
    traces = []
    for core, (length, tail) in enumerate(zip(lengths, tails)):
        gaps = rng.integers(0, 13, size=length).astype(np.float64)
        sets = rng.integers(0, 4, size=length) * set_step
        lines = rng.integers(0, 12, size=length) * num_sets + sets
        traces.append(synthetic_trace(f"p{core}", gaps, lines, tail_cycles=tail, seed=core + 1))
    return traces


class TestPeriodicWindows:
    @pytest.mark.parametrize("window", [1, 2, 3, 5, 64])
    @settings(max_examples=15, deadline=None)
    @given(traces=contended_mixes())
    def test_chunked_matches_heap(self, machine4, window, traces):
        """With windows of a few accesses, every round's windows wrap
        around short traces several times and often end exactly on a
        trace end; the chunked walk must still equal the heap walk."""
        machine = machine4.with_num_cores(len(traces))
        assert machine.llc.num_sets == 64
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(multi_core, "_WINDOW", window)
            chunked = MultiCoreSimulator(machine).run(traces)
        assert chunked == MultiCoreSimulator(machine).run_reference(traces)


class TestRunResultValidation:
    def test_program_lookup_by_core_on_duplicated_mix(self, store, tiny_suite, machine2):
        traces = _traces(store, tiny_suite, machine2, ["gamess", "gamess"])
        result = MultiCoreSimulator(machine2).run(traces)
        with pytest.raises(KeyError, match="pass core="):
            result.program("gamess")
        first = result.program("gamess", core=0)
        second = result.program("gamess", core=1)
        assert (first.core, second.core) == (0, 1)
        with pytest.raises(KeyError):
            result.program("gamess", core=2)
        with pytest.raises(KeyError):
            result.program("absent")

    def test_from_dict_rejects_inconsistent_program_count(
        self, store, tiny_suite, machine2
    ):
        traces = _traces(store, tiny_suite, machine2, ["gamess", "mcf"])
        payload = MultiCoreSimulator(machine2).run(traces).to_dict()
        payload["programs"] = payload["programs"][:1]
        from repro.simulators.multi_core import MultiCoreRunResult

        with pytest.raises(MultiCoreSimulationError):
            MultiCoreRunResult.from_dict(payload)

    def test_from_dict_rejects_duplicate_core_indices(
        self, store, tiny_suite, machine2
    ):
        traces = _traces(store, tiny_suite, machine2, ["gamess", "mcf"])
        payload = MultiCoreSimulator(machine2).run(traces).to_dict()
        payload["programs"][1]["core"] = 0
        from repro.simulators.multi_core import MultiCoreRunResult

        with pytest.raises(MultiCoreSimulationError):
            MultiCoreRunResult.from_dict(payload)
