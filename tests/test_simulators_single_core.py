"""Unit tests for the single-core (profiling) simulator."""

import numpy as np
import pytest

from repro.config.cache_config import CacheConfig
from repro.config.machine import MachineConfig
from repro.simulators.single_core import SingleCoreSimulator
from repro.workloads.benchmark import BenchmarkSpec, ReuseProfile
from repro.workloads.generator import TraceGenerator

from testdefaults import TEST_INSTRUCTIONS, TEST_INTERVAL


@pytest.fixture(scope="module")
def gamess_run(machine4, gamess_trace):
    simulator = SingleCoreSimulator(machine4, interval_instructions=TEST_INTERVAL)
    return simulator.run(gamess_trace)


class TestSingleCoreRun:
    def test_interval_structure(self, gamess_run):
        assert len(gamess_run.intervals) == TEST_INSTRUCTIONS // TEST_INTERVAL
        assert sum(interval.instructions for interval in gamess_run.intervals) == TEST_INSTRUCTIONS
        assert all(interval.instructions == TEST_INTERVAL for interval in gamess_run.intervals)

    def test_totals_are_consistent_with_intervals(self, gamess_run):
        interval_cycles = sum(interval.cycles for interval in gamess_run.intervals)
        assert gamess_run.cycles == pytest.approx(interval_cycles, rel=1e-9)
        interval_memory = sum(
            interval.memory_cycles for interval in gamess_run.intervals
        )
        assert gamess_run.memory_cpi * gamess_run.num_instructions == pytest.approx(
            interval_memory, rel=1e-9
        )
        assert gamess_run.cpi > 0
        assert 0 <= gamess_run.memory_cpi <= gamess_run.cpi

    def test_llc_counters_match_sdc_counters(self, gamess_run):
        for interval in gamess_run.intervals:
            assert interval.llc_accesses == pytest.approx(interval.sdc.total_accesses)
            # The SDC's C>A counter counts cold *and* capacity/conflict misses,
            # exactly the misses the LLC sees.
            assert interval.llc_misses == pytest.approx(interval.sdc.misses)
            assert interval.llc_hits + interval.llc_misses == interval.llc_accesses

    def test_llc_trace_matches_interval_access_counts(self, gamess_run):
        total_llc_accesses = sum(interval.llc_accesses for interval in gamess_run.intervals)
        assert gamess_run.llc_trace.num_llc_accesses == total_llc_accesses
        assert gamess_run.llc_trace.isolated_cycles == pytest.approx(gamess_run.cycles)
        # LLC accesses are ordered by instruction index.
        assert (np.diff(gamess_run.llc_trace.insn) >= 0).all()

    def test_upstream_cycles_exclude_llc_and_memory_penalties(self, gamess_run):
        trace = gamess_run.llc_trace
        cpi_stack = gamess_run.cpi_stack
        upstream = trace.total_upstream_cycles
        assert upstream == pytest.approx(cpi_stack.base + cpi_stack.private_cache, rel=1e-6)

    def test_simulation_is_deterministic(self, machine4, gamess_trace):
        simulator = SingleCoreSimulator(machine4, interval_instructions=TEST_INTERVAL)
        again = simulator.run(gamess_trace)
        assert again.cpi == pytest.approx(SingleCoreSimulator(machine4, TEST_INTERVAL).run(gamess_trace).cpi)

    def test_invalid_interval_rejected(self, machine4):
        with pytest.raises(ValueError):
            SingleCoreSimulator(machine4, interval_instructions=0)


class TestBenchmarkHeterogeneity:
    def test_cache_friendly_benchmark_has_lower_memory_cpi(self, machine4, gamess_trace, hmmer_trace):
        simulator = SingleCoreSimulator(machine4, interval_instructions=TEST_INTERVAL)
        gamess = simulator.run(gamess_trace)
        hmmer = simulator.run(hmmer_trace)
        assert hmmer.cpi_stack.memory_fraction < gamess.cpi_stack.memory_fraction
        assert hmmer.llc_trace.llc_accesses_per_kilo_instruction < (
            gamess.llc_trace.llc_accesses_per_kilo_instruction
        )

    def test_perfect_llc_run_bounds_the_memory_cpi(self, machine4, gamess_trace):
        """The two-run method of the paper: CPI - CPI_perfect_LLC ~= memory CPI."""
        simulator = SingleCoreSimulator(machine4, interval_instructions=TEST_INTERVAL)
        run = simulator.run(gamess_trace)
        perfect_cpi = simulator.run_with_perfect_llc(gamess_trace)
        assert perfect_cpi < run.cpi
        two_run_memory_cpi = run.cpi - perfect_cpi
        # The two estimates agree: the accounting method charges the full
        # memory penalty while the perfect-LLC run still charges the LLC hit
        # latency, so the two-run value is slightly smaller.
        assert two_run_memory_cpi <= run.memory_cpi + 1e-9
        assert two_run_memory_cpi == pytest.approx(run.memory_cpi, rel=0.25)

    def test_kernel_equivalence_baseline(self, machine4, gamess_trace, gamess_run):
        reference = SingleCoreSimulator(
            machine4, interval_instructions=TEST_INTERVAL
        ).run_reference(gamess_trace)
        assert_runs_bit_identical(gamess_run, reference)

    def test_bigger_llc_reduces_misses(self, full_suite, generator):
        from repro.config import baseline_machine, scaled

        spec = full_suite["soplex"]
        trace = generator.generate(spec)
        small = scaled(baseline_machine(num_cores=4, llc_config=1), 16)
        large = scaled(baseline_machine(num_cores=4, llc_config=5), 16)
        small_run = SingleCoreSimulator(small, TEST_INTERVAL).run(trace)
        large_run = SingleCoreSimulator(large, TEST_INTERVAL).run(trace)
        small_misses = sum(i.llc_misses for i in small_run.intervals)
        large_misses = sum(i.llc_misses for i in large_run.intervals)
        assert large_misses <= small_misses


# ---------------------------------------------------------------------------
# run() vs run_reference() equivalence
# ---------------------------------------------------------------------------


def assert_runs_bit_identical(a, b):
    """Assert two SingleCoreRunResults are bit-identical, field by field."""
    assert a.benchmark == b.benchmark
    assert a.machine_name == b.machine_name
    assert a.interval_instructions == b.interval_instructions
    assert len(a.intervals) == len(b.intervals)
    for x, y in zip(a.intervals, b.intervals):
        assert x.index == y.index
        assert x.instructions == y.instructions
        assert x.cycles == y.cycles
        assert x.memory_cycles == y.memory_cycles
        assert (x.llc_accesses, x.llc_hits, x.llc_misses) == (
            y.llc_accesses,
            y.llc_hits,
            y.llc_misses,
        )
        assert x.sdc.associativity == y.sdc.associativity
        assert np.array_equal(x.sdc.counts, y.sdc.counts)
    for component in ("base", "private_cache", "llc", "memory", "instructions"):
        assert getattr(a.cpi_stack, component) == getattr(b.cpi_stack, component)
    ta, tb = a.llc_trace, b.llc_trace
    for attr in ("line", "insn", "upstream_cycle_gap"):
        left, right = getattr(ta, attr), getattr(tb, attr)
        assert left.dtype == right.dtype
        assert np.array_equal(left, right)
    assert ta.tail_cycles == tb.tail_cycles
    assert ta.isolated_cycles == tb.isolated_cycles


def _random_spec(rng, index):
    """A random but plausible benchmark spec for the equivalence matrix."""
    buckets = []
    low = 0
    for _ in range(int(rng.integers(1, 4))):
        high = low + int(rng.integers(4, 120))
        buckets.append((high, float(rng.uniform(0.05, 0.5))))
        low = high
    return BenchmarkSpec(
        name=f"rand-{index}",
        base_cpi=float(rng.uniform(0.3, 1.2)),
        mem_ref_fraction=float(rng.uniform(0.1, 0.6)),
        reuse=ReuseProfile(
            buckets=tuple(buckets), new_weight=float(rng.uniform(0.001, 0.05))
        ),
        working_set_lines=int(rng.integers(64, 4096)),
        mlp=float(rng.uniform(1.0, 4.0)),
        seed=int(rng.integers(0, 10_000)),
    )


def _equivalence_machines():
    line = 64
    return [
        # Scaled default-shaped hierarchy.
        MachineConfig(
            private_levels=(
                CacheConfig(name="L1D", size_bytes=32 * line, associativity=8, latency=1),
                CacheConfig(name="L2", size_bytes=128 * line, associativity=8, latency=10),
            ),
            llc=CacheConfig(
                name="L3", size_bytes=512 * line, associativity=8, latency=16, shared=True
            ),
            name="scaled-baseline",
        ),
        # Single-set (fully associative) levels, including the LLC.
        MachineConfig(
            private_levels=(
                CacheConfig(name="L1D", size_bytes=8 * line, associativity=8, latency=1),
            ),
            llc=CacheConfig(
                name="L3", size_bytes=64 * line, associativity=64, latency=16, shared=True
            ),
            name="single-set",
        ),
        # Direct-mapped everything.
        MachineConfig(
            private_levels=(
                CacheConfig(name="L1D", size_bytes=16 * line, associativity=1, latency=1),
                CacheConfig(name="L2", size_bytes=64 * line, associativity=1, latency=10),
            ),
            llc=CacheConfig(
                name="L3", size_bytes=256 * line, associativity=1, latency=16, shared=True
            ),
            name="direct-mapped",
        ),
    ]


class TestKernelEquivalence:
    """Property suite: ``run`` and ``run_reference`` are bit-identical."""

    def test_randomized_equivalence_matrix(self):
        rng = np.random.default_rng(2024)
        machines = _equivalence_machines()
        for index in range(6):
            spec = _random_spec(rng, index)
            num_instructions = int(rng.choice([2_500, 10_000, 20_000]))
            trace = TraceGenerator(num_instructions=num_instructions, seed=index).generate(spec)
            machine = machines[index % len(machines)]
            simulator = SingleCoreSimulator(machine, interval_instructions=4_000)
            assert_runs_bit_identical(simulator.run(trace), simulator.run_reference(trace))

    def test_trace_shorter_than_one_interval(self, full_suite):
        trace = TraceGenerator(num_instructions=1_500, seed=3).generate(
            full_suite["gamess"]
        )
        simulator = SingleCoreSimulator(
            _equivalence_machines()[0], interval_instructions=4_000
        )
        vectorized = simulator.run(trace)
        reference = simulator.run_reference(trace)
        assert len(vectorized.intervals) == 1
        assert vectorized.intervals[0].instructions == 1_500
        assert_runs_bit_identical(vectorized, reference)

