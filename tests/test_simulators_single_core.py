"""Unit tests for the single-core (profiling) simulator."""

import numpy as np
import pytest

from repro.config.cache_config import CacheConfig
from repro.config.machine import MachineConfig
from repro.cores.core_model import CoreTimingModel
from repro.simulators.single_core import SingleCoreSimulator
from repro.workloads.benchmark import BenchmarkSpec, ReuseProfile
from repro.workloads.generator import TraceGenerator

from testdefaults import TEST_INSTRUCTIONS, TEST_INTERVAL


def perfect_llc_cpi(simulator, trace):
    """CPI of a run where every LLC access hits (the paper's perfect-LLC run).

    With a perfect LLC every access that reaches it is a hit, so the
    cycle count is a closed-form weighted sum of the level populations.
    """
    machine = simulator.machine
    private_run = simulator.filter_private(trace)
    core_model = CoreTimingModel(machine, trace.spec)
    cycles = float(trace.base_cycle_gap.sum()) + trace.tail_base_cycles
    for level_index in range(len(machine.private_levels)):
        penalty = core_model.private_hit_penalty(level_index)
        if penalty:
            cycles += float(private_run.private_hits[:, level_index].sum()) * penalty
    cycles += float(len(private_run.line)) * core_model.llc_hit_penalty
    return cycles / trace.num_instructions


@pytest.fixture(scope="module")
def gamess_run(machine4, gamess_trace):
    simulator = SingleCoreSimulator(machine4, interval_instructions=TEST_INTERVAL)
    return simulator.run(gamess_trace)


class TestSingleCoreRun:
    def test_interval_structure(self, gamess_run):
        assert len(gamess_run.instructions) == TEST_INSTRUCTIONS // TEST_INTERVAL
        assert gamess_run.instructions.sum() == TEST_INSTRUCTIONS
        assert (gamess_run.instructions == TEST_INTERVAL).all()

    def test_totals_are_consistent_with_intervals(self, gamess_run):
        interval_cycles = gamess_run.interval_cycles.sum()
        assert gamess_run.cycles == pytest.approx(interval_cycles, rel=1e-9)
        interval_memory = gamess_run.memory_cycles.sum()
        assert gamess_run.memory_cpi * gamess_run.num_instructions == pytest.approx(
            interval_memory, rel=1e-9
        )
        assert gamess_run.cpi > 0
        assert 0 <= gamess_run.memory_cpi <= gamess_run.cpi

    def test_llc_counters_match_sdc_counters(self, gamess_run):
        run = gamess_run
        assert np.array_equal(run.llc_accesses, run.sdc.sum(axis=1))
        # The SDC's C>A counter counts cold *and* capacity/conflict misses,
        # exactly the misses the LLC sees.
        assert np.array_equal(run.llc_misses, run.sdc[:, -1])
        assert np.array_equal(run.llc_hits + run.llc_misses, run.llc_accesses)

    def test_llc_trace_matches_interval_access_counts(self, gamess_run):
        total_llc_accesses = gamess_run.llc_accesses.sum()
        assert gamess_run.llc_trace.num_llc_accesses == total_llc_accesses
        assert gamess_run.llc_trace.isolated_cycles == pytest.approx(gamess_run.cycles)
        # LLC accesses are ordered by instruction index.
        assert (np.diff(gamess_run.llc_trace.insn) >= 0).all()

    def test_upstream_cycles_exclude_llc_and_memory_penalties(self, gamess_run):
        trace = gamess_run.llc_trace
        cpi_stack = gamess_run.cpi_stack
        upstream = float(trace.upstream_cycle_gap.sum()) + trace.tail_cycles
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
        perfect_cpi = perfect_llc_cpi(simulator, gamess_trace)
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
        small_misses = small_run.llc_misses.sum()
        large_misses = large_run.llc_misses.sum()
        assert large_misses <= small_misses


# ---------------------------------------------------------------------------
# run() vs run_reference() equivalence
# ---------------------------------------------------------------------------


def assert_runs_bit_identical(a, b):
    """Assert two SingleCoreRunResults are bit-identical, field by field."""
    assert a.benchmark == b.benchmark
    assert a.machine_name == b.machine_name
    assert a.interval_instructions == b.interval_instructions
    columns = ("instructions", "interval_cycles", "memory_cycles", "llc_accesses", "llc_hits", "sdc")
    for column in columns:
        left, right = getattr(a, column), getattr(b, column)
        assert left.dtype == right.dtype and left.shape == right.shape
        assert left.tobytes() == right.tobytes()
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

    def test_llc_distances_past_the_compact_cap(self, full_suite):
        """One-set LLCs of 254, 255 and 512 ways on one stream whose LLC
        distances reach past 255: the first keeps its distances in the
        capped ``uint8`` memo, the wider two need their own full pass,
        and all three match the reference."""
        line = 64
        l1 = CacheConfig(name="L1D", size_bytes=8 * line, associativity=8, latency=1)
        machines = [
            MachineConfig(
                private_levels=(l1,),
                llc=CacheConfig(
                    name="L3", size_bytes=ways * line, associativity=ways, shared=True
                ),
                name=f"{ways}-way",
            )
            for ways in (254, 255, 512)
        ]
        trace = TraceGenerator(num_instructions=20_000, seed=0).generate(full_suite["mcf"])
        simulator = SingleCoreSimulator(machines[0], interval_instructions=1_000)
        private_run = simulator.filter_private(trace)
        distances = {}
        runs = simulator.resolve_llc_many(private_run, machines, distances)
        assert distances[1].dtype == np.uint8 and distances[1].max() == 255
        for machine, run in zip(machines, runs):
            reference = SingleCoreSimulator(machine, interval_instructions=1_000)
            assert_runs_bit_identical(run, reference.run_reference(trace))
        assert runs[0].llc_trace.isolated_cycles != runs[2].llc_trace.isolated_cycles

    def test_trace_shorter_than_one_interval(self, full_suite):
        trace = TraceGenerator(num_instructions=1_500, seed=3).generate(
            full_suite["gamess"]
        )
        simulator = SingleCoreSimulator(
            _equivalence_machines()[0], interval_instructions=4_000
        )
        vectorized = simulator.run(trace)
        reference = simulator.run_reference(trace)
        assert vectorized.instructions.tolist() == [1_500]
        assert_runs_bit_identical(vectorized, reference)

