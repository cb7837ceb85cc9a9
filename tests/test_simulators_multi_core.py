"""Unit tests for the shared-LLC multi-core reference simulator."""

import numpy as np
import pytest

from repro.caches.vectorized import lru_hit_mask, stack_distances
from repro.config import llc_design_space, scaled
from repro.simulators import multi_core
from repro.simulators.multi_core import MultiCoreSimulationError, MultiCoreSimulator

from testdefaults import TEST_SCALE


def _traces(store, suite, machine, names):
    return [store.get_llc_trace(suite[name], machine) for name in names]


class TestMultiCoreSimulator:
    def test_single_core_run_matches_isolated_execution(self, store, tiny_suite, machine4):
        """With one core there is no sharing, so CPI_MC == CPI_SC exactly."""
        machine1 = machine4.with_num_cores(1)
        trace = store.get_llc_trace(tiny_suite["gamess"], machine4)
        result = MultiCoreSimulator(machine1).run([trace])
        program = result.programs[0]
        assert program.cpi == pytest.approx(program.isolated_cpi, rel=1e-9)
        assert program.slowdown == pytest.approx(1.0, rel=1e-9)
        assert result.system_throughput == pytest.approx(1.0, rel=1e-9)
        assert result.average_normalized_turnaround_time == pytest.approx(1.0, rel=1e-9)

    def test_core_count_must_match_number_of_programs(self, store, tiny_suite, machine4):
        traces = _traces(store, tiny_suite, machine4, ["gamess", "hmmer"])
        with pytest.raises(MultiCoreSimulationError):
            MultiCoreSimulator(machine4).run(traces)
        with pytest.raises(MultiCoreSimulationError):
            MultiCoreSimulator(machine4).run_reference(traces)

    def test_sharing_never_speeds_programs_up(self, store, tiny_suite, machine4):
        traces = _traces(store, tiny_suite, machine4, ["gamess", "mcf", "soplex", "lbm"])
        result = MultiCoreSimulator(machine4).run(traces)
        for program in result.programs:
            assert program.slowdown >= 1.0 - 1e-9
        assert result.system_throughput <= machine4.num_cores + 1e-9
        assert result.average_normalized_turnaround_time >= 1.0 - 1e-9

    def test_duplicate_copies_do_not_share_data(self, store, tiny_suite, machine4):
        """Two copies of the same program must contend, not prefetch for each other."""
        machine2 = machine4.with_num_cores(2)
        gamess = store.get_llc_trace(tiny_suite["gamess"], machine4)
        result = MultiCoreSimulator(machine2).run([gamess, gamess])
        for program in result.programs:
            assert program.slowdown > 1.05

    def test_llc_sensitive_program_suffers_more_than_cache_friendly_one(
        self, store, tiny_suite, machine4
    ):
        traces = _traces(store, tiny_suite, machine4, ["gamess", "gamess", "hmmer", "soplex"])
        result = MultiCoreSimulator(machine4).run(traces)
        gamess_slowdown = max(
            program.slowdown for program in result.programs if program.name == "gamess"
        )
        hmmer_slowdown = result.program("hmmer").slowdown
        assert gamess_slowdown > 1.5
        assert hmmer_slowdown < 1.2
        assert gamess_slowdown > hmmer_slowdown

    def test_results_are_deterministic(self, store, tiny_suite, machine4):
        traces = _traces(store, tiny_suite, machine4, ["gamess", "hmmer", "soplex", "mcf"])
        first = MultiCoreSimulator(machine4).run(traces)
        second = MultiCoreSimulator(machine4).run(traces)
        assert [p.cpi for p in first.programs] == [p.cpi for p in second.programs]
        assert first.total_llc_misses == second.total_llc_misses

    def test_every_program_completes_at_least_one_pass(self, store, tiny_suite, machine4):
        traces = _traces(store, tiny_suite, machine4, ["gamess", "hmmer", "soplex", "lbm"])
        result = MultiCoreSimulator(machine4).run(traces)
        for program in result.programs:
            assert program.passes_completed >= 1
            assert program.llc_accesses_first_pass > 0
            assert (
                program.llc_hits_first_pass + program.llc_misses_first_pass
                == program.llc_accesses_first_pass
            )
        # Fast programs wrap around while the slowest finishes (FAME-style).
        assert max(program.passes_completed for program in result.programs) >= 1

    def test_stats_accessors(self, store, tiny_suite, machine4):
        traces = _traces(store, tiny_suite, machine4, ["gamess", "hmmer", "soplex", "mcf"])
        result = MultiCoreSimulator(machine4).run(traces)
        assert set(result.per_program_cpi) == {0, 1, 2, 3}
        assert len(result.slowdowns) == 4
        with pytest.raises(KeyError):
            result.program("not-there")
        assert result.total_llc_accesses >= result.total_llc_misses > 0

    def test_more_cores_increase_pressure_on_a_sensitive_program(
        self, store, tiny_suite, machine4
    ):
        gamess = store.get_llc_trace(tiny_suite["gamess"], machine4)
        soplex = store.get_llc_trace(tiny_suite["soplex"], machine4)
        mcf = store.get_llc_trace(tiny_suite["mcf"], machine4)
        hmmer = store.get_llc_trace(tiny_suite["hmmer"], machine4)
        two_core = MultiCoreSimulator(machine4.with_num_cores(2)).run([gamess, soplex])
        four_core = MultiCoreSimulator(machine4).run([gamess, soplex, mcf, hmmer])
        assert four_core.program("gamess").slowdown >= two_core.program("gamess").slowdown - 1e-6


#: Mixes for the sharing invariants, three per core count.
INVARIANT_MIXES = {
    2: (("gamess", "mcf"), ("hmmer", "lbm"), ("soplex", "soplex")),
    4: (
        ("gamess", "mcf", "soplex", "lbm"),
        ("hmmer", "omnetpp", "gamess", "hmmer"),
        ("mcf", "lbm", "omnetpp", "soplex"),
    ),
}


class TestSharingInvariants:
    """Properties every shared-LLC run must satisfy, whatever the order.

    Cores' lines are disjoint (``_CORE_ADDRESS_OFFSET``), so sharing can
    only insert other lines between a program's reuses: per-set LRU
    distances only grow, and a program's first pass cannot hit more
    often than the same accesses replayed alone.
    """

    @pytest.mark.parametrize("num_cores", sorted(INVARIANT_MIXES))
    @pytest.mark.parametrize("llc_config", range(1, 7))
    def test_first_pass_hits_bounded_by_isolation(
        self, store, tiny_suite, llc_config, num_cores
    ):
        machine = scaled(llc_design_space(num_cores)[llc_config - 1], TEST_SCALE)
        num_sets = machine.llc.num_sets
        associativity = machine.llc.associativity
        for names in INVARIANT_MIXES[num_cores]:
            traces = _traces(store, tiny_suite, machine, names)
            result = MultiCoreSimulator(machine).run(traces)
            for core, (trace, program) in enumerate(zip(traces, result.programs)):
                lines = np.asarray(trace.line, dtype=np.int64)
                lines = lines + core * multi_core._CORE_ADDRESS_OFFSET
                isolated_hits = int(
                    lru_hit_mask(stack_distances(lines, num_sets), associativity).sum()
                )
                assert program.llc_hits_first_pass <= isolated_hits, (names, core)
                assert (
                    program.llc_hits_first_pass + program.llc_misses_first_pass
                    == program.llc_accesses_first_pass
                    == trace.num_llc_accesses
                ), (names, core)


class TestReadyQueueVariants:
    def test_chunked_and_heap_are_bit_identical_on_an_eight_core_mix(
        self, store, tiny_suite, machine4
    ):
        """The chunked merge must reproduce the heapq ready queue exactly.

        Eight cores with duplicated programs maximise ready-time ties,
        which is where the two orderings could diverge; dataclass
        equality compares every cycle count exactly.
        """
        machine8 = machine4.with_num_cores(8)
        names = ["gamess", "soplex", "mcf", "hmmer", "gamess", "soplex", "mcf", "hmmer"]
        traces = _traces(store, tiny_suite, machine4, names)
        simulator = MultiCoreSimulator(machine8)
        assert simulator.run(traces) == simulator.run_reference(traces)

    def test_serialisation_roundtrip_is_exact(self, store, tiny_suite, machine4):
        traces = _traces(store, tiny_suite, machine4, ["gamess", "hmmer", "soplex", "mcf"])
        result = MultiCoreSimulator(machine4).run(traces)
        import json

        payload = json.loads(json.dumps(result.to_dict()))
        from repro.simulators.multi_core import MultiCoreRunResult

        assert MultiCoreRunResult.from_dict(payload) == result
