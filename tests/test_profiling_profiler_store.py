"""Unit tests for the profiler and the caching profile store."""

import json
from dataclasses import replace

import pytest

from repro.profiling import Profiler, ProfileStore
from repro.profiling.profiler import profile_from_run
from repro.simulators.single_core import SingleCoreSimulator
from repro.workloads.benchmark import ReuseProfile

from testdefaults import TEST_INSTRUCTIONS, TEST_INTERVAL


class TestProfiler:
    def test_profile_matches_direct_simulation(self, tiny_suite, machine4, generator):
        spec = tiny_suite["soplex"]
        profiler = Profiler(
            machine=machine4,
            num_instructions=TEST_INSTRUCTIONS,
            interval_instructions=TEST_INTERVAL,
            seed=0,
        )
        profiled = profiler.profile(spec)

        trace = generator.generate(spec)
        run = SingleCoreSimulator(machine4, TEST_INTERVAL).run(trace)
        assert profiled.profile.cpi == pytest.approx(run.cpi)
        assert profiled.profile.memory_cpi == pytest.approx(run.memory_cpi)
        assert profiled.llc_trace.num_llc_accesses == run.llc_trace.num_llc_accesses
        assert profiled.name == "soplex"

    def test_profile_from_run_preserves_interval_data(self, tiny_suite, machine4, generator):
        trace = generator.generate(tiny_suite["hmmer"])
        run = SingleCoreSimulator(machine4, TEST_INTERVAL).run(trace)
        profile = profile_from_run(run, machine4)
        assert profile.num_intervals == len(run.intervals)
        assert profile.machine_key == machine4.profile_key()
        assert profile.llc_associativity == machine4.llc.associativity

    def test_profile_suite_returns_every_benchmark(self, tiny_suite, machine4):
        profiler = Profiler(machine4, num_instructions=20_000, interval_instructions=1_000)
        profiled = profiler.profile_suite(tiny_suite)
        assert set(profiled) == set(tiny_suite.names)


class TestProfileStore:
    def test_profiles_are_cached_per_benchmark_and_machine(self, tiny_suite, machine4):
        store = ProfileStore(num_instructions=20_000, interval_instructions=1_000)
        spec = tiny_suite["gamess"]
        first = store.get_profile(spec, machine4)
        second = store.get_profile(spec, machine4)
        assert first is second
        assert store.simulated_profiles == 1
        assert store.cached_pairs() == 1

    def test_llc_trace_and_profile_come_from_the_same_run(self, tiny_suite, machine4):
        store = ProfileStore(num_instructions=20_000, interval_instructions=1_000)
        spec = tiny_suite["soplex"]
        profile = store.get_profile(spec, machine4)
        trace = store.get_llc_trace(spec, machine4)
        assert trace.isolated_cycles == pytest.approx(profile.total_cycles)
        # Both artefacts came from one simulation.
        assert store.simulated_profiles == 1
        profiled = store.get(spec, machine4)
        assert profiled.profile is profile
        assert profiled.llc_trace is trace

    def test_different_machines_produce_different_profiles(self, tiny_suite, machine4):
        from repro.config import baseline_machine, scaled

        store = ProfileStore(num_instructions=20_000, interval_instructions=1_000)
        other_machine = scaled(baseline_machine(num_cores=4, llc_config=5), 16)
        spec = tiny_suite["soplex"]
        first = store.get_profile(spec, machine4)
        second = store.get_profile(spec, other_machine)
        assert first is not second
        assert store.simulated_profiles == 2

    def test_redefining_a_spec_under_the_same_name_is_not_served_stale_data(
        self, tiny_suite, machine4
    ):
        store = ProfileStore(num_instructions=20_000, interval_instructions=1_000)
        spec = tiny_suite["gamess"]
        modified = replace(
            spec, reuse=ReuseProfile(buckets=((8, 1.0),), new_weight=0.0), working_set_lines=64
        )
        original_profile = store.get_profile(spec, machine4)
        modified_profile = store.get_profile(modified, machine4)
        assert store.simulated_profiles == 2
        assert modified_profile.llc_misses_per_kilo_instruction < (
            original_profile.llc_misses_per_kilo_instruction
        )

    def test_suite_helpers(self, tiny_suite, machine4):
        store = ProfileStore(num_instructions=20_000, interval_instructions=1_000)
        assert store.preload(tiny_suite, machine4) == len(tiny_suite)
        assert store.cached_pairs() == len(tiny_suite)
        for spec in tiny_suite:
            assert store.get(spec, machine4).profile is store.get_profile(spec, machine4)
        # Everything was simulated exactly once per benchmark.
        assert store.simulated_profiles == len(tiny_suite)

    def test_disk_cache_roundtrip(self, tiny_suite, machine4, tmp_path):
        spec = tiny_suite["hmmer"]
        writer = ProfileStore(
            num_instructions=20_000, interval_instructions=1_000, cache_dir=tmp_path
        )
        original = writer.get_profile(spec, machine4)
        # Two ordinary result-cache entries, registry envelopes keyed by
        # content hash: the profile and the LLC stream of the same run.
        types = sorted(json.loads(entry.read_text())["type"] for entry in tmp_path.iterdir())
        assert types == ["LLCStream", "SingleCoreProfile"]

        reader = ProfileStore(
            num_instructions=20_000, interval_instructions=1_000, cache_dir=tmp_path
        )
        loaded = reader.get_profile(spec, machine4)
        assert reader.simulated_profiles == 0
        assert reader.loaded_profiles == 1
        assert loaded.cpi == pytest.approx(original.cpi)
        assert loaded.num_instructions == original.num_instructions
