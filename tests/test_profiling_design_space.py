"""Profiling the whole Table 2 design space through the two-stage store.

The store generates each benchmark's trace and filters it through the
private levels once per private hierarchy, then resolves every LLC on
top.  These tests pin that path to a fresh per-machine
:class:`Profiler` run field by field, count the stage-1 work, and
check the sharing, read-only and cache-write guarantees that come with
it.
"""

import json
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.caches import vectorized
from repro.config import llc_design_space, scaled
from repro.engine import tasks as engine_tasks
from repro.engine.cache import deserialize_result, serialize_result
from repro.experiments import ExperimentConfig, ExperimentSetup
from repro.profiling import ProfileBundle, Profiler, ProfileStore
from repro.profiling.profiler import profile_from_run
from repro.simulators import single_core
from repro.workloads import WorkloadMix, workload_for
from repro.workloads.generator import TraceGenerator

INSTRUCTIONS = 20_000
INTERVAL = 1_000


def _specs():
    """A few benchmarks from each workload family."""
    return (
        [workload_for("suite:spec29").suite()[name] for name in ("mcf", "gamess", "hmmer")]
        + list(workload_for("random:n=4,seed=3").suite())[:2]
        + list(workload_for("service:n=4,seed=1").suite())[:2]
    )


SPECS = _specs()
MACHINES = [scaled(machine, 16) for machine in llc_design_space(4)]


def _store(**kwargs):
    return ProfileStore(num_instructions=INSTRUCTIONS, interval_instructions=INTERVAL, **kwargs)


def assert_profiles_equal(a, b):
    assert a.benchmark == b.benchmark
    assert a.machine_key == b.machine_key
    assert a.machine_name == b.machine_name
    assert a.interval_instructions == b.interval_instructions
    assert a.llc_associativity == b.llc_associativity
    assert len(a.intervals) == len(b.intervals)
    for x, y in zip(a.intervals, b.intervals):
        assert (x.index, x.instructions) == (y.index, y.instructions)
        assert x.cpi == y.cpi
        assert x.memory_cpi == y.memory_cpi
        assert x.llc_accesses == y.llc_accesses
        assert x.llc_misses == y.llc_misses
        assert x.sdc.associativity == y.sdc.associativity
        assert np.array_equal(x.sdc.counts, y.sdc.counts)


def assert_traces_equal(a, b):
    assert a.spec == b.spec
    assert a.num_instructions == b.num_instructions
    for attr in ("line", "insn", "upstream_cycle_gap"):
        left, right = getattr(a, attr), getattr(b, attr)
        assert left.dtype == right.dtype
        assert np.array_equal(left, right)
    assert a.tail_cycles == b.tail_cycles
    assert a.isolated_cycles == b.isolated_cycles


@pytest.fixture(scope="module")
def fresh():
    """Fresh per-machine Profiler results: the ground truth."""
    out = {}
    for machine in MACHINES:
        profiler = Profiler(machine, num_instructions=INSTRUCTIONS, interval_instructions=INTERVAL)
        for spec in SPECS:
            out[(spec, machine.profile_key())] = profiler.profile(spec)
    return out


class TestEquivalence:
    def test_fresh_profiler_matches_the_reference_replay(self, fresh):
        """The ground truth itself against the per-access test witness,
        on every Table 2 LLC and every workload family."""
        generator = TraceGenerator(num_instructions=INSTRUCTIONS)
        for spec in SPECS:
            trace = generator.generate(spec)
            for machine in MACHINES:
                simulator = single_core.SingleCoreSimulator(machine, interval_instructions=INTERVAL)
                run = simulator.run_reference(trace)
                expected = fresh[(spec, machine.profile_key())]
                assert_profiles_equal(profile_from_run(run, machine), expected.profile)
                assert_traces_equal(run.llc_trace, expected.llc_trace)

    @pytest.mark.parametrize("order", ["machine-major", "spec-major"])
    def test_memoized_profiles_match_fresh_profiler(self, fresh, order):
        store = _store()
        if order == "machine-major":
            pairs = [(spec, machine) for machine in MACHINES for spec in SPECS]
        else:
            pairs = [(spec, machine) for spec in SPECS for machine in MACHINES]
        for spec, machine in pairs:
            expected = fresh[(spec, machine.profile_key())]
            assert_profiles_equal(store.get_profile(spec, machine), expected.profile)
            assert_traces_equal(store.get_llc_trace(spec, machine), expected.llc_trace)
        assert store.simulated_profiles == len(pairs)

    def test_get_many_matches_fresh_profiler(self, fresh):
        store = _store()
        for spec in SPECS:
            for machine, profiled in zip(MACHINES, store.get_many(spec, MACHINES)):
                expected = fresh[(spec, machine.profile_key())]
                assert_profiles_equal(profiled.profile, expected.profile)
                assert_traces_equal(profiled.llc_trace, expected.llc_trace)

    def test_resolve_llc_rejects_a_foreign_private_hierarchy(self, full_suite):
        machine = MACHINES[0]
        other = replace(
            machine,
            private_levels=(
                machine.private_levels[0],
                replace(machine.private_levels[1], latency=20),
            ),
        )
        simulator = single_core.SingleCoreSimulator(machine, interval_instructions=INTERVAL)
        trace = TraceGenerator(num_instructions=INSTRUCTIONS).generate(full_suite["mcf"])
        with pytest.raises(ValueError):
            simulator.resolve_llc(simulator.filter_private(trace), other)


class TestStageOneCounting:
    @pytest.fixture
    def counters(self, monkeypatch):
        counts = {"generate": 0, "replay_private_levels": 0, "filter_private": 0, "replay_llc": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            TraceGenerator, "generate", counting("generate", TraceGenerator.generate)
        )
        simulator = single_core.SingleCoreSimulator
        monkeypatch.setattr(
            simulator, "filter_private", counting("filter_private", simulator.filter_private)
        )
        for name in ("replay_private_levels", "replay_llc"):
            monkeypatch.setattr(single_core, name, counting(name, getattr(single_core, name)))
        return counts

    def test_one_trace_and_one_private_replay_per_spec(self, counters):
        store = _store()
        for machine in MACHINES:
            for spec in SPECS:
                store.get_profile(spec, machine)
        k = len(SPECS)
        assert counters["generate"] == k
        assert counters["filter_private"] == k
        assert counters["replay_private_levels"] == k
        assert store.simulated_profiles == len(MACHINES) * k

    def test_get_many_computes_distances_once_per_set_count(self, counters):
        store = _store()
        spec = SPECS[0]
        store.get_many(spec, MACHINES)
        set_counts = {machine.llc.num_sets for machine in MACHINES}
        assert len(set_counts) == 4
        assert counters["replay_llc"] == len(set_counts)
        assert (counters["generate"], counters["replay_private_levels"]) == (1, 1)

    def test_llcs_with_one_set_count_share_a_distance_pass_across_calls(self, monkeypatch):
        """Table 2 #1 and #4 both have 64 sets at 1/16 scale: resolved
        in separate calls, they share one LLC distance pass, and every
        profile and trace equals a fresh store's for that machine alone."""
        passes = []
        original = vectorized.stack_distances

        def counting(lines, num_sets):
            passes.append(num_sets)
            return original(lines, num_sets)

        monkeypatch.setattr(vectorized, "stack_distances", counting)
        one, four = MACHINES[0], MACHINES[3]
        assert one.llc.num_sets == four.llc.num_sets
        assert one.llc.associativity != four.llc.associativity
        store = _store()
        for spec in SPECS:
            store.get_profile(spec, one)
            store.get_profile(spec, four)
        assert passes == [one.llc.num_sets] * len(SPECS)
        for machine in (one, four):
            fresh_store = _store()
            for spec in SPECS:
                assert_profiles_equal(
                    store.get_profile(spec, machine), fresh_store.get_profile(spec, machine)
                )
                assert_traces_equal(
                    store.get_llc_trace(spec, machine), fresh_store.get_llc_trace(spec, machine)
                )

    @pytest.mark.parametrize("level", ["latency", "size_bytes"])
    def test_a_different_l2_gets_its_own_stage_one(self, counters, level):
        store = _store()
        machine = MACHINES[0]
        l2 = machine.private_levels[1]
        changed = {"latency": l2.latency * 2, "size_bytes": l2.size_bytes * 2}[level]
        other = replace(
            machine, private_levels=(machine.private_levels[0], replace(l2, **{level: changed}))
        )
        assert other.private_key() != machine.private_key()
        spec = SPECS[0]
        base = store.get_llc_trace(spec, machine)
        moved = store.get_llc_trace(spec, other)
        assert counters["filter_private"] == 2
        assert not np.array_equal(base.upstream_cycle_gap, moved.upstream_cycle_gap)


class TestSharedReadOnlyTraces:
    def test_design_space_traces_share_read_only_arrays(self):
        store = _store()
        spec = SPECS[0]
        traces = [store.get_llc_trace(spec, machine) for machine in MACHINES]
        first = traces[0]
        for trace in traces[1:]:
            for attr in ("line", "insn", "upstream_cycle_gap"):
                assert np.shares_memory(getattr(first, attr), getattr(trace, attr))
        for attr in ("line", "insn", "upstream_cycle_gap"):
            with pytest.raises(ValueError):
                getattr(first, attr)[0] = 0


def _entries(cache_dir):
    """Cache entry path by registry type name."""
    return {json.loads(path.read_text())["type"]: path for path in cache_dir.iterdir()}


class TestDiskLoadedProfiles:
    def test_trace_fetch_keeps_the_resident_profile_and_writes_nothing(self, tmp_path):
        spec, machine = SPECS[0], MACHINES[0]
        written = _store(cache_dir=tmp_path).get(spec, machine)
        entries = _entries(tmp_path)
        assert sorted(entries) == ["LLCStream", "SingleCoreProfile"]
        mtimes = {name: path.stat().st_mtime_ns for name, path in entries.items()}

        reader = _store(cache_dir=tmp_path)
        loaded = reader.get_profile(spec, machine)
        stores = reader._cache.stats()["stores"]
        trace = reader.get_llc_trace(spec, machine)
        profiled = reader.get(spec, machine)
        assert profiled.profile is loaded
        assert profiled.llc_trace is trace
        assert reader._cache.stats()["stores"] == stores
        assert reader.simulated_profiles == 0 and reader.generated_traces == 0
        assert reader.loaded_profiles == 1 and reader.loaded_traces == 1
        assert {name: path.stat().st_mtime_ns for name, path in entries.items()} == mtimes
        assert_traces_equal(trace, written.llc_trace)
        assert trace.isolated_cycles == pytest.approx(loaded.total_cycles)

    def test_missing_trace_is_simulated_beside_the_resident_profile(self, tmp_path):
        spec, machine = SPECS[0], MACHINES[0]
        written = _store(cache_dir=tmp_path).get(spec, machine)
        entries = _entries(tmp_path)
        entries["LLCStream"].unlink()
        mtime = entries["SingleCoreProfile"].stat().st_mtime_ns

        reader = _store(cache_dir=tmp_path)
        loaded = reader.get_profile(spec, machine)
        stores = reader._cache.stats()["stores"]
        trace = reader.get_llc_trace(spec, machine)
        assert reader.get(spec, machine).profile is loaded
        # Only the stream is written back; the profile file is untouched.
        assert reader._cache.stats()["stores"] == stores + 1
        assert reader.simulated_profiles == 0 and reader.generated_traces == 1
        assert sorted(_entries(tmp_path)) == ["LLCStream", "SingleCoreProfile"]
        assert entries["SingleCoreProfile"].stat().st_mtime_ns == mtime
        assert_traces_equal(trace, written.llc_trace)

    def test_invalid_stream_entry_is_a_miss_and_gets_overwritten(self, tmp_path):
        spec, machine = SPECS[3], MACHINES[0]
        written = _store(cache_dir=tmp_path).get(spec, machine)
        entry = _entries(tmp_path)["LLCStream"]
        data = json.loads(entry.read_text())
        data["payload"]["line"]["data"] = "not base64!"
        entry.write_text(json.dumps(data))

        reader = _store(cache_dir=tmp_path)
        assert_traces_equal(reader.get_llc_trace(spec, machine), written.llc_trace)
        assert reader.generated_traces == 1 and reader.loaded_traces == 0
        again = _store(cache_dir=tmp_path)
        assert_traces_equal(again.get_llc_trace(spec, machine), written.llc_trace)
        assert again.generated_traces == 0 and again.loaded_traces == 1

    def test_absorbed_bundles_are_persisted_like_simulated_ones(self, tmp_path):
        spec = SPECS[4]
        bundle = _store().bundle(spec, MACHINES[:3])
        adopter = _store(cache_dir=tmp_path)
        adopter.absorb(spec, MACHINES[:3], bundle)
        assert adopter.absorbed_profiles == 3 and adopter.generated_traces == 0
        types = sorted(json.loads(path.read_text())["type"] for path in tmp_path.iterdir())
        assert types == ["LLCStream"] + ["SingleCoreProfile"] * 3

        reader = _store(cache_dir=tmp_path)
        for machine, profiled in zip(MACHINES[:3], bundle.profiled):
            assert_traces_equal(reader.get_llc_trace(spec, machine), profiled.llc_trace)
        assert reader.generated_traces == 0 and reader.loaded_traces == 3

    def test_every_llc_of_a_private_hierarchy_shares_one_stream_entry(self, tmp_path):
        spec = SPECS[1]
        written = _store(cache_dir=tmp_path).get_many(spec, MACHINES)
        types = sorted(json.loads(path.read_text())["type"] for path in tmp_path.iterdir())
        assert types == ["LLCStream"] + ["SingleCoreProfile"] * len(MACHINES)

        reader = _store(cache_dir=tmp_path)
        for machine, profiled in zip(MACHINES, written):
            assert_traces_equal(reader.get_llc_trace(spec, machine), profiled.llc_trace)
        assert reader.generated_traces == 0 and reader.simulated_profiles == 0
        assert reader.loaded_traces == len(MACHINES)

    def test_a_new_llc_extends_the_stream_entry(self, tmp_path):
        spec = SPECS[2]
        _store(cache_dir=tmp_path).get(spec, MACHINES[0])
        _store(cache_dir=tmp_path).get(spec, MACHINES[1])
        types = sorted(json.loads(path.read_text())["type"] for path in tmp_path.iterdir())
        assert types == ["LLCStream", "SingleCoreProfile", "SingleCoreProfile"]

        reader = _store(cache_dir=tmp_path)
        reader.get_many(spec, MACHINES[:2])
        assert reader.generated_traces == 0 and reader.loaded_traces == 2


class TestBundledStageOne:
    """A :class:`ProfileBundle` carries the stage-1 result to the absorbing store."""

    @staticmethod
    def _through_json(bundle):
        envelope = json.loads(json.dumps(serialize_result(bundle)))
        assert envelope["type"] == "ProfileBundle"
        return deserialize_result(envelope)

    @pytest.mark.parametrize("travel", ["in-memory", "json"])
    def test_absorbed_bundle_spares_the_trace_of_a_new_llc(self, travel):
        spec = SPECS[3]
        bundle = _store().bundle(spec, MACHINES[:2])
        assert len(bundle.private_runs) == 1
        if travel == "json":
            bundle = self._through_json(bundle)
        adopter = _store()
        adopter.absorb(spec, MACHINES[:2], bundle)
        later = adopter.get_many(spec, MACHINES[2:])
        assert adopter.generated_traces == 0 and adopter.simulated_profiles == len(MACHINES) - 2
        for machine, profiled in zip(MACHINES[2:], later):
            reference = _store().get(spec, machine)
            assert_profiles_equal(profiled.profile, reference.profile)
            assert_traces_equal(profiled.llc_trace, reference.llc_trace)

    def test_json_bundle_is_bit_exact_and_ships_each_stream_once(self):
        spec = SPECS[0]
        bundle = _store().bundle(spec, MACHINES)
        (run,) = bundle.private_runs
        payload = serialize_result(bundle)["payload"]
        assert [item["llc_trace"].keys() for item in payload["profiled"]] == [
            {"run", "isolated_cycles"}
        ] * len(MACHINES)
        decoded = self._through_json(bundle)
        (copy,) = decoded.private_runs
        for field in fields(run):
            left, right = getattr(run, field.name), getattr(copy, field.name)
            if isinstance(left, np.ndarray):
                assert left.dtype == right.dtype and left.shape == right.shape
                assert np.array_equal(left, right) and not right.flags.writeable
            else:
                assert left == right
        for original, item in zip(bundle.profiled, decoded.profiled):
            assert_profiles_equal(item.profile, original.profile)
            assert_traces_equal(item.llc_trace, original.llc_trace)
            assert item.llc_trace.line is copy.line

    def test_bundle_carries_one_run_per_private_hierarchy(self):
        spec = SPECS[1]
        other = scaled(llc_design_space(4)[0], 8)
        assert other.private_key() != MACHINES[0].private_key()
        machines = [MACHINES[0], other, MACHINES[1]]
        bundle = _store().bundle(spec, machines)
        assert [run.private_key for run in bundle.private_runs] == [
            MACHINES[0].private_key(),
            other.private_key(),
        ]
        decoded = self._through_json(bundle)
        first, second = decoded.private_runs
        assert [item.llc_trace.line is first.line for item in decoded.profiled] == [
            True,
            False,
            True,
        ]
        assert decoded.profiled[1].llc_trace.line is second.line
        for original, item in zip(bundle.profiled, decoded.profiled):
            assert_traces_equal(item.llc_trace, original.llc_trace)

    @pytest.mark.parametrize("index", [-1, 1])
    def test_a_trace_naming_a_missing_run_is_rejected(self, index):
        payload = _store().bundle(SPECS[2], MACHINES[:2]).to_dict()
        payload["profiled"][1]["llc_trace"]["run"] = index
        with pytest.raises(ValueError, match="stage-1 run"):
            ProfileBundle.from_dict(payload)

    def test_absorb_keeps_the_stage_one_run_already_in_memory(self):
        spec = SPECS[6]
        adopter = _store()
        adopter.get(spec, MACHINES[0])
        (own,) = adopter.bundle(spec, MACHINES[:1]).private_runs
        adopter.absorb(spec, MACHINES[1:3], _store().bundle(spec, MACHINES[1:3]))
        (kept,) = adopter.bundle(spec, MACHINES[:3]).private_runs
        assert kept is own
        assert adopter.generated_traces == 1

    def test_a_bundle_loaded_from_the_cache_carries_no_stage_one(self, tmp_path):
        spec = SPECS[5]
        _store(cache_dir=tmp_path).get_many(spec, MACHINES[:2])
        bundle = _store(cache_dir=tmp_path).bundle(spec, MACHINES[:2])
        assert bundle.private_runs == ()
        decoded = self._through_json(bundle)
        for original, item in zip(bundle.profiled, decoded.profiled):
            assert_traces_equal(item.llc_trace, original.llc_trace)


class TestParallelWarmUp:
    def test_one_warm_job_per_spec_matching_serial(self, monkeypatch):
        config = ExperimentConfig(scale=16, num_instructions=INSTRUCTIONS, interval_instructions=INTERVAL)
        workload = "suite:spec29/scaled@4"
        serial = ExperimentSetup(config=config, workload=workload)
        parallel = ExperimentSetup(config=config, workload=workload, jobs=2)
        submitted = []
        original_run = parallel.engine.run

        def recording_run(jobs):
            jobs = list(jobs)
            submitted.append(jobs)
            return original_run(jobs)

        monkeypatch.setattr(parallel.engine, "run", recording_run)
        mix = WorkloadMix(programs=tuple(serial.benchmark_names))
        pairs = [(mix, machine) for machine in serial.design_space(num_cores=4)]
        try:
            assert parallel.simulate_batch(pairs) == serial.simulate_batch(pairs)
        finally:
            parallel.close()
        # The profile step, then the sweep: no other engine run.
        warm, sweep = submitted
        assert len(sweep) == len(pairs)
        assert len(warm) == len(serial.suite)
        assert all(job.fn is engine_tasks.profile_bundle_task for job in warm)
        assert parallel.store.absorbed_profiles == len(serial.suite) * len(pairs)
        for spec in serial.suite:
            for _, machine in pairs:
                assert_profiles_equal(
                    parallel.store.get_profile(spec, machine), serial.store.get_profile(spec, machine)
                )
                assert_traces_equal(
                    parallel.store.get_llc_trace(spec, machine),
                    serial.store.get_llc_trace(spec, machine),
                )
