"""Tests for the parallel experiment engine.

The engine's three contracts are exercised end-to-end against the real
experiment stack (at test scale):

* **Determinism** — the process-pool backend returns bit-identical
  results to the serial backend, in the same order.
* **Memoisation** — a warm persistent :class:`ResultCache` answers a
  repeated sweep with *zero* recomputation (no profiling, no reference
  simulation, no MPPM iteration).
* **Structure** — one run takes a flat list of uniquely keyed jobs and
  returns their results in submission order; progress hooks see every
  job's fate.
"""

import dataclasses
import io
import json

import pytest

from repro.core.mppm import MPPM
from repro.engine import (
    ConsoleReporter,
    Executor,
    Job,
    MISS,
    ProcessPoolBackend,
    ProgressReporter,
    ResultCache,
    SerialBackend,
    content_key,
    create_engine,
)
from repro.engine import tasks as engine_tasks
from repro.engine.cache import serialize_result
from repro.experiments import SIMULATE, ExperimentConfig, ExperimentSetup
from repro.experiments.results import evaluation_ops, evaluations
from repro.io import atomic_write_json, read_json_tolerant
from repro.predictors import canonical_spec
from repro.profiling.profile import SingleCoreProfile
from repro.simulators.multi_core import MultiCoreSimulator
from repro.workloads import WorkloadMix, sample_mixes, small_suite


ENGINE_CONFIG = ExperimentConfig(scale=16, num_instructions=20_000, interval_instructions=1_000)


def engine_setup(**kwargs) -> ExperimentSetup:
    return ExperimentSetup(config=ENGINE_CONFIG, suite=small_suite(5), **kwargs)


class CollectingReporter(ProgressReporter):
    """Records every progress event, so tests can count job fates."""

    def __init__(self) -> None:
        self.total_jobs = 0
        self.events = []
        self.finished = False

    def on_start(self, total_jobs: int) -> None:
        self.total_jobs = total_jobs

    def on_job(self, job: Job, status: str) -> None:
        self.events.append((job.key, status))

    def on_finish(self) -> None:
        self.finished = True

    def count(self, status: str) -> int:
        return sum(1 for _, event_status in self.events if event_status == status)


def evaluate_foa(setup: ExperimentSetup, pairs):
    """``mppm:foa`` evaluated against the reference on every pair, in one sweep."""
    ops = evaluation_ops(["mppm:foa"], pairs)
    return evaluations(ops, setup.predictor_batch(ops))["mppm:foa"]


@pytest.fixture(scope="module")
def mixes():
    return sample_mixes(small_suite(5).names, 2, 6, seed=3)


# ---------------------------------------------------------------------------
# Backends: serial vs process pool
# ---------------------------------------------------------------------------


class TestSerialVersusProcessPool:
    def test_predictions_are_bit_identical(self, mixes):
        serial = engine_setup()
        parallel = engine_setup(jobs=2)
        ops = [("mppm:foa", mix, serial.machine(num_cores=2)) for mix in mixes]
        try:
            serial_predictions = serial.predictor_batch(ops)
            parallel_predictions = parallel.predictor_batch(ops)
        finally:
            parallel.close()
        # Dataclass equality compares every float exactly: bit-identical.
        assert serial_predictions == parallel_predictions

    def test_evaluations_are_bit_identical(self, mixes):
        serial = engine_setup()
        parallel = engine_setup(jobs=2)
        pairs = [(mix, serial.machine(num_cores=2)) for mix in mixes]
        try:
            serial_evaluations = evaluate_foa(serial, pairs)
            parallel_evaluations = evaluate_foa(parallel, pairs)
        finally:
            parallel.close()
        for serial_one, parallel_one in zip(serial_evaluations, parallel_evaluations):
            assert serial_one.mix == parallel_one.mix
            assert serial_one.predicted == parallel_one.predicted
            assert serial_one.measured == parallel_one.measured

    def test_parallel_warm_phase_absorbs_worker_profiles(self, mixes):
        parallel = engine_setup(jobs=2)
        machine = parallel.machine(num_cores=2)
        try:
            parallel.predictor_batch([("mppm:foa", mix, machine) for mix in mixes])
        finally:
            parallel.close()
        # The one-time profiling cost was paid on the pool, not inline.
        assert parallel.store.absorbed_profiles > 0
        assert parallel.store.simulated_profiles == 0


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_content_key_is_stable_and_discriminating(self):
        key = content_key("simulate", "machine", (1, 2), 42)
        assert key == content_key("simulate", "machine", (1, 2), 42)
        assert key != content_key("predict", "machine", (1, 2), 42)

    def test_simulate_jobs_key_on_the_pair_and_the_config(self):
        setup = engine_setup()
        machine = setup.machine(num_cores=2)
        names = setup.benchmark_names
        mix = WorkloadMix(programs=(names[0], names[1]))

        def key(mix, machine, setup=setup):
            return engine_tasks.simulate_job(setup, mix, machine, key="op").cache_key

        assert key(mix, machine) == key(mix, machine)
        # The machine's name is a label, not part of the result.
        assert key(mix, dataclasses.replace(machine, name="renamed")) == key(mix, machine)
        assert key(mix, machine) != key(WorkloadMix(programs=(names[0], names[2])), machine)
        assert key(mix, machine) != key(mix, setup.machine(num_cores=2, llc_config=6))
        other = ExperimentSetup(
            config=dataclasses.replace(ENGINE_CONFIG, num_instructions=30_000),
            suite=small_suite(5),
        )
        assert key(mix, machine, other) != key(mix, machine)

    def test_predict_jobs_key_on_the_spec_the_pair_and_the_config(self):
        setup = engine_setup()
        machine = setup.machine(num_cores=2)
        names = setup.benchmark_names
        mix = WorkloadMix(programs=(names[0], names[1]))

        def key(spec, mix, machine, setup=setup):
            job = engine_tasks.predict_job(setup, mix, machine, key="op", predictor=spec)
            # Batched sweeps store each prediction under the per-op key.
            assert job.cache_key == engine_tasks.predict_cache_key(
                setup, canonical_spec(spec or "mppm"), mix, machine
            )
            return job.cache_key

        assert key("mppm:foa", mix, machine) == key("mppm:foa", mix, machine)
        # The default and the spec's aliases name the same prediction.
        assert key(None, mix, machine) == key("mppm:foa", mix, machine)
        assert key("mppm", mix, machine) == key("mppm:foa", mix, machine)
        assert key("hybrid:k=02", mix, machine) == key("hybrid:k=2", mix, machine)
        assert key("mppm:foa", mix, machine) != key("mppm:sdc", mix, machine)
        assert key("mppm:foa", mix, machine) != key("detailed", mix, machine)
        assert key("mppm:foa", mix, dataclasses.replace(machine, name="renamed")) == key(
            "mppm:foa", mix, machine
        )
        assert key("mppm:foa", mix, machine) != key(
            "mppm:foa", WorkloadMix(programs=(names[0], names[2])), machine
        )
        assert key("mppm:foa", mix, machine) != key(
            "mppm:foa", mix, setup.machine(num_cores=2, llc_config=6)
        )
        other = ExperimentSetup(
            config=dataclasses.replace(ENGINE_CONFIG, num_instructions=30_000),
            suite=small_suite(5),
        )
        assert key("mppm:foa", mix, machine, other) != key("mppm:foa", mix, machine)

    def test_memory_miss_then_hit(self):
        cache = ResultCache()
        assert cache.get("k") is MISS
        cache.put("k", 123)
        assert cache.get("k") == 123
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1

    def test_disk_roundtrip_of_registered_types(self, tmp_path, mixes):
        setup = engine_setup()
        machine = setup.machine(num_cores=2)
        prediction = setup.predict(mixes[0], machine)
        measurement = setup.simulate(mixes[0], machine)

        writer = ResultCache(tmp_path)
        writer.put("prediction", prediction)
        writer.put("measurement", measurement)

        reader = ResultCache(tmp_path)
        assert reader.get("prediction") == prediction
        assert reader.get("measurement") == measurement
        assert reader.loaded == 2

    def test_written_bytes_are_exactly_json_dumps(self, tmp_path, mixes):
        setup = engine_setup()
        data = {
            "envelope": serialize_result(setup.predict(mixes[0], setup.machine(num_cores=2))),
            "floats": [0.1, -0.0, 1e-320, 1.7976931348623157e308],
            "text": "gamess \u00e9\u4e2d",
            "nested": [None, True, {"k": [1, 2]}],
        }
        path = tmp_path / "entry.json"
        atomic_write_json(path, data)
        assert path.read_bytes() == json.dumps(data).encode("utf-8")
        assert read_json_tolerant(path) == data

    def test_corrupt_cache_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / f"{'k'}.json").write_text("{not json", encoding="utf-8")
        assert cache.get("k") is MISS

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_a_stored_profile_with_a_non_finite_value_is_a_miss(self, tmp_path, value):
        # JSON writes and reads NaN and Infinity; the profile constructor
        # rejects them, so a cache entry carrying one is recomputed.
        profile = SingleCoreProfile(
            "unit", "k", "m", 1_000, 2,
            instructions=[1_000, 1_000],
            cpi=[1.0, 1.5],
            memory_cpi=[0.5, 0.5],
            llc_accesses=[3.0, 3.0],
            llc_misses=[1.0, 1.0],
            sdc=[[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
        )
        ResultCache(tmp_path).put("profile", profile)
        assert ResultCache(tmp_path).get("profile").to_dict() == profile.to_dict()
        path = tmp_path / "profile.json"
        entry = json.loads(path.read_text())
        entry["payload"]["intervals"][1]["cpi"] = value
        path.write_text(json.dumps(entry))
        reader = ResultCache(tmp_path)
        assert reader.get("profile") is MISS
        assert reader.misses == 1 and reader.loaded == 0

    def test_warm_cache_performs_zero_recomputation(self, tmp_path, mixes, monkeypatch):
        cache_dir = tmp_path / "campaign"
        cold = engine_setup(cache_dir=cache_dir)
        pairs = [(mix, cold.machine(num_cores=2)) for mix in mixes]
        cold_evaluations = evaluate_foa(cold, pairs)
        assert cold.store.simulated_profiles > 0

        # Any attempt to recompute would now blow up.
        def forbidden(self, *args, **kwargs):
            raise AssertionError("a warm cache must not recompute anything")

        monkeypatch.setattr(MultiCoreSimulator, "run", forbidden)
        monkeypatch.setattr(MPPM, "predict_mix", forbidden)
        from repro.profiling.profiler import Profiler

        monkeypatch.setattr(Profiler, "profile", forbidden)

        warm = engine_setup(cache_dir=cache_dir)
        warm_evaluations = evaluate_foa(warm, pairs)
        assert warm.store.simulated_profiles == 0
        assert warm.reference_runs() == 0
        for cold_one, warm_one in zip(cold_evaluations, warm_evaluations):
            assert cold_one.predicted == warm_one.predicted
            assert cold_one.measured == warm_one.measured

    def test_second_process_simulates_new_mixes_without_generating_traces(self, tmp_path):
        names = small_suite(5).names
        first_mixes = [WorkloadMix(programs=pair) for pair in zip(names, names[1:] + names[:1])]
        new_mixes = [WorkloadMix(programs=pair) for pair in zip(names, names[2:] + names[:2])]
        cold = engine_setup(cache_dir=tmp_path)
        machine = cold.machine(num_cores=2)
        cold.predictor_batch([(SIMULATE, mix, machine) for mix in first_mixes])
        assert cold.store.generated_traces == len(names)

        # A fresh setup on the same cache dir stands in for a second process.
        warm = engine_setup(cache_dir=tmp_path)
        runs = warm.predictor_batch([(SIMULATE, mix, machine) for mix in new_mixes])
        assert warm.store.generated_traces == 0 and warm.store.simulated_profiles == 0
        assert warm.store.loaded_traces == len(names)
        assert warm.reference_runs() == len(new_mixes)
        fresh = engine_setup().predictor_batch([(SIMULATE, mix, machine) for mix in new_mixes])
        assert [run.to_dict() for run in runs] == [run.to_dict() for run in fresh]

    def test_warm_cache_skips_the_profile_warmup_wave(self, tmp_path, mixes):
        cache_dir = tmp_path / "campaign"
        cold = engine_setup(cache_dir=cache_dir)
        pairs = [(mix, cold.machine(num_cores=2)) for mix in mixes]
        evaluate_foa(cold, pairs)

        reporter = CollectingReporter()
        warm = engine_setup(
            engine=create_engine(cache_dir=cache_dir, reporter=reporter), cache_dir=cache_dir
        )
        evaluate_foa(warm, pairs)
        assert reporter.count("cached") == 2 * len(mixes)
        assert reporter.count("done") == 0
        # Not even a disk profile was touched.
        assert warm.store.loaded_profiles == 0 and warm.store.simulated_profiles == 0


# ---------------------------------------------------------------------------
# Executor behaviour
# ---------------------------------------------------------------------------


def _double(value: int) -> int:
    return 2 * value


#: Changed by a test after import: only a forked pool worker sees the change.
_PARENT_STATE = {"value": "as imported"}


def _read_parent_state() -> str:
    return _PARENT_STATE["value"]


class TestExecutor:
    def test_results_keep_submission_order(self):
        jobs = [Job(key=f"j{i}", fn=_double, args=(i,)) for i in range(20)]
        with Executor(ProcessPoolBackend(2)) as executor:
            results = executor.run(jobs)
        assert list(results) == [job.key for job in jobs]
        assert list(results.values()) == [2 * i for i in range(20)]

    def test_duplicate_keys_rejected(self):
        jobs = [Job(key="a", fn=_double, args=(1,)), Job(key="a", fn=_double, args=(2,))]
        with pytest.raises(ValueError):
            Executor(SerialBackend()).run(jobs)

    def test_pool_workers_inherit_state_set_after_import(self, monkeypatch):
        # Pool workers must be forked whatever the platform's default
        # start method is; a spawned or forkserver worker would
        # re-import this module and see the import-time value.
        monkeypatch.setitem(_PARENT_STATE, "value", "set by the parent")
        with Executor(ProcessPoolBackend(1)) as executor:
            assert executor.run([Job(key="peek", fn=_read_parent_state)]) == {
                "peek": "set by the parent"
            }

    def test_an_empty_run_starts_no_workers(self):
        reporter = CollectingReporter()
        backend = ProcessPoolBackend(2)
        assert Executor(backend, reporter=reporter).run([]) == {}
        assert backend._pool is None
        assert reporter.total_jobs == 0 and reporter.finished

    def test_jobs_are_flat_units_without_graph_fields(self):
        fields = [field.name for field in dataclasses.fields(Job)]
        assert fields == ["key", "fn", "args", "kwargs", "kind", "cache_key"]

    def test_identical_cache_keys_are_deduplicated_within_a_run(self):
        reporter = CollectingReporter()
        executor = Executor(
            SerialBackend(), cache=ResultCache(), reporter=reporter
        )
        jobs = [
            Job(key="first", fn=_double, args=(21,), cache_key="same"),
            Job(key="second", fn=_double, args=(21,), cache_key="same"),
        ]
        results = executor.run(jobs)
        assert results == {"first": 42, "second": 42}
        assert reporter.count("done") == 1
        assert reporter.count("shared") == 1

    def test_progress_reporter_sees_every_job(self):
        reporter = CollectingReporter()
        executor = Executor(SerialBackend(), reporter=reporter)
        executor.run([Job(key=f"j{i}", fn=_double, args=(i,)) for i in range(5)])
        assert reporter.total_jobs == 5
        assert reporter.count("done") == 5
        assert reporter.finished

    def test_console_reporter_counts_cached_jobs(self):
        stream = io.StringIO()
        executor = Executor(
            SerialBackend(), cache=ResultCache(), reporter=ConsoleReporter(stream, label="t")
        )
        executor.store("hit", 2)
        executor.run(
            [Job(key="a", fn=_double, args=(1,), cache_key="hit"), Job(key="b", fn=_double, args=(2,))]
        )
        assert stream.getvalue().split("\r")[-1].startswith("[t] 2/2 jobs (1 cached) in ")

    def test_create_engine_validates_jobs(self):
        with pytest.raises(ValueError):
            create_engine(jobs=0)
