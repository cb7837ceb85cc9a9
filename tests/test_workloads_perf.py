"""Tests for the ``perf:`` workload family and the spec29 category subsets.

The contract pinned here: ``perf:<path>`` specs canonicalise with a
content digest of the source (so engine cache entries are invalidated
when the samples change on disk), accept ``benchmarks=`` / ``seed=``
sub-parameters, preserve path case, and flow through ExperimentSetup
with serial/parallel bit-identity; ``suite:spec29/mem|comp|mix`` are
the classification-derived subsets of the full suite.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig, ExperimentSetup
from repro.ingest import write_bundle
from repro.ingest.workload import ingest_to_bundle
from repro.workloads import (
    BenchmarkClass,
    WorkloadMix,
    WorkloadSpecError,
    canonical_workload_spec,
    classify_suite,
    describe_workloads,
    make_workload,
    spec_cpu2006_like_suite,
)

FIXTURE = Path(__file__).parent / "data" / "perf_ingest_samples.csv"

CONFIG = ExperimentConfig(scale=16, num_instructions=20_000, interval_instructions=1_000)


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    workload, _ = ingest_to_bundle(FIXTURE)
    out = tmp_path_factory.mktemp("perf") / "bundle"
    write_bundle(workload, out)
    return out


class TestPerfSpecs:
    def test_canonicalisation_appends_the_source_digest(self):
        canonical = canonical_workload_spec(f"perf:{FIXTURE}")
        assert canonical.startswith(f"perf:{FIXTURE},digest=")
        digest = canonical.rpartition("=")[2]
        assert len(digest) == 12
        assert int(digest, 16) >= 0
        # Idempotent: canonicalising the canonical form is a no-op.
        assert canonical_workload_spec(canonical) == canonical

    def test_path_case_is_preserved(self, tmp_path):
        mixed_case = tmp_path / "MySamples.csv"
        mixed_case.write_text(FIXTURE.read_text())
        machine_src = FIXTURE.with_name(FIXTURE.stem + ".machine.json")
        (tmp_path / "MySamples.machine.json").write_text(machine_src.read_text())
        canonical = canonical_workload_spec(f"perf:{mixed_case}")
        assert "MySamples.csv" in canonical

    def test_sub_parameters_are_ordered_canonically(self):
        canonical = canonical_workload_spec(f"perf:{FIXTURE},seed=3,benchmarks=2")
        assert canonical.startswith(f"perf:{FIXTURE},benchmarks=2,seed=3,digest=")

    def test_raw_samples_build_one_benchmark_per_core(self):
        suite = make_workload(f"perf:{FIXTURE}").suite()
        assert suite.names == ["pmu-c0", "pmu-c1", "pmu-c2"]

    def test_benchmarks_parameter_selects_a_prefix(self):
        suite = make_workload(f"perf:{FIXTURE},benchmarks=2").suite()
        assert suite.names == ["pmu-c0", "pmu-c1"]

    def test_seed_parameter_reseeds_the_fitted_specs(self):
        base = make_workload(f"perf:{FIXTURE}").suite()
        reseeded = make_workload(f"perf:{FIXTURE},seed=5").suite()
        assert all(spec.seed == 5 for spec in reseeded)
        assert [spec.name for spec in base] == [spec.name for spec in reseeded]

    def test_bundle_specs_skip_refitting(self, bundle_dir):
        suite = make_workload(f"perf:{bundle_dir}").suite()
        assert suite.names == ["pmu-c0", "pmu-c1", "pmu-c2"]

    def test_bundle_and_raw_samples_fit_identically(self, bundle_dir):
        raw = make_workload(f"perf:{FIXTURE}").suite()
        stored = make_workload(f"perf:{bundle_dir}").suite()
        assert raw.specs == stored.specs

    def test_digest_mismatch_is_a_structured_error(self):
        with pytest.raises(WorkloadSpecError, match="changed on disk"):
            make_workload(f"perf:{FIXTURE},digest=000000000000")

    def test_missing_file_is_a_spec_error(self, tmp_path):
        with pytest.raises(WorkloadSpecError, match="not found"):
            make_workload(f"perf:{tmp_path / 'nope.csv'}")

    def test_malformed_samples_are_spec_errors(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("core,timestamp\n0,1.0\n")
        (tmp_path / "machine.json").write_text(
            (FIXTURE.with_name(FIXTURE.stem + ".machine.json")).read_text()
        )
        with pytest.raises(WorkloadSpecError, match="missing"):
            make_workload(f"perf:{bad}")

    def test_unknown_parameter_is_rejected(self):
        with pytest.raises(WorkloadSpecError, match="cores"):
            make_workload(f"perf:{FIXTURE},cores=2")

    @pytest.mark.parametrize(
        "params", ["seed=1,seed=2", "benchmarks=1,seed=0,benchmarks=2", "digest=a,digest=a"]
    )
    def test_repeated_parameter_is_rejected(self, params):
        with pytest.raises(WorkloadSpecError, match="more than once"):
            make_workload(f"perf:{FIXTURE},{params}")

    def test_benchmarks_out_of_range_is_rejected(self):
        with pytest.raises(WorkloadSpecError, match="benchmarks"):
            make_workload(f"perf:{FIXTURE},benchmarks=9")

    def test_family_is_advertised(self):
        rows = dict(describe_workloads())
        assert any(spec.startswith("perf:") for spec in rows)


class TestPerfThroughTheStack:
    def test_setup_accepts_perf_specs(self, bundle_dir):
        setup = ExperimentSetup(config=CONFIG, workload=f"perf:{bundle_dir}")
        assert setup.workload_spec.startswith(f"perf:{bundle_dir},digest=")
        assert setup.benchmark_names == ["pmu-c0", "pmu-c1", "pmu-c2"]
        mix = WorkloadMix(programs=("pmu-c0", "pmu-c1"))
        machine = setup.machine(num_cores=2)
        prediction = setup.predict(mix, machine)
        assert prediction.system_throughput > 0

    def test_parallel_engine_is_bit_identical_to_serial(self, bundle_dir, tmp_path):
        spec = f"perf:{bundle_dir}"
        serial = ExperimentSetup(config=CONFIG, workload=spec)
        parallel = ExperimentSetup(
            config=CONFIG, workload=spec, jobs=2, cache_dir=tmp_path / "cache"
        )
        try:
            machine = serial.machine(num_cores=2)
            ops = [
                ("mppm:foa", WorkloadMix(programs=("pmu-c0", "pmu-c1")), machine),
                ("mppm:foa", WorkloadMix(programs=("pmu-c2", "pmu-c0")), machine),
            ]
            assert parallel.predictor_batch(ops) == serial.predictor_batch(ops)
        finally:
            parallel.close()

    def test_digest_qualifies_the_engine_cache(self, bundle_dir, tmp_path):
        """Changing the source changes the canonical spec, hence the keys."""
        from repro.engine import tasks as engine_tasks

        other = tmp_path / "other"
        workload, _ = ingest_to_bundle(FIXTURE)
        from dataclasses import replace

        write_bundle(replace(workload, source_digest="feedfacecafe"), other)
        mix = WorkloadMix(programs=("pmu-c0", "pmu-c1"))
        keys = []
        for path in (bundle_dir, other):
            setup = ExperimentSetup(config=CONFIG, workload=f"perf:{path}")
            machine = setup.machine(num_cores=2)
            job = engine_tasks.predict_job(setup, mix, machine, key="op:0")
            keys.append(job.cache_key)
        assert keys[0] != keys[1]


class TestCategorySubsets:
    @pytest.mark.parametrize("modifier", ["mem", "comp", "mix"])
    def test_subset_matches_the_classification(self, modifier):
        suite = make_workload(f"suite:spec29/{modifier}").suite()
        classes = classify_suite(spec_cpu2006_like_suite())
        expected = [
            name
            for name, cls in classes.items()
            if cls is BenchmarkClass(modifier.upper())
        ]
        assert suite.names == expected
        assert len(suite) > 0

    def test_canonicalisation_and_case(self):
        assert canonical_workload_spec("SUITE:SPEC29/MEM") == "suite:spec29/mem"

    def test_subsets_work_as_experiment_workloads(self):
        setup = ExperimentSetup(config=CONFIG, workload="suite:spec29/mem")
        assert setup.workload_spec == "suite:spec29/mem"
        mixes = setup.mixes(2, 2, seed=1)
        classes = setup.classification()
        for mix in mixes:
            assert all(classes[name] is BenchmarkClass.MEM for name in mix.programs)

    def test_unknown_modifier_is_rejected(self):
        with pytest.raises(WorkloadSpecError):
            make_workload("suite:spec29/io")
