"""Tests for the unified Workload API (registry, setup wiring, caching).

The contract pinned here: every advertised spec constructs, supplies a
valid suite and samples mixes; canonical specs round-trip
(``make_workload(spec).spec == spec``); unknown specs fail with the
list of available names; ``suite:spec29`` reproduces the pre-redesign
behaviour exactly (same suite, same mixes, same predictions — serial
and with engine workers); and the workload spec string qualifies the
experiment setup, its profile store and the engine cache keys.
"""

import json

import numpy as np
import pytest

import repro
from repro.experiments import ExperimentConfig, ExperimentSetup
from repro.workloads import (
    DEFAULT_WORKLOAD,
    BenchmarkClass,
    WorkloadMix,
    WorkloadSource,
    WorkloadSpecError,
    available_workloads,
    canonical_workload_spec,
    classify_suite,
    describe_workloads,
    make_workload,
    random_benchmark,
    resolve_categories,
    sample_category_mixes,
    sample_mixes,
    service_benchmark,
    small_suite,
    spec_cpu2006_like_suite,
    workload_for,
)
from repro.workloads.benchmark import WorkloadError

CONFIG = ExperimentConfig(scale=16, num_instructions=20_000, interval_instructions=1_000)


class TestRegistry:
    def test_advertised_specs_construct_and_round_trip(self):
        for spec in available_workloads():
            workload = make_workload(spec)
            assert isinstance(workload, WorkloadSource)
            canonical = canonical_workload_spec(spec)
            if spec.startswith("perf:"):
                # perf: canonicalises by appending the content digest of
                # the source; canonicalisation is then idempotent.
                assert canonical.startswith(spec + ",digest=")
                assert canonical_workload_spec(canonical) == canonical
                assert workload.spec == canonical
            else:
                assert workload.spec == spec
                assert canonical == spec
            suite = workload.suite()
            assert len(suite) > 0
            assert workload.describe()

    def test_default_workload_is_the_spec29_suite(self):
        assert DEFAULT_WORKLOAD == "suite:spec29"
        workload = make_workload()
        assert workload.spec == DEFAULT_WORKLOAD
        assert workload.suite().specs == spec_cpu2006_like_suite().specs

    def test_scaled_spec_matches_the_legacy_small_suite(self):
        workload = make_workload("suite:spec29/scaled@5")
        assert workload.suite().specs == small_suite(5).specs

    @pytest.mark.parametrize(
        "bad",
        [
            "oracle",
            "suite:spec30",
            "suite:spec29/scaled@",
            "suite:spec29/scaled@x",
            "random:m=3",
            "random:n=",
            "service:n=0",
            "random:n=100000",
            "service:seed=-1",
            "random:n=4,n=8",
            "service:seed=1,n=4,seed=1",
        ],
    )
    def test_unknown_or_malformed_specs_are_rejected(self, bad):
        with pytest.raises(ValueError) as excinfo:
            make_workload(bad)
        assert isinstance(excinfo.value, WorkloadSpecError)

    def test_unknown_spec_lists_available_names(self):
        with pytest.raises(WorkloadSpecError) as excinfo:
            make_workload("oracle")
        message = str(excinfo.value)
        for spec in available_workloads():
            assert spec in message

    def test_descriptions_cover_every_family(self):
        rows = dict(describe_workloads())
        assert any(spec.startswith("suite:") for spec in rows)
        assert any(spec.startswith("random:") for spec in rows)
        assert any(spec.startswith("service:") for spec in rows)
        assert all(description for description in rows.values())

    def test_workload_api_is_top_level(self):
        for name in (
            "make_workload",
            "available_workloads",
            "WorkloadSource",
            "DEFAULT_WORKLOAD",
            "GENERATOR_KERNELS",
        ):
            assert name in repro.__all__
            assert hasattr(repro, name)


class TestFamilies:
    def test_random_family_is_deterministic_and_prefix_stable(self):
        a = make_workload("random:n=6,seed=3").suite()
        b = make_workload("random:n=6,seed=3").suite()
        assert a.specs == b.specs
        # Benchmark i is the same for every n > i: scaling a study up
        # never changes (or re-profiles) the benchmarks already run.
        bigger = make_workload("random:n=9,seed=3").suite()
        assert bigger.specs[:6] == a.specs
        assert random_benchmark(2, seed=3) == a.specs[2]

    def test_random_seeds_differ(self):
        assert (
            make_workload("random:n=4,seed=0").suite().specs
            != make_workload("random:n=4,seed=1").suite().specs
        )

    def test_service_family_is_bursty_and_strongly_phased(self):
        suite = make_workload("service:n=8,seed=0").suite()
        assert all(spec.num_phases >= 3 for spec in suite)
        # Every service benchmark has at least one burst phase that
        # multiplies cold-miss traffic and access rate.
        for spec in suite:
            assert any(
                phase.new_line_multiplier >= 2.0 and phase.mem_fraction_multiplier > 1.0
                for phase in spec.phases
            )
        assert suite.names[0].startswith("svc-")
        assert service_benchmark(1, seed=0) == suite.specs[1]

    def test_service_roles_cycle_without_name_collisions(self):
        suite = make_workload("service:n=12,seed=0").suite()
        assert len(set(suite.names)) == 12

    def test_family_mixes_match_sample_mixes(self):
        workload = make_workload("service:n=6,seed=0")
        assert workload.mixes(4, 5, seed=9) == sample_mixes(
            workload.suite().names, 4, 5, seed=9
        )


class TestWorkloadFor:
    def test_none_is_the_default_workload(self):
        assert workload_for(None).spec == DEFAULT_WORKLOAD

    def test_known_suites_get_canonical_specs(self):
        assert workload_for(None, suite=spec_cpu2006_like_suite()).spec == "suite:spec29"
        assert workload_for(None, suite=small_suite(7)).spec == "suite:spec29/scaled@7"

    def test_ad_hoc_suites_get_deterministic_inline_specs(self):
        suite = spec_cpu2006_like_suite().subset(["gamess", "lbm", "mcf"])
        first = workload_for(None, suite=suite)
        second = workload_for(suite)
        assert first.spec.startswith("inline:")
        assert first.spec == second.spec
        assert first.suite() is suite

    def test_sources_pass_through(self):
        source = make_workload("random:n=3,seed=0")
        assert workload_for(source) is source


class TestExperimentSetupWiring:
    def test_setup_defaults_to_spec29(self):
        setup = ExperimentSetup(config=CONFIG)
        assert setup.workload_spec == "suite:spec29"
        assert len(setup.suite) == 29

    def test_setup_accepts_spec_strings_and_sources(self):
        by_spec = ExperimentSetup(config=CONFIG, workload="service:n=4,seed=0")
        by_source = ExperimentSetup(
            config=CONFIG, workload=make_workload("service:n=4,seed=0")
        )
        assert by_spec.workload_spec == by_source.workload_spec == "service:n=4,seed=0"
        assert by_spec.suite.specs == by_source.suite.specs
        assert by_spec.benchmark_names[0].startswith("svc-")

    def test_legacy_suite_objects_still_work(self):
        setup = ExperimentSetup(config=CONFIG, suite=small_suite(5))
        assert setup.workload_spec == "suite:spec29/scaled@5"
        assert setup.suite.specs == small_suite(5).specs

    def test_setup_mixes_equal_the_legacy_sampling(self):
        setup = ExperimentSetup(config=CONFIG, workload="suite:spec29/scaled@6")
        assert setup.mixes(4, 6, seed=11) == sample_mixes(
            setup.benchmark_names, 4, 6, seed=11
        )

    def test_spec29_reproduces_pre_redesign_predictions(self):
        legacy = ExperimentSetup(config=CONFIG, suite=small_suite(4))
        redesigned = ExperimentSetup(config=CONFIG, workload="suite:spec29/scaled@4")
        mix = WorkloadMix(programs=tuple(legacy.benchmark_names[:2]))
        machine = legacy.machine(num_cores=2)
        assert redesigned.predict(mix, machine) == legacy.predict(mix, machine)

    def test_parallel_engine_agrees_with_serial(self, tmp_path):
        serial = ExperimentSetup(config=CONFIG, workload="suite:spec29/scaled@4")
        parallel = ExperimentSetup(
            config=CONFIG,
            workload="suite:spec29/scaled@4",
            jobs=2,
            cache_dir=tmp_path / "campaign",
        )
        try:
            mixes = serial.mixes(2, 3, seed=5)
            machine = serial.machine(num_cores=2)
            ops = [("mppm:foa", mix, machine) for mix in mixes]
            assert parallel.predictor_batch(ops) == serial.predictor_batch(ops)
        finally:
            parallel.close()

    def test_distinct_workloads_never_share_engine_cache_entries(self, tmp_path):
        from repro.engine import tasks as engine_tasks

        mix = WorkloadMix(programs=("svc-auth", "svc-auth"))
        keys = []
        for spec in ("service:n=4,seed=0", "service:n=4,seed=1"):
            setup = ExperimentSetup(config=CONFIG, workload=spec)
            machine = setup.machine(num_cores=2)
            job = engine_tasks.predict_job(setup, mix, machine, key="op:0")
            keys.append(job.cache_key)
        assert keys[0] != keys[1]


class TestProfileStoreQualification:
    """Profiles are keyed by the full benchmark spec, never the workload."""

    def _store(self, cache_dir):
        from repro.profiling import ProfileStore

        return ProfileStore(
            num_instructions=20_000, interval_instructions=1_000, cache_dir=cache_dir
        )

    def test_identical_benchmark_specs_share_profiles_across_workloads(self, tmp_path):
        # suite:spec29 and suite:spec29/scaled@8 both contain the same
        # gamess BenchmarkSpec; the second workload must reuse the
        # first's profile entry instead of re-simulating.
        first = ExperimentSetup(config=CONFIG, workload="suite:spec29", cache_dir=tmp_path)
        spec = first.suite["gamess"]
        machine = first.machine(num_cores=1)
        first.store.get_profile(spec, machine)
        assert first.store.simulated_profiles == 1

        second = ExperimentSetup(
            config=CONFIG, workload="suite:spec29/scaled@8", cache_dir=tmp_path
        )
        assert second.suite["gamess"] == spec
        second.store.get_profile(spec, machine)
        assert second.store.simulated_profiles == 0
        assert second.store.loaded_profiles == 1
        # gamess's profile and its LLC stream, one entry each.
        assert len(list((tmp_path / "results").iterdir())) == 2
        assert not (tmp_path / "profiles").exists()

    def test_same_name_different_specs_load_their_own_profiles(self, tmp_path):
        from dataclasses import replace

        original = spec_cpu2006_like_suite()["gamess"]
        redefined = replace(original, base_cpi=original.base_cpi * 2)
        machine = ExperimentSetup(config=CONFIG).machine(num_cores=1)
        writer = self._store(tmp_path)
        saved = [writer.get_profile(spec, machine) for spec in (original, redefined)]
        assert saved[0].to_dict() != saved[1].to_dict()

        reader = self._store(tmp_path)
        loaded = [reader.get_profile(spec, machine) for spec in (original, redefined)]
        assert reader.simulated_profiles == 0
        assert reader.loaded_profiles == 2
        assert [p.to_dict() for p in loaded] == [p.to_dict() for p in saved]

    def test_mismatched_spec_and_suite_pairs_are_rejected(self):
        with pytest.raises(WorkloadSpecError):
            ExperimentSetup(
                config=CONFIG, workload="suite:spec29", suite=small_suite(5)
            )

    @pytest.mark.parametrize(
        "payload",
        [
            '{"type": "SingleCoreProfile", "payl',
            '{"unrelated": true}',
            '{"type": "SingleCoreProfile", "payload": {}}',
            '{"type": "MixPrediction", "payload": {}}',
        ],
        ids=["truncated", "foreign", "empty-payload", "wrong-type"],
    )
    def test_unreadable_entry_is_a_miss_and_gets_overwritten(self, tmp_path, payload):
        spec = spec_cpu2006_like_suite()["gamess"]
        machine = ExperimentSetup(config=CONFIG).machine(num_cores=1)
        saved = self._store(tmp_path).get_profile(spec, machine)
        (entry,) = [
            path
            for path in tmp_path.iterdir()
            if json.loads(path.read_text())["type"] == "SingleCoreProfile"
        ]
        entry.write_text(payload)

        reader = self._store(tmp_path)
        resimulated = reader.get_profile(spec, machine)
        assert reader.simulated_profiles == 1
        assert reader.loaded_profiles == 0
        assert resimulated.to_dict() == saved.to_dict()
        # The re-simulated profile replaced the bad file.
        again = self._store(tmp_path)
        again.get_profile(spec, machine)
        assert again.loaded_profiles == 1


class TestTraceGenerationThroughRegistry:
    def test_registry_suites_generate_identical_traces_on_both_kernels(self):
        from repro.workloads.generator import TraceGenerator

        generator = TraceGenerator(num_instructions=10_000, seed=0)
        for spec_string in ("random:n=3,seed=1", "service:n=3,seed=1"):
            for benchmark in make_workload(spec_string).suite():
                vectorized = generator.generate(benchmark, kernel="vectorized")
                reference = generator.generate(benchmark, kernel="reference")
                assert np.array_equal(vectorized.access_line, reference.access_line)
                assert np.array_equal(
                    vectorized.base_cycle_gap, reference.base_cycle_gap
                )


class TestCategoryAlgebra:
    """``suite:spec29/<cats>`` set algebra: ``+`` unions, ``-`` excludes."""

    def test_all_minus_mix_equals_mem_plus_comp(self):
        assert canonical_workload_spec("suite:spec29/all-mix") == "suite:spec29/mem+comp"
        union = make_workload("suite:spec29/mem+comp")
        excluded = make_workload("suite:spec29/all-mix")
        assert excluded.suite().specs == union.suite().specs

    def test_union_suite_is_the_union_of_the_subsets(self):
        union = make_workload("suite:spec29/mem+comp").suite()
        mem = make_workload("suite:spec29/mem").suite()
        comp = make_workload("suite:spec29/comp").suite()
        assert sorted(union.names) == sorted(mem.names + comp.names)
        classes = classify_suite(union)
        assert set(classes.values()) == {BenchmarkClass.MEM, BenchmarkClass.COMP}

    def test_algebra_suites_sample_their_own_mixes(self):
        workload = make_workload("suite:spec29/mem+comp")
        classes = classify_suite(workload.suite())
        for mix in workload.mixes(2, 4, seed=3):
            assert all(
                classes[name] in (BenchmarkClass.MEM, BenchmarkClass.COMP)
                for name in mix.programs
            )

    @pytest.mark.parametrize(
        "bad",
        [
            "suite:spec29/mem-mem",      # empty selection
            "suite:spec29/all-mem-comp-mix",
            "suite:spec29/bogus",
            "suite:spec29/mem+bogus",
            "suite:spec29/mem+",         # dangling operator
            "suite:spec29/-mem",
            "suite:spec29/",
        ],
    )
    def test_malformed_expressions_are_rejected(self, bad):
        with pytest.raises(WorkloadSpecError):
            make_workload(bad)

    def test_algebra_specs_are_advertised(self):
        rows = dict(describe_workloads())
        assert "suite:spec29/<cats>±<cats>" in rows
        assert "union" in rows["suite:spec29/<cats>±<cats>"]


class TestCategoryMixes:
    """`category=` on WorkloadSource.mixes — "current practice" sampling."""

    def test_single_category_constrains_the_program_classes(self):
        workload = make_workload(DEFAULT_WORKLOAD)
        classes = classify_suite(workload.suite())
        # MEM / COMP mixes hold only programs of that class; a MIX mix
        # deliberately combines both (plus MIX-classed programs).
        for category in (BenchmarkClass.MEM, BenchmarkClass.COMP):
            mixes = workload.mixes(4, 3, seed=7, category=category)
            assert len(mixes) == 3
            for mix in mixes:
                assert all(classes[name] == category for name in mix.programs)
        mixed = workload.mixes(4, 3, seed=7, category=BenchmarkClass.MIX)
        assert len(mixed) == 3
        assert all(mix.num_programs == 4 for mix in mixed)

    def test_string_and_enum_categories_agree(self):
        workload = make_workload(DEFAULT_WORKLOAD)
        assert workload.mixes(4, 2, seed=3, category="mem") == workload.mixes(
            4, 2, seed=3, category=BenchmarkClass.MEM
        )

    def test_category_sequence_matches_the_legacy_helper(self):
        """The folded API reproduces sample_category_mixes bit for bit."""
        workload = make_workload(DEFAULT_WORKLOAD)
        classes = classify_suite(workload.suite())
        legacy = sample_category_mixes(classes, 4, mixes_per_category=3, seed=41)
        folded = workload.mixes(4, 3, seed=41, category=tuple(BenchmarkClass))
        assert folded == legacy

    def test_sequence_counts_are_per_category(self):
        workload = make_workload(DEFAULT_WORKLOAD)
        mixes = workload.mixes(2, 2, seed=0, category=("MEM", "COMP"))
        assert len(mixes) == 4

    def test_unknown_category_lists_the_valid_choices(self):
        workload = make_workload(DEFAULT_WORKLOAD)
        with pytest.raises(WorkloadError, match="valid categories.*MEM.*COMP.*MIX"):
            workload.mixes(4, 2, category="IO")

    def test_resolve_categories_round_trips(self):
        assert resolve_categories("MEM") == [BenchmarkClass.MEM]
        assert resolve_categories(BenchmarkClass.MIX) == [BenchmarkClass.MIX]
        assert resolve_categories(["mem", BenchmarkClass.COMP]) == [
            BenchmarkClass.MEM,
            BenchmarkClass.COMP,
        ]

    def test_setup_mixes_passes_the_category_through(self):
        setup = ExperimentSetup(config=CONFIG)
        classes = setup.classification()
        mixes = setup.mixes(4, 2, seed=5, category="COMP")
        assert mixes == setup.workload.mixes(4, 2, seed=5, category="COMP")
        for mix in mixes:
            assert all(classes[name] == BenchmarkClass.COMP for name in mix.programs)
