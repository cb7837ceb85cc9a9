"""Tests for the real-trace ingestion subsystem (``src/repro/ingest/``).

The contract pinned here: PMU sample parsing rejects malformed input
with structured, row-addressed errors; change-point segmentation finds
planted phase boundaries; the closed loop (known benchmarks →
synthesized samples → fit → replay) recovers the observed miss rate,
access rate and CPI within tolerance — no hardware involved; and a
fitted bundle survives the JSON round-trip bit-for-bit, producing
identical predictions before and after reload.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import machine_with_llc, scaled
from repro.experiments import ExperimentConfig, ExperimentSetup
from repro.ingest import (
    FitOptions,
    FittedWorkload,
    IngestError,
    MachineDescriptor,
    fit_stream,
    load_bundle,
    load_samples,
    parse_samples,
    segment_series,
    synthesize_rows,
    write_bundle,
    write_samples,
)
from repro.ingest.samples import REQUIRED_COLUMNS, default_machine_path
from repro.ingest.workload import ingest_to_bundle
from repro.workloads import WorkloadMix, make_workload
from repro.workloads.suite import BenchmarkSuite

MACHINE = MachineDescriptor(cores=(0, 1))

#: Closed-loop tolerances (see README "Real traces"): the miss-rate
#: residual is absolute and only counted on phases with LLC traffic;
#: access-rate and CPI residuals are relative.
MISS_TOL = 0.05
ACCESS_TOL = 0.35
CPI_TOL = 0.15


def csv_text(rows):
    lines = [",".join(REQUIRED_COLUMNS)]
    lines.extend(",".join(str(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


def jsonl_text(rows):
    return "\n".join(json.dumps(dict(zip(REQUIRED_COLUMNS, row))) for row in rows)


GOOD_ROWS = [
    (0, 1.0e-5, 40, 20, 1000),
    (0, 2.0e-5, 42, 21, 1000),
    (1, 1.5e-5, 7, 3, 1000),
    (1, 2.5e-5, 9, 2, 1000),
]


class TestParsing:
    def test_good_csv_parses_into_per_core_series(self):
        stream = parse_samples(csv_text(GOOD_ROWS), MACHINE)
        assert stream.core_ids == [0, 1]
        core0 = stream.cores[0]
        assert core0.num_samples == 2
        assert core0.total_instructions == 2000
        assert np.array_equal(core0.llc_loads, [40, 42])
        # Cycles come from timestamp deltas at the descriptor frequency.
        assert core0.cycles[1] == pytest.approx(1.0e-5 * 2.0e9)

    def test_jsonl_agrees_with_csv(self):
        a = parse_samples(csv_text(GOOD_ROWS), MACHINE)
        b = parse_samples(jsonl_text(GOOD_ROWS), MACHINE, fmt="jsonl")
        for left, right in zip(a.cores, b.cores):
            assert left.core == right.core
            assert np.array_equal(left.llc_misses, right.llc_misses)
            assert np.array_equal(left.cycles, right.cycles)

    def test_missing_columns_are_named(self):
        text = "core,timestamp,llc_loads\n0,1.0,5\n"
        with pytest.raises(IngestError, match="missing.*llc_misses"):
            parse_samples(text, MACHINE)

    def test_empty_file_is_rejected(self):
        with pytest.raises(IngestError, match="empty"):
            parse_samples("", MACHINE)

    def test_non_numeric_cell_is_addressed_by_row(self):
        rows = [(0, 1.0e-5, "many", 0, 1000)]
        with pytest.raises(IngestError, match="row 2.*llc_loads"):
            parse_samples(csv_text(rows), MACHINE)

    def test_negative_counter_is_rejected(self):
        rows = [(0, 1.0e-5, 5, 1, -3)]
        with pytest.raises(IngestError, match="non-negative"):
            parse_samples(csv_text(rows), MACHINE)

    def test_misses_cannot_exceed_loads(self):
        rows = [(0, 1.0e-5, 5, 9, 1000)]
        with pytest.raises(IngestError, match="llc_misses.*exceeds.*llc_loads"):
            parse_samples(csv_text(rows), MACHINE)

    def test_non_monotonic_timestamps_are_rejected(self):
        rows = [(0, 2.0e-5, 5, 1, 1000), (0, 1.0e-5, 5, 1, 1000)]
        with pytest.raises(IngestError, match="non-monotonic"):
            parse_samples(csv_text(rows), MACHINE)

    def test_unknown_core_id_names_the_declared_cores(self):
        rows = [(7, 1.0e-5, 5, 1, 1000)]
        with pytest.raises(IngestError, match="unknown core id 7.*\\[0, 1\\]"):
            parse_samples(csv_text(rows), MACHINE)

    def test_zero_instruction_core_is_rejected(self):
        rows = [(0, 1.0e-5, 0, 0, 0)]
        with pytest.raises(IngestError, match="no instructions"):
            parse_samples(csv_text(rows), MACHINE)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize(
        "column,value",
        [
            ("instructions", float("inf")),
            ("instructions", 1e30),
            ("llc_loads", float("nan")),
            ("core", 1e300),
            ("timestamp", float("nan")),
            ("timestamp", float("inf")),
            ("timestamp", float("-inf")),
            ("timestamp", 1e300),
        ],
    )
    def test_unrepresentable_numbers_are_addressed_by_row_and_column(
        self, fmt, column, value
    ):
        bad = dict(zip(REQUIRED_COLUMNS, (0, 2.0e-5, 42, 21, 1000)), **{column: value})
        rows = [GOOD_ROWS[0], tuple(bad[name] for name in REQUIRED_COLUMNS)]
        if fmt == "csv":
            text, row = csv_text(rows), 3
        else:
            text, row = jsonl_text(rows), 2
        with pytest.raises(IngestError, match=f"^row {row}: column '{column}' "):
            parse_samples(text, MachineDescriptor(), fmt=fmt)

    def test_errors_are_workload_errors(self):
        from repro.workloads.benchmark import WorkloadError

        assert issubclass(IngestError, WorkloadError)


#: Cell values a sampler, a spreadsheet export or a corrupt file could
#: hand the parser: plausible counters and timestamps, every special
#: float, integers past int64, and non-numbers.
CELLS = st.one_of(
    st.integers(0, 10_000),
    st.floats(0.0, 1e-3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
    st.sampled_from(["", "many", "1e400", "-0", "0x10", "4000.0"]),
)


class TestParserFuzz:
    @settings(max_examples=200, deadline=None)
    @given(
        fmt=st.sampled_from(["csv", "jsonl"]),
        rows=st.lists(st.tuples(*[CELLS] * len(REQUIRED_COLUMNS)), min_size=1, max_size=6),
    )
    def test_parse_yields_finite_arrays_or_an_ingest_error(self, fmt, rows):
        text = csv_text(rows) if fmt == "csv" else jsonl_text(rows)
        try:
            stream = parse_samples(text, MachineDescriptor(), fmt=fmt)
        except IngestError:
            return
        for core in stream.cores:
            for series in (
                core.timestamps,
                core.instructions,
                core.llc_loads,
                core.llc_misses,
                core.cycles,
            ):
                assert np.all(np.isfinite(series))


class TestMachineDescriptor:
    def test_round_trips_through_dict(self):
        descriptor = MachineDescriptor(cores=(0, 1, 2), frequency_ghz=3.2)
        assert MachineDescriptor.from_dict(descriptor.to_dict()) == descriptor

    def test_unknown_fields_are_rejected(self):
        data = MACHINE.to_dict()
        data["sockets"] = 2
        with pytest.raises(IngestError, match="sockets"):
            MachineDescriptor.from_dict(data)

    def test_bad_geometry_is_rejected(self):
        with pytest.raises(IngestError, match="8-way sets"):
            MachineDescriptor(llc_lines=500, llc_associativity=8)

    def test_to_machine_config_has_three_levels(self):
        machine = MACHINE.to_machine_config()
        assert len(machine.private_levels) == 2
        assert machine.llc.shared
        assert machine.llc.num_lines == MACHINE.llc_lines

    def test_from_machine_round_trips_the_simulated_geometry(self):
        machine = scaled(machine_with_llc(1, num_cores=1), 16)
        descriptor = MachineDescriptor.from_machine(
            machine.single_core(), cores=(0,), frequency_ghz=2.0
        )
        rebuilt = descriptor.to_machine_config()
        assert rebuilt.llc.num_lines == machine.llc.num_lines
        assert rebuilt.memory.latency == machine.memory.latency


class TestSegmentation:
    def test_finds_a_planted_change_point(self):
        flat = np.concatenate([np.full(20, 0.1), np.full(20, 0.9)])
        features = np.stack([flat, flat], axis=1)
        segments = segment_series(features, max_phases=4)
        assert [(s.start, s.stop) for s in segments] == [(0, 20), (20, 40)]

    def test_constant_series_stays_one_segment(self):
        features = np.full((30, 3), 0.5)
        segments = segment_series(features, max_phases=6)
        assert len(segments) == 1

    def test_respects_the_phase_budget(self):
        steps = np.concatenate([np.full(10, v) for v in (0.0, 1.0, 0.0, 1.0, 0.0)])
        segments = segment_series(steps.reshape(-1, 1), max_phases=3)
        assert 1 <= len(segments) <= 3

    def test_min_samples_floor_is_respected(self):
        flat = np.concatenate([np.full(4, 0.0), np.full(4, 1.0)])
        for segment in segment_series(flat.reshape(-1, 1), min_samples=3):
            assert segment.stop - segment.start >= 3


@pytest.fixture(scope="module")
def synth_fixture(tmp_path_factory):
    """Synthesized samples from two known benchmarks + their fits."""
    suite = make_workload("suite:spec29").suite()
    specs = [suite["gamess"], suite["lbm"]]
    machine = scaled(machine_with_llc(1, num_cores=1), 16)
    out = tmp_path_factory.mktemp("synth") / "samples.csv"
    csv_path, machine_path = write_samples(
        specs, machine, out, num_instructions=60_000, interval_instructions=1_500
    )
    stream = load_samples(csv_path)
    fits = fit_stream(stream, FitOptions())
    return specs, csv_path, machine_path, stream, fits


class TestClosedLoop:
    def test_synthesis_is_deterministic(self):
        suite = make_workload("suite:spec29").suite()
        machine = scaled(machine_with_llc(1, num_cores=1), 16)
        a = synthesize_rows([suite["gamess"]], machine, num_instructions=20_000)
        b = synthesize_rows([suite["gamess"]], machine, num_instructions=20_000)
        assert a == b

    def test_machine_descriptor_is_written_beside_the_samples(self, synth_fixture):
        _, csv_path, machine_path, _, _ = synth_fixture
        assert default_machine_path(csv_path) == machine_path

    def test_fit_recovers_the_observed_rates(self, synth_fixture):
        """Known profile → samples → fit → replay matches within tolerance."""
        _, _, _, stream, fits = synth_fixture
        assert [fit.core for fit in fits] == [0, 1]
        for fit in fits:
            assert fit.coverage == pytest.approx(1.0)
            assert fit.max_miss_rate_error <= MISS_TOL, fit.core
            assert fit.max_access_rate_error <= ACCESS_TOL, fit.core
            assert fit.max_cpi_error <= CPI_TOL, fit.core

    def test_fit_report_targets_match_the_samples(self, synth_fixture):
        """Phase targets are instruction-weighted means of the raw samples."""
        _, _, _, stream, fits = synth_fixture
        for core, fit in zip(stream.cores, fits):
            weighted = float(core.llc_misses.sum() / core.total_instructions)
            overall = sum(
                phase.fraction * phase.target_miss_rate * phase.target_access_rate
                for phase in fit.phases
            )
            assert overall == pytest.approx(weighted, rel=0.2)

    def test_fitted_specs_are_valid_benchmarks(self, synth_fixture):
        _, _, _, _, fits = synth_fixture
        suite = BenchmarkSuite(specs=tuple(fit.spec for fit in fits))
        assert suite.names == ["pmu-c0", "pmu-c1"]
        for spec in suite:
            assert sum(phase.fraction for phase in spec.phases) == pytest.approx(1.0)


class TestBundleRoundTrip:
    def test_bundle_survives_json_and_reload(self, synth_fixture, tmp_path):
        _, csv_path, _, stream, fits = synth_fixture
        workload, _ = ingest_to_bundle(csv_path)
        path = write_bundle(workload, tmp_path / "bundle")
        reloaded = load_bundle(path)
        assert reloaded.to_dict() == workload.to_dict()
        assert reloaded.specs == workload.specs
        assert reloaded.source_digest == workload.source_digest

    def test_reloaded_bundle_predicts_identically(self, synth_fixture, tmp_path):
        """samples → fit → JSON → reload → bit-identical predictions."""
        _, csv_path, _, _, _ = synth_fixture
        workload, _ = ingest_to_bundle(csv_path)
        write_bundle(workload, tmp_path / "bundle")
        config = ExperimentConfig(
            scale=16, num_instructions=20_000, interval_instructions=1_000
        )
        direct = ExperimentSetup(
            config=config, suite=BenchmarkSuite(specs=workload.specs)
        )
        reloaded = ExperimentSetup(
            config=config, workload=f"perf:{tmp_path / 'bundle'}"
        )
        mix = WorkloadMix(programs=("pmu-c0", "pmu-c1"))
        machine = direct.machine(num_cores=2)
        assert direct.predict(mix, machine) == reloaded.predict(mix, machine)

    def test_truncated_bundle_is_rejected(self, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps({"format_version": 1, "fits": []}))
        with pytest.raises(IngestError):
            load_bundle(path)

    def test_future_format_version_is_rejected(self, synth_fixture, tmp_path):
        _, csv_path, _, _, _ = synth_fixture
        workload, _ = ingest_to_bundle(csv_path)
        data = workload.to_dict()
        data["format_version"] = 99
        with pytest.raises(IngestError, match="format_version"):
            FittedWorkload.from_dict(data)

    def test_fit_options_round_trip(self):
        options = FitOptions(num_instructions=50_000, rounds=2, seed=7)
        assert FitOptions.from_dict(options.to_dict()) == options
