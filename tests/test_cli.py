"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main
from repro.engine import ProcessPoolBackend
from repro.workloads.generator import TraceGenerator


#: Arguments that keep every CLI invocation fast (tiny suite and traces).
FAST = ["--benchmarks", "5", "--instructions", "20000", "--scale", "16"]


class TestParser:
    def test_all_subcommands_are_registered(self):
        parser = build_parser()
        args = parser.parse_args(["suite"])
        assert args.command == "suite"
        for command in (
            "suite",
            "workloads",
            "models",
            "profile",
            "predict",
            "compare",
            "rank",
            "stress",
            "ingest",
            "serve",
        ):
            assert command in parser.format_help()

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1" and args.port == 8181
        assert args.jobs == 1 and args.cache_dir is None
        assert args.max_batch == 64
        args = build_parser().parse_args(["serve", "--port", "0", "--suite", "random"])
        assert args.port == 0 and args.suite == "random:n=8,seed=0"

    def test_jobs_auto_is_the_affinity_count_and_the_run_default(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        parser = build_parser()
        assert parser.parse_args(["run", "--jobs", "auto"]).jobs == 3
        assert parser.parse_args(["run"]).jobs == 3
        assert parser.parse_args(["run", "--jobs", "1"]).jobs == 1
        assert parser.parse_args(["serve", "--jobs", "auto"]).jobs == 3
        for command in (["predict", "gamess", "hmmer"], ["rank"], ["stress"], ["serve"]):
            assert parser.parse_args(command).jobs == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert parser.parse_args(["run"]).jobs == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert parser.parse_args(["run"]).jobs == 5
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--jobs", "0"])

    def test_the_process_pool_defaults_to_the_affinity_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert ProcessPoolBackend().jobs == 3
        assert ProcessPoolBackend(2).jobs == 2
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert ProcessPoolBackend().jobs == 8

    @pytest.mark.parametrize(
        "value, expected", [("auto", 3), (" AUTO ", 3), ("Auto", 3), ("2", 2), ("7", 7)]
    )
    def test_jobs_spellings_that_parse(self, monkeypatch, value, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 2, 4}, raising=False)
        for command in (["run"], ["serve"], ["rank"]):
            assert build_parser().parse_args([*command, "--jobs", value]).jobs == expected

    @pytest.mark.parametrize("value", ["0", "-1", "two", "1.5", "", "auto2"])
    def test_jobs_spellings_that_are_usage_errors(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "--jobs", value])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_suite_specs_are_canonicalised_and_validated(self, capsys):
        args = build_parser().parse_args(["suite", "--suite", "RANDOM"])
        assert args.suite == "random:n=8,seed=0"
        args = build_parser().parse_args(["suite", "--suite", "suite:spec29/scaled@5"])
        assert args.suite == "suite:spec29/scaled@5"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["suite", "--suite", "oracle"])
        # The rejection names the available specs.
        assert "suite:spec29" in capsys.readouterr().err

    def test_missing_subcommand_is_an_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_invalid_llc_config_is_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["suite", "--llc-config", "9"])

    def test_model_specs_are_canonicalised_and_validated(self, capsys):
        args = build_parser().parse_args(["predict", "--model", "MPPM", "gamess"])
        assert args.model == "mppm:foa"
        args = build_parser().parse_args(
            ["compare", "--model", "detailed", "--model", "mppm:sdc", "gamess"]
        )
        assert args.models == ["detailed", "mppm:sdc"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict", "--model", "oracle", "gamess"])
        # The rejection names the available specs.
        assert "mppm:foa" in capsys.readouterr().err


class TestCommands:
    def test_suite_lists_benchmarks_and_classes(self, capsys):
        assert main(["suite", *FAST]) == 0
        output = capsys.readouterr().out
        assert "gamess" in output
        assert "class" in output

    def test_models_lists_the_predictor_registry(self, capsys):
        assert main(["models"]) == 0
        output = capsys.readouterr().out
        for spec in (
            "mppm:foa",
            "mppm:sdc",
            "mppm:prob",
            "baseline:no-contention",
            "baseline:one-shot",
            "detailed",
        ):
            assert spec in output
        assert "default: mppm:foa" in output

    def test_workloads_lists_the_registry(self, capsys):
        assert main(["workloads"]) == 0
        output = capsys.readouterr().out
        for spec in ("suite:spec29", "random:", "service:"):
            assert spec in output
        assert "default: suite:spec29" in output

    def test_models_json_matches_the_service_payload(self, capsys):
        import json

        from repro.service.payloads import models_payload

        assert main(["models", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == models_payload()

    def test_workloads_json_matches_the_service_payload(self, capsys):
        import json

        from repro.service.payloads import workloads_payload

        assert main(["workloads", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == workloads_payload()
        # Every advertised example spec is constructible.
        from repro.workloads import make_workload

        for row in payload["workloads"]:
            spec = make_workload(row["example"]).spec
            if row["example"].startswith("perf:"):
                # perf: canonicalises by appending the source digest.
                assert spec.startswith(row["example"] + ",digest=")
            else:
                assert spec == row["example"]

    def test_suite_flag_selects_the_workload(self, capsys):
        assert main(["suite", "--suite", "service:n=4,seed=0", "--instructions", "20000"]) == 0
        output = capsys.readouterr().out
        assert "service:n=4,seed=0" in output
        assert "svc-gateway" in output

    def test_suite_flag_drives_predictions(self, capsys):
        assert (
            main(
                [
                    "predict",
                    "--suite",
                    "service:n=4,seed=0",
                    "--instructions",
                    "20000",
                    "svc-auth",
                    "svc-kvcache",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "svc-auth" in output and "STP" in output

    def test_suite_and_benchmarks_flags_conflict(self, capsys):
        with pytest.raises(SystemExit):
            main(["suite", "--suite", "random:n=4,seed=0", "--benchmarks", "5"])
        assert "not allowed with" in capsys.readouterr().err

    def test_predict_with_model_flag(self, capsys):
        assert main(["predict", *FAST, "--model", "baseline:no-contention", "gamess", "hmmer"]) == 0
        output = capsys.readouterr().out
        assert "baseline:no-contention" in output and "STP" in output

    def test_compare_with_repeated_models(self, capsys):
        assert (
            main(
                [
                    "compare",
                    *FAST,
                    "--model",
                    "mppm:foa",
                    "--model",
                    "baseline:one-shot",
                    "gamess",
                    "soplex",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "[mppm:foa] STP" in output and "[baseline:one-shot] STP" in output

    def test_rank_with_model_flag(self, capsys):
        assert main(["rank", *FAST, "--cores", "2", "--mixes", "3", "--model", "mppm:prob"]) == 0
        output = capsys.readouterr().out
        assert "ranked by mppm:prob" in output

    def test_profile_reports_cpi_columns(self, capsys):
        assert main(["profile", *FAST, "gamess", "hmmer"]) == 0
        output = capsys.readouterr().out
        assert "CPI_SC" in output and "gamess" in output and "hmmer" in output

    def test_profile_rejects_unknown_benchmark(self, capsys):
        assert main(["profile", *FAST, "quake"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_predict_prints_a_prediction(self, capsys):
        assert main(["predict", *FAST, "gamess", "hmmer"]) == 0
        output = capsys.readouterr().out
        assert "STP" in output and "slowdown" in output

    def test_predict_rejects_unknown_benchmark(self, capsys):
        assert main(["predict", *FAST, "gamess", "quake"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_compare_reports_measured_and_predicted(self, capsys):
        assert main(["compare", *FAST, "gamess", "soplex"]) == 0
        output = capsys.readouterr().out
        assert "CPI_MC_measured" in output and "CPI_MC_predicted" in output
        assert "error" in output

    def test_rank_orders_the_design_space(self, capsys):
        assert main(["rank", *FAST, "--cores", "2", "--mixes", "4"]) == 0
        output = capsys.readouterr().out
        assert "config #" in output
        assert "avg_STP" in output

    def test_stress_reports_worst_mixes(self, capsys):
        assert main(["stress", *FAST, "--cores", "2", "--mixes", "6", "--worst", "3"]) == 0
        output = capsys.readouterr().out
        assert "worst_program" in output
        assert output.count("\n") >= 5


class TestIngestCommand:
    FIXTURE = "tests/data/perf_ingest_samples.csv"

    def test_ingest_writes_a_usable_bundle(self, capsys, tmp_path):
        out = tmp_path / "bundle"
        assert main(["ingest", self.FIXTURE, "--out", str(out)]) == 0
        output = capsys.readouterr().out
        assert (out / "bundle.json").is_file()
        assert "pmu-c0" in output and "cpi_err" in output
        assert f"workload spec: perf:{out},digest=" in output
        # The printed spec round-trips straight into a prediction.
        assert main(["predict", "--suite", f"perf:{out}", "--instructions", "20000",
                     "pmu-c0", "pmu-c1"]) == 0
        assert "STP" in capsys.readouterr().out

    def test_ingest_json_report(self, capsys, tmp_path):
        import json

        out = tmp_path / "bundle"
        assert main(["ingest", self.FIXTURE, "--out", str(out), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["workload_spec"].startswith(f"perf:{out},digest=")
        assert len(report["report"]) == 3
        assert all(row["coverage"] > 0 for row in report["report"])

    def test_ingest_rejects_malformed_samples(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("core,timestamp\n0,1.0\n")
        assert main(["ingest", str(bad), "--out", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    @pytest.mark.parametrize("value", ["inf", "nan", "1e30"])
    def test_ingest_rejects_an_unrepresentable_count(self, capsys, tmp_path, value):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "core,timestamp,llc_loads,llc_misses,instructions\n"
            f"0,0.1,10,5,100\n0,0.2,10,5,{value}\n"
        )
        machine = "tests/data/perf_ingest_samples.machine.json"
        argv = ["ingest", str(bad), "--machine", machine, "--out", str(tmp_path / "b")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: row 3: column 'instructions'")
        assert not (tmp_path / "b").exists()

    def test_ingest_rejects_a_fractional_geometry(self, capsys, tmp_path):
        machine = tmp_path / "machine.json"
        machine.write_text('{"l1_lines": 32.5, "l1_associativity": 0.5}')
        argv = [
            "ingest", self.FIXTURE, "--machine", str(machine), "--out", str(tmp_path / "b")
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: l1_lines must be an integer")

    def test_ingest_rejects_fractional_core_ids(self, capsys, tmp_path):
        machine = tmp_path / "machine.json"
        machine.write_text('{"cores": [0.7, 1.9, true]}')
        argv = [
            "ingest", self.FIXTURE, "--machine", str(machine), "--out", str(tmp_path / "b")
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: cores must be an integer, got 0.7")
        assert not (tmp_path / "b").exists()

    def test_ingest_rejects_missing_file(self, capsys, tmp_path):
        assert main(["ingest", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "b")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_workloads_advertises_the_perf_family(self, capsys):
        assert main(["workloads"]) == 0
        assert "perf:" in capsys.readouterr().out


class TestParallelRun:
    ARGS = [
        "run", "--experiment", "variability", "--experiment", "ranking",
        "--benchmarks", "6", "--instructions", "20000", "--scale", "16", "--mixes", "4",
    ]

    def test_two_jobs_print_the_serial_tables_and_trace_each_benchmark_once(
        self, capsys, monkeypatch, tmp_path
    ):
        # Forked pool workers inherit the patch and append to the same log.
        log = tmp_path / "generated.txt"
        original = TraceGenerator.generate

        def logging_generate(self, spec, *args, **kwargs):
            with open(log, "a") as handle:
                handle.write(f"{spec.name}\n")
            return original(self, spec, *args, **kwargs)

        monkeypatch.setattr(TraceGenerator, "generate", logging_generate)
        outputs, generated = {}, {}
        for jobs in ("1", "2"):
            log.unlink(missing_ok=True)
            assert main([*self.ARGS, "--jobs", jobs]) == 0
            out = capsys.readouterr().out
            outputs[jobs] = [line for line in out.splitlines() if "finished in" not in line]
            generated[jobs] = sorted(log.read_text().split())
        assert outputs["2"] == outputs["1"]
        assert generated["2"] == generated["1"] == sorted(set(generated["1"]))

    def test_profile_at_two_jobs_prints_the_serial_table_from_its_workers(
        self, capsys, monkeypatch
    ):
        import repro.cli as cli

        setups = []
        build = cli._build_setup

        def recording(args):
            setups.append(build(args))
            return setups[-1]

        monkeypatch.setattr(cli, "_build_setup", recording)
        args = ["profile", *FAST, "lbm", "mcf", "gamess"]
        tables = {}
        for jobs in ("1", "2"):
            assert main([*args, "--jobs", jobs]) == 0
            tables[jobs] = capsys.readouterr().out
        assert tables["2"] == tables["1"]
        serial, parallel = (setup.store for setup in setups)
        assert serial.simulated_profiles == 3 and serial.absorbed_profiles == 0
        # Every profile came back from a pool worker: the driver
        # generated no trace of its own.
        assert parallel.generated_traces == 0
        assert parallel.absorbed_profiles == 3
