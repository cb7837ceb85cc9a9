"""Command-line interface to the MPPM reproduction.

The CLI wraps the most common workflows behind one executable
(``repro-mppm`` after installation, or ``python -m repro.cli``):

``suite``
    List the selected workload's benchmark suite and the MEM/COMP/MIX
    classes.
``workloads``
    List the registered workload families (the values ``--suite``
    takes: ``suite:spec29``, ``suite:spec29/scaled@N``,
    ``random:n=...,seed=...``, ``service:n=...,seed=...``).
``models``
    List the registered predictor specs (the values ``--model`` takes).
``profile``
    Print the single-core profile summary of one or more benchmarks.
``predict``
    Run one predictor on one workload mix (benchmark names, one per
    core); ``--model`` selects the estimator (default ``mppm:foa``).
``compare``
    Run one or more predictors (repeatable ``--model``) and the
    detailed reference simulation on one mix and report the prediction
    errors.
``rank``
    Rank the six Table 2 LLC configurations over a sample of workload
    mixes, once per requested ``--model``.
``stress``
    Scan a sample of mixes with one predictor and report the
    worst-STP ones.
``run``
    The unified experiment pipeline: run whole paper experiments
    (accuracy, ranking, agreement, stress, variability, space) through
    the parallel engine, with ``--jobs N`` workers, a persistent
    ``--cache-dir`` and any set of estimators (repeatable ``--model``).
``ingest``
    Fit a PMU sample stream (CSV/JSONL + machine descriptor) into a
    reusable workload bundle; the written directory is usable anywhere
    ``--suite`` is accepted as ``perf:<dir>`` (see ``src/repro/ingest/``).
``serve``
    Run the prediction service: an asyncio HTTP/JSON server over the
    predictor/workload registries with request batching and
    shared-cache memoisation (see ``src/repro/service/``).
``worker``
    Run a fleet worker agent: the per-host half of ``--fleet``, taking
    pickled job recipes over HTTP and returning registry result
    envelopes (see ``src/repro/engine/remote/``).

All commands accept ``--suite`` (a workload spec from ``repro
workloads``), ``--benchmarks``, ``--instructions``, ``--scale`` and
``--seed`` to control the experiment setup, plus ``--jobs`` (process
pool), ``--fleet`` (multi-host worker fleet: ``localhost:N``,
``ssh=host1,host2``) and ``--cache-dir`` to control the engine; the
defaults match the benchmark suite in ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.engine import ConsoleReporter, create_engine
from repro.engine.backends import local_cpus
from repro.experiments import ExperimentConfig, ExperimentSetup
from repro.experiments.reporting import format_table
from repro.predictors import DEFAULT_PREDICTOR, canonical_spec, describe_predictors
from repro.specs import SpecError
from repro.workloads import (
    DEFAULT_WORKLOAD,
    WorkloadMix,
    canonical_workload_spec,
    describe_workloads,
)
from repro.workloads.classification import classify_suite


def _workload_spec_from_args(args: argparse.Namespace) -> str:
    """Resolve ``--suite`` / legacy ``--benchmarks`` into a workload spec.

    The two flags are mutually exclusive at the argparse level, so at
    most one is set here.
    """
    if args.suite is not None:
        return args.suite
    if args.benchmarks is None or args.benchmarks >= 29:
        return DEFAULT_WORKLOAD
    return f"suite:spec29/scaled@{args.benchmarks}"


def _engine_jobs_from_args(args: argparse.Namespace):
    """Resolve ``--fleet`` / ``--jobs`` into an engine ``jobs`` value.

    The two flags are mutually exclusive at the argparse level; a fleet
    spec (already canonicalised by :func:`_fleet_spec`) wins.
    """
    fleet = getattr(args, "fleet", None)
    return fleet if fleet is not None else args.jobs


def _build_setup(args: argparse.Namespace) -> ExperimentSetup:
    """Construct the experiment setup shared by all commands."""
    workload = _workload_spec_from_args(args)
    config = ExperimentConfig(
        scale=args.scale,
        num_instructions=args.instructions,
        interval_instructions=max(1, args.instructions // 50),
        seed=args.seed,
    )
    reporter = ConsoleReporter() if getattr(args, "progress", False) else None
    engine = create_engine(
        jobs=_engine_jobs_from_args(args), cache_dir=args.cache_dir, reporter=reporter
    )
    return ExperimentSetup(
        config=config, workload=workload, engine=engine, cache_dir=args.cache_dir
    )


def _positive_int(value: str) -> int:
    number = int(value)
    if number <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value!r}")
    return number


def _jobs(value: str) -> int:
    """``--jobs``: a positive integer, or ``auto`` for one worker per local CPU."""
    return local_cpus() if value.strip().lower() == "auto" else _positive_int(value)


def _spec_type(canonicalise: Callable[[str], str]) -> Callable[[str], str]:
    """argparse type for a spec flag: the canonical spec, or a usage error."""

    def parse(value: str) -> str:
        try:
            return canonicalise(value)
        except SpecError as error:
            raise argparse.ArgumentTypeError(str(error)) from None

    return parse


def _normalize_fleet_flag(value: str) -> str:
    # Lazy: the fleet package is only loaded when --fleet is given.
    from repro.engine.remote import normalize_fleet_flag

    return normalize_fleet_flag(value)


_predictor_spec = _spec_type(canonical_spec)
_workload_spec = _spec_type(canonical_workload_spec)
_fleet_spec = _spec_type(_normalize_fleet_flag)


def _add_model_argument(parser: argparse.ArgumentParser, repeatable: bool) -> None:
    if repeatable:
        parser.add_argument(
            "--model",
            dest="models",
            type=_predictor_spec,
            action="append",
            default=None,
            help=(
                "predictor spec to evaluate (see `repro models`); repeatable "
                f"(default: {DEFAULT_PREDICTOR})"
            ),
        )
    else:
        parser.add_argument(
            "--model",
            type=_predictor_spec,
            default=DEFAULT_PREDICTOR,
            help=f"predictor spec to use (see `repro models`; default: {DEFAULT_PREDICTOR})",
        )


def _selected_models(args: argparse.Namespace) -> List[str]:
    return args.models if args.models else [DEFAULT_PREDICTOR]


def _add_common_arguments(parser: argparse.ArgumentParser, jobs: str = "1") -> None:
    workload_group = parser.add_mutually_exclusive_group()
    workload_group.add_argument(
        "--suite",
        type=_workload_spec,
        default=None,
        help=(
            "workload spec to evaluate (see `repro workloads`; default: "
            f"{DEFAULT_WORKLOAD})"
        ),
    )
    workload_group.add_argument(
        "--benchmarks",
        type=int,
        default=None,
        help=(
            "legacy shorthand for --suite suite:spec29/scaled@N: a curated "
            "N-benchmark spread of the default suite (default: all 29)"
        ),
    )
    parser.add_argument(
        "--instructions",
        type=int,
        default=200_000,
        help="trace length per benchmark (default: 200000)",
    )
    parser.add_argument(
        "--scale", type=int, default=16, help="cache capacity scaling divisor (default: 16)"
    )
    parser.add_argument("--seed", type=int, default=0, help="global seed (default: 0)")
    parser.add_argument(
        "--llc-config",
        type=int,
        default=1,
        choices=range(1, 7),
        help="Table 2 LLC configuration number (default: 1)",
    )
    engine_group = parser.add_mutually_exclusive_group()
    engine_group.add_argument(
        "--jobs",
        type=_jobs,
        default=jobs,
        help=(
            "engine worker processes, or auto for one per local CPU; 1 runs "
            f"everything in-process (default: {jobs})"
        ),
    )
    engine_group.add_argument(
        "--fleet",
        type=_fleet_spec,
        default=None,
        help=(
            "run the engine on a worker fleet instead of a process pool: "
            "localhost:N (loopback workers forked from this process), "
            "ssh=host1,host2, or "
            "attach=host:port+host:port (see src/repro/engine/remote/)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent cache directory for profiles and engine results (default: none)",
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _with_setup(handler):
    """Build the setup for a command and release its engine afterwards."""

    def wrapped(args: argparse.Namespace) -> int:
        setup = _build_setup(args)
        try:
            return handler(args, setup)
        finally:
            setup.close()

    return wrapped


def _command_models(args: argparse.Namespace) -> int:
    """List the predictor registry (no experiment setup required)."""
    if getattr(args, "json", False):
        from repro.service.payloads import models_payload

        print(json.dumps(models_payload(), indent=2))
        return 0
    rows = [
        {"spec": spec, "description": description}
        for spec, description in describe_predictors()
    ]
    print(
        format_table(
            rows,
            title="Registered predictors (pass a spec via --model):",
        )
    )
    print(f"\ndefault: {DEFAULT_PREDICTOR}")
    from repro.core import MPPM_KERNELS

    print(f"mppm kernels: {', '.join(MPPM_KERNELS)} (default: batched, bit-identical)")
    return 0


def _command_workloads(args: argparse.Namespace) -> int:
    """List the workload registry (no experiment setup required)."""
    if getattr(args, "json", False):
        from repro.service.payloads import workloads_payload

        print(json.dumps(workloads_payload(), indent=2))
        return 0
    rows = [
        {"spec": spec, "description": description}
        for spec, description in describe_workloads()
    ]
    print(
        format_table(
            rows,
            title="Registered workload families (pass a spec via --suite):",
        )
    )
    print(f"\ndefault: {DEFAULT_WORKLOAD}")
    return 0


def _command_suite(args: argparse.Namespace, setup: ExperimentSetup) -> int:
    classes = classify_suite(setup.suite)
    rows = [
        {
            "benchmark": spec.name,
            "class": classes[spec.name].value,
            "base_CPI": spec.base_cpi,
            "mem_refs": spec.mem_ref_fraction,
            "working_set_lines": spec.working_set_lines,
            "phases": spec.num_phases,
        }
        for spec in setup.suite
    ]
    print(
        format_table(
            rows,
            title=f"Workload {setup.workload_spec} ({len(rows)} benchmarks):",
        )
    )
    return 0


def _command_profile(args: argparse.Namespace, setup: ExperimentSetup) -> int:
    machine = setup.machine(num_cores=1, llc_config=args.llc_config)
    names = args.names or setup.benchmark_names
    unknown = [name for name in names if name not in setup.suite]
    if unknown:
        print(f"error: unknown benchmarks {unknown}", file=sys.stderr)
        return 2
    setup.profile_pairs((name, machine) for name in names)
    rows = []
    for name in names:
        profile = setup.store.get_profile(setup.suite[name], machine)
        rows.append(
            {
                "benchmark": name,
                "CPI_SC": profile.cpi,
                "memory_CPI": profile.memory_cpi,
                "memory_fraction": profile.memory_cpi_fraction,
                "LLC_MPKI": profile.llc_misses_per_kilo_instruction,
                "intervals": profile.num_intervals,
            }
        )
    print(format_table(rows, title=f"Single-core profiles on {machine.name}:"))
    return 0


def _mix_from_args(args: argparse.Namespace, setup: ExperimentSetup) -> Optional[WorkloadMix]:
    unknown = [name for name in args.programs if name not in setup.suite]
    if unknown:
        print(f"error: unknown benchmarks {unknown}", file=sys.stderr)
        return None
    return WorkloadMix(programs=tuple(args.programs))


def _command_predict(args: argparse.Namespace, setup: ExperimentSetup) -> int:
    mix = _mix_from_args(args, setup)
    if mix is None:
        return 2
    machine = setup.machine(num_cores=mix.num_programs, llc_config=args.llc_config)
    prediction = setup.predict(mix, machine, predictor=args.model)
    print(prediction.describe())
    return 0


def _command_compare(args: argparse.Namespace, setup: ExperimentSetup) -> int:
    mix = _mix_from_args(args, setup)
    if mix is None:
        return 2
    models = _selected_models(args)
    machine = setup.machine(num_cores=mix.num_programs, llc_config=args.llc_config)
    predictions = {spec: setup.predict(mix, machine, predictor=spec) for spec in models}
    measurement = setup.simulate(mix, machine)
    rows = []
    for spec, prediction in predictions.items():
        for predicted, measured in zip(prediction.programs, measurement.programs):
            rows.append(
                {
                    "model": spec,
                    "core": predicted.core,
                    "program": predicted.name,
                    "CPI_SC": predicted.single_core_cpi,
                    "CPI_MC_measured": measured.cpi,
                    "CPI_MC_predicted": predicted.predicted_cpi,
                    "slowdown_measured": measured.slowdown,
                    "slowdown_predicted": predicted.slowdown,
                }
            )
    print(
        format_table(
            rows, title=f"{', '.join(models)} vs detailed simulation for {mix.label()}:"
        )
    )
    for spec, prediction in predictions.items():
        stp_error = abs(prediction.system_throughput - measurement.system_throughput)
        stp_error /= measurement.system_throughput
        antt_error = abs(
            prediction.average_normalized_turnaround_time
            - measurement.average_normalized_turnaround_time
        ) / measurement.average_normalized_turnaround_time
        print(
            f"\n[{spec}] STP : measured {measurement.system_throughput:.3f}, "
            f"predicted {prediction.system_throughput:.3f} ({stp_error:.1%} error)"
        )
        print(
            f"[{spec}] ANTT: measured {measurement.average_normalized_turnaround_time:.3f}, "
            f"predicted {prediction.average_normalized_turnaround_time:.3f} "
            f"({antt_error:.1%} error)"
        )
    return 0


def _command_rank(args: argparse.Namespace, setup: ExperimentSetup) -> int:
    mixes = setup.mixes(args.cores, args.mixes, seed=args.seed)
    machines = setup.design_space(num_cores=args.cores)
    models = _selected_models(args)
    # One engine sweep covering every requested model over the whole
    # design space, so heterogeneous rankings parallelise together.
    predictions = setup.predictor_batch(
        [
            (spec, mix, machine)
            for spec in models
            for machine in machines
            for mix in mixes
        ]
    )
    offset = 0
    for spec in models:
        rows = []
        for machine in machines:
            machine_predictions = predictions[offset : offset + len(mixes)]
            offset += len(mixes)
            rows.append(
                {
                    "LLC": machine.name,
                    "avg_STP": float(
                        np.mean([p.system_throughput for p in machine_predictions])
                    ),
                    "avg_ANTT": float(
                        np.mean(
                            [p.average_normalized_turnaround_time for p in machine_predictions]
                        )
                    ),
                }
            )
        rows.sort(key=lambda row: row["avg_STP"], reverse=True)
        print(
            format_table(
                rows,
                title=(
                    f"LLC design space ranked by {spec} over {len(mixes)} "
                    f"{args.cores}-program mixes (best first):"
                ),
            )
        )
    return 0


def _command_stress(args: argparse.Namespace, setup: ExperimentSetup) -> int:
    machine = setup.machine(num_cores=args.cores, llc_config=args.llc_config)
    mixes = setup.mixes(args.cores, args.mixes, seed=args.seed)
    predictions = setup.predictor_batch([(args.model, mix, machine) for mix in mixes])
    scored = list(zip(predictions, mixes))
    scored.sort(key=lambda pair: pair[0].system_throughput)
    rows = []
    for prediction, mix in scored[: args.worst]:
        worst_program = max(prediction.programs, key=lambda program: program.slowdown)
        rows.append(
            {
                "mix": mix.label(),
                "STP": prediction.system_throughput,
                "ANTT": prediction.average_normalized_turnaround_time,
                "worst_program": worst_program.name,
                "worst_slowdown": worst_program.slowdown,
            }
        )
    print(
        format_table(
            rows,
            title=f"{args.worst} worst mixes (by {args.model} STP) out of {len(mixes)} scanned:",
        )
    )
    return 0


def _command_worker(args: argparse.Namespace) -> int:
    """Run a fleet worker agent until ``POST /shutdown`` or Ctrl-C."""
    from repro.engine.remote import run_worker

    return run_worker(
        host=args.host, port=args.port, cache_dir=args.cache_dir, tag=args.tag
    )


def _command_serve(args: argparse.Namespace) -> int:
    """Run the prediction service until Ctrl-C or ``POST /shutdown``."""
    from repro.service import ServiceConfig, serve_blocking

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        jobs=args.fleet if args.fleet is not None else args.jobs,
        cache_dir=args.cache_dir,
        workload=args.suite if args.suite is not None else DEFAULT_WORKLOAD,
        max_batch=args.max_batch,
        instructions=args.instructions,
        scale=args.scale,
        seed=args.seed,
        preload=not args.no_preload,
    )
    return serve_blocking(config)


#: Experiments the unified pipeline knows how to run, in run order.
RUN_EXPERIMENTS = ("space", "variability", "accuracy", "ranking", "agreement", "stress")


def _command_run(args: argparse.Namespace, setup: ExperimentSetup) -> int:
    """The unified pipeline: paper experiments through the engine."""
    from repro.experiments.accuracy import accuracy_experiment
    from repro.experiments.agreement import agreement_experiment
    from repro.experiments.ranking import ranking_experiment
    from repro.experiments.stress import stress_experiment
    from repro.experiments.variability import variability_experiment
    from repro.experiments.workload_space import workload_space_report

    try:
        core_counts = [int(part) for part in args.cores.split(",") if part]
    except ValueError:
        core_counts = []
    if not core_counts or any(cores <= 0 for cores in core_counts):
        print(
            f"error: --cores must be comma-separated positive integers, got {args.cores!r}",
            file=sys.stderr,
        )
        return 2
    mixes = args.mixes
    trials = max(2, mixes // 4)
    models = _selected_models(args)

    def run_experiment(name: str):
        if name == "space":
            return workload_space_report(setup, measure_costs=True)
        if name == "variability":
            # Variability evaluates with a single estimator: the first
            # requested model, or the paper's detailed simulation.
            return variability_experiment(
                setup,
                num_cores=core_counts[-1],
                max_mixes=mixes,
                source=models[0] if args.models else "simulation",
                seed=args.seed + 11,
            )
        if name == "accuracy":
            return accuracy_experiment(
                setup,
                core_counts=core_counts,
                mixes_per_core_count=mixes,
                predictors=models,
                seed=args.seed + 23,
            )
        if name == "ranking":
            return ranking_experiment(
                setup,
                num_cores=core_counts[-1],
                num_trials=trials,
                mixes_per_trial=max(3, mixes // 4),
                reference_mixes=mixes,
                mppm_mixes=4 * mixes,
                predictors=models,
                seed=args.seed + 41,
            )
        if name == "agreement":
            return agreement_experiment(
                setup,
                num_cores=core_counts[-1],
                num_trials=trials,
                mixes_per_trial=max(3, mixes // 4),
                reference_mixes=mixes,
                mppm_mixes=4 * mixes,
                predictors=models,
                seed=args.seed + 53,
            )
        return stress_experiment(
            setup,
            num_cores=core_counts[-1],
            num_mixes=2 * mixes,
            worst_k=max(3, mixes // 4),
            predictors=models,
            seed=args.seed + 61,
        )

    if not args.experiments or "all" in args.experiments:
        selected = RUN_EXPERIMENTS
    else:
        selected = tuple(args.experiments)
    engine_label = (
        f"--fleet {args.fleet}" if getattr(args, "fleet", None) else f"--jobs {args.jobs}"
    )
    for name in selected:
        start = time.perf_counter()
        result = run_experiment(name)
        elapsed = time.perf_counter() - start
        print(result.render())
        print(f"[{name}] finished in {elapsed:.1f}s with {engine_label}\n")
    return 0


def _command_ingest(args: argparse.Namespace) -> int:
    from repro.ingest import FitOptions, write_bundle
    from repro.ingest.workload import ingest_to_bundle
    from repro.workloads.benchmark import WorkloadError

    options = FitOptions(
        num_instructions=args.instructions,
        max_phases=args.max_phases,
        rounds=args.rounds,
        seed=args.seed,
    )
    try:
        workload, stream = ingest_to_bundle(
            args.samples, machine_path=args.machine, options=options
        )
    except WorkloadError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    bundle_path = write_bundle(workload, args.out)
    spec = canonical_workload_spec(f"perf:{args.out}")
    if args.json:
        print(
            json.dumps(
                {
                    "bundle": str(bundle_path),
                    "workload_spec": spec,
                    "report": [
                        {
                            "core": fit.core,
                            "benchmark": fit.spec.name,
                            "samples": fit.num_samples,
                            "coverage": fit.coverage,
                            "phases": len(fit.phases),
                            "max_miss_rate_error": fit.max_miss_rate_error,
                            "max_access_rate_error": fit.max_access_rate_error,
                            "max_cpi_error": fit.max_cpi_error,
                        }
                        for fit in workload.fits
                    ],
                },
                indent=2,
            )
        )
        return 0
    rows = [
        {
            "core": fit.core,
            "benchmark": fit.spec.name,
            "samples": fit.num_samples,
            "coverage": fit.coverage,
            "phases": len(fit.phases),
            "miss_err": fit.max_miss_rate_error,
            "acc_err": fit.max_access_rate_error,
            "cpi_err": fit.max_cpi_error,
        }
        for fit in workload.fits
    ]
    print(
        format_table(
            rows,
            title=(
                f"Fitted {len(workload.fits)} cores from "
                f"{sum(len(core.timestamps) for core in stream.cores)} samples "
                f"on {workload.machine.name}:"
            ),
        )
    )
    print(f"\nbundle: {bundle_path}")
    print(f"workload spec: {spec}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-mppm",
        description="Multi-Program Performance Model (IISWC 2011) reproduction CLI.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    suite_parser = subparsers.add_parser("suite", help="list the benchmark suite")
    _add_common_arguments(suite_parser)
    suite_parser.set_defaults(handler=_with_setup(_command_suite))

    models_parser = subparsers.add_parser(
        "models", help="list the registered predictor specs"
    )
    models_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the registry as JSON (the same payload as GET /models)",
    )
    models_parser.set_defaults(handler=_command_models)

    workloads_parser = subparsers.add_parser(
        "workloads", help="list the registered workload specs"
    )
    workloads_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the registry as JSON (the same payload as GET /workloads)",
    )
    workloads_parser.set_defaults(handler=_command_workloads)

    profile_parser = subparsers.add_parser("profile", help="print single-core profiles")
    _add_common_arguments(profile_parser)
    profile_parser.add_argument("names", nargs="*", help="benchmarks to profile (default: all)")
    profile_parser.set_defaults(handler=_with_setup(_command_profile))

    predict_parser = subparsers.add_parser(
        "predict", help="run one predictor on one workload mix"
    )
    _add_common_arguments(predict_parser)
    _add_model_argument(predict_parser, repeatable=False)
    predict_parser.add_argument("programs", nargs="+", help="benchmark names, one per core")
    predict_parser.set_defaults(handler=_with_setup(_command_predict))

    compare_parser = subparsers.add_parser(
        "compare", help="run predictors and the detailed reference on one mix"
    )
    _add_common_arguments(compare_parser)
    _add_model_argument(compare_parser, repeatable=True)
    compare_parser.add_argument("programs", nargs="+", help="benchmark names, one per core")
    compare_parser.set_defaults(handler=_with_setup(_command_compare))

    rank_parser = subparsers.add_parser("rank", help="rank the Table 2 LLC configurations")
    _add_common_arguments(rank_parser)
    _add_model_argument(rank_parser, repeatable=True)
    rank_parser.add_argument("--cores", type=int, default=4, help="programs per mix (default: 4)")
    rank_parser.add_argument(
        "--mixes", type=int, default=100, help="number of mixes each model evaluates (default: 100)"
    )
    rank_parser.set_defaults(handler=_with_setup(_command_rank))

    stress_parser = subparsers.add_parser("stress", help="find worst-case (stress) workload mixes")
    _add_common_arguments(stress_parser)
    _add_model_argument(stress_parser, repeatable=False)
    stress_parser.add_argument("--cores", type=int, default=4, help="programs per mix (default: 4)")
    stress_parser.add_argument(
        "--mixes", type=int, default=200, help="number of mixes to scan (default: 200)"
    )
    stress_parser.add_argument(
        "--worst", type=int, default=10, help="how many worst mixes to report (default: 10)"
    )
    stress_parser.set_defaults(handler=_with_setup(_command_stress))

    run_parser = subparsers.add_parser(
        "run", help="run whole paper experiments through the parallel engine"
    )
    _add_common_arguments(run_parser, jobs="auto")
    _add_model_argument(run_parser, repeatable=True)
    run_parser.add_argument(
        "--experiment",
        dest="experiments",
        action="append",
        choices=RUN_EXPERIMENTS + ("all",),
        default=None,
        help="experiment to run; repeatable (default: all)",
    )
    run_parser.add_argument(
        "--mixes",
        type=_positive_int,
        default=12,
        help="base mix-sample size each experiment is scaled from (default: 12)",
    )
    run_parser.add_argument(
        "--cores",
        default="2,4",
        help="comma-separated core counts for the accuracy sweep (default: 2,4)",
    )
    run_parser.add_argument(
        "--progress", action="store_true", help="print a live engine job counter to stderr"
    )
    run_parser.set_defaults(handler=_with_setup(_command_run), experiments=None)

    ingest_parser = subparsers.add_parser(
        "ingest",
        help="fit a PMU sample stream into a reusable perf: workload bundle",
    )
    ingest_parser.add_argument(
        "samples", help="PMU sample stream (CSV or JSONL; see src/repro/ingest/)"
    )
    ingest_parser.add_argument(
        "--out",
        required=True,
        help="directory to write the fitted bundle (usable as perf:<dir>)",
    )
    ingest_parser.add_argument(
        "--machine",
        default=None,
        help=(
            "machine descriptor JSON (default: <samples-stem>.machine.json "
            "next to the samples, then machine.json)"
        ),
    )
    ingest_parser.add_argument(
        "--instructions",
        type=_positive_int,
        default=120_000,
        help="replay trace length per fitted core (default: 120000)",
    )
    ingest_parser.add_argument(
        "--max-phases",
        type=_positive_int,
        default=6,
        help="phase-segmentation budget per core (default: 6)",
    )
    ingest_parser.add_argument(
        "--rounds",
        type=_positive_int,
        default=4,
        help="fit refinement rounds (default: 4)",
    )
    ingest_parser.add_argument(
        "--seed", type=int, default=0, help="fitted-workload seed (default: 0)"
    )
    ingest_parser.add_argument(
        "--json", action="store_true", help="emit the fit report as JSON"
    )
    ingest_parser.set_defaults(handler=_command_ingest)

    serve_parser = subparsers.add_parser(
        "serve", help="run the prediction service (HTTP/JSON over the registries)"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="address to bind (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8181,
        help="port to bind; 0 picks an ephemeral port (default: 8181)",
    )
    serve_parser.add_argument(
        "--suite",
        type=_workload_spec,
        default=None,
        help=(
            "workload profiled at start-up (on all six Table 2 LLCs) and used "
            "when a request names "
            f"none (default: {DEFAULT_WORKLOAD})"
        ),
    )
    serve_engine_group = serve_parser.add_mutually_exclusive_group()
    serve_engine_group.add_argument(
        "--jobs",
        type=_jobs,
        default=1,
        help=(
            "engine worker processes for requests, or auto for one per local "
            "CPU; 1 runs them in-process (default: 1). Start-up profiling "
            "uses every local CPU whatever this says"
        ),
    )
    serve_engine_group.add_argument(
        "--fleet",
        type=_fleet_spec,
        default=None,
        help=(
            "back the service's engine with a worker fleet: localhost:N, "
            "ssh=host1,host2, or attach=host:port+host:port"
        ),
    )
    serve_parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent cache directory for profiles and results (default: memory only)",
    )
    serve_parser.add_argument(
        "--max-batch",
        type=_positive_int,
        default=64,
        help="the most requests one engine batch takes (default: 64)",
    )
    serve_parser.add_argument(
        "--instructions",
        type=int,
        default=200_000,
        help="trace length per benchmark (default: 200000, matching `repro predict`)",
    )
    serve_parser.add_argument(
        "--scale", type=int, default=16, help="cache capacity scaling divisor (default: 16)"
    )
    serve_parser.add_argument("--seed", type=int, default=0, help="global seed (default: 0)")
    serve_parser.add_argument(
        "--no-preload",
        action="store_true",
        help="skip all start-up profiling (each benchmark-LLC pair is profiled on first use)",
    )
    serve_parser.set_defaults(handler=_command_serve)

    worker_parser = subparsers.add_parser(
        "worker",
        help="run a fleet worker agent (jobs in, registry result envelopes out)",
    )
    worker_parser.add_argument(
        "--host", default="127.0.0.1", help="address to bind (default: 127.0.0.1)"
    )
    worker_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="port to bind; 0 picks an ephemeral port and announces it (default: 0)",
    )
    worker_parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent cache directory for this worker's results (default: memory only)",
    )
    worker_parser.add_argument(
        "--tag", default=None, help="worker name in announcements and /stats (default: pid)"
    )
    worker_parser.set_defaults(handler=_command_worker)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
