"""End-to-end benchmark of the MPPM reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` and ``perfbench/NOTES.md``):
``run-default``, ``sweep-mppm``, ``serve-mixed`` and ``fleet-agreement``.
Inputs are drawn from ``--seed`` before any timing starts.  Each
workload sets up ``SETUPS`` times (``setup_s`` is the median), then runs
whole units of timed work back to back until ``--seconds`` have passed
(within the workload's ``MIN_UNITS`` and ``MAX_UNITS``; ``wall_s`` is
the median unit).  Every unit's outputs are checked; an operation whose
check fails counts as failed.  The reported times and rates are scaled
to a reference host speed by a calibration pass timed alongside the
units (:func:`common.host_slowness`); the raw seconds are printed too.

With ``--trace 0`` the last line of output is the JSON result with the
end-to-end metrics.  With ``--trace 1`` the workload runs one untraced
unit, then sets up and runs one unit again with the layer wrappers of
:mod:`layers` installed, and reports the per-layer metrics, the tracing
overhead and the share of the traced unit covered by top-level spans; the
spans are also written to ``.perfbench/trace-<workload>-<seed>.json`` in
Chrome trace-event format.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

import layers
from common import OUT, SRC, SlownessSampler, Unit, host_slowness, peak_rss_mb, percentile, quartiles
from tracer import Tracer, chrome_events, root_coverage, summarize

WORKLOADS = {
    "run-default": "wl_run_default",
    "sweep-mppm": "wl_sweep_mppm",
    "serve-mixed": "wl_serve_mixed",
    "fleet-agreement": "wl_fleet_agreement",
}

#: End-to-end metrics: name -> unit (see BENCHMARK.json for bounds).
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s"}


def measure(
    module: Any, inputs: Dict[str, Any], seconds: Optional[float], trace: bool, setups: int
) -> Dict[str, Any]:
    """Set up ``setups`` times, then run units until ``seconds`` have passed.

    A workload runs at least its ``MIN_UNITS`` (default 1) and at most
    its ``MAX_UNITS`` units whatever ``seconds`` says; ``seconds=None``
    runs exactly one unit and does not calibrate.  Otherwise the host's
    slowness is sampled before the set-ups, before every unit and after
    the last one, and, for a workload with ``SAMPLE_DURING_UNITS``, every
    2 s while its units run.
    """
    low, high = (1, 1) if seconds is None else (getattr(module, "MIN_UNITS", 1), module.MAX_UNITS)
    slowness: List[float] = []

    def calibrate() -> None:
        if seconds is not None:
            slowness.append(host_slowness())

    setup_s: List[float] = []
    reports: List[Dict[str, Any]] = []
    state = None
    calibrate()
    for _ in range(setups):
        if state is not None:
            reports += module.close(state) or []
        started = time.perf_counter()
        state = module.setup(inputs, trace)
        setup_s.append(time.perf_counter() - started)
    units: List[Unit] = []
    sample_during = seconds is not None and getattr(module, "SAMPLE_DURING_UNITS", False)
    started = time.perf_counter()
    try:
        with SlownessSampler(slowness) if sample_during else contextlib.nullcontext():
            while len(units) < high:
                # A full collection between units, outside their timing, so
                # no unit pays for the garbage of the one before it.
                gc.collect()
                calibrate()
                units.append(module.unit(state, inputs, len(units)))
                if len(units) >= low and time.perf_counter() - started >= (seconds or 0.0):
                    break
        calibrate()
    finally:
        reports += module.close(state) or []
    for unit in units:
        reports += unit.reports
    return {"setup_s": setup_s, "units": units, "reports": reports, "state": state, "slowness": slowness}


def samples_of(units: List[Unit]) -> Dict[str, List[float]]:
    merged: Dict[str, List[float]] = {}
    for unit in units:
        for name, values in unit.samples.items():
            merged.setdefault(name, []).extend(values)
    return merged


def print_row(name: str, unit: str, values: List[float], reported: Optional[float] = None) -> None:
    q1, median, q3 = quartiles(values)
    head = f"  {name:<22} {unit:<5} " + (f"{reported:<12.6g} " if reported is not None else "")
    print(f"{head}median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} n={len(values)}")


def end_to_end(run: Dict[str, Any]) -> Dict[str, tuple]:
    """Each metric's reported value (the median) and the samples behind it.

    ``wall_s`` is the timed phase's seconds per unit.  The workloads
    with short units run many of them, so the median rides out the
    host's spells of slow or fast seconds.  Times and rates are in
    reference-host terms: divided (rates multiplied) by the run's median
    host slowness, which takes out the drift of the host's speed from one
    minute to the next that no length of run would average away.
    """
    units: List[Unit] = run["units"]
    slowness = quartiles(run["slowness"])[1]
    rss = peak_rss_mb()
    samples = {
        "setup_s": [seconds / slowness for seconds in run["setup_s"]],
        "wall_s": [unit.seconds / slowness for unit in units],
        "peak_rss_mb": [rss],
        "ops_per_s": [unit.ops / unit.seconds * slowness for unit in units],
    }
    return {name: (quartiles(values)[1], values) for name, values in samples.items()}


def report_extras(units: List[Unit]) -> None:
    """Workload-specific figures: quartiles of their samples, plus request percentiles."""
    for name, values in samples_of(units).items():
        if name == "latency_ms":
            busy = sum(unit.seconds for unit in units)
            print(f"  {'p50_ms':<22} {'ms':<5} {percentile(values, 50):.6g}")
            print(f"  {'p99_ms':<22} {'ms':<5} {percentile(values, 99):.6g}  (n={len(values)})")
            print(f"  {'requests_per_s':<22} {'1/s':<5} {len(values) / busy:.6g}")
        else:
            print_row(name, "", values)


def traced(module: Any, inputs: Dict[str, Any], name: str, seed: int) -> tuple:
    """One untraced unit, then one traced set-up and unit; per-layer metrics."""
    base = measure(module, inputs, None, trace=False, setups=1)
    failed = module.verify(base["state"], inputs)
    tracer = Tracer()
    layers.install(tracer)
    try:
        run = measure(module, inputs, None, trace=True, setups=1)
        layers.collect(tracer)
    finally:
        tracer.restore()
    failed += module.verify(run["state"], inputs)
    processes = [{"pid": os.getpid(), **tracer.dump()}] + run["reports"]
    summary: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = {}
    distinct: Dict[str, int] = {}
    for process in processes:
        for span, entry in summarize(tuple(s) for s in process["spans"]).items():
            total = summary.setdefault(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for field, value in entry.items():
                total[field] += value
        for counter, value in process["counters"].items():
            counters[counter] = counters.get(counter, 0.0) + value
        for span, count in process["distinct"].items():
            distinct[span] = distinct.get(span, 0) + count
    traced_unit, base_unit = run["units"][0], base["units"][0]
    counters["trace.wall_s"] = traced_unit.seconds
    counters["trace.overhead_s"] = traced_unit.seconds - base_unit.seconds
    counters["trace.top_level_coverage"] = root_coverage(
        [tuple(s) for process in processes for s in process["spans"]],
        traced_unit.start_ns,
        traced_unit.end_ns,
    )
    OUT.mkdir(exist_ok=True)
    events = [e for process in processes for e in chrome_events(process["spans"], process["pid"])]
    trace_path = OUT / f"trace-{name}-{seed}.json"
    trace_path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    print(f"trace written to {trace_path}")
    for process in processes:
        for stats in process.get("worker_stats", []):
            print(f"  worker {stats['tag']}: received {stats['received']}, executed {stats['executed']}")
    units = base["units"] + run["units"]
    failed += sum(unit.failed for unit in units)
    return layers.per_layer(summary, counters, distinct), sum(u.ops for u in units), failed


def main() -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the MPPM reproduction.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: the program's sources ({SRC / 'repro'}) are missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    module = importlib.import_module(WORKLOADS[args.workload])
    inputs = module.prepare(args.seed)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")

    if args.trace:
        values, attempted, failed = traced(module, inputs, args.workload, args.seed)
        units_of = {name: unit for name, unit, _ in layers.PER_LAYER}
        metrics = {name: {"value": value, "unit": units_of[name]} for name, value in values.items()}
        for name, value in values.items():
            print(f"  {name:<44} {value:.6g} {units_of[name]}")
    else:
        run = measure(module, inputs, args.seconds, trace=False, setups=module.SETUPS)
        units: List[Unit] = run["units"]
        failed = sum(unit.failed for unit in units) + module.verify(run["state"], inputs)
        attempted = sum(unit.ops for unit in units)
        e2e = end_to_end(run)
        for name, (value, values) in e2e.items():
            print_row(name, END_TO_END[name], values, reported=value)
        print_row("host_slowness", "x", run["slowness"])
        print_row("raw_wall_s", "s", [unit.seconds for unit in units])
        report_extras(units)
        metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, (value, _) in e2e.items()}
    print(f"attempted {attempted}, failed {failed}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
