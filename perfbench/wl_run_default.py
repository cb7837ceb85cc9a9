"""``run-default``: ``repro run`` with no flags, cold, in a fresh process.

The ROADMAP's headline invocation: ``suite:spec29``, 200k instructions,
12 mixes, cores 2,4, serial, no cache directory.  It has no inputs to
draw from the seed.  Set-up is the CLI's cold start; one unit is one
whole run, checked experiment by experiment against golden digests.
"""

from __future__ import annotations

import json
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

from common import GOLDEN, OUT, ROOT, Unit, bootstrap_command, child_env, cold_start_s, section_digests

SETUPS = 3
#: One whole ``repro run`` (about 26 s) is already longer than a run's
#: ``--seconds``; a second would only stretch the benchmark's total time.
MAX_UNITS = 1
#: The host's speed drifts within one 26-s unit; the run, a single child
#: process, leaves a vCPU free to sample it.
SAMPLE_DURING_UNITS = True
ARGV = ["run"]
#: Experiments whose seconds the report lists beside the run's wall time.
TIMED = ("ranking", "agreement")


def prepare(seed: int) -> Dict[str, Any]:
    return {"argv": ARGV, "golden": GOLDEN["run"]}


def setup(inputs: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The CLI's cold start; the run itself starts a fresh process per unit."""
    cold_start_s()
    return {"trace": trace}


def close(state: Dict[str, Any]) -> None:
    return None


def verify(state: Dict[str, Any], inputs: Dict[str, Any]) -> int:
    """Nothing left to check: each unit checks its own transcript."""
    return 0


def run_cli(argv: List[str], trace: bool) -> tuple:
    """Run one bootstrapped CLI process; returns (seconds, stdout, report, start, end)."""
    OUT.mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile(dir=OUT, suffix=".report.json", delete=False) as handle:
        report_path = handle.name
    start_ns = time.perf_counter_ns()
    completed = subprocess.run(
        bootstrap_command(report_path, trace, argv),
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    end_ns = time.perf_counter_ns()
    report_file = Path(report_path)
    try:
        report = json.loads(report_file.read_text()) if completed.returncode == 0 else {}
    except ValueError:
        report = {}
    finally:
        report_file.unlink(missing_ok=True)
    if completed.returncode != 0:
        print(completed.stderr[-2000:], flush=True)
    return (end_ns - start_ns) / 1e9, completed.stdout, report, start_ns, end_ns


def experiment_seconds(report: Dict[str, Any]) -> Dict[str, float]:
    return {
        span[0].split(".", 1)[1]: (span[2] - span[1]) / 1e9
        for span in report.get("spans", [])
        if span[0].startswith("experiments.")
    }


def check(stdout: str, golden: Dict[str, str]) -> int:
    """Number of experiments whose masked output differs from the golden run."""
    got = section_digests(stdout)
    return sum(1 for name, expected in golden.items() if got.get(name) != expected)


def unit(state: Dict[str, Any], inputs: Dict[str, Any], index: int) -> Unit:
    seconds, stdout, report, start_ns, end_ns = run_cli(inputs["argv"], state["trace"])
    golden = inputs["golden"]
    failed = check(stdout, golden) if report else len(golden)
    times = experiment_seconds(report)
    counters = report.get("counters", {})
    samples = {f"{name}_s": [times[name]] for name in TIMED if name in times}
    for name in ("stp_err_pct", "antt_err_pct"):
        if f"accuracy.{name}" in counters:
            samples[f"mppm_{name}"] = [counters[f"accuracy.{name}"]]
    return Unit(
        seconds=seconds,
        ops=len(golden),
        failed=failed,
        samples=samples,
        reports=[report] if state["trace"] and report else [],
        start_ns=start_ns,
        end_ns=end_ns,
    )
