"""``fleet-agreement``: the agreement experiment on a two-worker loopback fleet.

``repro run --experiment agreement --suite suite:spec29/scaled@8
--mixes 4 --fleet localhost:2 --cache-dir DIR`` with a fresh, empty
``DIR`` per unit, so the loopback workers share the on-disk result cache
and profile store from cold.  The suite is the 8-benchmark spread and
the mix sample the smallest that still fills every category, so one
unit takes about 9 s instead of about 20 s and a run can take the
median of two: a single whole-suite unit, with both workers and the
driver on a 2-vCPU host, moved by about 30% from one unit to the next.
Like ``run-default`` it replays a fixed CLI invocation; its table must
equal the agreement section of the same invocation run serially.
"""

from __future__ import annotations

import shutil
import tempfile
from typing import Any, Dict

from common import GOLDEN, OUT, Unit, section_digests
from wl_run_default import close, experiment_seconds, run_cli, setup, verify  # noqa: F401

SETUPS = 3
MIN_UNITS = 2
MAX_UNITS = 2
ARGV = ["run", "--experiment", "agreement", "--suite", "suite:spec29/scaled@8", "--mixes", "4"]


def prepare(seed: int) -> Dict[str, Any]:
    return {"golden": GOLDEN["fleet"]["agreement"]}


def unit(state: Dict[str, Any], inputs: Dict[str, Any], index: int) -> Unit:
    OUT.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="fleet-cache-", dir=OUT)
    try:
        argv = ARGV + ["--fleet", "localhost:2", "--cache-dir", cache_dir]
        seconds, stdout, report, start_ns, end_ns = run_cli(argv, state["trace"])
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    failed = 0 if report and section_digests(stdout).get("agreement") == inputs["golden"] else 1
    times = experiment_seconds(report)
    return Unit(
        seconds=seconds,
        ops=1,
        failed=failed,
        samples={"agreement_s": [times["agreement"]]} if "agreement" in times else {},
        reports=[report] if state["trace"] and report else [],
        start_ns=start_ns,
        end_ns=end_ns,
    )
