"""Shared pieces of the benchmark: paths, statistics, child processes."""

from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything a run writes (reports, traces, cache directories) goes here.
OUT = ROOT / ".perfbench"
BOOTSTRAP = HERE / "bootstrap.py"
GOLDEN = json.loads((HERE / "golden.json").read_text())


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) if not existing else f"{SRC}{os.pathsep}{existing}"
    return env


def bootstrap_command(report: Optional[Path], trace: bool, argv: Sequence[str]) -> List[str]:
    command = [sys.executable, str(BOOTSTRAP)]
    if report is not None:
        command += ["--report", str(report)]
    if trace:
        command.append("--trace")
    return command + ["--", *argv]


def cold_start_s() -> float:
    """Time one fresh interpreter importing the CLI and building its parser."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, str(BOOTSTRAP), "--import-only"],
        env=child_env(),
        cwd=ROOT,
        check=True,
        timeout=120,
    )
    return time.perf_counter() - started


#: Seconds one pass of :func:`_calibration_pass` takes on the reference
#: host (a 2-vCPU KVM guest on an Intel Xeon, in its faster phases).
REFERENCE_PASS_S = 0.032


def _calibration_pass() -> None:
    """A fixed mix of numpy array passes and interpreted Python, like the program's."""
    import numpy as np

    keys = np.random.default_rng(12345).integers(0, 1 << 20, 200_000)
    order = np.argsort(keys, kind="stable")
    np.cumsum(keys[order])
    np.bincount(keys & 4095)
    total = 0
    table: Dict[int, int] = {}
    for i in range(40_000):
        total += i * 7 % 13
        table[i & 1023] = total


def host_slowness(passes: int = 7) -> float:
    """How much slower than the reference host this one runs right now.

    The median of ``passes`` timed calibration passes over
    :data:`REFERENCE_PASS_S`.  The host's speed drifts by up to about 1.7x
    over minutes, and this kernel, which shares no code with the program,
    slows with it, so dividing a time by it takes most of the drift out.
    """
    times = []
    for _ in range(passes):
        started = time.perf_counter()
        _calibration_pass()
        times.append(time.perf_counter() - started)
    return statistics.median(times) / REFERENCE_PASS_S


class SlownessSampler:
    """Appends a :func:`host_slowness` sample to ``into`` every ``interval`` s.

    For a unit that runs in one child process and lasts much longer than
    the gaps between units: the sampler's thread uses the second vCPU
    while this process only waits for the child.
    """

    def __init__(self, into: List[float], interval: float = 2.0) -> None:
        self._into = into
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(self._interval):
            self._into.append(host_slowness(passes=3))

    def __enter__(self) -> "SlownessSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the service's own ``/stats`` convention)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_FINISHED = re.compile(r"^\[(\w+)\] finished in .*$")


def section_digests(stdout: str) -> Dict[str, str]:
    """Digest of each experiment's rendered output in a ``repro run`` transcript.

    The ``[name] finished in`` lines end each section and are dropped;
    in the space report the ``exhaustive_*`` columns (extrapolated from
    measured costs) are masked.  Table cells are split on runs of two or
    more spaces so column padding does not matter.
    """
    out: Dict[str, str] = {}
    lines: List[str] = []
    for line in stdout.splitlines():
        match = _FINISHED.match(line)
        if match is None:
            lines.append(line)
            continue
        name = match.group(1)
        out[name] = digest("\n".join(_mask(name, lines)))
        lines = []
    return out


def _mask(name: str, lines: List[str]) -> List[str]:
    rows = [re.split(r"\s{2,}", line.strip()) for line in lines if line.strip()]
    if name != "space":
        return ["|".join(row) for row in rows]
    masked: List[str] = []
    hidden: List[int] = []
    for row in rows:
        if "exhaustive_simulation" in row:
            hidden = [i for i, cell in enumerate(row) if cell.startswith("exhaustive_")]
        elif hidden and len(row) > max(hidden) and not set(row[0]) <= {"-"}:
            row = [("*" if i in hidden else cell) for i, cell in enumerate(row)]
        masked.append("|".join(row))
    return masked


@dataclass
class Unit:
    """One unit of timed work and what came out of it."""

    seconds: float
    ops: int
    failed: int
    #: Extra samples for the human-readable report, by metric name.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Spans/counters reports of traced child processes.
    reports: List[Dict[str, Any]] = field(default_factory=list)
    #: perf_counter_ns interval of the unit (for root-span coverage).
    start_ns: int = 0
    end_ns: int = 0
