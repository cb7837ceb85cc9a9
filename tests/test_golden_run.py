"""Golden tables: ``repro run``'s sweep experiments, byte for byte.

``tests/data/golden_run.txt`` holds what ``repro run`` prints for the
variability, accuracy, ranking, agreement and stress experiments on a
small suite with three predictor specs (the paper's model, a baseline
and the two-stage hybrid), with each ``finished in`` timing masked.
Refactors of the experiments or of the sweep path must leave it
unchanged.

Regenerate it only when a change is *meant* to move outputs::

    PYTHONPATH=src python tests/test_golden_run.py
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_run.txt"

ARGV = [
    "run",
    "--benchmarks", "6",
    "--instructions", "20000",
    "--mixes", "4",
    "--jobs", "1",
    "--model", "mppm:foa",
    "--model", "baseline:one-shot",
    "--model", "hybrid:k=2",
    "--experiment", "variability",
    "--experiment", "accuracy",
    "--experiment", "ranking",
    "--experiment", "agreement",
    "--experiment", "stress",
]  # fmt: skip


def golden_output(jobs: str = "1") -> str:
    """``repro run``'s stdout for :data:`ARGV` at ``--jobs jobs``, timings masked.

    The engine label is printed as ``--jobs 1`` whatever ``jobs`` is, so
    a parallel run compares against the same golden file.
    """
    argv = list(ARGV)
    argv[argv.index("--jobs") + 1] = jobs
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    timing = r"finished in \S+s with --jobs \S+"
    return re.sub(timing, "finished in *s with --jobs 1", out.getvalue())


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_tables_match_the_golden_file_byte_for_byte(jobs):
    assert golden_output(jobs) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(golden_output())
    print(f"wrote {GOLDEN}")
