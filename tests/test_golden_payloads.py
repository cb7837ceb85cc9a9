"""Golden payloads: every advertised predictor's output, byte for byte.

``tests/data/golden_predictions.json`` holds the ``to_dict()`` of one
small-scale prediction per registered predictor spec, plus the raw
detailed :class:`~repro.simulators.MultiCoreRunResult` behind them.
Refactors that must not move a number (or a provenance field such as
``kernel``) are checked against it byte for byte.

Regenerate it only when a change is *meant* to move outputs::

    PYTHONPATH=src python tests/test_golden_payloads.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments import ExperimentConfig, ExperimentSetup
from repro.predictors import available_predictors
from repro.workloads import WorkloadMix, small_suite

GOLDEN = Path(__file__).parent / "data" / "golden_predictions.json"

#: 4 benchmarks, 20,000 instructions, one 2-program mix, Table 2 LLC #1.
CONFIG = ExperimentConfig(scale=16, num_instructions=20_000, interval_instructions=1_000, seed=0)
MIX = WorkloadMix(("gamess", "soplex"))


def golden_payloads() -> dict:
    """The payloads the golden file records, computed from scratch."""
    setup = ExperimentSetup(CONFIG, suite=small_suite(4))
    machine = setup.machine(num_cores=MIX.num_programs, llc_config=1)
    return {
        "predictions": {
            spec: setup.predict(MIX, machine, spec).to_dict() for spec in available_predictors()
        },
        "detailed_run": setup.simulate(MIX, machine).to_dict(),
    }


def _dump(payloads: dict) -> str:
    return json.dumps(payloads, indent=1, sort_keys=True) + "\n"


def test_payloads_match_the_golden_file_byte_for_byte():
    assert _dump(golden_payloads()) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(_dump(golden_payloads()))
    print(f"wrote {GOLDEN}")
