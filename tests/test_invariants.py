"""Invariants every contention-only predictor must keep, exactly.

Sharing an LLC can only slow a program down, so a predictor that
models contention alone (every registry spec but the ``detailed``
reference and the ``hybrid:*`` specs built on it) predicts a system
throughput of at most N and an average normalized turnaround time of
at least 1 for every N-program mix.  Checked with no tolerance over
random 1-8 program mixes (repeats allowed) on the six Table 2 LLCs.
"""

from __future__ import annotations

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentConfig, ExperimentSetup
from repro.predictors import available_predictors
from repro.workloads import WorkloadMix, small_suite

SPECS = [
    spec
    for spec in available_predictors()
    if spec != "detailed" and not spec.startswith("hybrid:")
]


@functools.lru_cache(maxsize=1)
def _setup() -> ExperimentSetup:
    return ExperimentSetup(
        config=ExperimentConfig(scale=16, num_instructions=20_000, interval_instructions=1_000),
        suite=small_suite(8),
    )


@settings(max_examples=300, deadline=None)
@given(
    spec=st.sampled_from(SPECS),
    programs=st.lists(st.sampled_from(small_suite(8).names), min_size=1, max_size=8),
    llc_config=st.integers(min_value=1, max_value=6),
)
def test_contention_only_predictions_keep_stp_at_most_n_and_antt_at_least_one(
    spec, programs, llc_config
):
    setup = _setup()
    mix = WorkloadMix(programs=tuple(programs))
    machine = setup.machine(num_cores=len(programs), llc_config=llc_config)
    prediction = setup.predict(mix, machine, spec)
    assert prediction.num_programs == len(programs)
    assert prediction.system_throughput <= len(programs)
    assert prediction.average_normalized_turnaround_time >= 1
