"""Benchmark: the experiment engine's backends and cache on a real sweep.

Times an accuracy-style sweep (predict + reference-simulate a mix
sample) three ways:

* serial backend (the baseline every experiment used historically),
* a 4-worker process pool (the ``repro run --jobs 4`` path) — on a
  multi-core machine this is where the wall-clock drops; the sweep's
  one-time profiling cost fans out too,
* a warm persistent result cache (the second run of a campaign), which
  should be orders of magnitude faster than either.

Correctness (serial == parallel, bit-identical) is asserted here as
well as in the unit tests, so the timing numbers are comparing equal
work.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest

from conftest import run_once
from repro.experiments import ExperimentConfig, ExperimentSetup
from repro.experiments.results import evaluation_ops, evaluations
from repro.workloads import sample_mixes

#: Sweep shape: 2- and 4-core mixes, as in the Figure 4 accuracy sweep.
SWEEP_CORES = (2, 4)
MIXES_PER_CORE_COUNT = 10


def _sweep_pairs(setup):
    pairs = []
    for num_cores in SWEEP_CORES:
        machine = setup.machine(num_cores=num_cores, llc_config=1)
        for mix in sample_mixes(
            setup.benchmark_names, num_cores, MIXES_PER_CORE_COUNT, seed=23 + num_cores
        ):
            pairs.append((mix, machine))
    return pairs


def _fresh_setup(**kwargs):
    return ExperimentSetup(
        config=ExperimentConfig(scale=16, num_instructions=100_000, interval_instructions=2_000),
        **kwargs,
    )


def _evaluate(setup):
    """The default predictor and the reference over the whole sweep."""
    ops = evaluation_ops(["mppm:foa"], _sweep_pairs(setup))
    return evaluations(ops, setup.predictor_batch(ops))["mppm:foa"]


@pytest.fixture(scope="module")
def reference_evaluations():
    return _evaluate(_fresh_setup())


def test_engine_serial(benchmark, reference_evaluations):
    evaluations = run_once(benchmark, _evaluate, _fresh_setup())
    assert evaluations == reference_evaluations


def test_engine_process_pool_4(benchmark, reference_evaluations):
    setup = _fresh_setup(jobs=4)
    try:
        evaluations = run_once(benchmark, _evaluate, setup)
    finally:
        setup.close()
    assert evaluations == reference_evaluations


def test_engine_warm_cache(benchmark, reference_evaluations):
    cache_dir = tempfile.mkdtemp(prefix="repro-engine-bench-")
    try:
        cold = _fresh_setup(cache_dir=cache_dir)
        _evaluate(cold)

        warm = _fresh_setup(cache_dir=cache_dir)
        evaluations = run_once(benchmark, _evaluate, warm)
        assert evaluations == reference_evaluations
        assert warm.store.simulated_profiles == 0
        assert warm.reference_runs() == 0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
