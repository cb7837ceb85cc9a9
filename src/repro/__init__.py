"""repro — a reproduction of the Multi-Program Performance Model (MPPM).

MPPM (Van Craeynest & Eeckhout, IISWC 2011) predicts multi-program
multi-core performance — per-program multi-core CPI, system throughput
(STP) and average normalized turnaround time (ANTT) — from single-core
simulation profiles only, using an iterative analytical model of
shared-cache contention.

The package layers, bottom-up:

* :mod:`repro.config` — machine configurations (Tables 1 and 2),
* :mod:`repro.workloads` — the unified Workload API: one spec-string
  registry (``make_workload``) covering the SPEC CPU2006-like suite,
  parametric ``random:*`` families and microservice-like ``service:*``
  benchmarks, plus trace generation and multi-program mix sampling,
* :mod:`repro.caches`, :mod:`repro.cores` — the cache and core timing
  substrate,
* :mod:`repro.simulators` — the detailed single-core profiler and the
  shared-LLC multi-core reference simulator (the CMP$im stand-in),
* :mod:`repro.profiling` — single-core profiles and their store,
* :mod:`repro.contention` — FOA and the other Chandra et al. models,
* :mod:`repro.core` — MPPM itself,
* :mod:`repro.predictors` — the unified Predictor API: one spec-string
  registry (``make_predictor``) covering MPPM variants, the baselines
  and detailed simulation,
* :mod:`repro.metrics` — STP/ANTT, errors, confidence intervals,
  Spearman rank correlation,
* :mod:`repro.engine` — the parallel experiment engine (job lists,
  serial/process-pool/fleet backends, persistent result cache),
* :mod:`repro.experiments` — one harness per paper table/figure.

Quick start::

    from repro import quickstart_predict
    prediction = quickstart_predict(["gamess", "gamess", "hmmer", "soplex"])
    print(prediction.describe())
"""

from typing import Optional, Sequence

from repro.core import MPPM, MPPMConfig
from repro.core.result import MixPrediction
from repro.config import baseline_machine, llc_design_space, machine_with_llc, scaled
from repro.contention import available_contention_models, make_contention_model
from repro.predictors import (
    DEFAULT_PREDICTOR,
    Predictor,
    available_predictors,
    make_predictor,
)
from repro.workloads import (
    DEFAULT_WORKLOAD,
    WorkloadMix,
    WorkloadSource,
    available_workloads,
    make_workload,
    spec_cpu2006_like_suite,
)
from repro.experiments import ExperimentConfig, ExperimentSetup, default_setup

__version__ = "1.2.0"

__all__ = [
    "MPPM",
    "MPPMConfig",
    "MixPrediction",
    "Predictor",
    "DEFAULT_PREDICTOR",
    "DEFAULT_WORKLOAD",
    "WorkloadMix",
    "WorkloadSource",
    "available_contention_models",
    "available_predictors",
    "available_workloads",
    "baseline_machine",
    "machine_with_llc",
    "llc_design_space",
    "make_contention_model",
    "make_predictor",
    "make_workload",
    "scaled",
    "spec_cpu2006_like_suite",
    "ExperimentConfig",
    "ExperimentSetup",
    "default_setup",
    "quickstart_predict",
    "__version__",
]


def quickstart_predict(
    programs: Sequence[str],
    llc_config: int = 1,
    setup: Optional[ExperimentSetup] = None,
    predictor: Optional[str] = None,
) -> MixPrediction:
    """Predict multi-core performance for one workload mix in one call.

    ``programs`` is a list of benchmark names from the SPEC CPU2006-like
    suite (one per core, repetitions allowed).  The function profiles
    the required benchmarks on the (scaled) baseline machine with the
    requested Table 2 LLC configuration — a one-time cost cached in the
    setup — and runs the requested predictor (``predictor`` is a spec
    from :func:`available_predictors`; default MPPM with FOA) on the
    mix.
    """
    setup = setup if setup is not None else ExperimentSetup()
    mix = WorkloadMix(programs=tuple(programs))
    machine = setup.machine(num_cores=mix.num_programs, llc_config=llc_config)
    return setup.predict(mix, machine, predictor=predictor)
