"""Synthetic multi-program workloads.

The paper evaluates MPPM on SPEC CPU2006 (29 benchmarks, 1B-instruction
SimPoints traced with Pin).  That artefact is proprietary, so this
package substitutes a suite of 29 named *synthetic* benchmarks, each
defined by a :class:`BenchmarkSpec` that parameterises an
LRU-stack-model address-stream generator (temporal-reuse profile,
working-set size, streaming fraction, memory-reference rate, base CPI,
memory-level parallelism and per-phase parameter drift).

Workloads are first-class registry objects: :func:`make_workload`
resolves a spec string (``"suite:spec29"``, ``"suite:spec29/scaled@8"``,
``"random:n=8,seed=0"``, ``"service:n=8,seed=0"``) into a
:class:`WorkloadSource` that supplies the suite and samples mixes —
the workload-side mirror of :func:`repro.predictors.make_predictor`.

The package also contains everything the paper needs around the suite:

* :mod:`repro.workloads.registry` — the Workload API (spec strings,
  :class:`WorkloadSource`, :func:`make_workload`),
* :mod:`repro.workloads.families` — parametric synthetic families
  (``random:*`` over the ReuseProfile space, microservice-like
  ``service:*``),
* :mod:`repro.workloads.generator` — deterministic trace generation
  (vectorized, with a bit-identical per-access ``generate_reference``
  kept as the test witness),
* :mod:`repro.workloads.trace` — the in-memory trace representation,
* :mod:`repro.workloads.classification` — MEM / COMP / MIX benchmark
  classes used by the "current practice" category sampling,
* :mod:`repro.workloads.mixes` — enumeration, counting and sampling of
  multi-program workload mixes (combinations with repetition).
"""

from repro.workloads.benchmark import BenchmarkSpec, PhaseSpec, ReuseProfile
from repro.workloads.suite import (
    BenchmarkSuite,
    spec_cpu2006_like_suite,
    small_suite,
)
from repro.workloads.trace import MemoryTrace
from repro.workloads.generator import TraceGenerator
from repro.workloads.families import (
    random_benchmark,
    random_suite,
    service_benchmark,
    service_suite,
)
from repro.workloads.registry import (
    DEFAULT_WORKLOAD,
    MixCategory,
    RegisteredWorkload,
    WorkloadSource,
    WorkloadSpecError,
    available_workloads,
    canonical_workload_spec,
    describe_workloads,
    make_workload,
    resolve_categories,
    workload_for,
)
from repro.workloads.classification import (
    BenchmarkClass,
    classify_benchmark,
    classify_suite,
)
from repro.workloads.mixes import (
    WorkloadMix,
    count_mixes,
    enumerate_mixes,
    sample_mixes,
    sample_category_mixes,
)

__all__ = [
    "BenchmarkSpec",
    "PhaseSpec",
    "ReuseProfile",
    "BenchmarkSuite",
    "spec_cpu2006_like_suite",
    "small_suite",
    "MemoryTrace",
    "TraceGenerator",
    "random_benchmark",
    "random_suite",
    "service_benchmark",
    "service_suite",
    "DEFAULT_WORKLOAD",
    "MixCategory",
    "RegisteredWorkload",
    "WorkloadSource",
    "WorkloadSpecError",
    "available_workloads",
    "canonical_workload_spec",
    "describe_workloads",
    "make_workload",
    "resolve_categories",
    "workload_for",
    "BenchmarkClass",
    "classify_benchmark",
    "classify_suite",
    "WorkloadMix",
    "count_mixes",
    "enumerate_mixes",
    "sample_mixes",
    "sample_category_mixes",
]
