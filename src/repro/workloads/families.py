"""Parametric synthetic benchmark families beyond the SPEC-like suite.

The paper's argument is statistical coverage of the workload space, so
the suite should not be a closed set: this module provides two
*parametric* families that the workload registry
(:mod:`repro.workloads.registry`) exposes as spec strings:

* :func:`random_suite` (``random:n=...,seed=...``) — benchmarks drawn
  uniformly from the :class:`ReuseProfile` parameter space (reuse-depth
  buckets, streaming weight, working-set size, memory intensity, MLP,
  optional phases).  Useful for sensitivity studies that must not be
  tuned to the hand-crafted SPEC-like behaviours.
* :func:`service_suite` (``service:n=...,seed=...``) — bursty,
  strongly-phased microservice-like benchmarks modelled on the
  behaviour observed in request-serving systems (cf. the
  DeathStarBench-style microservices benchmarking literature): every
  benchmark alternates request bursts (high memory-reference rate,
  heavy cold-miss traffic) with drain/compute phases, on top of a
  role-specific cache behaviour (RPC gateway, auth cache, key-value
  cache, database shard, ...).

Both families are pure functions of ``(n, seed)``: benchmark ``i`` of a
family is identical for every suite size ``n > i``, so scaling a study
up never changes the benchmarks already evaluated — and their
single-core profiles stay cache hits: the
:class:`~repro.profiling.store.ProfileStore` keys profiles by the full
benchmark spec.  (Engine *results* are qualified by the full workload
spec including ``n``, so mix-level artefacts are per-workload by
design.)
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.workloads.benchmark import BenchmarkSpec, PhaseSpec, ReuseProfile
from repro.workloads.suite import BenchmarkSuite

#: Seed-sequence tags keeping the families' random streams disjoint
#: from each other and from trace generation.
_RANDOM_TAG = 0x52414E44  # "RAND"
_SERVICE_TAG = 0x53565243  # "SVRC"


# ---------------------------------------------------------------------------
# random:* — uniform draws over the ReuseProfile space
# ---------------------------------------------------------------------------


def _random_phases(rng: np.random.Generator) -> Tuple[PhaseSpec, ...]:
    """With probability ~0.4, give the benchmark 2-3 drifting phases."""
    if rng.random() >= 0.4:
        return (PhaseSpec(fraction=1.0),)
    num_phases = int(rng.integers(2, 4))
    raw = rng.uniform(0.5, 1.5, size=num_phases)
    fractions = raw / raw.sum()
    phases = []
    for fraction in fractions:
        phases.append(
            PhaseSpec(
                fraction=float(fraction),
                cpi_multiplier=float(rng.uniform(0.8, 1.4)),
                mem_fraction_multiplier=float(rng.uniform(0.6, 1.5)),
                reuse_depth_multiplier=float(rng.uniform(0.5, 1.8)),
                new_line_multiplier=float(rng.uniform(0.5, 2.5)),
            )
        )
    return tuple(phases)


def random_benchmark(index: int, seed: int = 0) -> BenchmarkSpec:
    """Benchmark ``index`` of the ``random:seed=...`` family.

    A pure function of ``(index, seed)``; see the module docstring for
    the stability guarantee.
    """
    rng = np.random.default_rng((_RANDOM_TAG, seed, index))
    num_buckets = int(rng.integers(2, 6))
    # Log-uniform bucket depths between the private L1 scale and far
    # beyond the shared L3, deduplicated and strictly increasing.
    depths = np.unique(
        np.exp(rng.uniform(np.log(4), np.log(4096), size=num_buckets)).astype(np.int64)
    )
    depths = depths[depths >= 2]
    if depths.size == 0:
        depths = np.array([8], dtype=np.int64)
    # Geometric-ish decay so near reuse dominates, as in real programs.
    weights = np.sort(rng.uniform(0.05, 1.0, size=depths.size))[::-1]
    weights *= 0.6 ** np.arange(depths.size)
    buckets = tuple(
        (int(depth), float(weight)) for depth, weight in zip(depths, weights)
    )
    new_weight = float(rng.uniform(0.0, 0.12) * weights.sum())
    working_set = int(np.exp(rng.uniform(np.log(256), np.log(40_000))))
    return BenchmarkSpec(
        name=f"rnd{index:02d}",
        base_cpi=float(rng.uniform(0.4, 0.95)),
        mem_ref_fraction=float(rng.uniform(0.18, 0.38)),
        reuse=ReuseProfile(buckets=buckets, new_weight=new_weight),
        working_set_lines=working_set,
        mlp=float(rng.uniform(1.0, 4.0)),
        phases=_random_phases(rng),
        seed=10_000 + index,
    )


def random_suite(num_benchmarks: int = 8, seed: int = 0) -> BenchmarkSuite:
    """``num_benchmarks`` benchmarks drawn from the ReuseProfile space."""
    return BenchmarkSuite(
        specs=tuple(random_benchmark(i, seed=seed) for i in range(num_benchmarks))
    )


# ---------------------------------------------------------------------------
# service:* — bursty, strongly-phased microservice-like benchmarks
# ---------------------------------------------------------------------------

#: (role, base_cpi, mem_ref_fraction, reuse buckets, new_weight,
#:  working-set lines, mlp).  Reuse depths are tuned against the same
#:  scaled hierarchy as the SPEC-like suite (L1 32 / L2 256 / L3
#:  512-2048 lines).
_SERVICE_ROLES: Tuple[Tuple[str, float, float, Tuple[Tuple[int, float], ...], float, int, float], ...] = (
    # RPC front door: payload marshalling streams, small hot code set.
    ("gateway", 0.55, 0.34, ((8, 0.50), (32, 0.16), (128, 0.05)), 0.11, 24_000, 3.2),
    # Token/auth lookups: tiny hot working set, cache friendly.
    ("auth", 0.45, 0.24, ((8, 0.62), (24, 0.24), (96, 0.08)), 0.01, 700, 2.2),
    # In-memory key-value cache: working set sized to the shared L3.
    ("kvcache", 0.50, 0.33, ((8, 0.48), (28, 0.20), (220, 0.07), (500, 0.035)), 0.008, 1_400, 1.5),
    # Database shard: deep capacity reuse plus write bursts.
    ("dbshard", 0.80, 0.31, ((8, 0.40), (32, 0.17), (512, 0.06), (4096, 0.07)), 0.05, 12_000, 2.4),
    # Inverted-index search: mixed near reuse and deep scans.
    ("search", 0.60, 0.30, ((8, 0.50), (28, 0.20), (192, 0.08), (1024, 0.04)), 0.03, 6_000, 2.0),
    # Timeline/feed assembly: bursty streaming over fan-in data.
    ("feed", 0.65, 0.32, ((8, 0.46), (24, 0.18), (160, 0.06)), 0.09, 20_000, 2.8),
    # Media thumbnailing: pure streaming over large payloads.
    ("media", 0.70, 0.36, ((8, 0.44), (24, 0.16), (96, 0.05)), 0.15, 40_000, 3.8),
    # Message queue broker: ring-buffer reuse with append bursts.
    ("queue", 0.55, 0.30, ((8, 0.52), (40, 0.20), (300, 0.06)), 0.06, 3_000, 2.6),
)

#: Strongly-phased request cycle: burst -> steady -> drain -> burst.
#: Bursts triple the cold-miss traffic and raise the access rate, the
#: drain phase is compute-heavy with shallow reuse — the on/off load
#: pattern request-serving systems exhibit.
_SERVICE_PHASES = (
    PhaseSpec(fraction=0.2, mem_fraction_multiplier=1.6, new_line_multiplier=3.0, cpi_multiplier=0.9),
    PhaseSpec(fraction=0.35, mem_fraction_multiplier=1.0),
    PhaseSpec(fraction=0.25, mem_fraction_multiplier=0.6, reuse_depth_multiplier=0.6, cpi_multiplier=1.25),
    PhaseSpec(fraction=0.2, mem_fraction_multiplier=1.6, new_line_multiplier=3.0, cpi_multiplier=0.9),
)


def service_benchmark(index: int, seed: int = 0) -> BenchmarkSpec:
    """Benchmark ``index`` of the ``service:seed=...`` family.

    Role templates cycle (``svc-gateway``, ``svc-auth``, ...); a
    deterministic per-benchmark jitter drawn from ``(seed, index)``
    keeps two same-role services from being clones.
    """
    role, base_cpi, mem_fraction, buckets, new_weight, working_set, mlp = _SERVICE_ROLES[
        index % len(_SERVICE_ROLES)
    ]
    generation = index // len(_SERVICE_ROLES)
    name = f"svc-{role}" if generation == 0 else f"svc-{role}-{generation + 1}"
    rng = np.random.default_rng((_SERVICE_TAG, seed, index))
    jitter = float(rng.uniform(0.85, 1.15))
    reuse = ReuseProfile(
        buckets=tuple(
            (max(2, int(round(depth * jitter))), weight) for depth, weight in buckets
        ),
        new_weight=new_weight * float(rng.uniform(0.7, 1.3)),
    )
    return BenchmarkSpec(
        name=name,
        base_cpi=base_cpi * float(rng.uniform(0.9, 1.1)),
        mem_ref_fraction=min(0.5, mem_fraction * float(rng.uniform(0.9, 1.1))),
        reuse=reuse,
        working_set_lines=max(64, int(round(working_set * jitter))),
        mlp=mlp * float(rng.uniform(0.9, 1.1)),
        phases=_SERVICE_PHASES,
        seed=20_000 + index,
    )


def service_suite(num_benchmarks: int = 8, seed: int = 0) -> BenchmarkSuite:
    """``num_benchmarks`` bursty, strongly-phased service benchmarks."""
    return BenchmarkSuite(
        specs=tuple(service_benchmark(i, seed=seed) for i in range(num_benchmarks))
    )


__all__: List[str] = [
    "random_benchmark",
    "random_suite",
    "service_benchmark",
    "service_suite",
]
