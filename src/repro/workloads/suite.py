"""The 29-benchmark synthetic suite standing in for SPEC CPU2006.

Each benchmark is modelled after the qualitative behaviour of its SPEC
CPU2006 namesake as relevant to this paper: compute-bound and
cache-friendly programs (``hmmer``, ``povray``, ``namd``, ...),
LLC-sensitive programs whose working set fits the shared L3 when run
alone but not when sharing it (``gamess`` — the paper's most sensitive
benchmark — plus ``gobmk``, ``soplex``, ``omnetpp``, ``h264ref``,
``xalancbmk``), and memory-intensive streaming or capacity-bound
programs (``lbm``, ``libquantum``, ``mcf``, ``milc``, ...).  Several
benchmarks have multiple execution phases to exercise MPPM's
time-varying-behaviour modelling.

Reuse depths are expressed in cache lines and are tuned against the
default experiment scale (cache capacities divided by 16, 200K
instruction traces — see :mod:`repro.config.scaling`): at that scale
the private L1 holds 32 lines, the private L2 256 lines and the shared
L3 between 512 lines (config #1) and 2,048 lines (config #6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.workloads.benchmark import (
    BenchmarkSpec,
    PhaseSpec,
    ReuseProfile,
    WorkloadError,
    validate_suite,
)


@dataclass(frozen=True)
class BenchmarkSuite:
    """An ordered, name-indexed collection of benchmark specs."""

    specs: Tuple[BenchmarkSpec, ...]

    def __post_init__(self) -> None:
        validate_suite(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[BenchmarkSpec]:
        return iter(self.specs)

    def __contains__(self, name: str) -> bool:
        return any(spec.name == name for spec in self.specs)

    def __getitem__(self, name: str) -> BenchmarkSpec:
        for spec in self.specs:
            if spec.name == name:
                return spec
        raise KeyError(f"no benchmark named {name!r} in the suite")

    @property
    def names(self) -> List[str]:
        return [spec.name for spec in self.specs]

    def subset(self, names: Sequence[str]) -> "BenchmarkSuite":
        """A suite restricted to the given benchmark names (in that order)."""
        return BenchmarkSuite(specs=tuple(self[name] for name in names))

    def describe(self) -> str:
        return "\n".join(spec.describe() for spec in self.specs)


# ---------------------------------------------------------------------------
# Archetype helpers.  Reuse depths in lines; see module docstring for the
# cache sizes they are tuned against.
# ---------------------------------------------------------------------------


def _cache_friendly(
    name: str,
    seed: int,
    base_cpi: float = 0.55,
    mem_ref_fraction: float = 0.22,
    mlp: float = 2.0,
    phases: Tuple[PhaseSpec, ...] = (PhaseSpec(fraction=1.0),),
) -> BenchmarkSpec:
    """Compute-bound program whose working set fits the private caches."""
    return BenchmarkSpec(
        name=name,
        base_cpi=base_cpi,
        mem_ref_fraction=mem_ref_fraction,
        reuse=ReuseProfile(
            buckets=((8, 0.62), (24, 0.24), (96, 0.09), (224, 0.045)),
            new_weight=0.005,
        ),
        working_set_lines=512,
        mlp=mlp,
        phases=phases,
        seed=seed,
    )


def _llc_sensitive(
    name: str,
    seed: int,
    base_cpi: float = 0.5,
    mem_ref_fraction: float = 0.3,
    llc_weight: float = 0.035,
    deep_limit: int = 480,
    mlp: float = 1.6,
    new_weight: float = 0.004,
    working_set_lines: int = 1200,
    phases: Tuple[PhaseSpec, ...] = (PhaseSpec(fraction=1.0),),
) -> BenchmarkSpec:
    """Program with a working set that fits the shared L3 alone but not shared."""
    return BenchmarkSpec(
        name=name,
        base_cpi=base_cpi,
        mem_ref_fraction=mem_ref_fraction,
        reuse=ReuseProfile(
            buckets=(
                (8, 0.55),
                (28, 0.22),
                (200, 0.08),
                (deep_limit, llc_weight),
            ),
            new_weight=new_weight,
        ),
        working_set_lines=working_set_lines,
        mlp=mlp,
        phases=phases,
        seed=seed,
    )


def _memory_streaming(
    name: str,
    seed: int,
    base_cpi: float = 0.7,
    mem_ref_fraction: float = 0.34,
    new_weight: float = 0.10,
    mlp: float = 3.5,
    working_set_lines: int = 30_000,
    phases: Tuple[PhaseSpec, ...] = (PhaseSpec(fraction=1.0),),
) -> BenchmarkSpec:
    """Streaming program: frequent cold misses, little temporal reuse."""
    return BenchmarkSpec(
        name=name,
        base_cpi=base_cpi,
        mem_ref_fraction=mem_ref_fraction,
        reuse=ReuseProfile(
            buckets=((8, 0.5), (24, 0.2), (128, 0.06)),
            new_weight=new_weight,
        ),
        working_set_lines=working_set_lines,
        mlp=mlp,
        phases=phases,
        seed=seed,
    )


def _memory_capacity(
    name: str,
    seed: int,
    base_cpi: float = 0.8,
    mem_ref_fraction: float = 0.32,
    mlp: float = 2.2,
    working_set_lines: int = 9_000,
    phases: Tuple[PhaseSpec, ...] = (PhaseSpec(fraction=1.0),),
) -> BenchmarkSpec:
    """Capacity-bound program: reuse far beyond any cache level."""
    return BenchmarkSpec(
        name=name,
        base_cpi=base_cpi,
        mem_ref_fraction=mem_ref_fraction,
        reuse=ReuseProfile(
            buckets=((8, 0.42), (32, 0.18), (512, 0.06), (4096, 0.08)),
            new_weight=0.05,
        ),
        working_set_lines=working_set_lines,
        mlp=mlp,
        phases=phases,
        seed=seed,
    )


def _mixed(
    name: str,
    seed: int,
    base_cpi: float = 0.65,
    mem_ref_fraction: float = 0.28,
    mlp: float = 2.0,
    phases: Tuple[PhaseSpec, ...] = (PhaseSpec(fraction=1.0),),
) -> BenchmarkSpec:
    """Program with both cache-friendly and memory-bound components."""
    return BenchmarkSpec(
        name=name,
        base_cpi=base_cpi,
        mem_ref_fraction=mem_ref_fraction,
        reuse=ReuseProfile(
            buckets=((8, 0.52), (28, 0.22), (192, 0.08), (448, 0.018), (2048, 0.02)),
            new_weight=0.012,
        ),
        working_set_lines=4_000,
        mlp=mlp,
        phases=phases,
        seed=seed,
    )


_TWO_PHASE = (
    PhaseSpec(fraction=0.5, reuse_depth_multiplier=1.0),
    PhaseSpec(fraction=0.5, reuse_depth_multiplier=1.8, mem_fraction_multiplier=1.25),
)
_THREE_PHASE = (
    PhaseSpec(fraction=0.4),
    PhaseSpec(fraction=0.3, cpi_multiplier=1.3, new_line_multiplier=2.0),
    PhaseSpec(fraction=0.3, reuse_depth_multiplier=0.6, mem_fraction_multiplier=0.8),
)
_BURSTY_PHASE = (
    PhaseSpec(fraction=0.25, new_line_multiplier=3.0, mem_fraction_multiplier=1.3),
    PhaseSpec(fraction=0.5),
    PhaseSpec(fraction=0.25, new_line_multiplier=3.0, mem_fraction_multiplier=1.3),
)


def spec_cpu2006_like_suite() -> BenchmarkSuite:
    """The full 29-benchmark suite used by the experiments.

    The names follow SPEC CPU2006; the behaviours follow the roles the
    paper assigns to them (e.g. ``gamess`` is by far the most sensitive
    to cache sharing; ``hmmer`` is barely affected; ``lbm`` and
    ``libquantum`` are streaming memory hogs).
    """
    specs: List[BenchmarkSpec] = [
        # --- SPEC CPU2006 integer benchmarks -------------------------------
        _mixed("perlbench", seed=101, base_cpi=0.6, mem_ref_fraction=0.26),
        _cache_friendly("bzip2", seed=102, base_cpi=0.7, mem_ref_fraction=0.26, mlp=2.2),
        _mixed("gcc", seed=103, base_cpi=0.75, mem_ref_fraction=0.3, phases=_THREE_PHASE),
        _memory_capacity("mcf", seed=104, base_cpi=0.9, mem_ref_fraction=0.35, mlp=2.8,
                         working_set_lines=12_000),
        _llc_sensitive("gobmk", seed=105, base_cpi=0.8, llc_weight=0.02, deep_limit=440,
                       mlp=1.8, working_set_lines=900),
        _cache_friendly("hmmer", seed=106, base_cpi=0.5, mem_ref_fraction=0.2, mlp=2.5),
        _cache_friendly("sjeng", seed=107, base_cpi=0.85, mem_ref_fraction=0.24, mlp=2.0),
        _memory_streaming("libquantum", seed=108, base_cpi=0.6, new_weight=0.14, mlp=4.0,
                          working_set_lines=40_000),
        _llc_sensitive("h264ref", seed=109, base_cpi=0.55, llc_weight=0.016, deep_limit=420,
                       mlp=2.0, working_set_lines=1_000),
        _llc_sensitive("omnetpp", seed=110, base_cpi=0.75, llc_weight=0.022, deep_limit=500,
                       mlp=1.7, new_weight=0.01, working_set_lines=2_000),
        _mixed("astar", seed=111, base_cpi=0.7, mem_ref_fraction=0.3, phases=_TWO_PHASE),
        _llc_sensitive("xalancbmk", seed=112, base_cpi=0.65, llc_weight=0.02, deep_limit=460,
                       mlp=1.8, new_weight=0.012, working_set_lines=1_800),
        # --- SPEC CPU2006 floating-point benchmarks ------------------------
        _memory_streaming("bwaves", seed=201, base_cpi=0.65, new_weight=0.09, mlp=3.8,
                          phases=_TWO_PHASE, working_set_lines=25_000),
        # gamess is the paper's most sharing-sensitive benchmark (its Figure 6
        # and Section 6 single it out, slowed down ~2.2x); a custom reuse
        # profile places a chunk of its working set just inside the shared L3
        # so that it hits when alone and thrashes when sharing.
        BenchmarkSpec(
            name="gamess",
            base_cpi=0.40,
            mem_ref_fraction=0.36,
            reuse=ReuseProfile(
                buckets=((8, 0.55), (28, 0.22), (96, 0.06), (336, 0.015), (500, 0.035)),
                new_weight=0.001,
            ),
            working_set_lines=560,
            mlp=1.0,
            seed=202,
        ),
        _memory_streaming("milc", seed=203, base_cpi=0.75, new_weight=0.11, mlp=3.0,
                          working_set_lines=28_000),
        _mixed("zeusmp", seed=204, base_cpi=0.7, mem_ref_fraction=0.29),
        _cache_friendly("gromacs", seed=205, base_cpi=0.6, mem_ref_fraction=0.24, mlp=2.4),
        _memory_capacity("cactusADM", seed=206, base_cpi=0.85, mem_ref_fraction=0.3,
                         phases=_BURSTY_PHASE),
        _memory_streaming("leslie3d", seed=207, base_cpi=0.7, new_weight=0.10, mlp=3.2,
                          working_set_lines=26_000),
        _cache_friendly("namd", seed=208, base_cpi=0.55, mem_ref_fraction=0.21, mlp=2.6),
        _cache_friendly("dealII", seed=209, base_cpi=0.6, mem_ref_fraction=0.25, mlp=2.2),
        _llc_sensitive("soplex", seed=210, base_cpi=0.7, mem_ref_fraction=0.32,
                       llc_weight=0.024, deep_limit=480, mlp=1.8, new_weight=0.012,
                       working_set_lines=3_000),
        _cache_friendly("povray", seed=211, base_cpi=0.5, mem_ref_fraction=0.2, mlp=2.8),
        _cache_friendly("calculix", seed=212, base_cpi=0.6, mem_ref_fraction=0.23, mlp=2.4),
        _memory_capacity("GemsFDTD", seed=213, base_cpi=0.8, mem_ref_fraction=0.31, mlp=2.6,
                         working_set_lines=14_000),
        _cache_friendly("tonto", seed=214, base_cpi=0.65, mem_ref_fraction=0.24, mlp=2.2),
        _memory_streaming("lbm", seed=215, base_cpi=0.6, mem_ref_fraction=0.36,
                          new_weight=0.16, mlp=4.2, working_set_lines=45_000),
        _mixed("wrf", seed=216, base_cpi=0.7, mem_ref_fraction=0.27, phases=_THREE_PHASE),
        _mixed("sphinx3", seed=217, base_cpi=0.65, mem_ref_fraction=0.3, phases=_TWO_PHASE),
    ]
    return BenchmarkSuite(specs=tuple(specs))


def small_suite(num_benchmarks: int = 8) -> BenchmarkSuite:
    """A reduced suite for tests and quick examples.

    Picks a spread of behaviours (cache-friendly, LLC-sensitive,
    streaming, capacity-bound, phased) so that small experiments still
    exhibit the heterogeneity the paper relies on.
    """
    preferred_order = [
        "gamess",
        "hmmer",
        "soplex",
        "lbm",
        "mcf",
        "omnetpp",
        "povray",
        "astar",
        "libquantum",
        "gobmk",
        "namd",
        "gcc",
        "xalancbmk",
        "milc",
        "bzip2",
        "sphinx3",
    ]
    if num_benchmarks <= 0:
        raise WorkloadError("num_benchmarks must be positive")
    full = spec_cpu2006_like_suite()
    names = preferred_order[: min(num_benchmarks, len(preferred_order))]
    if num_benchmarks > len(preferred_order):
        extra = [name for name in full.names if name not in names]
        names += extra[: num_benchmarks - len(names)]
    return full.subset(names)
