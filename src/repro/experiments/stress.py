"""Figure 9, Figure 6 and the Section 6 analysis: stress workloads.

MPPM's headline application is finding the workload mixes that stress
the multi-core design — the mixes with the lowest STP.  This module
implements:

* :func:`stress_experiment` (Figure 9): evaluate a large set of mixes
  with both MPPM and the detailed reference simulator, sort them by
  measured STP and report both curves plus how many of the worst-K
  measured mixes MPPM also places in its own worst K (the paper finds
  23 of the worst 25);
* :func:`worst_mix_case_study` (Figure 6): for the worst-STP mix,
  report each program's isolated CPI, measured multi-core CPI and
  MPPM-predicted multi-core CPI (the paper's example is
  2x gamess + hmmer + soplex, with gamess slowed down more than 2x);
* :func:`benchmark_sensitivity` (Section 6 text): the largest slowdown
  each benchmark experiences across the evaluated mixes (the paper
  reports gamess at 2.2x, gobmk at 1.3x, soplex/omnetpp/h264/xalan at
  about 1.2x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.experiments.reporting import format_series, format_table
from repro.experiments.results import MixEvaluation
from repro.experiments.setup import ExperimentSetup
from repro.workloads import WorkloadMix


@dataclass(frozen=True)
class StressResult:
    """Figure 9: sorted STP curves and worst-case overlap.

    ``evaluations`` (and every derived curve/overlap) describes the
    primary predictor — ``predictor`` names its registry spec; when
    several predictors were requested, ``by_predictor`` carries each
    spec's evaluations of the same mixes.
    """

    num_cores: int
    llc_config: int
    evaluations: List[MixEvaluation]
    worst_k: int
    predictor: str = "mppm:foa"
    by_predictor: Optional[Mapping[str, List[MixEvaluation]]] = None

    # ------------------------------------------------------------------
    # Sorted curves
    # ------------------------------------------------------------------

    def sorted_by_measured_stp(self) -> List[MixEvaluation]:
        return sorted(self.evaluations, key=lambda evaluation: evaluation.measured_stp)

    def measured_stp_curve(self) -> List[float]:
        """Measured STP, mixes sorted by increasing measured STP (Figure 9's x-axis)."""
        return [evaluation.measured_stp for evaluation in self.sorted_by_measured_stp()]

    def predicted_stp_curve(self) -> List[float]:
        """MPPM STP of the same mixes, in the same (measured-sorted) order."""
        return [evaluation.predicted_stp for evaluation in self.sorted_by_measured_stp()]

    # ------------------------------------------------------------------
    # Worst-case identification
    # ------------------------------------------------------------------

    def worst_mixes_measured(self, k: Optional[int] = None) -> List[WorkloadMix]:
        k = k if k is not None else self.worst_k
        return [evaluation.mix for evaluation in self.sorted_by_measured_stp()[:k]]

    def worst_mixes_predicted(self, k: Optional[int] = None) -> List[WorkloadMix]:
        k = k if k is not None else self.worst_k
        ordered = sorted(self.evaluations, key=lambda evaluation: evaluation.predicted_stp)
        return [evaluation.mix for evaluation in ordered[:k]]

    def worst_case_overlap(self, k: Optional[int] = None) -> int:
        """How many of the measured worst-K mixes MPPM also ranks in its worst K."""
        k = k if k is not None else self.worst_k
        measured: Set[Tuple[str, ...]] = {mix.programs for mix in self.worst_mixes_measured(k)}
        predicted: Set[Tuple[str, ...]] = {mix.programs for mix in self.worst_mixes_predicted(k)}
        return len(measured & predicted)

    def worst_mix(self) -> MixEvaluation:
        """The single worst mix by measured STP."""
        return self.sorted_by_measured_stp()[0]

    def to_rows(self) -> List[Mapping[str, object]]:
        rows = []
        for index, evaluation in enumerate(self.sorted_by_measured_stp()):
            rows.append(
                {
                    "rank": index + 1,
                    "mix": evaluation.mix.label(),
                    "measured_STP": evaluation.measured_stp,
                    "MPPM_STP": evaluation.predicted_stp,
                }
            )
        return rows

    def render(self) -> str:
        lines = [
            f"Figure 9 — {len(self.evaluations)} {self.num_cores}-program workloads "
            f"(config #{self.llc_config}) sorted by measured STP:",
            format_series("measured STP (sorted)", self.measured_stp_curve()),
            format_series("MPPM STP (same order)", self.predicted_stp_curve()),
            (
                f"MPPM identifies {self.worst_case_overlap()} of the {self.worst_k} worst-case "
                f"workloads (paper: 23 of 25)."
            ),
        ]
        return "\n".join(lines)


def stress_experiment(
    setup: ExperimentSetup,
    num_cores: int = 4,
    llc_config: int = 1,
    num_mixes: int = 60,
    worst_k: int = 10,
    predictors: Sequence[str] = ("mppm:foa",),
    seed: int = 61,
) -> StressResult:
    """Run the Figure 9 experiment (paper: 150 mixes, worst 25).

    ``predictors`` lists the registry specs scanned for worst-case
    mixes; the headline curves and overlap use the first spec, and the
    reference simulation of each mix is shared by every predictor.
    """
    if not predictors:
        raise ValueError("at least one predictor spec is required")
    machine = setup.machine(num_cores=num_cores, llc_config=llc_config)
    mixes = setup.mixes(num_cores, num_mixes, seed=seed)
    pairs = [(mix, machine) for mix in mixes]
    evaluated = setup.evaluate_predictors(pairs, predictors)
    primary = next(iter(evaluated))
    return StressResult(
        num_cores=num_cores,
        llc_config=llc_config,
        evaluations=evaluated[primary],
        worst_k=worst_k,
        predictor=primary,
        by_predictor=evaluated,
    )


# ---------------------------------------------------------------------------
# Figure 6: the worst-mix case study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseStudyProgram:
    """One bar group of Figure 6."""

    name: str
    isolated_cpi: float
    measured_multi_core_cpi: float
    predicted_multi_core_cpi: float

    @property
    def measured_slowdown(self) -> float:
        return self.measured_multi_core_cpi / self.isolated_cpi

    @property
    def predicted_slowdown(self) -> float:
        return self.predicted_multi_core_cpi / self.isolated_cpi


@dataclass(frozen=True)
class CaseStudyResult:
    """Figure 6: per-program CPIs of one (worst-case) workload mix."""

    mix: WorkloadMix
    programs: List[CaseStudyProgram]

    def program(self, name: str) -> CaseStudyProgram:
        for program in self.programs:
            if program.name == name:
                return program
        raise KeyError(f"no program named {name!r} in the case study")

    def to_rows(self) -> List[Mapping[str, object]]:
        return [
            {
                "program": program.name,
                "isolated_CPI": program.isolated_cpi,
                "measured_multicore_CPI": program.measured_multi_core_cpi,
                "predicted_multicore_CPI": program.predicted_multi_core_cpi,
                "measured_slowdown": program.measured_slowdown,
                "predicted_slowdown": program.predicted_slowdown,
            }
            for program in self.programs
        ]

    def render(self) -> str:
        return format_table(
            self.to_rows(),
            title=(
                f"Figure 6 — per-program CPI for the worst-STP mix ({self.mix.label()}); "
                "the paper's example is 2x gamess + hmmer + soplex with gamess slowed >2x:"
            ),
        )


def worst_mix_case_study(
    setup: ExperimentSetup,
    mix: Optional[WorkloadMix] = None,
    num_cores: int = 4,
    llc_config: int = 1,
) -> CaseStudyResult:
    """Build the Figure 6 report.

    When ``mix`` is omitted, the paper's own worst-case example
    (two copies of gamess with hmmer and soplex) is used.
    """
    if mix is None:
        mix = WorkloadMix(programs=("gamess", "gamess", "hmmer", "soplex"))
    machine = setup.machine(num_cores=max(num_cores, mix.num_programs), llc_config=llc_config)
    prediction = setup.predict(mix, machine)
    measurement = setup.simulate(mix, machine)

    programs = []
    for predicted, measured in zip(prediction.programs, measurement.programs):
        programs.append(
            CaseStudyProgram(
                name=predicted.name,
                isolated_cpi=predicted.single_core_cpi,
                measured_multi_core_cpi=measured.cpi,
                predicted_multi_core_cpi=predicted.predicted_cpi,
            )
        )
    return CaseStudyResult(mix=mix, programs=programs)


# ---------------------------------------------------------------------------
# Section 6: which benchmarks are sensitive to cache sharing?
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkSensitivity:
    """Maximum (and mean) slowdown of each benchmark across evaluated mixes."""

    rows: List[Mapping[str, object]]

    def to_rows(self) -> List[Mapping[str, object]]:
        return list(self.rows)

    def most_sensitive(self) -> str:
        return str(self.rows[0]["benchmark"]) if self.rows else ""

    def max_slowdown(self, benchmark: str) -> float:
        for row in self.rows:
            if row["benchmark"] == benchmark:
                return float(row["max_slowdown"])
        raise KeyError(f"no sensitivity entry for {benchmark!r}")

    def render(self) -> str:
        return format_table(
            self.rows,
            columns=["benchmark", "max_slowdown", "mean_slowdown", "appearances"],
            title=(
                "Section 6 — per-benchmark sensitivity to cache sharing across the evaluated "
                "mixes (paper: gamess ~2.2x, gobmk ~1.3x, soplex/omnetpp/h264/xalan ~1.2x):"
            ),
        )


def benchmark_sensitivity(
    evaluations: Sequence[MixEvaluation], use_measured: bool = True
) -> BenchmarkSensitivity:
    """Aggregate per-benchmark slowdowns over a set of evaluated mixes."""
    slowdowns: Dict[str, List[float]] = {}
    for evaluation in evaluations:
        source = evaluation.measured if use_measured else evaluation.predicted
        for program in source.programs:
            slowdowns.setdefault(program.name, []).append(program.slowdown)
    rows = [
        {
            "benchmark": name,
            "max_slowdown": float(np.max(values)),
            "mean_slowdown": float(np.mean(values)),
            "appearances": len(values),
        }
        for name, values in slowdowns.items()
    ]
    rows.sort(key=lambda row: row["max_slowdown"], reverse=True)
    return BenchmarkSensitivity(rows=rows)
