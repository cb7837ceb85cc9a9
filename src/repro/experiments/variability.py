"""Figure 3: variability of STP and ANTT versus the number of workload mixes.

The paper shows that the 95% confidence interval on mean STP/ANTT over
randomly chosen 4-program mixes is wide for a handful of mixes (about
10% for STP and 18% for ANTT at 10 mixes) and only becomes tight
(2.6% / 4.5%) at around 150 mixes — which is why "pick a dozen random
mixes" is a fragile methodology.

The experiment samples ``max_mixes`` random mixes once, evaluates them
(with the detailed reference simulator by default, or with MPPM), and
reports the running mean and confidence interval as the first ``n``
mixes are considered, for ``n`` on a grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence

from repro.experiments.reporting import format_table
from repro.experiments.setup import ExperimentSetup
from repro.metrics import confidence_interval
from repro.predictors import PredictorError, available_predictors, canonical_spec


@dataclass(frozen=True)
class VariabilityPoint:
    """Confidence interval of mean STP/ANTT using the first ``num_mixes`` mixes."""

    num_mixes: int
    stp_mean: float
    stp_ci_low: float
    stp_ci_high: float
    stp_ci_pct: float
    antt_mean: float
    antt_ci_low: float
    antt_ci_high: float
    antt_ci_pct: float


@dataclass(frozen=True)
class VariabilityResult:
    """The two curves of Figure 3."""

    source: str
    num_cores: int
    llc_config: int
    points: List[VariabilityPoint]

    def to_rows(self) -> List[Mapping[str, object]]:
        return [
            {
                "mixes": point.num_mixes,
                "STP_mean": point.stp_mean,
                "STP_ci_low": point.stp_ci_low,
                "STP_ci_high": point.stp_ci_high,
                "STP_ci_%": point.stp_ci_pct,
                "ANTT_mean": point.antt_mean,
                "ANTT_ci_low": point.antt_ci_low,
                "ANTT_ci_high": point.antt_ci_high,
                "ANTT_ci_%": point.antt_ci_pct,
            }
            for point in self.points
        ]

    def render(self) -> str:
        return format_table(
            self.to_rows(),
            title=(
                f"Figure 3 — variability of STP/ANTT vs number of {self.num_cores}-program "
                f"mixes (config #{self.llc_config}, {self.source}); "
                "ci_% is the 95% CI half-width as % of the mean:"
            ),
        )

    def point_for(self, num_mixes: int) -> VariabilityPoint:
        for point in self.points:
            if point.num_mixes == num_mixes:
                return point
        raise KeyError(f"no variability point for {num_mixes} mixes")


#: Legacy ``source`` names mapped onto registry predictor specs.
_SOURCE_SPECS = {"simulation": "detailed", "mppm": "mppm:foa"}


def variability_experiment(
    setup: ExperimentSetup,
    num_cores: int = 4,
    llc_config: int = 1,
    max_mixes: int = 60,
    grid: Sequence[int] = None,
    source: str = "simulation",
    seed: int = 11,
) -> VariabilityResult:
    """Run the Figure 3 experiment.

    ``source`` selects the estimator that evaluates the mixes: the
    legacy names ``"simulation"`` (detailed reference, as in the
    paper) and ``"mppm"`` (far faster, same curve) still work, and any
    registry predictor spec (``"mppm:sdc"``,
    ``"baseline:one-shot"``, …) is accepted — the two historical code
    paths are now one.
    """
    try:
        spec = canonical_spec(_SOURCE_SPECS.get(source, source))
    except PredictorError:
        raise ValueError(
            "source must be 'simulation', 'mppm' or a predictor spec; "
            + ", ".join(available_predictors())
        ) from None
    machine = setup.machine(num_cores=num_cores, llc_config=llc_config)
    mixes = setup.mixes(num_cores, max_mixes, seed=seed)

    results = setup.predictor_batch([(spec, mix, machine) for mix in mixes])
    stp_values: List[float] = [result.system_throughput for result in results]
    antt_values: List[float] = [
        result.average_normalized_turnaround_time for result in results
    ]

    if grid is None:
        grid = [n for n in (5, 10, 20, 30, 45, 60, 90, 120, 150) if n <= max_mixes]
        if max_mixes not in grid:
            grid = list(grid) + [max_mixes]

    points = []
    for n in grid:
        stp_ci = confidence_interval(stp_values[:n])
        antt_ci = confidence_interval(antt_values[:n])
        points.append(
            VariabilityPoint(
                num_mixes=n,
                stp_mean=stp_ci.mean,
                stp_ci_low=stp_ci.lower,
                stp_ci_high=stp_ci.upper,
                stp_ci_pct=100.0 * stp_ci.halfwidth_pct_of_mean,
                antt_mean=antt_ci.mean,
                antt_ci_low=antt_ci.lower,
                antt_ci_high=antt_ci.upper,
                antt_ci_pct=100.0 * antt_ci.halfwidth_pct_of_mean,
            )
        )
    return VariabilityResult(
        source=source, num_cores=num_cores, llc_config=llc_config, points=points
    )
