"""Unified Predictor API: one registry for every performance estimator.

The paper compares *estimators* of multi-program performance — the
iterative MPPM, two degenerate baselines and detailed simulation.  This
package gives all of them one first-class abstraction (the
:class:`Predictor` protocol) and one spec-string registry, mirroring
:func:`repro.contention.make_contention_model`:

======================== ==================================================
Spec                     Estimator
======================== ==================================================
``mppm:foa``             iterative MPPM, FOA contention model (the default)
``mppm:sdc``             iterative MPPM, stack-distance-competition model
``mppm:prob``            iterative MPPM, inductive-probability model
``mppm:windowed``        MPPM (FOA) with windowed per-interval CPI progress
``mppm:figure2``         MPPM (FOA) with the literal Figure 2 update rule
``baseline:no-contention`` cache sharing assumed free (single-core CPIs)
``baseline:one-shot``    one contention pass, no iterative entanglement
``hybrid:k=K``           MPPM bulk + detailed spot-checks for the worst K
``detailed``             the detailed shared-LLC reference simulation
======================== ==================================================

``make_predictor(spec, setup)`` constructs a predictor bound to an
:class:`~repro.experiments.setup.ExperimentSetup` (its profile store
and, for ``detailed``, its memoised reference simulations).  Every
experiment and CLI command accepts these specs, and
:mod:`repro.engine.tasks` caches and parallelises them keyed by
``(spec, mix, machine)`` — so any new estimator (a hybrid scheme, a
new contention model) becomes available to the whole stack through a
single registry entry here.

Spec strings follow the shared ``family[:head][,key=value]*`` grammar of
:mod:`repro.specs`: each family is one :class:`~repro.specs.Family` row
of ``_SPECS``, which parses, canonicalises and lists it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Mapping, Optional, Tuple

from repro.contention import available_contention_models
from repro.core.mppm import MPPMConfig
from repro.predictors.base import Predictor, PredictorError, tag_prediction
from repro.predictors.baseline import VARIANTS as _BASELINE_VARIANTS, BaselinePredictor
from repro.predictors.detailed import DetailedSimulationPredictor, prediction_from_run
from repro.predictors.hybrid import HybridPredictor
from repro.predictors.mppm import MPPMPredictor
from repro.specs import Choice, Family, Grammar, Integer, Param, ParsedSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.setup import ExperimentSetup

__all__ = [
    "Predictor",
    "PredictorError",
    "MPPMPredictor",
    "BaselinePredictor",
    "DetailedSimulationPredictor",
    "HybridPredictor",
    "DEFAULT_PREDICTOR",
    "DEFAULT_HYBRID_K",
    "available_predictors",
    "canonical_spec",
    "describe_predictors",
    "lookup_spec",
    "make_predictor",
    "parse_spec",
    "prediction_from_run",
    "predictor_requires_traces",
    "tag_prediction",
]

#: The spec every experiment and CLI command defaults to (the paper's model).
DEFAULT_PREDICTOR = "mppm:foa"

#: Spot-check budget of the bare ``hybrid`` shorthand.
DEFAULT_HYBRID_K = 4

#: MPPM model variants exposed as their own specs (ablation entries):
#: variant name -> (MPPMConfig, one-line description).  Both run over
#: the default FOA contention model.
_MPPM_VARIANTS: Mapping[str, Tuple[MPPMConfig, str]] = {
    "windowed": (
        MPPMConfig(use_windowed_cpi=True),
        "iterative MPPM (FOA) using windowed per-interval CPI for progress",
    ),
    "figure2": (
        MPPMConfig(literal_figure2_update=True),
        "iterative MPPM (FOA) with the paper's literal Figure 2 slowdown update",
    ),
}


def _enumerated(
    family: str, variants: Mapping[str, Tuple[object, str]], default_head: Optional[str] = None
) -> Family:
    """A family whose head names one of ``variants`` (name -> (value, description))."""
    rows = tuple((f"{family}:{name}", description) for name, (_, description) in variants.items())
    return Family(family, rows, head=Choice(tuple(variants)), default_head=default_head)


#: The predictor families: parsing, canonical forms and the listing, one
#: row each; listing rows are ``(spec, description)``.
_SPECS = Grammar(
    "predictor",
    PredictorError,
    [
        _enumerated(
            "mppm",
            {
                **{
                    name: (None, f"iterative MPPM with the {name.upper()} cache-contention model")
                    for name in available_contention_models()
                },
                **_MPPM_VARIANTS,
            },
            default_head="foa",
        ),
        _enumerated("baseline", _BASELINE_VARIANTS),
        Family(
            "hybrid",
            ((
                "hybrid",
                "MPPM for the bulk, detailed spot-checks for each pool's predicted worst-K mixes",
            ),),
            params={"k": Param(Integer(1), DEFAULT_HYBRID_K)},
        ),
        Family(
            "detailed",
            (("detailed", "detailed shared-LLC multi-core simulation (the reference)"),),
        ),
    ],
)


def parse_spec(spec: str) -> ParsedSpec:
    """Parse a predictor spec into its family, head and typed parameters.

    Raises :class:`PredictorError` (a :class:`~repro.specs.SpecError`)
    for anything the registry does not know.
    """
    return _SPECS.parse(spec)


def available_predictors() -> List[str]:
    """All registered predictor specs, in canonical listing order."""
    return [spec for spec, _ in _SPECS.rows]


def canonical_spec(spec: str) -> str:
    """Normalise and validate a predictor spec string.

    ``"mppm"`` is shorthand for the default ``"mppm:foa"``.  Raises
    :class:`PredictorError` (a ``ValueError``) listing the available
    specs for anything the registry does not know.
    """
    return _SPECS.parse(spec).canonical


def make_predictor(spec: str, setup: "ExperimentSetup") -> Predictor:
    """Construct a predictor by spec, bound to an experiment setup."""
    parsed = _SPECS.parse(spec)
    family, variant, canonical = parsed.family, parsed.head, parsed.canonical
    if family == "mppm" and variant in _MPPM_VARIANTS:
        variant_config, _ = _MPPM_VARIANTS[variant]
        return MPPMPredictor(
            setup, contention="foa", mppm_config=variant_config, spec=canonical
        )
    if family == "mppm":
        return MPPMPredictor(setup, contention=variant)
    if family == "baseline":
        return BaselinePredictor(setup, variant=variant)
    if family == "hybrid":
        return HybridPredictor(setup, worst_k=parsed.params["k"], spec=canonical)
    return DetailedSimulationPredictor(setup)


def lookup_spec(spec: str) -> str:
    """Best-effort canonicalisation for result lookups.

    Result accessors key by canonical spec; this lets them accept the
    same shorthand the experiments accept (``"mppm"``, mixed case)
    while passing unknown strings through unchanged so the accessor
    raises its own KeyError rather than a registry error.
    """
    try:
        return canonical_spec(spec)
    except PredictorError:
        return spec


def predictor_requires_traces(spec: str) -> bool:
    """Whether the predictor replays LLC access traces (vs. profiles only).

    The engine labels a per-op job of such a predictor
    ``kind="simulate"``.  ``hybrid:*`` needs traces too: its spot-check
    stage runs the detailed simulator.
    """
    return _SPECS.parse(spec).family in ("detailed", "hybrid")


def describe_predictors() -> List[Tuple[str, str]]:
    """(spec, description) rows for every registered predictor."""
    return list(_SPECS.rows)
