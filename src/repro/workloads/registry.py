"""Unified Workload API: one spec-string registry for benchmark suites.

PR 4 gave every performance estimator one registry
(:mod:`repro.predictors`); this module gives the *workload* side of an
experiment the same treatment.  A workload — the benchmark suite plus
the way multi-program mixes are drawn from it — is identified by a
spec string and constructed by :func:`make_workload`:

========================== ================================================
Spec                       Workload
========================== ================================================
``suite:spec29``           the full 29-benchmark SPEC CPU2006-like suite
                           (the default; today's behaviour)
``suite:spec29/scaled@N``  a curated ``N``-benchmark subset spanning the
                           suite's behaviours (``small_suite(N)``, the
                           CLI's historical ``--benchmarks N``)
``random:n=8,seed=0``      ``n`` parametric synthetic benchmarks drawn
                           from the :class:`ReuseProfile` space
``service:n=8,seed=0``     ``n`` bursty, strongly-phased
                           microservice-like benchmarks
========================== ================================================

Every constructed workload implements the :class:`WorkloadSource`
protocol — ``spec`` (the canonical string), ``suite()``, ``mixes(...)``
and ``describe()`` — and every experiment, the engine's content-hash
cache keys and the CLI (``--suite``, ``repro workloads``) identify
workloads by these spec strings instead of implicitly assuming the one
suite.  (Profiles are keyed by the full benchmark spec instead.)  A suite
object passed directly (tests, notebooks) is wrapped by
:func:`workload_for` under a content-digest ``inline:`` spec, so even
ad-hoc workloads cache consistently across processes.

Spec strings follow the shared ``family[:head][,key=value]*`` grammar of
:mod:`repro.specs`: each family is one :class:`~repro.specs.Family` row
of ``_SPECS``, which parses, canonicalises and lists it.
"""

from __future__ import annotations

import hashlib
from typing import (
    Callable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.specs import (
    Family,
    Grammar,
    Integer,
    Param,
    ParsedSpec,
    SpecError,
    SuiteSelection,
    Text,
)
from repro.workloads.benchmark import WorkloadError
from repro.workloads.classification import BenchmarkClass, classify_suite
from repro.workloads.families import random_suite, service_suite
from repro.workloads.mixes import WorkloadMix, sample_category_mixes, sample_mixes
from repro.workloads.suite import BenchmarkSuite, small_suite, spec_cpu2006_like_suite

#: The spec every experiment and CLI command defaults to.
DEFAULT_WORKLOAD = "suite:spec29"

#: Upper bound on parametric family sizes (keeps typos from asking for
#: a million benchmarks; far above any realistic study).
_MAX_FAMILY_SIZE = 128


class WorkloadSpecError(WorkloadError, SpecError):
    """Raised for unknown or malformed workload specs."""


#: Parametric families: suite builder and what their benchmarks are.
_PARAMETRIC_FAMILIES = {
    "random": (random_suite, "parametric synthetic benchmarks drawn from the ReuseProfile space"),
    "service": (service_suite, "bursty, strongly-phased microservice-like benchmarks"),
}

#: Parameters of the parametric families.
_FAMILY_PARAMS = {
    "n": Param(Integer(1, _MAX_FAMILY_SIZE), 8),
    "seed": Param(Integer(0), 0),
}


#: A mix category: a :class:`BenchmarkClass`, its (case-insensitive)
#: name ("mem" / "comp" / "mix"), or a sequence of either.
MixCategory = Union[str, BenchmarkClass, Sequence[Union[str, BenchmarkClass]]]


def resolve_categories(category: MixCategory) -> List[BenchmarkClass]:
    """Normalise a :data:`MixCategory` into a list of benchmark classes.

    Raises :class:`WorkloadError` naming the valid categories for
    anything unrecognised.
    """
    if isinstance(category, (str, BenchmarkClass)):
        category = [category]
    resolved = []
    for entry in category:
        if isinstance(entry, BenchmarkClass):
            resolved.append(entry)
            continue
        try:
            resolved.append(BenchmarkClass(str(entry).strip().upper()))
        except ValueError:
            raise WorkloadError(
                f"unknown mix category {entry!r}; valid categories: "
                + ", ".join(cls.value for cls in BenchmarkClass)
            ) from None
    if not resolved:
        raise WorkloadError("at least one mix category is required")
    return resolved


@runtime_checkable
class WorkloadSource(Protocol):
    """Anything that supplies a benchmark suite and samples mixes from it."""

    #: Canonical spec string (registry name), e.g. ``"suite:spec29"``.
    spec: str

    def suite(self) -> BenchmarkSuite:
        """The benchmark suite this workload evaluates."""
        ...  # pragma: no cover - protocol

    def mixes(
        self,
        num_programs: int,
        num_mixes: int,
        seed: int = 0,
        unique: bool = True,
        category: Optional[MixCategory] = None,
    ) -> List[WorkloadMix]:
        """Sample multi-program mixes over the suite's benchmarks."""
        ...  # pragma: no cover - protocol

    def describe(self) -> str:
        """One-line human-readable description of the workload."""
        ...  # pragma: no cover - protocol


class RegisteredWorkload:
    """Concrete :class:`WorkloadSource`: canonical spec + lazy suite builder."""

    def __init__(self, spec: str, description: str, builder: Callable[[], BenchmarkSuite]) -> None:
        self.spec = spec
        self._description = description
        self._builder = builder
        self._suite: Optional[BenchmarkSuite] = None

    def suite(self) -> BenchmarkSuite:
        if self._suite is None:
            self._suite = self._builder()
        return self._suite

    def mixes(
        self,
        num_programs: int,
        num_mixes: int,
        seed: int = 0,
        unique: bool = True,
        category: Optional[MixCategory] = None,
    ) -> List[WorkloadMix]:
        """Sample mixes, optionally constrained to MEM/COMP/MIX categories.

        Without ``category`` this is uniform sampling over the suite
        (``num_mixes`` mixes, distinct when ``unique``).  With a
        category — a :class:`BenchmarkClass`, its name, or a sequence
        of either — mixes are drawn within each requested category
        ("current practice" sampling, §5 of the paper): ``num_mixes``
        mixes *per category*, drawn with replacement (``unique`` does
        not apply), in category order.
        """
        if category is None:
            return sample_mixes(
                self.suite().names, num_programs, num_mixes, seed=seed, unique=unique
            )
        return sample_category_mixes(
            classify_suite(self.suite()),
            num_programs,
            mixes_per_category=num_mixes,
            seed=seed,
            categories=resolve_categories(category),
        )

    def describe(self) -> str:
        return self._description

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegisteredWorkload({self.spec!r})"


# ---------------------------------------------------------------------------
# Spec grammar
# ---------------------------------------------------------------------------


#: Canonical category order for set-algebra specs (suite order: the
#: MEM benchmarks come first in listings, then COMP, then MIX).
_CATEGORY_ORDER = (BenchmarkClass.MEM, BenchmarkClass.COMP, BenchmarkClass.MIX)

#: The workload families, one row each; listing rows are
#: ``(constructible exemplar spec, grammar pattern, description)``.
_SPECS = Grammar(
    "workload",
    WorkloadSpecError,
    [
        Family(
            "suite",
            (
                (
                    "suite:spec29",
                    "suite:spec29",
                    "the full 29-benchmark SPEC CPU2006-like suite (default)",
                ),
                (
                    "suite:spec29/scaled@8",
                    "suite:spec29/scaled@N",
                    "a curated N-benchmark spread of the suite's behaviours (N < 29)",
                ),
                (
                    "suite:spec29/mem",
                    "suite:spec29/{mem|comp|mix}",
                    "the suite restricted to one MEM/COMP/MIX behaviour class",
                ),
                (
                    "suite:spec29/mem+comp",
                    "suite:spec29/<cats>±<cats>",
                    "category-set algebra over mem/comp/mix/all: + unions, - excludes (all-mix = mem+comp)",
                ),
            ),
            head=SuiteSelection(
                "spec29", 29, tuple(category.value.lower() for category in _CATEGORY_ORDER)
            ),
            default_head="spec29",
        ),
        Family(
            "perf",
            ((
                "perf:tests/data/perf_ingest_samples.csv",
                "perf:<path>[,benchmarks=N][,seed=S]",
                "benchmarks fitted from a PMU sample stream or ingest bundle at <path>",
            ),),
            head=Text("a path"),
            params={
                "benchmarks": Param(Integer(1), elide=True),
                "seed": Param(Integer(0), elide=True),
                "digest": Param(Text(fold=True), elide=True),
            },
        ),
        *(
            Family(name, ((name, f"{name}:n=N,seed=S", f"N {what}"),), params=_FAMILY_PARAMS)
            for name, (_, what) in _PARAMETRIC_FAMILIES.items()
        ),
    ],
)


def _category_subset(categories: Sequence[BenchmarkClass]) -> BenchmarkSuite:
    """The full suite restricted to a set of MEM/COMP/MIX behaviour classes."""
    full = spec_cpu2006_like_suite()
    classes = classify_suite(full)
    wanted = set(categories)
    return full.subset([name for name in full.names if classes[name] in wanted])


def _perf_workload(spec: str, parsed: ParsedSpec) -> Tuple[str, Callable[[], BenchmarkSuite], str]:
    """Resolve a parsed ``perf:<path>[,benchmarks=N][,seed=S][,digest=D]``.

    Validation and digesting of the file(s) behind the path happen here
    — cheap parse + hash, never a fit — so a malformed sample file fails
    at the ``--suite`` flag / service 400 layer, and the canonical spec
    pins the source *content*, not just its name.
    """
    # Lazy import: repro.workloads.__init__ imports this registry, and
    # repro.ingest imports repro.workloads — importing at module scope
    # would be a cycle.
    from repro.ingest import IngestError
    from repro.ingest.workload import build_perf_suite, inspect_perf_path

    path = parsed.head
    benchmarks, seed, digest = (parsed.params[key] for key in ("benchmarks", "seed", "digest"))
    try:
        source = inspect_perf_path(path)
    except IngestError as error:
        raise WorkloadSpecError(f"{spec!r}: {error}") from None
    if digest is not None and digest != source.digest:
        raise WorkloadSpecError(
            f"{spec!r}: samples changed on disk — the spec pins content digest "
            f"{digest} but {path!r} now digests to {source.digest}"
        )
    if benchmarks is not None and benchmarks > source.num_cores:
        raise WorkloadSpecError(
            f"{spec!r}: benchmarks={benchmarks} out of range; "
            f"{path!r} has {source.num_cores} profiled core(s)"
        )
    canonical = _SPECS.families["perf"].canonical(
        path, {**parsed.params, "digest": source.digest}
    )
    kind = "fitted bundle" if source.is_bundle else "PMU sample stream"
    count = benchmarks if benchmarks is not None else source.num_cores
    return (
        canonical,
        lambda: build_perf_suite(path, benchmarks, seed),
        f"{count} benchmark(s) fitted from the {kind} at {path} (digest {source.digest})",
    )


def _resolve(spec: str) -> Tuple[str, Callable[[], BenchmarkSuite], str]:
    """(canonical spec, suite builder, description) or raise."""
    parsed = _SPECS.parse(spec)
    if parsed.family == "perf":
        return _perf_workload(spec, parsed)
    if parsed.family == "suite":
        selection = parsed.head
        if selection is None:
            return (
                DEFAULT_WORKLOAD,
                spec_cpu2006_like_suite,
                "the full 29-benchmark SPEC CPU2006-like suite",
            )
        if isinstance(selection, int):
            return (
                parsed.canonical,
                lambda: small_suite(selection),
                f"a curated {selection}-benchmark spread of the SPEC CPU2006-like suite's behaviours",
            )
        categories = [BenchmarkClass(name.upper()) for name in selection]
        label = "/".join(category.value for category in categories)
        return (
            parsed.canonical,
            lambda: _category_subset(categories),
            f"the {label}-class benchmarks of the SPEC CPU2006-like suite",
        )
    build, what = _PARAMETRIC_FAMILIES[parsed.family]
    n, seed = parsed.params["n"], parsed.params["seed"]
    return parsed.canonical, lambda: build(n, seed=seed), f"{n} {what} (seed {seed})"


# ---------------------------------------------------------------------------
# Public API (mirrors repro.predictors)
# ---------------------------------------------------------------------------


def canonical_workload_spec(spec: str) -> str:
    """Normalise and validate a workload spec string.

    ``"suite"`` is shorthand for ``"suite:spec29"``; parametric
    families fill in defaulted parameters (``"random"`` →
    ``"random:n=8,seed=0"``).  Raises :class:`WorkloadSpecError` (a
    ``ValueError``) listing the available specs for anything the
    registry does not know.
    """
    canonical, _, _ = _resolve(spec)
    return canonical


def make_workload(spec: str = DEFAULT_WORKLOAD) -> WorkloadSource:
    """Construct a workload source by spec string."""
    canonical, builder, description = _resolve(spec)
    return RegisteredWorkload(canonical, description, builder)


def available_workloads() -> List[str]:
    """Constructible exemplar specs, one per registered family."""
    return [exemplar for exemplar, _, _ in _SPECS.rows]


def describe_workloads() -> List[Tuple[str, str]]:
    """(spec pattern, description) rows for every registered family."""
    return [(pattern, description) for _, pattern, description in _SPECS.rows]


def _suite_digest(suite: BenchmarkSuite) -> str:
    """A short content digest of a suite (stable across processes)."""
    description = "\x1f".join(repr(spec) for spec in suite.specs)
    return hashlib.sha256(description.encode("utf-8")).hexdigest()[:12]


def workload_for(
    workload: Union[str, WorkloadSource, BenchmarkSuite, None],
    suite: Optional[BenchmarkSuite] = None,
) -> WorkloadSource:
    """Resolve anything workload-shaped into a :class:`WorkloadSource`.

    * ``None`` → the default workload (``suite:spec29``), or — when a
      bare ``suite`` object is supplied — that suite under a canonical
      spec if it matches a registered workload, else under a
      content-digest ``inline:<hash>`` spec (deterministic across
      processes, so engine cache keys and profile files still agree).
    * a spec string → :func:`make_workload`.
    * a :class:`WorkloadSource` → returned as-is.

    ``suite`` is the authoritative suite object when both are given
    (the engine's worker-reconstruction path ships the pickled suite
    next to the spec so workers never rebuild it from the registry).
    """
    if workload is None and suite is None:
        return make_workload(DEFAULT_WORKLOAD)
    if workload is None:
        full = spec_cpu2006_like_suite()
        if suite.specs == full.specs:
            return make_workload(DEFAULT_WORKLOAD)
        if 0 < len(suite) < 29 and suite.specs == small_suite(len(suite)).specs:
            return make_workload(f"suite:spec29/scaled@{len(suite)}")
        captured = suite
        return RegisteredWorkload(
            f"inline:{_suite_digest(suite)}",
            f"an inline suite of {len(suite)} benchmarks",
            lambda: captured,
        )
    if isinstance(workload, BenchmarkSuite):
        return workload_for(None, suite=workload)
    if isinstance(workload, str):
        source = make_workload(workload)
        if suite is not None and suite.specs != source.suite().specs:
            # A mismatched pair would store results computed from the
            # ad-hoc suite under the registered spec's cache identity,
            # poisoning any shared cache directory.
            raise WorkloadSpecError(
                f"the supplied suite does not match workload {source.spec!r}; "
                "pass the suite alone (it gets its own inline: spec) or "
                "drop it"
            )
    else:
        source = workload
    if suite is not None:
        # Trusted pair (engine recipe ships a WorkloadSource instance
        # whose builder returns this suite): keep the spec, serve the
        # shipped suite object.
        return RegisteredWorkload(source.spec, source.describe(), lambda: suite)
    return source
