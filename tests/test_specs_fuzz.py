"""Property tests of the shared spec grammar (:mod:`repro.specs`).

Spec strings arrive from the command line, service requests and
``jobs=`` arguments, so the parser is fuzzed over the grammar's own
alphabet after every family prefix: it either returns a
:class:`ParsedSpec` or raises the registry's :class:`SpecError`, its
canonical output is a fixed point, and each registry's public function
agrees with it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.predictors as predictor_registry
from repro.engine.remote import parse_fleet_spec
from repro.engine.remote import spec as fleet_registry
from repro.predictors import canonical_spec
from repro.specs import ParsedSpec, SpecError
from repro.workloads import canonical_workload_spec
from repro.workloads import registry as workload_registry

GRAMMARS = {
    "predictor": predictor_registry._SPECS,
    "workload": workload_registry._SPECS,
    "fleet": fleet_registry._SPECS,
}

#: The registries' public canonicalisers.  ``perf:`` is left out: its
#: canonical form also pins the digest of the file behind the path.
REGISTRIES = {
    "predictor": canonical_spec,
    "workload": canonical_workload_spec,
    "fleet": lambda spec: parse_fleet_spec(spec).canonical,
}

#: Valid-looking fragments, so that generated strings reach past the
#: first error often.
TOKENS = [
    "foa", "SDC", "one-shot", "k=4", "K = 2", "n=8", "seed=0", "seed=-1", "anchors=6+2",
    "anchors=1+1", "spec29", "spec29/scaled@8", "spec29/all-mix", "spec29/MEM+comp",
    "timeout=5", "timeout=nan", "python=py", "python=", "h:8000", "h:0", "a", "2",
    "benchmarks=2", "digest=AB", "", " ",
]
ALPHABET = "abcdeiklmnopstuwxAKMS0126789:=,+-/@._ "


def prefixes(grammar):
    names = list(grammar.families) + ["bogus", ""]
    return [
        grammar.prefix + name + separator
        for name in names + [name.upper() for name in names]
        for separator in ("", ":", "=", " : ")
    ]


def specs(registry):
    grammar = GRAMMARS[registry]
    fragment = st.sampled_from(TOKENS) | st.text(ALPHABET, max_size=12)
    body = st.lists(fragment, max_size=4).map(",".join)
    return st.tuples(st.sampled_from(prefixes(grammar)), body).map("".join)


def outcome(function, spec):
    """The function's result, or the class of the SpecError it raised."""
    try:
        return function(spec)
    except SpecError as error:
        return type(error)


@pytest.mark.parametrize("registry", sorted(GRAMMARS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parse_returns_a_spec_or_raises_the_registry_error(registry, data):
    grammar = GRAMMARS[registry]
    spec = data.draw(specs(registry))
    try:
        parsed = grammar.parse(spec)
    except grammar.error:
        return
    assert isinstance(parsed, ParsedSpec)
    # The canonical form is a fixed point.
    assert grammar.parse(parsed.canonical) == parsed


@pytest.mark.parametrize("registry", sorted(REGISTRIES))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_registry_agrees_with_the_parser(registry, data):
    spec = data.draw(specs(registry))
    if spec.strip().lower().startswith("perf"):
        return
    parsed = outcome(lambda text: GRAMMARS[registry].parse(text).canonical, spec)
    assert outcome(REGISTRIES[registry], spec) == parsed


@pytest.mark.parametrize(
    "registry, spec",
    [
        ("predictor", "hybrid:k=4,k=5"),
        ("predictor", "learned:seed=1,n=4,seed=2"),
        ("predictor", "interp:anchors=1+6,anchors=2+5"),
        ("workload", "random:n=4,n=8"),
        ("workload", "perf:samples.csv,seed=1,SEED=2"),
        ("fleet", "fleet:localhost:2,timeout=5,timeout=10"),
        ("fleet", "fleet:ssh=a,python=p,b,python=q"),
    ],
)
def test_every_family_names_a_repeated_key(registry, spec):
    with pytest.raises(SpecError, match="given more than once"):
        REGISTRIES[registry](spec)
