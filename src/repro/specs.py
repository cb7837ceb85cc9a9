"""One grammar for every spec string: ``family[:head][,key=value]*``.

Predictor, workload and fleet specs (``mppm:foa``, ``random:n=8,seed=0``,
``fleet:localhost:2,timeout=900``) are all parsed here.  Each registry
declares its families as :class:`Family` rows of one :class:`Grammar`,
with its own error class (a :class:`SpecError`).  The family name ends
at the first ``:`` (``=`` for the ``ssh=`` and ``attach=`` fleet
sources); the body after it is split on commas, with whitespace around
every item, key and value ignored and empty items skipped.  A family
with a head takes the first item as the head; every ``key=value`` item
after it is a parameter, given at most once.  A bare family name, with
or without its separator, is shorthand for its default.  Standard
library only.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping, Optional, Sequence, Tuple, Type


#: A spec's family name, the separator that ends it, and the body.
_FAMILY_NAME = re.compile(r"([^:=]*)([:=]?)(.*)", re.S)


class SpecError(ValueError):
    """An unknown or malformed spec string (base of every registry's error)."""


class ValueType:
    """How one head or parameter value reads and prints.

    ``parse`` raises a plain :class:`ValueError`; the grammar prefixes
    its message with the spec and the parameter name.
    """

    def parse(self, text: Any) -> Any:
        raise NotImplementedError

    def format(self, value: Any) -> str:
        return str(value)


@dataclass(frozen=True)
class Param:
    """One ``key=value`` parameter of a family.

    ``elide`` leaves the parameter out of the canonical string while it
    holds its default (fleet options, optional perf parameters); other
    parameters are always spelled out.
    """

    type: ValueType
    default: Any = None
    elide: bool = False


@dataclass(frozen=True)
class ParsedSpec:
    """A parsed spec: ``head`` and ``params`` hold typed values, defaults filled in."""

    family: str
    head: Any
    params: Mapping[str, Any]
    canonical: str


@dataclass(frozen=True)
class Family:
    """One schema row: how a spec family parses, canonicalises and lists.

    ``rows`` are the family's listing rows in the registry's own column
    layout; their first column is a constructible exemplar spec, listed
    in canonical form (``hybrid`` is listed as ``hybrid:k=4``).
    ``head`` is ``None`` for families that take only parameters;
    ``extra`` passes it the bare items after it too.  ``separator`` ends
    the family name (``ssh=host1`` names its hosts with ``=``).
    """

    name: str
    rows: Tuple[Tuple[str, ...], ...] = ()
    head: Optional[ValueType] = None
    default_head: Optional[str] = None
    params: Mapping[str, Param] = field(default_factory=dict)
    extra: bool = False
    separator: str = ":"

    def canonical(self, head: Any, params: Mapping[str, Any]) -> str:
        """The canonical spec string of a head and a full parameter set."""
        parts = [] if self.head is None else [self.head.format(head)]
        parts += [
            f"{key}={param.type.format(params[key])}"
            for key, param in self.params.items()
            if not (param.elide and params[key] == param.default)
        ]
        return self.name + (self.separator + ",".join(parts) if parts else "")


class Grammar:
    """The family table of one registry and the parser over it.

    Specs of a grammar with a ``prefix`` (``fleet:``) must start with it,
    and their canonical strings keep it.
    """

    def __init__(
        self, noun: str, error: Type[SpecError], families: Sequence[Family], prefix: str = ""
    ) -> None:
        self.noun = noun
        self.error = error
        self.prefix = prefix
        self.families = {family.name: family for family in families}
        # Parsing is a pure function of the string, and the service
        # canonicalises a predictor spec on every request.
        self.parse = functools.lru_cache(maxsize=1024)(self._parse)
        #: Listing rows of every family in table order, exemplars canonical.
        self.rows = tuple(
            (self.parse(row[0]).canonical, *row[1:]) for family in families for row in family.rows
        )

    def _unknown(self, spec: str) -> SpecError:
        return self.error(
            f"unknown {self.noun} spec {spec!r}; available {self.noun}s: "
            + ", ".join(row[0] for row in self.rows)
        )

    def _value(self, spec: str, label: str, value_type: ValueType, text: Any) -> Any:
        try:
            return value_type.parse(text)
        except ValueError as error:
            raise self.error(f"{spec!r}: {label}{error}") from None

    def _parse(self, spec: str) -> ParsedSpec:
        """Parse ``spec`` into a :class:`ParsedSpec` or raise the registry's error."""
        if not spec.startswith(self.prefix):
            raise self._unknown(spec)
        name, separator, body = _FAMILY_NAME.match(spec, len(self.prefix)).groups()
        family = self.families.get(name.strip().lower())
        if family is None or separator not in ("", family.separator):
            raise self._unknown(spec)
        has_head = family.head is not None
        items = [item.strip() for item in body.split(",")]
        if not any(items) and (not has_head or family.default_head):
            items = [family.default_head] if has_head else []
        head_text = items.pop(0) if has_head else None

        given = {}
        extra = []
        for item in filter(None, items):
            key, equals, value = item.partition("=")
            if not equals:
                extra.append(item)
                continue
            key = key.strip().lower()
            param = family.params.get(key)
            if param is None:
                raise self.error(
                    f"{spec!r}: unknown {family.name} parameter {key!r}; valid parameters: "
                    + (", ".join(family.params) or "none")
                )
            if key in given:
                raise self.error(f"{spec!r}: parameter {key!r} is given more than once")
            given[key] = self._value(spec, f"{key} ", param.type, value.strip())
        if extra and not family.extra:
            raise self.error(f"{spec!r}: unexpected item {extra[0]!r}")

        head = None
        if has_head:
            text = (head_text, *extra) if family.extra else head_text
            head = self._value(spec, "", family.head, text)
        params = {key: given.get(key, param.default) for key, param in family.params.items()}
        canonical = self.prefix + family.canonical(head, params)
        return ParsedSpec(family.name, head, MappingProxyType(params), canonical)


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Integer(ValueType):
    """An integer in ``[low, high]`` (``high=None``: unbounded above)."""

    low: int
    high: Optional[int] = None

    def parse(self, text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"must be an integer, got {text!r}") from None
        if value < self.low or (self.high is not None and value > self.high):
            bound = f">= {self.low}" if self.high is None else f"in [{self.low}, {self.high}]"
            raise ValueError(f"must be {bound}, got {value}")
        return value


class Anchors(Integer):
    """``A+B``: two distinct integers in ``[low, high]``, in ascending order."""

    def parse(self, text: str) -> Tuple[int, int]:
        pieces = text.split("+")
        if len(pieces) != 2:
            raise ValueError(f"must be two anchors A+B, got {text!r}")
        low, high = sorted(Integer.parse(self, piece.strip()) for piece in pieces)
        if low == high:
            raise ValueError(f"must name two distinct configurations, got #{low} twice")
        return low, high

    def format(self, value: Tuple[int, int]) -> str:
        return f"{value[0]}+{value[1]}"


class Seconds(ValueType):
    """A positive, finite number of seconds, printed with ``%g``."""

    def parse(self, text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"must be a number, got {text!r}") from None
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"must be positive and finite, got {text}")
        return value

    def format(self, value: float) -> str:
        return f"{value:g}"


@dataclass(frozen=True)
class Text(ValueType):
    """A non-empty string, case-preserving unless ``fold``.

    ``what`` names a head value in the error for an empty one.
    """

    what: Optional[str] = None
    fold: bool = False

    def parse(self, text: str) -> str:
        if not text:
            raise ValueError(f"{self.what} is required" if self.what else "must not be empty")
        return text.lower() if self.fold else text


@dataclass(frozen=True)
class Choice(ValueType):
    """One of a fixed set of names, case-insensitive."""

    names: Tuple[str, ...]

    def parse(self, text: str) -> str:
        if text.lower() not in self.names:
            raise ValueError(f"unknown variant {text!r}; expected one of " + ", ".join(self.names))
        return text.lower()


@dataclass(frozen=True)
class SuiteSelection(ValueType):
    """``<base>[/scaled@N | /<cats>±<cats>]``: which part of a suite to run.

    Parses to ``None`` for the whole suite, an ``int`` for a scaled
    subset of fewer than ``size`` benchmarks, or the selected category
    names in canonical order.  Category tokens are ``categories`` plus
    ``all``; ``+`` is union and ``-`` exclusion, evaluated left to right
    (``all-mix`` ≡ ``mem+comp``).  Scaling to the full size, or selecting
    every category, is the whole suite.
    """

    base: str
    size: int
    categories: Tuple[str, ...]

    def parse(self, text: str) -> Any:
        base, slash, modifier = (part.strip() for part in text.lower().partition("/"))
        if base != self.base or (slash and not modifier):
            raise ValueError(f"unknown suite {text!r}; expected {self.base}[/scaled@N|/<cats>]")
        if not slash:
            return None
        if modifier.startswith("scaled@"):
            count = Integer(1).parse(modifier[len("scaled@"):].strip())
            return None if count >= self.size else count
        parts = re.split(r"([+-])", modifier)
        universe = set(self.categories)
        selected = set()
        for operator, token in zip(["+"] + parts[1::2], (part.strip() for part in parts[::2])):
            if token not in universe and token != "all":
                raise ValueError(
                    f"unknown category {token!r}; expected " + ", ".join(self.categories + ("all",))
                )
            chosen = universe if token == "all" else {token}
            selected = selected | chosen if operator == "+" else selected - chosen
        if not selected:
            raise ValueError(f"the category expression {modifier!r} selects no benchmark classes")
        return None if selected == universe else tuple(c for c in self.categories if c in selected)

    def format(self, value: Any) -> str:
        if value is None:
            return self.base
        if isinstance(value, int):
            return f"{self.base}/scaled@{value}"
        return f"{self.base}/" + "+".join(value)


class Hosts(ValueType):
    """Host names, case preserved: the head plus the bare items after it."""

    def parse(self, items: Tuple[str, ...]) -> Tuple[str, ...]:
        hosts = tuple(filter(None, items))
        if not hosts:
            raise ValueError("names no hosts")
        return hosts

    def format(self, hosts: Tuple[str, ...]) -> str:
        return ",".join(hosts)


class Endpoints(ValueType):
    """``HOST:PORT[+HOST:PORT...]`` with ports in 1..65535, case preserved."""

    def parse(self, text: str) -> Tuple[str, ...]:
        endpoints = tuple(part.strip() for part in text.split("+") if part.strip())
        if not endpoints:
            raise ValueError("names no endpoints")
        for endpoint in endpoints:
            host, colon, port = endpoint.rpartition(":")
            if not (colon and host and port.isdecimal() and 1 <= int(port) <= 65535):
                raise ValueError(f"endpoints are host:port, port in 1..65535; got {endpoint!r}")
        return endpoints

    def format(self, endpoints: Tuple[str, ...]) -> str:
        return "+".join(endpoints)
