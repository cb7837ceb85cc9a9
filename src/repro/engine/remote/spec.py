"""Fleet spec strings: how a multi-host backend is named.

A fleet spec is a string with the ``fleet:`` prefix, accepted anywhere
an engine ``jobs`` count is (``create_engine(jobs="fleet:...")``,
``ExperimentSetup(jobs=...)``, ``repro run --fleet ...``).  Three
worker sources:

* ``fleet:localhost:N`` — N loopback subprocess workers, launched and
  owned by the driver.  The CI-testable path.
* ``fleet:ssh=host1,host2`` — one worker per host, launched over
  ``ssh`` (``BatchMode``; the hosts need key auth and the repro
  package on their python path).
* ``fleet:attach=host:port+host:port`` — adopt already-running
  ``repro worker`` agents (``+``-separated because endpoints contain
  ``:``).  Attached workers are not shut down on close.

Options ride after the worker source as ``,key=value`` pairs:
``timeout`` (per-job seconds), ``python`` (remote interpreter for
``ssh=``).  Example: ``fleet:localhost:2,timeout=900``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple, Union

from repro.engine.remote.errors import FleetSpecError

PREFIX = "fleet:"

#: Per-job execution timeout (seconds) unless the spec overrides it.
DEFAULT_JOB_TIMEOUT = 600.0

_OPTION_KEYS = ("timeout", "python")


def is_fleet_spec(value: object) -> bool:
    """Whether a ``jobs`` value names a fleet rather than a pool size."""
    return isinstance(value, str) and value.startswith(PREFIX)


def normalize_fleet_flag(value: str) -> str:
    """CLI convenience: accept ``localhost:2`` and ``fleet:localhost:2`` alike."""
    spec = value if value.startswith(PREFIX) else PREFIX + value
    return parse_fleet_spec(spec).canonical


@dataclass(frozen=True)
class FleetSpec:
    """A parsed fleet spec.

    ``kind`` is ``"localhost"`` / ``"ssh"`` / ``"attach"``; ``count``
    is the loopback worker count (0 otherwise); ``hosts`` holds ssh
    host names or ``host:port`` endpoints for ``attach``.
    """

    kind: str
    count: int = 0
    hosts: Tuple[str, ...] = field(default=())
    job_timeout: float = DEFAULT_JOB_TIMEOUT
    python: str = "python3"

    @property
    def num_workers(self) -> int:
        return self.count if self.kind == "localhost" else len(self.hosts)

    @property
    def canonical(self) -> str:
        if self.kind == "localhost":
            body = f"localhost:{self.count}"
        elif self.kind == "ssh":
            body = "ssh=" + ",".join(self.hosts)
        else:
            body = "attach=" + "+".join(self.hosts)
        options = []
        if self.job_timeout != DEFAULT_JOB_TIMEOUT:
            options.append(f"timeout={self.job_timeout:g}")
        if self.kind == "ssh" and self.python != "python3":
            options.append(f"python={self.python}")
        return PREFIX + ",".join([body] + options)

    def __str__(self) -> str:
        return self.canonical


def _split_options(parts: list) -> Dict[str, str]:
    """Pop trailing ``key=value`` option parts off a comma-split list."""
    options: Dict[str, str] = {}
    while parts:
        name, separator, value = parts[-1].partition("=")
        if not separator or name not in _OPTION_KEYS:
            break
        if name in options:
            raise FleetSpecError(f"fleet option {name!r} is given more than once")
        options[name] = value
        parts.pop()
    return options


def _parse_timeout(options: Dict[str, str]) -> float:
    raw = options.pop("timeout", None)
    if raw is None:
        return DEFAULT_JOB_TIMEOUT
    try:
        timeout = float(raw)
    except ValueError:
        raise FleetSpecError(f"fleet timeout must be a number, got {raw!r}") from None
    if timeout <= 0:
        raise FleetSpecError(f"fleet timeout must be positive, got {raw}")
    return timeout


def parse_fleet_spec(spec: Union[str, "FleetSpec"]) -> FleetSpec:
    """Parse a ``fleet:`` spec string into a :class:`FleetSpec`."""
    if isinstance(spec, FleetSpec):
        return spec
    if not is_fleet_spec(spec):
        raise FleetSpecError(f"not a fleet spec (missing {PREFIX!r} prefix): {spec!r}")
    body = spec[len(PREFIX) :].strip()
    if not body:
        raise FleetSpecError(f"empty fleet spec: {spec!r}")
    parts = [part.strip() for part in body.split(",")]
    options = _split_options(parts)
    job_timeout = _parse_timeout(options)

    head = parts[0]
    if head.startswith("localhost"):
        if len(parts) != 1:
            raise FleetSpecError(f"unexpected parts in localhost fleet spec: {spec!r}")
        _, separator, raw_count = head.partition(":")
        if not separator or not raw_count.isdigit() or int(raw_count) < 1:
            raise FleetSpecError(
                f"localhost fleets are 'fleet:localhost:N' with N >= 1, got {spec!r}"
            )
        return FleetSpec(kind="localhost", count=int(raw_count), job_timeout=job_timeout)

    if head.startswith("ssh="):
        hosts = tuple(h for h in [head[len("ssh=") :]] + parts[1:] if h)
        if not hosts:
            raise FleetSpecError(f"ssh fleet spec names no hosts: {spec!r}")
        python = options.pop("python", "python3")
        return FleetSpec(kind="ssh", hosts=hosts, job_timeout=job_timeout, python=python)

    if head.startswith("attach="):
        if len(parts) != 1:
            raise FleetSpecError(f"unexpected parts in attach fleet spec: {spec!r}")
        endpoints = tuple(e.strip() for e in head[len("attach=") :].split("+") if e.strip())
        if not endpoints:
            raise FleetSpecError(f"attach fleet spec names no endpoints: {spec!r}")
        for endpoint in endpoints:
            host, separator, port = endpoint.rpartition(":")
            if not separator or not host or not port.isdigit():
                raise FleetSpecError(
                    f"attach endpoints are 'host:port', got {endpoint!r} in {spec!r}"
                )
        return FleetSpec(kind="attach", hosts=endpoints, job_timeout=job_timeout)

    raise FleetSpecError(
        f"unknown fleet kind in {spec!r} (expected localhost:N, ssh=..., or attach=...)"
    )
