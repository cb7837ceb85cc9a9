"""Fitted-workload bundles: the on-disk artefact of ``repro ingest``.

A bundle is one JSON file (``bundle.json`` inside the ``--out``
directory, or any ``.json`` path) holding everything a fit produced:
the machine descriptor, the fit options, a digest of the source
samples, and per core the fitted :class:`BenchmarkSpec` plus its fit
report.  Reloading a bundle reconstructs the exact specs — samples →
fit → JSON → reload is lossless, so predictions from a reloaded bundle
are bit-identical to predictions from the in-memory fit (asserted by
the round-trip tests).

The ``perf:`` workload family accepts either a raw sample file (fit on
first use) or a bundle (no fitting at all), which is how expensive fits
are shipped to machines that never saw the samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.ingest.fit import CoreFit, FitOptions, PhaseFit
from repro.ingest.samples import IngestError, MachineDescriptor
from repro.io import atomic_write_json, read_json_tolerant
from repro.workloads.benchmark import BenchmarkSpec, WorkloadError

#: Bump on incompatible bundle layout changes.
FORMAT_VERSION = 1

#: Conventional bundle file name inside an ``--out`` directory.
BUNDLE_FILENAME = "bundle.json"


# ---------------------------------------------------------------------------
# BenchmarkSpec <-> dict
# ---------------------------------------------------------------------------


def spec_from_dict(data: Dict) -> BenchmarkSpec:
    try:
        return BenchmarkSpec.from_dict(data)
    except (KeyError, TypeError, ValueError) as error:
        if isinstance(error, WorkloadError):
            raise
        raise IngestError(f"bad benchmark spec in bundle: {error!r}") from None


# ---------------------------------------------------------------------------
# Fit reports <-> dict
# ---------------------------------------------------------------------------


def _phase_fit_to_dict(phase: PhaseFit) -> Dict:
    return {
        "index": phase.index,
        "fraction": phase.fraction,
        "num_samples": phase.num_samples,
        "target_miss_rate": phase.target_miss_rate,
        "replayed_miss_rate": phase.replayed_miss_rate,
        "target_access_rate": phase.target_access_rate,
        "replayed_access_rate": phase.replayed_access_rate,
        "target_cpi": phase.target_cpi,
        "replayed_cpi": phase.replayed_cpi,
    }


def _phase_fit_from_dict(data: Dict) -> PhaseFit:
    try:
        return PhaseFit(**data)
    except TypeError as error:
        raise IngestError(f"bad phase fit in bundle: {error}") from None


def core_fit_to_dict(fit: CoreFit) -> Dict:
    return {
        "core": fit.core,
        "spec": fit.spec.to_dict(),
        "phases": [_phase_fit_to_dict(phase) for phase in fit.phases],
        "coverage": fit.coverage,
        "num_samples": fit.num_samples,
    }


def core_fit_from_dict(data: Dict) -> CoreFit:
    try:
        return CoreFit(
            core=int(data["core"]),
            spec=spec_from_dict(data["spec"]),
            phases=tuple(_phase_fit_from_dict(phase) for phase in data["phases"]),
            coverage=float(data["coverage"]),
            num_samples=int(data["num_samples"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        if isinstance(error, WorkloadError):
            raise
        raise IngestError(f"bad core fit in bundle: {error!r}") from None


# ---------------------------------------------------------------------------
# The bundle itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FittedWorkload:
    """Everything ``repro ingest`` produced from one sample stream."""

    machine: MachineDescriptor
    options: FitOptions
    source_digest: str
    fits: Tuple[CoreFit, ...]

    @property
    def specs(self) -> List[BenchmarkSpec]:
        return [fit.spec for fit in self.fits]

    def to_dict(self) -> Dict:
        return {
            "format_version": FORMAT_VERSION,
            "machine": self.machine.to_dict(),
            "options": self.options.to_dict(),
            "source_digest": self.source_digest,
            "fits": [core_fit_to_dict(fit) for fit in self.fits],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FittedWorkload":
        if not isinstance(data, dict):
            raise IngestError("bundle must be a JSON object")
        version = data.get("format_version")
        if version != FORMAT_VERSION:
            raise IngestError(
                f"unsupported bundle format_version {version!r} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        try:
            machine = MachineDescriptor.from_dict(data["machine"])
            options = FitOptions.from_dict(data["options"])
            digest = str(data["source_digest"])
            fits = tuple(core_fit_from_dict(fit) for fit in data["fits"])
        except KeyError as error:
            raise IngestError(f"bundle is missing field {error.args[0]!r}") from None
        if not fits:
            raise IngestError("bundle contains no fitted cores")
        return cls(machine=machine, options=options, source_digest=digest, fits=fits)


def bundle_file(path: Union[str, Path]) -> Path:
    """Resolve a bundle argument: a directory means ``<dir>/bundle.json``."""
    path = Path(path)
    if path.is_dir():
        return path / BUNDLE_FILENAME
    return path


def write_bundle(workload: FittedWorkload, out_dir: Union[str, Path]) -> Path:
    """Write ``<out_dir>/bundle.json`` (creating the directory) and return its path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / BUNDLE_FILENAME
    atomic_write_json(path, workload.to_dict())
    return path


def load_bundle(path: Union[str, Path]) -> FittedWorkload:
    """Load a bundle from a directory (``bundle.json`` inside) or JSON file."""
    file_path = bundle_file(path)
    if not file_path.is_file():
        raise IngestError(f"bundle not found: {file_path}")
    data = read_json_tolerant(file_path)
    if data is None:
        raise IngestError(f"cannot parse bundle {file_path}: invalid JSON")
    return FittedWorkload.from_dict(data)
