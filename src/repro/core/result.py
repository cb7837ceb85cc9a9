"""Result types produced by MPPM."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class MPPMResultError(ValueError):
    """Raised for inconsistent prediction results."""


@dataclass(frozen=True)
class ProgramPrediction:
    """MPPM's prediction for one program of a workload mix."""

    name: str
    core: int
    single_core_cpi: float
    predicted_cpi: float

    def __post_init__(self) -> None:
        if self.single_core_cpi <= 0 or self.predicted_cpi <= 0:
            raise MPPMResultError(f"{self.name}: CPIs must be positive")

    @property
    def slowdown(self) -> float:
        """Predicted slowdown relative to isolated execution (the paper's R_p)."""
        return self.predicted_cpi / self.single_core_cpi

    @property
    def normalized_progress(self) -> float:
        """Predicted per-program progress (CPI_SC / CPI_MC), the STP contribution."""
        return self.single_core_cpi / self.predicted_cpi


@dataclass(frozen=True)
class IterationRecord:
    """State of the iterative process after one iteration (for diagnostics)."""

    iteration: int
    window_cycles: float
    slowdowns: Tuple[float, ...]
    instructions_executed: Tuple[float, ...]


@dataclass(frozen=True)
class MixPrediction:
    """A predictor's estimate for one multi-program workload mix.

    ``predictor`` is the registry spec of the estimator that produced
    the prediction (``"mppm:foa"``, ``"detailed"``, …; see
    :mod:`repro.predictors`).  ``kernel`` names the solver kernel that
    produced it (``"batched"`` / ``"reference"`` for MPPM, the constant
    ``"chunked"`` for detailed simulation, ``None`` for the baselines).  Both round-trip through the
    JSON serialisation, so cached and exported results are
    self-describing; the kernels are bit-identical, so the field is
    pure provenance and never part of a cache key.
    """

    machine_name: str
    programs: Tuple[ProgramPrediction, ...]
    iterations: int
    converged: bool
    history: Tuple[IterationRecord, ...] = field(default=())
    predictor: Optional[str] = None
    kernel: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.programs:
            raise MPPMResultError("a mix prediction needs at least one program")

    @property
    def num_programs(self) -> int:
        return len(self.programs)

    @property
    def system_throughput(self) -> float:
        """Predicted STP: sum over programs of CPI_SC / CPI_MC (higher is better)."""
        return sum(program.normalized_progress for program in self.programs)

    @property
    def average_normalized_turnaround_time(self) -> float:
        """Predicted ANTT: mean over programs of CPI_MC / CPI_SC (lower is better)."""
        return sum(program.slowdown for program in self.programs) / self.num_programs

    @property
    def slowdowns(self) -> List[float]:
        return [program.slowdown for program in self.programs]

    @property
    def predicted_cpis(self) -> List[float]:
        return [program.predicted_cpi for program in self.programs]

    def program(self, name: str) -> ProgramPrediction:
        """The first program prediction with the given benchmark name."""
        for program in self.programs:
            if program.name == name:
                return program
        raise KeyError(f"no program named {name!r} in this prediction")

    # ------------------------------------------------------------------
    # Serialisation (for the engine's persistent result cache)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        """Plain-data representation suitable for JSON."""
        return {
            "machine_name": self.machine_name,
            "iterations": self.iterations,
            "converged": self.converged,
            "predictor": self.predictor,
            "kernel": self.kernel,
            "programs": [
                {
                    "name": program.name,
                    "core": program.core,
                    "single_core_cpi": program.single_core_cpi,
                    "predicted_cpi": program.predicted_cpi,
                }
                for program in self.programs
            ],
            "history": [
                {
                    "iteration": record.iteration,
                    "window_cycles": record.window_cycles,
                    "slowdowns": list(record.slowdowns),
                    "instructions_executed": list(record.instructions_executed),
                }
                for record in self.history
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "MixPrediction":
        """Inverse of :meth:`to_dict`."""
        programs = tuple(
            ProgramPrediction(
                name=entry["name"],
                core=int(entry["core"]),
                single_core_cpi=float(entry["single_core_cpi"]),
                predicted_cpi=float(entry["predicted_cpi"]),
            )
            for entry in data["programs"]
        )
        history = tuple(
            IterationRecord(
                iteration=int(entry["iteration"]),
                window_cycles=float(entry["window_cycles"]),
                slowdowns=tuple(float(value) for value in entry["slowdowns"]),
                instructions_executed=tuple(
                    float(value) for value in entry["instructions_executed"]
                ),
            )
            for entry in data["history"]
        )
        predictor = data.get("predictor")
        kernel = data.get("kernel")
        return cls(
            machine_name=data["machine_name"],
            programs=programs,
            iterations=int(data["iterations"]),
            converged=bool(data["converged"]),
            history=history,
            predictor=str(predictor) if predictor is not None else None,
            kernel=str(kernel) if kernel is not None else None,
        )

    def describe(self) -> str:
        kernel = f", kernel={self.kernel}" if self.kernel is not None else ""
        lines = [
            f"{self.predictor or 'MPPM'} prediction on {self.machine_name} "
            f"({self.iterations} iterations, converged={self.converged}{kernel}):"
        ]
        for program in self.programs:
            lines.append(
                f"  core {program.core}: {program.name:<12s} "
                f"CPI_SC {program.single_core_cpi:6.3f} -> CPI_MC {program.predicted_cpi:6.3f} "
                f"(slowdown {program.slowdown:4.2f}x)"
            )
        lines.append(
            f"  STP {self.system_throughput:.3f}, "
            f"ANTT {self.average_normalized_turnaround_time:.3f}"
        )
        return "\n".join(lines)
