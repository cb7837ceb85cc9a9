"""Core (pipeline) configuration.

The paper's Table 1 describes a 4-wide, 8-stage out-of-order core with
a 128-entry ROB and perfect branch prediction.  MPPM itself never looks
inside the core — it only consumes the single-core CPI and the memory
CPI — so the core configuration here is carried for completeness and
as input to the additive core timing model in :mod:`repro.cores`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.cache_config import ConfigurationError


@dataclass(frozen=True)
class CoreConfig:
    """Configuration of one processor core.

    Parameters
    ----------
    width:
        Issue/commit width (instructions per cycle at peak).
    rob_entries:
        Reorder-buffer size; only used for documentation and for the
        sanity checks of the core timing model.
    pipeline_depth:
        Number of pipeline stages.
    max_loads_per_cycle, max_stores_per_cycle:
        Load/store issue limits (Table 1: two loads and one store).
    perfect_branch_prediction:
        The paper assumes perfect branch prediction; kept as a flag so
        the core model can optionally add a branch-misprediction CPI
        component.
    """

    width: int = 4
    rob_entries: int = 128
    pipeline_depth: int = 8
    max_loads_per_cycle: int = 2
    max_stores_per_cycle: int = 1
    perfect_branch_prediction: bool = True

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ConfigurationError(f"core width must be positive, got {self.width}")
        if self.rob_entries <= 0:
            raise ConfigurationError(f"ROB size must be positive, got {self.rob_entries}")
        if self.pipeline_depth <= 0:
            raise ConfigurationError(
                f"pipeline depth must be positive, got {self.pipeline_depth}"
            )
        if self.max_loads_per_cycle <= 0 or self.max_stores_per_cycle <= 0:
            raise ConfigurationError("load/store issue limits must be positive")
