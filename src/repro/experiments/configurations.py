"""Tables 1 and 2: the baseline machine and the LLC design space.

These are configuration tables rather than measurements; the experiment
simply renders the configuration objects so that the reproduction of
every other experiment can be checked against the machine it claims to
run on (both at paper scale and at the scaled-down experiment scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping

from repro.config import LLC_CONFIGS, MachineConfig, baseline_machine
from repro.experiments.reporting import format_table
from repro.experiments.setup import ExperimentSetup


@dataclass(frozen=True)
class ConfigurationTables:
    """Rendered content of Tables 1 and 2."""

    baseline: MachineConfig
    scaled_baseline: MachineConfig
    llc_rows: List[Mapping[str, object]]

    def to_rows(self) -> List[Mapping[str, object]]:
        return list(self.llc_rows)

    def render(self) -> str:
        lines = ["Table 1 — baseline processor configuration (paper scale):"]
        lines.append(self.baseline.describe())
        lines.append("")
        lines.append("Experiment scale (see repro.config.scaling):")
        lines.append(self.scaled_baseline.describe())
        lines.append("")
        lines.append(
            format_table(
                self.llc_rows,
                columns=["config", "size_KB", "associativity", "latency", "scaled_size_KB"],
                title="Table 2 — last-level cache configurations:",
                float_format="{:.0f}",
            )
        )
        return "\n".join(lines)


def configuration_tables(setup: ExperimentSetup) -> ConfigurationTables:
    """Build the Table 1 / Table 2 report for the given experiment setup."""
    rows = []
    for number in sorted(LLC_CONFIGS):
        llc = LLC_CONFIGS[number]
        scaled_machine = setup.machine(num_cores=4, llc_config=number)
        rows.append(
            {
                "config": f"#{number}",
                "size_KB": llc.size_bytes // 1024,
                "associativity": llc.associativity,
                "latency": llc.latency,
                "scaled_size_KB": scaled_machine.llc.size_bytes // 1024,
            }
        )
    return ConfigurationTables(
        baseline=baseline_machine(num_cores=4, llc_config=1),
        scaled_baseline=setup.machine(num_cores=4, llc_config=1),
        llc_rows=rows,
    )
