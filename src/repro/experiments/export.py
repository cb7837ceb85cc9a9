"""Exporting experiment results to CSV/JSON for external plotting.

The repository deliberately has no plotting dependency; every result
object exposes ``to_rows()`` (tables) or explicit series accessors, and
this module turns those into CSV or JSON files that any plotting tool
can consume to redraw the paper's figures.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import List, Mapping, Sequence, Union

Value = Union[str, int, float, bool]


class ExportError(ValueError):
    """Raised for invalid export requests."""


def rows_to_csv(rows: Sequence[Mapping[str, Value]], path: Union[str, Path]) -> Path:
    """Write a list of row dictionaries to ``path`` as CSV.

    The column set is the union of all row keys, ordered by first
    appearance, so rows with missing entries are handled gracefully.
    """
    if not rows:
        raise ExportError("cannot export an empty row list")
    path = Path(path)
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(dict(row))
    return path


def series_to_csv(
    series: Mapping[str, Sequence[float]], path: Union[str, Path], index_name: str = "index"
) -> Path:
    """Write one or more equal-length numeric series as CSV columns.

    This is the natural export for the paper's curve figures (e.g.
    Figure 9's measured/predicted sorted-STP curves).
    """
    if not series:
        raise ExportError("cannot export an empty series mapping")
    lengths = {len(values) for values in series.values()}
    if len(lengths) != 1:
        raise ExportError(f"all series must have the same length, got lengths {sorted(lengths)}")
    (length,) = lengths
    if length == 0:
        raise ExportError("series must contain at least one point")
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([index_name, *series.keys()])
        for index in range(length):
            writer.writerow([index, *(values[index] for values in series.values())])
    return path


def rows_to_json(rows: Sequence[Mapping[str, Value]], path: Union[str, Path]) -> Path:
    """Write a list of row dictionaries to ``path`` as a JSON array."""
    if not rows:
        raise ExportError("cannot export an empty row list")
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        json.dump([dict(row) for row in rows], handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def export_result(result, directory: Union[str, Path], stem: str) -> List[Path]:
    """Export any result object that implements ``to_rows()``.

    Writes both ``<stem>.csv`` and ``<stem>.json`` into ``directory``
    and returns the created paths.
    """
    if not hasattr(result, "to_rows"):
        raise ExportError(f"{type(result).__name__} does not implement to_rows()")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = result.to_rows()
    return [
        rows_to_csv(rows, directory / f"{stem}.csv"),
        rows_to_json(rows, directory / f"{stem}.json"),
    ]
