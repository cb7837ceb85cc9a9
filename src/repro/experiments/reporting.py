"""Plain-text rendering of experiment results.

Every experiment result type has a ``to_rows()`` method returning a
list of dictionaries; this module turns those rows into aligned text
tables so that benchmark targets and example scripts can print exactly
the rows/series the paper's tables and figures report, without any
plotting dependency.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, Union

Value = Union[str, int, float]


def format_value(value: Value, float_format: str = "{:.3f}") -> str:
    """Render one cell."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return float_format.format(value)
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, Value]],
    columns: Sequence[str] = None,
    float_format: str = "{:.3f}",
    title: str = None,
) -> str:
    """Render rows (list of dicts) as an aligned text table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [
        [format_value(row.get(column, ""), float_format) for column in columns] for row in rows
    ]
    widths = [
        max(len(column), *(len(line[i]) for line in rendered)) for i, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(column.ljust(width) for column, width in zip(columns, widths))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for line in rendered:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)))
    return "\n".join(lines)


def format_series(
    name: str, values: Iterable[float], float_format: str = "{:.3f}", per_line: int = 10
) -> str:
    """Render a numeric series (a figure's curve) compactly."""
    rendered = [float_format.format(value) for value in values]
    lines = [f"{name} ({len(rendered)} points):"]
    for start in range(0, len(rendered), per_line):
        lines.append("  " + " ".join(rendered[start : start + per_line]))
    return "\n".join(lines)
