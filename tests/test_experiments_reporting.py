"""Unit tests for plain-text experiment reporting."""

from repro.experiments.reporting import format_series, format_table, format_value


class TestFormatValue:
    def test_floats_use_the_given_format(self):
        assert format_value(1.23456) == "1.235"
        assert format_value(1.23456, float_format="{:.1f}") == "1.2"

    def test_bools_ints_and_strings(self):
        assert format_value(True) == "yes"
        assert format_value(False) == "no"
        assert format_value(42) == "42"
        assert format_value("text") == "text"


class TestFormatTable:
    def test_columns_are_aligned_and_ordered(self):
        rows = [
            {"name": "config #1", "stp": 3.14159, "mixes": 10},
            {"name": "config #2-long-name", "stp": 2.0, "mixes": 5},
        ]
        table = format_table(rows, title="My table:")
        lines = table.splitlines()
        assert lines[0] == "My table:"
        assert lines[1].startswith("name")
        assert "3.142" in table
        # Title + header + separator + 2 data rows.
        assert len(lines) == 5

    def test_missing_cells_render_empty(self):
        table = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert "a" in table and "b" in table

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], title="Empty:")


class TestFormatSeries:
    def test_series_wraps_lines(self):
        text = format_series("curve", [float(i) for i in range(25)], per_line=10)
        lines = text.splitlines()
        assert lines[0].startswith("curve (25 points)")
        assert len(lines) == 1 + 3  # 10 + 10 + 5 values
