"""Plain-text rendering of experiment rows, paper-style.

Benchmarks call :func:`render_table` to print each reproduced table/figure
as an aligned text table, so ``pytest benchmarks/`` output
doubles as the EXPERIMENTS.md source data.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import ConfigurationError

Row = dict[str, Any]


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.6f}".rstrip("0").rstrip(".")
    return str(value)


def render_table(title: str, rows: Iterable[Row]) -> str:
    """Render rows as an aligned text table with a title rule."""
    rows = list(rows)
    if not rows:
        raise ConfigurationError("cannot render an empty table")
    columns = list(rows[0].keys())
    cells = [[_format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells)) for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    rule = "-" * len(header)
    body = "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)) for line in cells
    )
    return f"{title}\n{rule}\n{header}\n{rule}\n{body}\n{rule}"


def rows_to_csv(rows: Iterable[Row]) -> str:
    """Render rows as CSV (for spreadsheet import of any experiment)."""
    rows = list(rows)
    if not rows:
        raise ConfigurationError("cannot render an empty table")
    columns = list(rows[0].keys())

    def cell(value: Any) -> str:
        text = _format_value(value)
        if "," in text or '"' in text:
            text = '"' + text.replace('"', '""') + '"'
        return text

    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(cell(row.get(col, "")) for col in columns))
    return "\n".join(lines) + "\n"


def ratio_summary(rows: list[Row], group_key: str, value_key: str, base: str) -> dict[str, float]:
    """Per-group ratios against a named base group (e.g. vs 'baseline').

    Used by benchmarks to print headline factors like "LBL throughput is
    1.4x the 2RTT baseline".
    """
    values: dict[str, list[float]] = {}
    for row in rows:
        values.setdefault(str(row[group_key]), []).append(float(row[value_key]))
    if base not in values:
        raise ConfigurationError(f"base group {base!r} not present")
    averages = {group: sum(v) / len(v) for group, v in values.items()}
    base_value = averages[base]
    if base_value == 0:
        raise ConfigurationError("base group average is zero")
    return {group: avg / base_value for group, avg in averages.items()}


__all__ = ["render_table", "rows_to_csv", "ratio_summary"]
