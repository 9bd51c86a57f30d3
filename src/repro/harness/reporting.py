"""Plain-text rendering of experiment results.

``run_experiments`` prints through :func:`format_result`, which renders
the tables recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = "") -> str:
    """Render an aligned ASCII table."""
    columns = [list(map(_fmt, column)) for column in zip(headers, *rows)] if rows else [[_fmt(h)] for h in headers]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines: List[str] = []
    if title:
        lines.append(f"== {title} ==")
    header_line = "  ".join(h.ljust(w) for h, w in zip(map(_fmt, headers), widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rows:
        lines.append("  ".join(_fmt(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_dict(title: str, data: Dict[str, Any]) -> str:
    """Render a key/value block."""
    width = max((len(key) for key in data), default=0)
    lines = [f"== {title} =="]
    for key in data:
        lines.append(f"{key.ljust(width)} : {_fmt(data[key])}")
    return "\n".join(lines)


def format_result(title: str, result: Any) -> str:
    """Render an experiment result: a dict as a key/value block, rows as a table."""
    if isinstance(result, dict):
        return format_dict(title, result)
    return format_table(list(result[0].keys()), [list(row.values()) for row in result], title=title)


def _fmt(value: Any) -> str:
    """A cell's text: floats print with two decimals (none from 1,000 up)
    unless that would change the value at four decimals, in which case
    they print as that rounded value in full."""
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        text = f"{value:.0f}" if abs(value) >= 1000 else f"{value:.2f}"
        rounded = round(value, 4)
        return text if float(text) == rounded else repr(rounded)
    return str(value)
