"""Fixed-width text tables: what the CLI commands print."""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(title: str, columns: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """A fixed-width text table; floats render to 2 decimals."""
    rendered = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [title, "=" * len(title)]
    lines.append(" | ".join(c.ljust(w) for c, w in zip(columns, widths)))
    lines.append(sep)
    for row in rendered:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
