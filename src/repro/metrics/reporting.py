"""Plain-text reporting helpers: aligned tables and ASCII series plots.

The benchmark harness uses these to print the same rows/series the paper's
tables and figures report, without any plotting dependencies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .timeseries import TimeSeries

__all__ = ["format_table", "ascii_plot"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
    float_fmt: str = "{:.2f}",
) -> str:
    """Render rows as an aligned, pipe-separated text table."""
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(float_fmt.format(cell))
            else:
                cells.append(str(cell))
        rendered.append(cells)

    widths = [len(h) for h in headers]
    for cells in rendered:
        for idx, cell in enumerate(cells):
            if idx < len(widths):
                widths[idx] = max(widths[idx], len(cell))
            else:
                widths.append(len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        padded = [
            cell.ljust(widths[idx]) if idx < len(widths) else cell
            for idx, cell in enumerate(cells)
        ]
        return "| " + " | ".join(padded) + " |"

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(fmt_row(list(headers)))
    lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for cells in rendered:
        lines.append(fmt_row(cells))
    return "\n".join(lines)


def ascii_plot(
    series: Dict[str, TimeSeries],
    width: int = 72,
    height: int = 16,
    title: Optional[str] = None,
) -> str:
    """A crude multi-series ASCII line chart (one symbol per series)."""
    symbols = "*o+x#@%&"
    points = [(name, ts) for name, ts in series.items() if len(ts)]
    if not points:
        return (title or "") + "\n(no data)"

    t_min = min(ts.times[0] for _, ts in points)
    t_max = max(ts.times[-1] for _, ts in points)
    v_min = 0.0
    v_max = max(max(ts.values) for _, ts in points)
    if v_max <= v_min:
        v_max = v_min + 1.0
    if t_max <= t_min:
        t_max = t_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    for idx, (name, ts) in enumerate(points):
        symbol = symbols[idx % len(symbols)]
        for t, v in ts:
            col = int((t - t_min) / (t_max - t_min) * (width - 1))
            row = height - 1 - int((v - v_min) / (v_max - v_min) * (height - 1))
            grid[row][col] = symbol

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"{v_max:>10.1f} ┤" )
    for row in grid:
        lines.append(" " * 10 + " │" + "".join(row))
    lines.append(f"{v_min:>10.1f} └" + "─" * width)
    lines.append(" " * 12 + f"{t_min:<.0f}{'':{max(1, width - 16)}}{t_max:>8.0f}  (time, s)")
    legend = "   ".join(
        f"{symbols[idx % len(symbols)]} {name}" for idx, (name, _) in enumerate(points)
    )
    lines.append("  legend: " + legend)
    return "\n".join(lines)
