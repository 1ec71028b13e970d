"""ASCII data-series plots for the figure artifacts.

Dependency-free renderers used by the experiment modules: an XY scatter
with logarithmic options and a horizontal bar chart.  These keep the
benchmark artifacts self-contained text files while still *looking like*
the figures they regenerate.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["xy_plot", "bar_chart"]


def xy_plot(
    series: dict[str, Sequence[tuple[float, float]]],
    width: int = 64,
    height: int = 16,
    xlabel: str = "x",
    ylabel: str = "y",
    logx: bool = False,
    logy: bool = False,
) -> str:
    """Scatter plot of named series; each series gets its own marker."""
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    if logx and xlo <= 0 or logy and ylo <= 0:
        raise ValueError("log axes need positive data")
    if xhi == xlo:
        xhi = xlo + 1
    if yhi == ylo:
        yhi = ylo + 1

    def to_col(x: float) -> int:
        if logx:
            f = (math.log10(x) - math.log10(xlo)) / (math.log10(xhi) - math.log10(xlo))
        else:
            f = (x - xlo) / (xhi - xlo)
        return min(width - 1, max(0, int(f * (width - 1))))

    def to_row(y: float) -> int:
        if logy:
            f = (math.log10(y) - math.log10(ylo)) / (math.log10(yhi) - math.log10(ylo))
        else:
            f = (y - ylo) / (yhi - ylo)
        return min(height - 1, max(0, int(f * (height - 1))))

    grid = [[" "] * width for _ in range(height)]
    markers = "ox+*#@%&"
    legend = []
    for (name, pts), marker in zip(series.items(), markers):
        legend.append(f"{marker} = {name}")
        for x, y in pts:
            grid[height - 1 - to_row(y)][to_col(x)] = marker

    lines = [f"{ylabel} (up), {xlabel} (right)    " + "   ".join(legend)]
    lines.append(f"{yhi:>10.4g} +" + "-" * width + "+")
    for row in grid:
        lines.append(" " * 11 + "|" + "".join(row) + "|")
    lines.append(f"{ylo:>10.4g} +" + "-" * width + "+")
    lines.append(" " * 12 + f"{xlo:<.4g}" + " " * max(1, width - 16) + f"{xhi:>.4g}")
    return "\n".join(lines)


def bar_chart(
    items: Sequence[tuple[str, float]],
    width: int = 50,
    unit: str = "",
) -> str:
    """Horizontal bar chart with value labels."""
    if not items:
        return "(no data)"
    top = max(v for _, v in items)
    label_w = max(len(name) for name, _ in items)
    lines = []
    for name, value in items:
        bar = "#" * max(1, int(width * value / top)) if top > 0 else ""
        lines.append(f"{name:<{label_w}} | {bar} {value:.4g}{unit}")
    return "\n".join(lines)
