"""Minimal self-contained SVG line plots (axes, series, legend).

Deliberately tiny: enough to overlay an exact and a numerical curve
without pulling in a plotting dependency.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

__all__ = ["line_plot"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def line_plot(
    path: str,
    x: np.ndarray,
    series: Sequence[Tuple[str, np.ndarray]],
    title: str = "",
    xlabel: str = "x",
    ylabel: str = "",
    size: Tuple[int, int] = (720, 480),
) -> None:
    """Write a line plot of one or more (label, y) series over x to ``path``.

    x and every y must be non-empty, of one length and finite (ValueError
    otherwise).  A zero span of x or of y is widened by 1 on each side.
    """
    width, height = size
    ml, mr, mt, mb = 70, 20, 40, 50
    pw, ph = width - ml - mr, height - mt - mb

    x = np.asarray(x, dtype=float)
    ys = [np.asarray(y, dtype=float) for _, y in series]
    if x.ndim != 1 or len(x) == 0:
        raise ValueError(f"x must be a non-empty 1-D array, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x holds a non-finite value")
    if not ys:
        raise ValueError("no series to plot")
    for (label, _), y in zip(series, ys):
        if y.shape != x.shape:
            raise ValueError(f"series {label!r} has shape {y.shape}, x has shape {x.shape}")
        if not np.isfinite(y).all():
            raise ValueError(f"series {label!r} holds a non-finite value")
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    y_lo = min(float(np.min(y)) for y in ys)
    y_hi = max(float(np.max(y)) for y in ys)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    for name, lo, hi in (("x", x_lo, x_hi), ("y", y_lo, y_hi)):
        if not 0.0 < hi - lo < math.inf:  # a span lost to rounding, or one that overflows
            raise ValueError(f"the {name} range [{lo!r}, {hi!r}] has no finite positive width to draw")

    def sx(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return mt + ph - (v - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="{mt - 15}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )
    for tx in np.linspace(x_lo, x_hi, 5):
        px = sx(tx)
        parts.append(f'<line x1="{px:.2f}" y1="{mt + ph}" x2="{px:.2f}" y2="{mt + ph + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.2f}" y="{mt + ph + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tx:.3g}</text>'
        )
    for ty in np.linspace(y_lo, y_hi, 5):
        py = sy(ty)
        parts.append(f'<line x1="{ml - 5}" y1="{py:.2f}" x2="{ml}" y2="{py:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{ml - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{ty:.3g}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    if ylabel:
        parts.append(
            f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 18 {mt + ph / 2:.1f})">{ylabel}</text>'
        )

    px = sx(x)
    for k, ((label, _), y) in enumerate(zip(series, ys)):
        color = _COLORS[k % len(_COLORS)]
        pts = " ".join(["%.2f,%.2f"] * len(x)) % tuple(np.column_stack((px, sy(y))).ravel().tolist())
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.3"/>')
        ly = mt + 16 + 16 * k
        parts.append(f'<line x1="{ml + pw - 120}" y1="{ly}" x2="{ml + pw - 95}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{ml + pw - 90}" y="{ly + 4}" font-family="sans-serif" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
