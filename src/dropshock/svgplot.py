"""Minimal self-contained SVG line plots (axes, series, legend).

Deliberately tiny: enough to overlay an exact and a numerical curve
without pulling in a plotting dependency.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["line_plot"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    raw = np.linspace(lo, hi, n)
    return raw


def line_plot(
    path: str,
    x: np.ndarray,
    series: Sequence[Tuple[str, np.ndarray]],
    title: str = "",
    xlabel: str = "x",
    ylabel: str = "",
    size: Tuple[int, int] = (720, 480),
) -> None:
    """Write a line plot of one or more (label, y) series over x to ``path``."""
    width, height = size
    ml, mr, mt, mb = 70, 20, 40, 50
    pw, ph = width - ml - mr, height - mt - mb

    x = np.asarray(x, dtype=float)
    ys = [np.asarray(y, dtype=float) for _, y in series]
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    y_lo = min(float(np.min(y)) for y in ys)
    y_hi = max(float(np.max(y)) for y in ys)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

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
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        parts.append(f'<line x1="{px:.2f}" y1="{mt + ph}" x2="{px:.2f}" y2="{mt + ph + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.2f}" y="{mt + ph + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tx:.3g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
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
