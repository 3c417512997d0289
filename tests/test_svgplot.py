import re

import numpy as np
import pytest

from dropshock.svgplot import line_plot


def reference_points(x, ys, size):
    """Each series' polyline points, one f-string per point, with the pixel
    map and margins of ``line_plot``."""
    width, height = size
    ml, mt, pw, ph = 70, 40, width - 90, height - 90
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    y_lo = min(float(np.min(y)) for y in ys)
    y_hi = max(float(np.max(y)) for y in ys)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    return [
        " ".join(
            f"{ml + (xv - x_lo) / (x_hi - x_lo) * pw:.2f},{mt + ph - (yv - y_lo) / (y_hi - y_lo) * ph:.2f}"
            for xv, yv in zip(x, y)
        )
        for y in ys
    ]


X = np.linspace(-1.0, 2.0, 3000)
UNSORTED = np.random.default_rng(3).uniform(-5.0, 5.0, 257)


@pytest.mark.parametrize(
    "x, ys, size",
    [
        (X, [np.sin(7.0 * X) * 0.01, np.where(X < 0.3, 0.008, -0.0), np.tanh(X)], (720, 480)),
        (UNSORTED, [np.full(UNSORTED.shape, 0.25)], (720, 480)),
        (UNSORTED, [UNSORTED**3, -UNSORTED], (500, 301)),
        ([0.0, 1.0], [[1, 2]], (720, 480)),
    ],
    ids=["three-series", "constant", "unsorted-small", "two-points"],
)
def test_line_plot_points_equal_per_point_formatting(tmp_path, x, ys, size):
    path = tmp_path / "p.svg"
    line_plot(str(path), x, [(f"s{k}", y) for k, y in enumerate(ys)], title="t", ylabel="y", size=size)
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(y, dtype=float) for y in ys]
    points = re.findall(r'<polyline points="([^"]*)"', path.read_text())
    assert points == reference_points(x, ys, size)


@pytest.mark.parametrize(
    "x, y, point",
    # a zero x span is widened by 1 on each side, as a zero y span is, so the
    # points sit on the plot's vertical centre line
    [([0.5], [2.0], "385.00,235.00"), ([3.0, 3.0, 3.0], [0.0, 1.0, 2.0], "385.00,412.27")],
    ids=["single-point", "zero-x-span"],
)
def test_line_plot_zero_x_span_is_widened(tmp_path, x, y, point):
    path = tmp_path / "p.svg"
    line_plot(str(path), x, [("s", y)])  # a RuntimeWarning fails the test (pyproject filterwarnings)
    points = re.findall(r'<polyline points="([^"]*)"', path.read_text())[0].split()
    assert points[0] == point and all(p.split(",")[0] == "385.00" for p in points)
    assert "nan" not in path.read_text()


@pytest.mark.parametrize(
    "x, series, message",
    [
        ([], [("s", [])], "non-empty"),
        ([0.0, 1.0], [], "no series"),
        ([0.0, 1.0], [("s", [1.0, 2.0, 3.0])], r"series 's' has shape \(3,\), x has shape \(2,\)"),
        ([0.0, 1.0], [("a", [1.0, 2.0]), ("b", [1.0, np.nan])], "series 'b' holds a non-finite value"),
        ([0.0, np.inf], [("s", [1.0, 2.0])], "x holds a non-finite value"),
        ([1e300, 1e300], [("s", [1.0, 2.0])], "the x range"),
        ([0.0, 1.0], [("s", [-1e308, 1e308])], "the y range"),
    ],
    ids=["empty", "no-series", "mismatched", "nan-y", "inf-x", "x-span-lost-to-rounding", "y-span-overflows"],
)
def test_line_plot_rejects_degenerate_input(tmp_path, x, series, message):
    path = tmp_path / "p.svg"
    with pytest.raises(ValueError, match=message):
        line_plot(str(path), x, series)
    assert not path.exists()
