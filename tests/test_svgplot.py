import re
from xml.dom import minidom

import numpy as np
import pytest

from dropshock import svgplot
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
# an FV snapshot: equal far-field cells at both ends, distinct values between
SNAPSHOT = np.concatenate((np.full(1200, 0.008), 0.008 + 0.004 * np.sin(np.linspace(0.0, 9.0, 700)), np.full(1100, 0.003)))


@pytest.mark.parametrize(
    "x, ys, size",
    [
        (X, [np.sin(7.0 * X) * 0.01, np.where(X < 0.3, 0.008, -0.0), np.tanh(X)], (720, 480)),
        (UNSORTED, [np.full(UNSORTED.shape, 0.25)], (720, 480)),
        (UNSORTED, [UNSORTED**3, -UNSORTED], (500, 301)),
        ([0.0, 1.0], [[1, 2]], (720, 480)),
        (X, [SNAPSHOT, np.where(X < 0.5, 0.008, 0.003)], (720, 480)),
        (X[:400], [X[:400] * k for k in (1.0, -0.5, 2.0, 0.0)], (720, 480)),
    ],
    ids=["three-series", "constant", "unsorted-small", "two-points", "fv-snapshot", "four-series"],
)
def test_line_plot_points_equal_per_point_formatting(tmp_path, x, ys, size):
    path = tmp_path / "p.svg"
    line_plot(str(path), x, [(f"s{k}", y) for k, y in enumerate(ys)], title="t", ylabel="y", size=size)
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(y, dtype=float) for y in ys]
    points = re.findall(r'<polyline points="([^"]*)"', path.read_text())
    assert points == reference_points(x, ys, size)


def test_x_text_is_formatted_once_per_x_and_plot_width(tmp_path):
    # compare draws four plots over one grid and size: the x pixels are
    # formatted for the first only, and a new x, size or span formats them
    # again; every plot keeps the per-point bytes
    ys = [SNAPSHOT, np.where(X < 0.5, 0.008, 0.003)]
    line_plot(str(tmp_path / "warm.svg"), X[::-1], [("s", ys[0])])  # another x before the sequence
    misses = svgplot._x_template.cache_info().misses
    plots = [
        (X, (720, 480), 1), (X.copy(), (720, 480), 0), (X, (720, 300), 0),  # height alone keeps the x text
        (X, (700, 480), 1), (X, (700, 480), 0), (-X, (700, 480), 1), (X, (700, 480), 1), (2.0 * X, (700, 480), 1),
    ]
    for k, (x, size, miss) in enumerate(plots):
        path = tmp_path / f"p{k}.svg"
        line_plot(str(path), x, [(f"s{j}", y) for j, y in enumerate(ys)], size=size)
        assert svgplot._x_template.cache_info().misses == misses + miss, k
        misses += miss
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
    "x, series, size, message",
    [
        ([], [("s", [])], (720, 480), "non-empty"),
        ([0.0, 1.0], [], (720, 480), "no series"),
        ([0.0, 1.0], [("s", [1.0, 2.0, 3.0])], (720, 480), r"series 's' has shape \(3,\), x has shape \(2,\)"),
        ([0.0, 1.0], [("a", [1.0, 2.0]), ("b", [1.0, np.nan])], (720, 480), "series 'b' holds a non-finite value"),
        ([0.0, np.inf], [("s", [1.0, 2.0])], (720, 480), "x holds a non-finite value"),
        ([1e300, 1e300], [("s", [1.0, 2.0])], (720, 480), "the x range"),
        ([0.0, 1.0], [("s", [-1e308, 1e308])], (720, 480), "the y range"),
        # the margins take 90 px of the width and 90 px of the height
        ([0.0, 1.0], [("s", [1.0, 2.0])], (80, 80), r"size \(80, 80\) leaves no plot area"),
        ([0.0, 1.0], [("s", [1.0, 2.0])], (720, 90), r"size \(720, 90\) leaves no plot area"),
    ],
    ids=["empty", "no-series", "mismatched", "nan-y", "inf-x", "x-span-lost-to-rounding", "y-span-overflows",
         "no-plot-area", "no-plot-height"],
)
def test_line_plot_rejects_degenerate_input(tmp_path, x, series, size, message):
    path = tmp_path / "p.svg"
    with pytest.raises(ValueError, match=message):
        line_plot(str(path), x, series, size=size)
    assert not path.exists()


def test_line_plot_escapes_text(tmp_path):
    path = tmp_path / "p.svg"
    texts = {"title": "x & y", "xlabel": "<x>", "ylabel": "a&b<c", "label": "a<b & c"}
    line_plot(str(path), [0, 1], [(texts["label"], [1, 2])],
              title=texts["title"], xlabel=texts["xlabel"], ylabel=texts["ylabel"])
    doc = minidom.parse(str(path))  # raises on unescaped & or <
    read = {node.firstChild.data for node in doc.getElementsByTagName("text") if node.firstChild}
    assert set(texts.values()) <= read
