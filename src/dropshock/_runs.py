"""Text of float columns, formatted once per run of equal values.

Riemann solutions are piecewise constant and an FV snapshot repeats its
far-field cells, so a column's values come in long runs.  Formatting the
first value of each run and repeating its text gives the text of
formatting every value.  Runs are keyed on the bit pattern, so 0.0 and
-0.0 (and NaN payloads) stay apart.  The CSV writer and the SVG plots share
this one formatter.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def run_starts(values: np.ndarray) -> np.ndarray:
    """The first index of each run of equal bit patterns of a contiguous float64 array."""
    bits = values.view(np.int64)
    return np.flatnonzero(np.r_[len(bits) > 0, bits[1:] != bits[:-1]])


def run_text(values, starts: Optional[np.ndarray] = None, fmt: str = "%.17g") -> np.ndarray:
    """The ``fmt`` text of each value as an object array, formatted once per run of equal bits.

    ``fmt`` formats one float and must not write a comma.  ``starts``, when
    given, is ``run_starts(values)``.
    """
    values = np.ascontiguousarray(values, dtype=float)
    if len(values) == 0:
        return np.empty(0, dtype=object)
    if starts is None:
        starts = run_starts(values)
    texts = (",".join([fmt] * len(starts)) % tuple(values[starts].tolist())).split(",")
    return np.repeat(np.array(texts, dtype=object), np.diff(starts, append=len(values)))
