"""Smooth solutions of the velocity equation with relaxation drag.

The scalar equation u_t + (u^2/2)_x = mu*(ua - u) is the first of the two
simpler problems the droplet system is solved through.  This module
carries its smooth-solution machinery: the gradient/volume-fraction
transport along characteristics and the finite-time blowup predictor.
Its Riemann solution is the velocity of the subsystem's droplet solution
(``droplet.DeltaShockSolution`` with ``DeltaVariant.SUBSYSTEM`` for a
shock, ``droplet.solve`` otherwise).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ._record import _Record
from .core import BlowupError, ModelParams, SmoothProfile, decay_integral

__all__ = [
    "BlowupReport",
    "blowup",
    "blowup_time_for_slope",
    "smooth_fields",
]


class BlowupReport(_Record):
    """Outcome of the gradient-blowup scan over a smooth profile."""

    blows_up: bool
    t_star: Optional[float] = None
    x0_star: Optional[float] = None


def blowup_time_for_slope(slope, mu: float):
    """First blowup time of the characteristic map for an initial slope < -mu.

    The free-frame Jacobian 1 + tau*slope vanishes at tau = -1/slope, that
    is at t = -log(1 + mu/slope)/mu, with the classical limit -1/slope at
    mu = 0.  ``slope`` may be a scalar or an array.
    """
    if not np.all(np.asarray(slope) < -mu):
        raise ValueError("blowup requires slope < -mu")
    return -1.0 / slope if mu == 0.0 else -np.log1p(mu / slope) / mu


# rescans between the neighbours of the last scan's steepest point, and their points
_REFINE_PASSES = 3
_REFINE_POINTS = 2001


def blowup(profile: SmoothProfile, params: ModelParams) -> BlowupReport:
    """Scan u0' over the profile samples for the loss-of-regularity condition.

    A smooth solution breaks down iff some slope drops below -mu.  The
    scan keeps the steepest slope over the samples and over repeated scans
    of evenly spaced points between the two neighbours of the last scan's
    steepest point, whether or not that point's slope is below -mu, and a
    NaN slope counts as +inf.  If the slope kept is below -mu, the report
    carries the earliest breakdown time and its foot.
    """
    mu = params.mu
    x = profile.samples()
    slope, x_star = math.inf, None
    for _ in range(1 + _REFINE_PASSES):
        slopes = np.broadcast_to(np.asarray(profile.u0_prime(x), dtype=float), x.shape)
        slopes = np.where(np.isnan(slopes), np.inf, slopes)
        i = int(np.argmin(slopes))
        if slopes[i] < slope:
            slope, x_star = float(slopes[i]), float(x[i])
        x = np.linspace(x[max(i - 1, 0)], x[min(i + 1, len(x) - 1)], _REFINE_POINTS)
    if not slope < -mu:
        return BlowupReport(blows_up=False)
    # the blowup time falls as the slope falls
    return BlowupReport(blows_up=True, t_star=float(blowup_time_for_slope(slope, mu)), x0_star=x_star)


def smooth_fields(x0: float, t: float, profile: SmoothProfile, params: ModelParams):
    """Gradient and volume fraction along the characteristic through x0.

    Returns (du/dx, alpha) at time t before blowup.  Both divide by the
    free-frame Jacobian dy/dy0 = 1 + tau*u0'(x0), tau = decay_integral(mu, t):
    alpha = alpha0/J and du/dx = exp(-mu*t)*u0'/J.  A Jacobian at or below
    1e-14 signals blowup.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    s = float(profile.u0_prime(x0))
    jac = 1.0 + decay_integral(params.mu, t) * s
    if jac <= 1e-14:
        raise BlowupError(f"characteristic from x0={x0:.6g} has blown up by t={t:.6g}")
    return math.exp(-params.mu * t) * s / jac, float(profile.alpha0(x0)) / jac
