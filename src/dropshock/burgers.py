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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import BlowupError, ModelParams, SmoothProfile, decay_integral

__all__ = [
    "BlowupReport",
    "blowup",
    "blowup_time_for_slope",
    "smooth_fields",
]


@dataclass(frozen=True)
class BlowupReport:
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


def _slope_time_or_inf(slope: float, mu: float) -> float:
    return float(blowup_time_for_slope(slope, mu)) if slope < -mu else math.inf


def _golden_refine(profile: SmoothProfile, mu: float, a: float, b: float, iters: int = 90):
    """Golden-section minimization of the per-foot blowup time over [a, b].

    The objective is +inf where the slope condition fails; it diverges
    continuously toward the boundary of the qualifying set, so the search
    stays well behaved around an interior minimum.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def f(x: float) -> float:
        return _slope_time_or_inf(float(profile.u0_prime(x)), mu)

    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_t = (c, fc) if fc <= fd else (d, fd)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        x, t = (c, fc) if fc <= fd else (d, fd)
        if t < best_t:
            best_x, best_t = x, t
    return best_x, best_t


def blowup(profile: SmoothProfile, params: ModelParams) -> BlowupReport:
    """Scan u0' over the profile samples for the loss-of-regularity condition.

    A smooth solution breaks down iff some slope drops below -mu; the
    report carries the earliest breakdown time and its foot point,
    refined by a golden-section search around the discrete argmin.
    """
    x = profile.samples()
    slopes = np.asarray(profile.u0_prime(x), dtype=float)
    mu = params.mu
    qualifying = slopes < -mu
    if not np.any(qualifying):
        return BlowupReport(blows_up=False)

    times = np.full_like(slopes, np.inf)
    times[qualifying] = blowup_time_for_slope(slopes[qualifying], mu)
    i = int(np.argmin(times))
    lo = x[max(i - 1, 0)]
    hi = x[min(i + 1, len(x) - 1)]
    x_star, t_star = _golden_refine(profile, mu, float(lo), float(hi))
    if times[i] < t_star:
        x_star, t_star = float(x[i]), float(times[i])
    return BlowupReport(blows_up=True, t_star=t_star, x0_star=x_star)


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
