"""Exact Riemann solution for the velocity equation with relaxation drag.

The scalar equation u_t + (u^2/2)_x = mu*(ua - u) keeps the classical
Riemann wave structure (shock for a decreasing jump, rarefaction for an
increasing one) but the limit states, the shock speed and the fan edges
all relax exponentially toward the carrier velocity.  The module also
carries the smooth-solution machinery: the gradient/volume-fraction
transport along characteristics and the finite-time blowup predictor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import (
    BlowupError,
    ModelParams,
    RiemannData,
    SmoothProfile,
    characteristic_position,
    fan_velocity,
    relax_velocity,
)

__all__ = [
    "WaveKind",
    "BurgersWave",
    "BlowupReport",
    "blowup",
    "blowup_time_for_slope",
    "smooth_fields",
]


class WaveKind(Enum):
    SHOCK = "shock"
    RAREFACTION = "rarefaction"
    CONSTANT = "constant"


@dataclass(frozen=True)
class BurgersWave:
    """Exact solution of the velocity Riemann problem (alpha fields unused)."""

    data: RiemannData
    params: ModelParams

    @property
    def kind(self) -> WaveKind:
        if self.data.u_l > self.data.u_r:
            return WaveKind.SHOCK
        if self.data.u_l < self.data.u_r:
            return WaveKind.RAREFACTION
        return WaveKind.CONSTANT

    def _require(self, kind: WaveKind, op: str) -> None:
        if self.kind is not kind:
            raise ValueError(f"{op} is only defined for a {kind.value} wave, not {self.kind.value}")

    def left_state(self, t):
        """Left limit state u_l(t)."""
        return relax_velocity(self.data.u_l, self.params, t)

    def right_state(self, t):
        """Right limit state u_r(t)."""
        return relax_velocity(self.data.u_r, self.params, t)

    def shock_speed(self, t):
        """sigma(t) = (u_l(t) + u_r(t))/2, strictly between the limit states."""
        self._require(WaveKind.SHOCK, "shock_speed")
        mean0 = 0.5 * (self.data.u_l + self.data.u_r)
        return relax_velocity(mean0, self.params, t)

    def shock_position(self, t):
        """xi(t), the time integral of the shock speed, with xi(0) = 0."""
        self._require(WaveKind.SHOCK, "shock_position")
        mean0 = 0.5 * (self.data.u_l + self.data.u_r)
        return characteristic_position(0.0, mean0, self.params, t)

    def rarefaction_bounds(self, t):
        """Fan edges (X1(t), X2(t)): integrals of the left/right limit states."""
        self._require(WaveKind.RAREFACTION, "rarefaction_bounds")
        x1 = characteristic_position(0.0, self.data.u_l, self.params, t)
        x2 = characteristic_position(0.0, self.data.u_r, self.params, t)
        return x1, x2

    def fan_velocity(self, x, t):
        """Velocity inside the fan: ua + mu*(x - ua*t)/(exp(mu*t) - 1); x/t at mu = 0.

        t = 0 is a removable 0/0 singularity and is rejected.
        """
        self._require(WaveKind.RAREFACTION, "fan_velocity")
        if np.ndim(t) != 0:
            raise ValueError("fan_velocity expects a scalar time")
        return fan_velocity(x, float(t), self.params)

    def evaluate(self, x, t):
        """Pointwise velocity at time t (vectorized over x).

        Shock: u_l left of xi(t), sigma(t) on the curve, u_r right of it.
        Rarefaction: u_l / fan / u_r by region.  Constant: the relaxed
        initial velocity everywhere.  At t = 0 the measure-zero point
        x = 0 gets the mean of the two initial states.
        """
        if np.ndim(t) != 0:
            raise ValueError("evaluate expects a scalar time")
        t = float(t)
        if t < 0.0:
            raise ValueError("t must be nonnegative")
        xx = np.asarray(x, dtype=float)
        kind = self.kind
        if kind is WaveKind.CONSTANT:
            out = np.full_like(xx, relax_velocity(self.data.u_l, self.params, t))
        elif kind is WaveKind.SHOCK:
            xi = self.shock_position(t)
            out = np.where(xx < xi, self.left_state(t), self.right_state(t))
            out = np.where(xx == xi, self.shock_speed(t), out)
        else:
            if t == 0.0:
                out = np.where(xx < 0.0, self.data.u_l, self.data.u_r)
                out = np.where(xx == 0.0, 0.5 * (self.data.u_l + self.data.u_r), out)
            else:
                x1, x2 = self.rarefaction_bounds(t)
                out = np.asarray(self.fan_velocity(xx, t))
                out = np.where(xx < x1, self.left_state(t), out)
                out = np.where(xx > x2, self.right_state(t), out)
        return float(out) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class BlowupReport:
    """Outcome of the gradient-blowup scan over a smooth profile."""

    blows_up: bool
    t_star: Optional[float] = None
    x0_star: Optional[float] = None


def blowup_time_for_slope(slope: float, mu: float) -> float:
    """First blowup time of the characteristic map for an initial slope < -mu.

    -log(1 + mu/slope)/mu, with the classical limit -1/slope at mu = 0.
    """
    if mu == 0.0:
        if slope >= 0.0:
            raise ValueError("blowup requires a negative slope when mu = 0")
        return -1.0 / slope
    if slope >= -mu:
        raise ValueError("blowup requires slope < -mu")
    return -math.log1p(mu / slope) / mu


def _slope_time_or_inf(slope: float, mu: float) -> float:
    if (mu == 0.0 and slope < 0.0) or (mu > 0.0 and slope < -mu):
        return blowup_time_for_slope(slope, mu)
    return math.inf


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
    if mu == 0.0:
        times[qualifying] = -1.0 / slopes[qualifying]
    else:
        times[qualifying] = -np.log1p(mu / slopes[qualifying]) / mu
    i = int(np.argmin(times))
    lo = x[max(i - 1, 0)]
    hi = x[min(i + 1, len(x) - 1)]
    x_star, t_star = _golden_refine(profile, mu, float(lo), float(hi))
    if times[i] < t_star:
        x_star, t_star = float(x[i]), float(times[i])
    return BlowupReport(blows_up=True, t_star=t_star, x0_star=x_star)


def smooth_fields(x0: float, t: float, profile: SmoothProfile, params: ModelParams):
    """Gradient and volume fraction along the characteristic through x0.

    Returns (du/dx, alpha) at time t before blowup.  Both share the
    denominator mu + (1 - exp(-mu*t))*u0'(x0) (its mu -> 0 limit is
    1 + t*u0'); a denominator at or below 1e-14 signals blowup.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    s = float(profile.u0_prime(x0))
    a0 = float(profile.alpha0(x0))
    mu = params.mu
    if mu > 0.0:
        denom = mu + (-math.expm1(-mu * t)) * s
        if denom <= 1e-14:
            raise BlowupError(f"characteristic from x0={x0:.6g} has blown up by t={t:.6g}")
        u_x = mu * math.exp(-mu * t) * s / denom
        alpha = mu * a0 / denom
    else:
        denom = 1.0 + t * s
        if denom <= 1e-14:
            raise BlowupError(f"characteristic from x0={x0:.6g} has blown up by t={t:.6g}")
        u_x = s / denom
        alpha = a0 / denom
    return u_x, alpha
