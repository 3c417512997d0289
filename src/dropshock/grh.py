"""Point-mass balance ODEs across a delta shock and their RK4 integration.

Across a delta shock the jump conditions become a pair of ODEs for the
point mass w and its momentum m = w*s (s the shock speed):

    dw/dt = a(t)*m/w - b(t)
    dm/dt = b(t)*m/w + mu*(ua*w - m) - c(t)

with a = alpha_r - alpha_l, b = alpha_r*u_r - alpha_l*u_l and
c = alpha_r*u_r^2 - alpha_l*u_l^2 built from the one-sided limit states.
The integrator handles the singular w(0) = 0 start by seeding a tiny
mass moving at the entropy-admissible initial speed, mirroring the
vanishing-mass regularization that underlies the existence argument,
and aborts if the monitored admissibility conditions (mass growth and
speed between the limit states) ever fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import ModelParams, RiemannData, relax_velocity
from .droplet import initial_shock_speed

__all__ = [
    "GrhMonitorError",
    "GrhState",
    "GrhTrajectory",
    "LimitStates",
    "rhs",
    "integrate",
]


MAX_STEPS = 10**7  # largest RK4 step count integrate accepts: four float64 arrays per step


class GrhMonitorError(RuntimeError):
    """An invariant (entropy interval or mass growth) failed during integration."""


@dataclass(frozen=True)
class LimitStates:
    """One-sided limit states as functions of time, continuous and bounded."""

    alpha_l: Callable
    u_l: Callable
    alpha_r: Callable
    u_r: Callable

    @classmethod
    def from_riemann(cls, data: RiemannData, params: ModelParams) -> "LimitStates":
        """Riemann limit states: constant densities, relaxing velocities."""

        def const(value):
            def f(t):
                if isinstance(t, (float, int)):
                    return value
                return value + 0.0 * np.asarray(t, dtype=float)

            return f

        return cls(
            alpha_l=const(data.alpha_l),
            u_l=lambda t: relax_velocity(data.u_l, params, t),
            alpha_r=const(data.alpha_r),
            u_r=lambda t: relax_velocity(data.u_r, params, t),
        )

    def coefficients(self, t):
        """(a, b, c) jump coefficients at time t."""
        al = float(self.alpha_l(t))
        ar = float(self.alpha_r(t))
        ul = float(self.u_l(t))
        ur = float(self.u_r(t))
        return ar - al, ar * ur - al * ul, ar * ur * ur - al * ul * ul


@dataclass(frozen=True)
class GrhState:
    """Point mass and its momentum; the speed is momentum/mass for mass > 0."""

    mass: float
    momentum: float

    def speed(self) -> float:
        if self.mass <= 0.0:
            raise ValueError("speed is undefined for a nonpositive point mass")
        return self.momentum / self.mass


def _rates(t: float, w: float, m: float, states: LimitStates, params: ModelParams):
    """(dmass, dmomentum, speed) of the point-mass pair (w, m) at time t."""
    if w <= 0.0:
        raise GrhMonitorError(f"point mass became nonpositive ({w:g}) at t={t:g}")
    a, b, c = states.coefficients(t)
    s = m / w
    return a * s - b, b * s + params.mu * (params.ua * w - m) - c, s


def rhs(z: GrhState, t: float, states: LimitStates, params: ModelParams):
    """Time derivative (dmass, dmomentum) of the point-mass pair."""
    if z.mass <= 0.0:
        raise ValueError(f"point mass must be positive to evaluate the rhs, got {z.mass!r}")
    dw, dm, _ = _rates(t, z.mass, z.momentum, states, params)
    return dw, dm


@dataclass(frozen=True)
class GrhTrajectory:
    """Recorded integration nodes: times, mass, momentum, speed and position."""

    t: np.ndarray
    mass: np.ndarray
    momentum: np.ndarray
    speed: np.ndarray
    position: np.ndarray


def _default_seed(states: LimitStates) -> float:
    du = float(states.u_l(0.0)) - float(states.u_r(0.0))
    amax = max(float(states.alpha_l(0.0)), float(states.alpha_r(0.0)))
    return 1e-10 * max(1.0, abs(du) * amax)


def integrate(
    z0: GrhState,
    sigma0: Optional[float],
    t_end: float,
    dt: float,
    states: LimitStates,
    params: ModelParams,
    eps_seed: Optional[float] = None,
) -> GrhTrajectory:
    """Fixed-step RK4 integration of the point-mass ODEs on [0, t_end].

    A zero initial mass is replaced by ``eps_seed`` (default
    1e-10 * max(1, |u_l - u_r| * max(alpha_l, alpha_r)) at t = 0) moving at
    ``sigma0``; when ``sigma0`` is None the entropy-admissible initial
    speed of the equal-jump quadratic is used.  The position is carried as
    a third state (d(position)/dt = speed) so it shares RK4 accuracy.

    Every accepted step is monitored: the speed must stay inside the
    limit-state interval and the mass must not decrease; a violation
    raises GrhMonitorError with the offending step, since along admissible
    Riemann states both properties are guaranteed and a failure means bad
    inputs or a too-coarse dt.
    """
    if not (math.isfinite(t_end) and math.isfinite(dt)):
        raise ValueError(f"t_end and dt must be finite, got t_end={t_end!r}, dt={dt!r}")
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if not t_end / dt <= MAX_STEPS:  # an infinite ratio (a subnormal dt) fails here too
        raise ValueError(f"t_end/dt = {t_end / dt:g} steps exceeds the limit of {MAX_STEPS}")
    if params.mu > 0.0 and dt > 0.1 / params.mu:
        raise ValueError(
            f"dt={dt:g} is too large to resolve the relaxation scale; need dt <= {0.1 / params.mu:g}"
        )
    if z0.mass < 0.0:
        raise ValueError("initial point mass must be nonnegative")

    ul0 = float(states.u_l(0.0))
    ur0 = float(states.u_r(0.0))
    if z0.mass == 0.0:
        if sigma0 is None:
            sigma0 = initial_shock_speed(
                float(states.alpha_l(0.0)), ul0, float(states.alpha_r(0.0)), ur0
            )
        w = eps_seed if eps_seed is not None else _default_seed(states)
        if w <= 0.0:
            raise ValueError("eps_seed must be positive")
        m = w * sigma0
    else:
        w, m = z0.mass, z0.momentum
        sigma0 = m / w
    tol0 = 1e-9 * max(1.0, abs(ul0), abs(ur0))
    if not (ur0 - tol0 <= sigma0 <= ul0 + tol0):
        raise ValueError(
            f"initial speed {sigma0:g} lies outside the limit-state interval "
            f"({ur0:g}, {ul0:g})"
        )

    n_steps = max(1, math.ceil(t_end / dt - 1e-12))
    ts = np.empty(n_steps + 1)
    ws = np.empty(n_steps + 1)
    ms = np.empty(n_steps + 1)
    xs = np.empty(n_steps + 1)
    t = 0.0
    x = 0.0
    ts[0], ws[0], ms[0], xs[0] = t, w, m, x

    for k in range(n_steps):
        h = min(dt, t_end - t)
        k1w, k1m, k1x = _rates(t, w, m, states, params)
        k2w, k2m, k2x = _rates(t + 0.5 * h, w + 0.5 * h * k1w, m + 0.5 * h * k1m, states, params)
        k3w, k3m, k3x = _rates(t + 0.5 * h, w + 0.5 * h * k2w, m + 0.5 * h * k2m, states, params)
        k4w, k4m, k4x = _rates(t + h, w + h * k3w, m + h * k3m, states, params)
        w_new = w + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        m_new = m + (h / 6.0) * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
        x_new = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        t_new = t_end if k == n_steps - 1 else t + h

        if w_new < w - 1e-13 * max(1.0, w):
            raise GrhMonitorError(
                f"point mass decreased from {w:.12g} to {w_new:.12g} at step {k + 1} "
                f"(t={t_new:g}); inputs are inadmissible or dt is too large"
            )
        ul = float(states.u_l(t_new))
        ur = float(states.u_r(t_new))
        s_new = m_new / w_new if w_new > 0.0 else math.nan
        tol = 1e-9 * max(1.0, abs(ul), abs(ur))
        if not (ur - tol <= s_new <= ul + tol):
            raise GrhMonitorError(
                f"entropy monitor: speed {s_new:.12g} left the interval "
                f"({ur:.12g}, {ul:.12g}) at step {k + 1} (t={t_new:g})"
            )
        t, w, m, x = t_new, w_new, m_new, x_new
        ts[k + 1], ws[k + 1], ms[k + 1], xs[k + 1] = t, w, m, x

    return GrhTrajectory(t=ts, mass=ws, momentum=ms, speed=ms / ws, position=xs)
