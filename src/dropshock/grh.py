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


# Largest RK4 step count integrate accepts.  Memory: four float64 output
# arrays of MAX_STEPS + 1 nodes (320 MB at the cap; the returned speed adds
# a fifth) plus one block of stage times, limit states and their float
# lists (~0.2 MB, measured with tracemalloc).
MAX_STEPS = 10**7
# RK4 steps whose limit states are evaluated in one call of each callable;
# larger blocks ran no faster and raised the benchmark's peak RSS (512:
# +0.8 MiB, 1024: +1.2 MiB)
_BLOCK = 256


class GrhMonitorError(RuntimeError):
    """An invariant (entropy interval or mass growth) failed during integration."""


def _nonpositive_mass(w: float, t: float) -> GrhMonitorError:
    return GrhMonitorError(f"point mass became nonpositive ({w:g}) at t={t:g}")


def _jump_coefficients(al, ul, ar, ur):
    """(a, b, c) from the limit states, as floats or elementwise on arrays."""
    return ar - al, ar * ur - al * ul, ar * ur * ur - al * ul * ul


@dataclass(frozen=True)
class LimitStates:
    """One-sided limit states as functions of time, continuous and bounded.

    Each callable takes a float time or a numpy array of times and returns
    a value of the same shape or a constant, which is broadcast.
    ``integrate`` calls each once per block of steps on an array of stage
    times, and at t = 0 with a float.
    """

    alpha_l: Callable
    u_l: Callable
    alpha_r: Callable
    u_r: Callable

    @classmethod
    def from_riemann(cls, data: RiemannData, params: ModelParams) -> "LimitStates":
        """Riemann limit states: constant densities, relaxing velocities."""
        return cls(
            alpha_l=lambda t: data.alpha_l,
            u_l=lambda t: relax_velocity(data.u_l, params, t),
            alpha_r=lambda t: data.alpha_r,
            u_r=lambda t: relax_velocity(data.u_r, params, t),
        )

    def coefficients(self, t):
        """(a, b, c) jump coefficients at time t."""
        return _jump_coefficients(
            float(self.alpha_l(t)), float(self.u_l(t)), float(self.alpha_r(t)), float(self.u_r(t))
        )


@dataclass(frozen=True)
class GrhState:
    """Point mass and its momentum."""

    mass: float
    momentum: float


def rhs(z: GrhState, t: float, states: LimitStates, params: ModelParams):
    """Time derivative (dmass, dmomentum) of the point-mass pair."""
    w, m = z.mass, z.momentum
    if w <= 0.0:
        raise ValueError(f"point mass must be positive to evaluate the rhs, got {w!r}")
    a, b, c = states.coefficients(t)
    s = m / w
    return a * s - b, b * s + params.mu * (params.ua * w - m) - c


@dataclass(frozen=True)
class GrhTrajectory:
    """Recorded integration nodes: times, mass, momentum, speed and position."""

    t: np.ndarray
    mass: np.ndarray
    momentum: np.ndarray
    speed: np.ndarray
    position: np.ndarray


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

    The steps run in blocks of ``_BLOCK``.  Each block's node, midpoint and
    end-stage times are accumulated as the steps advance t, each limit-state
    callable is called once on an array of all of them, and the RK4 stages
    are float arithmetic on the results.  Node times are therefore those of
    a step-by-step loop bit for bit, and so are mass, momentum, speed and
    position whenever the callables give the same bits for a float time as
    for that time in an array, as those of ``from_riemann`` do.
    """
    if not (math.isfinite(t_end) and math.isfinite(dt)):
        raise ValueError(f"t_end and dt must be finite, got t_end={t_end!r}, dt={dt!r}")
    for name, value in (("z0.mass", z0.mass), ("z0.momentum", z0.momentum), ("eps_seed", eps_seed)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
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

    al0, ul0, ar0, ur0 = (float(f(0.0)) for f in (states.alpha_l, states.u_l, states.alpha_r, states.u_r))
    if z0.mass == 0.0:
        if sigma0 is None:
            sigma0 = initial_shock_speed(al0, ul0, ar0, ur0)
        w = eps_seed if eps_seed is not None else 1e-10 * max(1.0, abs(ul0 - ur0) * max(al0, ar0))
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
    mu, ua = params.mu, params.ua

    for k0 in range(0, n_steps, _BLOCK):
        nb = min(_BLOCK, n_steps - k0)
        # node times of the block, accumulated as the steps advance t, then
        # the midpoint and end-stage times t + h/2 and t + h of each step
        nodes, hs = [t], []
        for k in range(k0, k0 + nb):
            h = min(dt, t_end - t)
            hs.append(h)
            t = t_end if k == n_steps - 1 else t + h
            nodes.append(t)
        starts, steps = np.array(nodes[:-1]), np.array(hs)
        times = np.concatenate((nodes, starts + 0.5 * steps, starts + steps))
        al, ul, ar, ur = (
            np.broadcast_to(np.asarray(f(times), dtype=float), times.shape)
            for f in (states.alpha_l, states.u_l, states.alpha_r, states.u_r)
        )
        a, b, c = _jump_coefficients(al, ul, ar, ur)
        # (a, b, c) of stage 1 at the nodes, of stages 2-3 at the midpoints
        # and of stage 4 at the ends, and the monitor's limit velocities
        parts = (slice(0, nb + 1), slice(nb + 1, 2 * nb + 1), slice(2 * nb + 1, None))
        (a1, a2, a4), (b1, b2, b4), (c1, c2, c4) = ([v[p].tolist() for p in parts] for v in (a, b, c))
        uln, urn = ul[: nb + 1].tolist(), ur[: nb + 1].tolist()
        out_w, out_m, out_x = [], [], []

        for j in range(nb):
            h = hs[j]
            if w <= 0.0:
                raise _nonpositive_mass(w, nodes[j])
            s1 = m / w
            k1w = a1[j] * s1 - b1[j]
            k1m = b1[j] * s1 + mu * (ua * w - m) - c1[j]
            w2 = w + 0.5 * h * k1w
            m2 = m + 0.5 * h * k1m
            if w2 <= 0.0:
                raise _nonpositive_mass(w2, nodes[j] + 0.5 * h)
            s2 = m2 / w2
            k2w = a2[j] * s2 - b2[j]
            k2m = b2[j] * s2 + mu * (ua * w2 - m2) - c2[j]
            w3 = w + 0.5 * h * k2w
            m3 = m + 0.5 * h * k2m
            if w3 <= 0.0:
                raise _nonpositive_mass(w3, nodes[j] + 0.5 * h)
            s3 = m3 / w3
            k3w = a2[j] * s3 - b2[j]
            k3m = b2[j] * s3 + mu * (ua * w3 - m3) - c2[j]
            w4 = w + h * k3w
            m4 = m + h * k3m
            if w4 <= 0.0:
                raise _nonpositive_mass(w4, nodes[j] + h)
            s4 = m4 / w4
            k4w = a4[j] * s4 - b4[j]
            k4m = b4[j] * s4 + mu * (ua * w4 - m4) - c4[j]
            w_new = w + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
            m_new = m + (h / 6.0) * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
            x_new = x + (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
            t_new = nodes[j + 1]

            if w_new < w - 1e-13 * max(1.0, w):
                raise GrhMonitorError(
                    f"point mass decreased from {w:.12g} to {w_new:.12g} at step {k0 + j + 1} "
                    f"(t={t_new:g}); inputs are inadmissible or dt is too large"
                )
            ul_new, ur_new = uln[j + 1], urn[j + 1]
            s_new = m_new / w_new if w_new > 0.0 else math.nan
            tol = 1e-9 * max(1.0, abs(ul_new), abs(ur_new))
            if not (ur_new - tol <= s_new <= ul_new + tol):
                raise GrhMonitorError(
                    f"entropy monitor: speed {s_new:.12g} left the interval "
                    f"({ur_new:.12g}, {ul_new:.12g}) at step {k0 + j + 1} (t={t_new:g})"
                )
            w, m, x = w_new, m_new, x_new
            out_w.append(w)
            out_m.append(m)
            out_x.append(x)

        ts[k0 + 1 : k0 + nb + 1] = nodes[1:]
        ws[k0 + 1 : k0 + nb + 1] = out_w
        ms[k0 + 1 : k0 + nb + 1] = out_m
        xs[k0 + 1 : k0 + nb + 1] = out_x

    return GrhTrajectory(t=ts, mass=ws, momentum=ms, speed=ms / ws, position=xs)
