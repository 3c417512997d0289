"""Point-mass balance ODEs across a delta shock and their RK4 integration.

Across a delta shock the jump conditions become a pair of ODEs for the
point mass w and its momentum m = w*s (s the shock speed):

    dw/dt = a(t)*m/w - b(t)
    dm/dt = b(t)*m/w + mu*(ua*w - m) - c(t)

with a = alpha_r - alpha_l, b = alpha_r*u_r - alpha_l*u_l and
c = alpha_r*u_r^2 - alpha_l*u_l^2 built from the one-sided limit states.
The right-hand side is evaluated only in the RK4 stages of ``integrate``;
for Riemann limit states ``droplet.DeltaShockSolution`` is the closed-form
solution of the same ODEs.  The integrator handles the singular w(0) = 0 start by seeding a tiny
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
    "integrate",
]


# Largest RK4 step count integrate accepts.  Memory: four float64 output
# arrays of MAX_STEPS + 1 nodes (320 MB at the cap; the returned speed adds
# a fifth) plus one block of stage times, limit states and their float
# lists (~0.24 MB, measured with tracemalloc).
MAX_STEPS = 10**7
# RK4 steps whose limit states are evaluated in one call of each callable.
# A block holds 9 Python floats per step (6 new ones); traced block memory
# 256: 0.12 MB, 512: 0.24 MB, 1024: 0.48 MB.  512 ran the integrate-only
# timings 8-10% faster than 256, and 1024 only 3-5% faster again at twice
# the memory.
_BLOCK = 512


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


@dataclass(frozen=True)
class GrhState:
    """Point mass and its momentum."""

    mass: float
    momentum: float


@dataclass(frozen=True)
class GrhTrajectory:
    """Recorded integration nodes: times, mass, momentum, speed and position."""

    t: np.ndarray
    mass: np.ndarray
    momentum: np.ndarray
    speed: np.ndarray
    position: np.ndarray


# limit states near 1e300 overflow the jump coefficients, and the steps after
# a failed one may overflow: the monitors, not numpy's warnings, report it
@np.errstate(over="ignore", invalid="ignore")
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
    limit-state interval widened by 1e-9 * max(1, |u_l|, |u_r|), and the
    mass may fall by at most 1e-13 * max(1, w) in a step (an absolute
    floor, so a mass far below 1, such as the seed of a run with one side
    density zero, may drift down by rounding); a violation raises
    GrhMonitorError with the offending step, since along admissible Riemann
    states both properties are guaranteed and a failure means bad inputs
    or a too-coarse dt.  A stage mass w2, w3 or w4 <= 0 raises it too,
    before the division by it.  A step's starting mass needs no such check:
    it is positive at t = 0, and a new mass <= 0 or NaN gives a NaN speed,
    which the speed monitor rejects.

    The node times come first.  While h = dt, ``np.add.accumulate`` forms
    the running sum 0 + dt + dt + ... in the order a step-by-step loop adds
    it; the steps from the first with t_end - t < dt on (in practice at
    most the final one) take the loop's scalar rule h = min(dt, t_end - t),
    and the final step ends on t_end.  The trajectory ends at the first
    node equal to t_end, so no step has h = 0.

    The steps then run in blocks, and each limit-state callable is called
    once per block on an array of times.  The steps before the tail, short
    of the final step, run in blocks of ``_BLOCK``.  Their h = dt is a block
    constant, and a step's stage-4 time t + dt is the next node bit for
    bit, so the block's times are its nodes and midpoints, and the stage-4
    coefficients (a, b, c) are the next step's stage-1 floats.  Each tail
    step and the final step, whose node is forced to t_end, is a block of
    its own, with its own h, the stage-4 time t + h and the node.  The RK4
    stages are float arithmetic on these coefficients.  The monitors are
    checked after a block's steps, as array comparisons on the new masses
    and speeds against the bounds at the nodes that end the steps; the
    first step that fails raises the message a step-by-step loop would
    have, with the mass check before the speed check.  A stage-mass error
    in the block is raised only if no earlier step of it failed a monitor.
    Node times are therefore those of a step-by-step loop bit for bit, and
    so are mass, momentum, speed, position and abort messages whenever the
    callables give the same bits for a float time as for that time in an
    array, as those of ``from_riemann`` do.
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

    limits = (states.alpha_l, states.u_l, states.alpha_r, states.u_r)
    al0, ul0, ar0, ur0 = (float(f(0.0)) for f in limits)
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
    ts = np.full(n_steps + 1, dt)
    ts[0] = 0.0
    np.add.accumulate(ts, out=ts)
    # the sums increase, so the steps with t_end - t < dt are a suffix
    tail = n_steps
    while tail > 0 and t_end - ts[tail - 1] < dt:
        tail -= 1
    for k in range(tail, n_steps - 1):
        t = float(ts[k])
        ts[k + 1] = t + min(dt, t_end - t)
    ts[n_steps] = t_end
    # the trajectory ends at the first node on t_end, so no step has h = 0
    n_steps = tail + int(np.argmax(ts[tail:] == t_end))
    ts = ts[: n_steps + 1]
    ws = np.empty(n_steps + 1)
    ms = np.empty(n_steps + 1)
    xs = np.empty(n_steps + 1)
    x = 0.0
    ws[0], ms[0], xs[0] = w, m, x
    mu, ua = params.mu, params.ua
    # the steps before the tail and the final one have h = dt and end on the
    # next node; each remaining step is a block of its own
    n_main = min(tail, n_steps - 1)
    blocks = [(k0, min(_BLOCK, n_main - k0)) for k0 in range(0, n_main, _BLOCK)]
    blocks += [(k, 1) for k in range(n_main, n_steps)]

    for k0, nb in blocks:
        nodes = ts[k0 : k0 + nb + 1]
        starts = nodes[:-1]
        if k0 < n_main:
            # each step's stage-4 time t + dt is the next node
            h, grid = dt, nodes
        else:
            # the stage-1 and stage-4 times, then the node the monitor reads
            t = float(nodes[0])
            h = min(dt, t_end - t)
            grid = np.array([t, t + h, nodes[1]])
        h2, h6 = 0.5 * h, h / 6.0
        times = np.concatenate((grid, starts + h2))
        # each limit state on all of them; assignment broadcasts a constant
        lim = np.empty((4, times.size))
        for row, f in zip(lim, limits):
            row[...] = f(times)
        al, ul, ar, ur = lim
        a, b, c = _jump_coefficients(al, ul, ar, ur)
        # the monitor's speed bounds at the nodes that end the steps
        g = grid.size
        ul, ur = ul[g - nb : g], ur[g - nb : g]
        tol = 1e-9 * np.maximum(np.maximum(np.abs(ul), np.abs(ur)), 1.0)
        # (a, b, c) of stage 1 at the first nb + 1 grid times, of stage 4 at
        # the same lists shifted by one and of stages 2-3 at the midpoints
        at_grid = [v[: nb + 1].tolist() for v in (a, b, c)]
        per_step = zip(*at_grid, *(v[1:] for v in at_grid), *(v[g:].tolist() for v in (a, b, c)))
        out_w, out_m, out_x = [], [], []

        # w > 0 at a step whose predecessors pass the monitors: see the
        # docstring; a later step of a block that failed one may divide by
        # a zero mass
        held = None
        try:
            for a1, b1, c1, a4, b4, c4, a2, b2, c2 in per_step:
                s1 = m / w
                k1w = a1 * s1 - b1
                k1m = b1 * s1 + mu * (ua * w - m) - c1
                w2 = w + h2 * k1w
                m2 = m + h2 * k1m
                if w2 <= 0.0:
                    raise _nonpositive_mass(w2, float(starts[len(out_w)]) + h2)
                s2 = m2 / w2
                k2w = a2 * s2 - b2
                k2m = b2 * s2 + mu * (ua * w2 - m2) - c2
                w3 = w + h2 * k2w
                m3 = m + h2 * k2m
                if w3 <= 0.0:
                    raise _nonpositive_mass(w3, float(starts[len(out_w)]) + h2)
                s3 = m3 / w3
                k3w = a2 * s3 - b2
                k3m = b2 * s3 + mu * (ua * w3 - m3) - c2
                w4 = w + h * k3w
                m4 = m + h * k3m
                if w4 <= 0.0:
                    raise _nonpositive_mass(w4, float(starts[len(out_w)]) + h)
                s4 = m4 / w4
                k4w = a4 * s4 - b4
                k4m = b4 * s4 + mu * (ua * w4 - m4) - c4
                w = w + h6 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
                m = m + h6 * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
                x = x + h6 * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
                out_w.append(w)
                out_m.append(m)
                out_x.append(x)
        except (GrhMonitorError, ZeroDivisionError) as exc:
            held = exc  # an earlier step's monitor error comes first
        del at_grid, per_step  # the block's floats, before the next block makes its own

        j = len(out_w)  # the steps completed
        w_old, w_new, m_new = ws[k0 : k0 + j], ws[k0 + 1 : k0 + j + 1], ms[k0 + 1 : k0 + j + 1]
        w_new[...], m_new[...], xs[k0 + 1 : k0 + j + 1] = out_w, out_m, out_x
        # the steps' monitors as the loop would have checked them: the
        # comparisons are False on NaN, and a mass <= 0 gives a NaN speed;
        # garbage after a failed step may overflow, which Python floats allow
        dropped = w_new < w_old - 1e-13 * np.where(w_old > 1.0, w_old, 1.0)
        s_new = np.divide(m_new, w_new, out=np.full(j, math.nan), where=w_new > 0.0)
        failed = dropped | ~((ur[:j] - tol[:j] <= s_new) & (s_new <= ul[:j] + tol[:j]))
        if failed.any():
            i = int(failed.argmax())
            step, t_node = k0 + i + 1, float(nodes[i + 1])
            if dropped[i]:
                raise GrhMonitorError(
                    f"point mass decreased from {w_old[i]:.12g} to {w_new[i]:.12g} at step {step} "
                    f"(t={t_node:g}); inputs are inadmissible or dt is too large"
                )
            raise GrhMonitorError(
                f"entropy monitor: speed {s_new[i]:.12g} left the interval "
                f"({ur[i]:.12g}, {ul[i]:.12g}) at step {step} (t={t_node:g})"
            )
        if held is not None:
            raise held

    return GrhTrajectory(t=ts, mass=ws, momentum=ms, speed=ms / ws, position=xs)
