"""Shared fixtures-in-spirit: frozen oracle values and profile factories.

The frozen constants were computed with mpmath at 40 digits from the
closed-form expressions; several tests also recompute them with an
independent oracle (series, quadrature, or adaptive ODE integration) at
run time so the literals never drift from their definitions.
"""

import math
from typing import Optional

import numpy as np

import dropshock as ds
from dropshock import fv
from dropshock.core import ModelParams, decay_integral
from dropshock.droplet import initial_shock_speed
from dropshock.fv import VACUUM_ALPHA, FieldState, SolverAbort
from dropshock.grh import MAX_STEPS, GrhMonitorError, GrhState, GrhTrajectory, LimitStates
from dropshock.validation import BumpTestFunction, _bump, _simpson_weights

# decay_integral and relaxation values
PHI_1_1 = 0.6321205588285577          # (1 - e^-1)
PHI_02_1 = 0.9063462346100907         # (1 - e^-0.2)/0.2
RELAX_15 = 1.4093653765389909         # 1 + 0.5 e^-0.2
CHARPOS = -0.2943035529371539         # -1 + 0.2 + 0.8 (1 - e^-1)

# shock/rarefaction values for (u_l, u_r) = (1.0, 0.5) resp. (0.5, 1.0),
# mu = 1, ua = 0.2
LEFT1 = 0.49430355293715383           # 0.2 + 0.8 e^-1
SIG1 = 0.40233369264429325            # 0.2 + 0.55 e^-1
XI1 = 0.5476663073557068              # 0.2 + 0.55 (1 - e^-1)
X1_1 = 0.3896361676485673             # 0.2 + 0.3 (1 - e^-1)
X2_1 = 0.7056964470628462             # 0.2 + 0.8 (1 - e^-1)

# smooth-field transport for u0 = -2 tanh(x) at x0 = 0, mu = 1, t = 0.5
DENOM_05 = 0.21306131942526685
LN2 = 0.6931471805599453

# delta-shock closed forms for the fast-behind/slow-ahead data
# (0.008, 1.5 | 0.003, 0.5) with mu = 0.2, ua = 1
SIGBAR0 = 1.1202041028867287
OMEGA1_FULL = 0.004440171610175146
SIGMA1_FULL = 1.0984147956795147
XI1_FULL = 1.1089465360360706
OMEGA1_SUB = 0.004984904290355499
BOUND1 = 0.0027190387038302723

# the five test functions of acceptance criterion 9
CRITERION9_PSIS = [
    BumpTestFunction(0.5, 0.9, 0.8, 0.7),
    BumpTestFunction(0.3, 0.8, 0.3, 0.6, ((1.0, 1, 0),)),
    BumpTestFunction(0.7, 1.0, 0.5, 0.8, ((0.5, 0, 1), (1.0, 0, 0))),
    BumpTestFunction(0.2, 0.7, -0.1, 0.5),
    BumpTestFunction(0.9, 0.9, 0.9, 0.85, ((1.0, 2, 0),)),
]

PARAMS_02 = ds.ModelParams(0.2, 1.0)
DELTA_DATA = ds.RiemannData(0.008, 1.5, 0.003, 0.5)
VACUUM_DATA = ds.RiemannData(0.008, 0.5, 0.003, 1.5)


def velocity_solution(data, params):
    """The Riemann solution of the velocity equation u_t + (u^2/2)_x = mu*(ua - u):
    the subsystem delta shock for u_l > u_r, else the droplet solution; its
    velocity is the second component of each state and of ``regular_fields``."""
    if data.u_l > data.u_r:
        return ds.DeltaShockSolution(data, params, ds.DeltaVariant.SUBSYSTEM)
    return ds.solve(data, params)


def make_tanh_profile(amplitude, width=1.0, center=0.0, offset=0.0,
                      domain=(-4.0, 4.0), alpha0=0.01, sample_count=2001):
    return ds.SmoothProfile(
        u0=lambda x: offset + amplitude * np.tanh((np.asarray(x, float) - center) / width),
        u0_prime=lambda x: amplitude / width / np.cosh((np.asarray(x, float) - center) / width) ** 2,
        alpha0=lambda x: alpha0 + 0.0 * np.asarray(x, float),
        domain=domain,
        sample_count=sample_count,
    )


def make_cubic_profile(c1, c3, center=0.0, offset=0.0,
                       domain=(-2.0, 2.0), alpha0=0.01, sample_count=2001):
    return ds.SmoothProfile(
        u0=lambda x: offset + c1 * (np.asarray(x, float) - center) + c3 * (np.asarray(x, float) - center) ** 3,
        u0_prime=lambda x: c1 + 3.0 * c3 * (np.asarray(x, float) - center) ** 2,
        alpha0=lambda x: alpha0 + 0.0 * np.asarray(x, float),
        domain=domain,
        sample_count=sample_count,
    )


def random_admissible(rng):
    """Random Riemann data and parameters in the delta-shock regime."""
    alpha_l, alpha_r = rng.uniform(0.001, 0.05, size=2)
    u_l = rng.uniform(-1.0, 2.0)
    u_r = u_l - rng.uniform(0.2, 2.0)
    mu = 0.0 if rng.uniform() < 0.15 else rng.uniform(0.05, 4.0)
    ua = rng.uniform(-1.0, 2.0)
    return ds.RiemannData(alpha_l, u_l, alpha_r, u_r), ds.ModelParams(mu, ua)


def _finite(alpha, q) -> bool:
    # any NaN or +-inf shows in the extremes
    return all(map(math.isfinite, (alpha.min(), alpha.max(), q.min(), q.max())))


def _reference_velocity(alpha, q, ua, bounds, out, vac, any_vacuum=True):
    """``fv._velocity`` as it was, its extremes taken by numpy reductions."""
    if any_vacuum:
        np.greater(alpha, VACUUM_ALPHA, out=vac)
        np.divide(q, alpha, out=out, where=vac)
        np.logical_not(vac, out=vac)
        np.copyto(out, ua, where=vac)
    else:
        np.divide(q, alpha, out=out)
    lo, hi = float(out.min()), float(out.max())
    if bounds is not None and not (lo >= bounds[0] and hi <= bounds[1]):
        np.clip(out, bounds[0], bounds[1], out=out)
        lo, hi = float(out.min()), float(out.max())
    return lo, hi


# The split-step loop of ``fv.advance`` before it stepped in the free frame:
# transport of (alpha, q), then the exact drag.  It was the byte oracle
# before the free-frame step; the same scheme in exact arithmetic, it is
# kept as a second oracle that ``advance`` stays within a rounding bound of.
# It calls ``fv.kinetic_flux`` directly and has its own copies of the
# velocity, hull and drag helpers; its vacuum cells take momentum alpha*ua.
def reference_advance(
    state: FieldState,
    params: ModelParams,
    t_end: float,
    cfl: float = 0.15,
    fixed_dt: float = None,
) -> FieldState:
    """March the state to t_end with transport-then-source splitting.

    Each step uses dt = min(cfl*dx/max|u|, remaining time), or the given
    positive, finite ``fixed_dt`` (aborting if it violates CFL <= 1).
    Boundaries are outflow (ghost cells copy the adjacent interior cell),
    so the total mass changes exactly by the net boundary flux.
    """
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end!r}")
    if t_end < state.time:
        raise ValueError("t_end must not precede the state time")
    if fixed_dt is None and not 0.0 < cfl <= 1.0:
        raise ValueError("cfl must lie in (0, 1]")
    if fixed_dt is not None and not (fixed_dt > 0.0 and math.isfinite(fixed_dt)):
        raise ValueError(f"fixed_dt must be positive and finite, got {fixed_dt!r}")
    grid = state.grid
    n, dx = grid.n_cells, grid.dx
    # ghost-extended buffers: the interior is a view, each step refreshes
    # the two outflow ghosts (copies of the adjacent interior cells)
    a_ext = np.empty(n + 2)
    u_ext = np.empty(n + 2)
    alpha, u = a_ext[1:-1], u_ext[1:-1]
    alpha[:] = state.alpha
    q = np.array(state.q, dtype=float)
    diff = np.empty(n)
    vac = np.empty(n, dtype=bool)
    a_lo = float(alpha.min())
    t = state.time
    mu, ua = params.mu, params.ua
    # the hull of the data's velocities and ua, which drag relaxes them toward
    u_lo, u_hi = _reference_velocity(state.alpha, state.q, ua, None, np.empty(n), np.empty(n, dtype=bool))
    bounds = min(u_lo, ua) - 1e-9, max(u_hi, ua) + 1e-9

    step = 0
    while t < t_end - 1e-14 * max(1.0, abs(t_end)):
        step += 1
        # a_lo is min(alpha) (NaN if any alpha is NaN), carried over from the checks below
        any_vacuum = not a_lo > VACUUM_ALPHA
        u_lo, u_hi = _reference_velocity(alpha, q, ua, bounds, u, vac, any_vacuum)
        if any_vacuum:
            np.multiply(alpha, ua, out=q, where=vac)
        umax = max(-u_lo, u_hi, 1e-300)
        remaining = t_end - t
        if fixed_dt is not None:
            dt = min(fixed_dt, remaining)
            if dt * umax / dx > 1.0 + 1e-12:
                raise SolverAbort(
                    f"fixed dt={fixed_dt:g} violates CFL at step {step} "
                    f"(t={t:.6g}, max|u|={umax:g}, dx={dx:g})"
                )
        else:
            dt = min(cfl * dx / umax, remaining)

        a_ext[0], a_ext[-1] = alpha[0], alpha[-1]
        u_ext[0], u_ext[-1] = u[0], u[-1]
        f_mass, f_mom = fv.kinetic_flux(a_ext[:-1], u_ext[:-1], a_ext[1:], u_ext[1:])
        lam = dt / dx
        alpha -= np.multiply(np.subtract(f_mass[1:], f_mass[:-1], out=diff), lam, out=diff)
        q -= np.multiply(np.subtract(f_mom[1:], f_mom[:-1], out=diff), lam, out=diff)

        a_lo = float(alpha.min())
        if a_lo < -1e-13:
            if not _finite(alpha, q):
                raise SolverAbort(f"non-finite state at step {step} (t={t + dt:.6g})")
            j = int(np.argmin(alpha))
            raise SolverAbort(
                f"negative volume fraction {alpha[j]:g} in cell {j} at step {step} (t={t + dt:.6g})"
            )
        if a_lo <= 0.0:
            np.maximum(alpha, 0.0, out=alpha)

        if mu > 0.0:  # exact relaxation toward alpha*ua
            q_eq = np.multiply(alpha, ua, out=diff)
            q -= q_eq
            q *= math.exp(-mu * dt)
            q += q_eq
        if not _finite(alpha, q):
            raise SolverAbort(f"non-finite state at step {step} (t={t + dt:.6g})")
        t = t_end if remaining <= dt * (1.0 + 1e-12) else t + dt

    return FieldState(grid=grid, alpha=alpha, q=q, time=t_end)


# The full-grid time loop of ``fv.advance`` in the free frame of the drag,
# kept as the oracle its output must equal byte for byte, abort messages
# included.  It computes its own two-sided upwind flux and has its own
# velocity, hull and conversion steps, so it shares no code with ``advance``.
def reference_free_advance(
    state: FieldState,
    params: ModelParams,
    t_end: float,
    cfl: float = 0.15,
    fixed_dt: float = None,
) -> FieldState:
    """March (alpha, p) to t_end by free transport, p = alpha*v.

    Here v = (u - ua)/c and c = exp(-mu*(t - t0)), t0 the state's time:
    p = q - alpha*ua on entry and q = alpha*ua + c*p on return.  Each step
    advects with u = ua + c*v and carries v in the momentum flux.  A
    vacuum cell (alpha not above VACUUM_ALPHA) takes v = 0 and p = 0, and
    v is clipped to the hull of the data's u - ua and 0, widened by 1e-9,
    a NaN going to its lower bound.  A run that takes no step returns the
    state's own bytes.
    """
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end!r}")
    if t_end < state.time:
        raise ValueError("t_end must not precede the state time")
    if fixed_dt is None and not 0.0 < cfl <= 1.0:
        raise ValueError("cfl must lie in (0, 1]")
    if fixed_dt is not None and not (fixed_dt > 0.0 and math.isfinite(fixed_dt)):
        raise ValueError(f"fixed_dt must be positive and finite, got {fixed_dt!r}")
    grid = state.grid
    n, dx = grid.n_cells, grid.dx
    t = t0 = state.time
    t_stop = t_end - 1e-14 * max(1.0, abs(t_end))
    if not t < t_stop:
        alpha, q = np.array(state.alpha, dtype=float), np.array(state.q, dtype=float)
        return FieldState(grid=grid, alpha=alpha, q=q, time=t_end)
    mu, ua = params.mu, params.ua
    # the hull of v: the data's u - ua, and 0 for a vacuum cell; a NaN velocity leaves 0
    u_lo, u_hi = _reference_velocity(state.alpha, state.q, ua, None, np.empty(n), np.empty(n, dtype=bool))
    v_bounds = min(0.0, u_lo - ua) - 1e-9, max(0.0, u_hi - ua) + 1e-9
    # ghost-extended buffers: the interior is a view, each step refreshes
    # the two outflow ghosts (copies of the adjacent interior cells)
    a_ext, u_ext, v_ext = np.empty(n + 2), np.empty(n + 2), np.empty(n + 2)
    alpha, u, v = a_ext[1:-1], u_ext[1:-1], v_ext[1:-1]
    alpha[:] = state.alpha
    p = np.array(state.q, dtype=float) - alpha * ua

    step = 0
    while t < t_stop:
        step += 1
        vacuum = ~(alpha > VACUUM_ALPHA)
        v[:] = 0.0
        np.divide(p, alpha, out=v, where=~vacuum)
        p[vacuum] = 0.0
        if not (v.min() >= v_bounds[0] and v.max() <= v_bounds[1]):
            np.clip(v, v_bounds[0], v_bounds[1], out=v)
            v[np.isnan(v)] = v_bounds[0]
        c = math.exp(-mu * (t - t0))
        u[:] = ua + c * v
        umax = max(-float(u.min()), float(u.max()), 1e-300)
        remaining = t_end - t
        if fixed_dt is not None:
            dt = min(fixed_dt, remaining)
            if dt * umax / dx > 1.0 + 1e-12:
                raise SolverAbort(
                    f"fixed dt={fixed_dt:g} violates CFL at step {step} "
                    f"(t={t:.6g}, max|u|={umax:g}, dx={dx:g})"
                )
        else:
            dt = min(cfl * dx / umax, remaining)

        for ext in (a_ext, u_ext, v_ext):
            ext[0], ext[-1] = ext[1], ext[-2]
        # each interface takes the rightward content of its left cell and the leftward content of its right cell
        right_moving = np.maximum(u_ext[:-1], 0.0) * a_ext[:-1]
        left_moving = np.minimum(u_ext[1:], 0.0) * a_ext[1:]
        f_mass = right_moving + left_moving
        f_mom = right_moving * v_ext[:-1] + left_moving * v_ext[1:]
        alpha -= (f_mass[1:] - f_mass[:-1]) * (dt / dx)
        p -= (f_mom[1:] - f_mom[:-1]) * (dt / dx)

        a_lo = float(alpha.min())
        if a_lo < -1e-13:
            if not _finite(alpha, p):
                raise SolverAbort(f"non-finite state at step {step} (t={t + dt:.6g})")
            j = int(np.argmin(alpha))
            raise SolverAbort(
                f"negative volume fraction {alpha[j]:g} in cell {j} at step {step} (t={t + dt:.6g})"
            )
        if a_lo <= 0.0:
            np.maximum(alpha, 0.0, out=alpha)
        if not _finite(alpha, p):
            raise SolverAbort(f"non-finite state at step {step} (t={t + dt:.6g})")
        t = t_end if remaining <= dt * (1.0 + 1e-12) else t + dt

    q = alpha * ua + math.exp(-mu * (t - t0)) * p
    if not _finite(alpha, q):
        raise SolverAbort(f"non-finite state at step {step} (t={t:.6g})")
    return FieldState(grid=grid, alpha=alpha, q=q, time=t_end)


# The stage-by-stage RK4 loop of ``grh.integrate`` before it evaluated the
# limit states once per block of steps, kept as the oracle it must agree
# with bit for bit (a closed form gives the same bits for a float time as
# for that time in an array).
def _default_seed(states: LimitStates) -> float:
    du = float(states.u_l(0.0)) - float(states.u_r(0.0))
    amax = max(float(states.alpha_l(0.0)), float(states.alpha_r(0.0)))
    return 1e-10 * max(1.0, abs(du) * amax)


def _reference_rates(t: float, w: float, m: float, states: LimitStates, params: ModelParams):
    """(dmass, dmomentum, speed) of the point-mass pair (w, m) at time t."""
    if w <= 0.0:
        raise GrhMonitorError(f"point mass became nonpositive ({w:g}) at t={t:g}")
    al, ul, ar, ur = (float(f(t)) for f in (states.alpha_l, states.u_l, states.alpha_r, states.u_r))
    a, b, c = ar - al, ar * ur - al * ul, ar * ur * ur - al * ul * ul
    s = m / w
    return a * s - b, b * s + params.mu * (params.ua * w - m) - c, s


def reference_integrate(
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
        k1w, k1m, k1x = _reference_rates(t, w, m, states, params)
        k2w, k2m, k2x = _reference_rates(t + 0.5 * h, w + 0.5 * h * k1w, m + 0.5 * h * k1m, states, params)
        k3w, k3m, k3x = _reference_rates(t + 0.5 * h, w + 0.5 * h * k2w, m + 0.5 * h * k2m, states, params)
        k4w, k4m, k4x = _reference_rates(t + h, w + h * k3w, m + h * k3m, states, params)
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
        if t == t_end:  # the trajectory ends at the first node on t_end
            break

    ts, ws, ms, xs = ts[: k + 2], ws[: k + 2], ms[: k + 2], xs[: k + 2]
    return GrhTrajectory(t=ts, mass=ws, momentum=ms, speed=ms / ws, position=xs)


# ``regular_fields`` before one method on every solution chose the side
# states, kept as the oracle it must equal bit for bit.  It differs only at
# a NaN x, where the vacuum gave (0, NaN) and every solution now gives the
# right state.
def reference_front_fields(solution, x, t):
    """Side states of a delta shock or contact off its curve; on it the mean
    density and the front speed."""
    xx = np.asarray(x, dtype=float)
    xi = solution.position(t)
    al, ul = solution.left_state(t)
    ar, ur = solution.right_state(t)
    alpha = np.where(xx < xi, al, ar)
    u = np.where(xx < xi, ul, ur)
    alpha = np.where(xx == xi, 0.5 * (al + ar), alpha)
    u = np.where(xx == xi, solution.speed(t), u)
    return alpha, u


def reference_vacuum_fields(solution, x, t):
    """Side states of a vacuum outside [X1, X2] and (0, fan velocity) inside,
    the fan evaluated on every x; at t = 0 the jump gets (alpha_l, mean u)."""
    xx = np.asarray(x, dtype=float)
    al, ul = solution.left_state(t)
    ar, ur = solution.right_state(t)
    if t == 0.0:
        alpha = np.where(xx <= 0.0, al, ar)
        u = np.where(xx < 0.0, ul, ur)
        u = np.where(xx == 0.0, 0.5 * (ul + ur), u)
        return alpha, u
    x1, x2 = solution.bounds(t)
    alpha = np.where(xx < x1, al, np.where(xx > x2, ar, 0.0))
    with np.errstate(over="ignore", invalid="ignore"):  # the fan far outside [X1, X2] may overflow
        u = np.asarray(solution.fan_velocity(xx, t))
    u = np.where(xx < x1, ul, u)
    u = np.where(xx > x2, ur, u)
    return alpha, u


# ``first_crossing_time`` before its bisection dropped the pairs that can no
# longer hold the minimum, kept as the oracle it must equal bit for bit.
def reference_first_crossing_time(profile, params, t_max, n_feet=2001):
    """Earliest crossing of adjacent characteristics, bisecting every pair
    that crosses before t_max for all 80 steps; None if none crosses."""
    feet = np.linspace(profile.domain[0], profile.domain[1], n_feet)
    x1, x2 = feet[:-1], feet[1:]
    v1 = np.asarray(profile.u0(x1), dtype=float)
    v2 = np.asarray(profile.u0(x2), dtype=float)

    def gap(s):
        return (x2 - x1) + (v2 - v1) * decay_integral(params.mu, s)

    crossing = gap(t_max) < 0.0
    if not np.any(crossing):
        return None
    x1, v1, x2, v2 = x1[crossing], v1[crossing], x2[crossing], v2[crossing]
    lo = np.zeros(x1.shape)
    hi = np.full(x1.shape, float(t_max))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        still_open = gap(mid) > 0.0
        lo = np.where(still_open, mid, lo)
        hi = np.where(still_open, hi, mid)
    return float(np.min(0.5 * (lo + hi)))


# ``weak_residual`` and ``BumpTestFunction.value_and_partials`` before the
# quadrature evaluated psi only on the time rows and x columns of its support
# and left out zeroth powers, kept as the oracle they must equal bit for bit.
def _reference_value_and_partials(psi: BumpTestFunction, x, t):
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    bx, bx_s = _bump((x - psi.x_center) / psi.x_halfwidth)
    bt, bt_s = _bump((t - psi.t_center) / psi.t_halfwidth)
    p = p_x = p_t = 0.0
    for c, ix, it in psi.poly:
        p = p + c * x**ix * t**it
        if ix > 0:
            p_x = p_x + c * ix * x ** (ix - 1) * t**it
        if it > 0:
            p_t = p_t + c * it * x**ix * t ** (it - 1)
    return (
        bx * bt * p,
        (bx_s / psi.x_halfwidth * p + bx * p_x) * bt,
        (bt_s / psi.t_halfwidth * p + bt * p_t) * bx,
    )


def reference_weak_residual(solution, test_functions, quad_resolution=400, x_span=(-1.0, 2.0), t_max=2.0):
    """Residuals of the mass and momentum identities with psi evaluated on
    the full (n + 1) x (n + 1) node grid of every piece."""
    n = int(quad_resolution)
    if n % 2 == 1:
        n += 1
    x_lo, x_hi = x_span
    data = solution.data
    mu, ua = solution.params.mu, solution.params.ua

    t = np.linspace(0.0, t_max, n + 1)
    w = _simpson_weights(n)
    row_weight = t_max / n * w
    frac = np.arange(n + 1) / n

    x1, x2 = solution.bounds(t)
    strips = [
        (np.full(t.shape, float(x_lo)), x1, *solution.left_state(t)),
        (x2, np.full(t.shape, float(x_hi)), *solution.right_state(t)),
    ]
    pieces = [
        (xa[:, None] + (xb - xa)[:, None] * frac, w, row_weight * (xb - xa) / n * alpha, u)
        for xa, xb, alpha, u in strips
    ]
    initial = [
        (np.linspace(x_lo, 0.0, n + 1), w, data.alpha_l * (0.0 - x_lo) / n, data.u_l),
        (np.linspace(0.0, x_hi, n + 1), w, data.alpha_r * (x_hi - 0.0) / n, data.u_r),
    ]
    if solution.kind != "vacuum":
        one = np.ones(1)
        pieces.append((solution.position(t)[:, None], one, row_weight * solution.weight(t), solution.speed(t)))
        initial.append((np.zeros(1), one, data.omega0, float(solution.speed(0.0))))

    out = np.zeros((len(test_functions), 2))
    for r, psi in zip(out, test_functions):
        for x_nodes, wx, rho, u in pieces:
            v, v_x, v_t = (f @ wx for f in _reference_value_and_partials(psi, x_nodes, t[:, None]))
            r[0] += rho @ (v_t + u * v_x)
            r[1] += rho @ (u * v_t + u * u * v_x + mu * (ua - u) * v)
        for x_nodes, wx, mass, u in initial:
            v = _reference_value_and_partials(psi, x_nodes, 0.0)[0] @ wx
            r += mass * v, mass * u * v
    return out
