"""Shared fixtures-in-spirit: frozen oracle values and profile factories.

The frozen constants were computed with mpmath at 40 digits from the
closed-form expressions; several tests also recompute them with an
independent oracle (series, quadrature, or adaptive ODE integration) at
run time so the literals never drift from their definitions.
"""

import math

import numpy as np

import dropshock as ds
from dropshock import fv
from dropshock.core import ModelParams
from dropshock.fv import VACUUM_ALPHA, FieldState, SolverAbort, _drag, _hull_bounds, _velocity
from dropshock.validation import BumpTestFunction

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


# The full-grid time loop of ``fv.advance`` before it stepped only a window
# of cells, kept as the oracle its output must equal byte for byte.  It
# calls ``fv.kinetic_flux`` directly and shares the step helpers.
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
    bounds = _hull_bounds(state, params)
    mu, ua = params.mu, params.ua

    step = 0
    while t < t_end - 1e-14 * max(1.0, abs(t_end)):
        step += 1
        # a_lo is min(alpha) (NaN if any alpha is NaN), carried over from the checks below
        any_vacuum = not a_lo > VACUUM_ALPHA
        u_lo, u_hi = _velocity(alpha, q, ua, bounds, u, vac, any_vacuum)
        if any_vacuum:
            np.copyto(q, 0.0, where=vac)
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

        # any NaN or +-inf shows in the extremes
        a_lo, a_hi, q_lo, q_hi = float(alpha.min()), float(alpha.max()), float(q.min()), float(q.max())
        if not all(map(math.isfinite, (a_lo, a_hi, q_lo, q_hi))):
            raise SolverAbort(f"non-finite state at step {step} (t={t + dt:.6g})")
        if a_lo < -1e-13:
            j = int(np.argmin(alpha))
            raise SolverAbort(
                f"negative volume fraction {alpha[j]:g} in cell {j} at step {step} (t={t + dt:.6g})"
            )
        if a_lo <= 0.0:
            np.maximum(alpha, 0.0, out=alpha)

        if mu > 0.0:
            _drag(q, alpha, ua, math.exp(-mu * dt), diff)
        t = t_end if remaining <= dt * (1.0 + 1e-12) else t + dt

    return FieldState(grid=grid, alpha=alpha, q=q, time=t_end)
