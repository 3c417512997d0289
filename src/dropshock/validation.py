"""Oracles and comparison harness.

Independent checks for the closed-form machinery: a brute-force
characteristic-crossing search (the reference for the blowup predictor),
distributional-identity residuals evaluated by quadrature (the reference
for the exact wave solutions), and L1/position/mass error reports
comparing finite-volume output against the exact solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import ModelParams, RiemannData, SmoothProfile, characteristic_position
from .droplet import solve
from .fv import FieldState, Grid1D, advance, reconstruct_velocity, shock_mass

__all__ = [
    "ErrorReport",
    "BumpTestFunction",
    "first_crossing_time",
    "weak_residual",
    "sample_exact",
    "compare",
    "convergence_study",
    "vacuum_extent",
]


def first_crossing_time(
    profile: SmoothProfile,
    params: ModelParams,
    t_max: float,
    n_feet: int = 2001,
) -> Optional[float]:
    """Earliest time two adjacent characteristics cross, or None.

    Brute force over ``n_feet`` equally spaced foot points: for each
    adjacent pair the gap between their characteristic positions is
    monotone, so the crossing time is found by bisection.  This is the
    independent reference the blowup predictor is tested against.
    """
    if n_feet < 3:
        raise ValueError("n_feet must be at least 3")
    feet = np.linspace(profile.domain[0], profile.domain[1], n_feet)
    x1, x2 = feet[:-1], feet[1:]
    v1 = np.asarray(profile.u0(x1), dtype=float)
    v2 = np.asarray(profile.u0(x2), dtype=float)

    def gap(s):
        return characteristic_position(x2, v2, params, s) - characteristic_position(
            x1, v1, params, s
        )

    crossing = gap(t_max) < 0.0
    if not np.any(crossing):
        return None
    x1c, v1c, x2c, v2c = x1[crossing], v1[crossing], x2[crossing], v2[crossing]

    lo = np.zeros(x1c.shape)
    hi = np.full(x1c.shape, float(t_max))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        g = characteristic_position(x2c, v2c, params, mid) - characteristic_position(
            x1c, v1c, params, mid
        )
        still_open = g > 0.0
        lo = np.where(still_open, mid, lo)
        hi = np.where(still_open, hi, mid)
    return float(np.min(0.5 * (lo + hi)))


def _bump(s: np.ndarray) -> np.ndarray:
    inside = np.abs(s) < 1.0
    safe = np.where(inside, s, 0.0)
    out = np.where(inside, np.exp(-1.0 / (1.0 - safe * safe)), 0.0)
    return out


def _bump_prime(s: np.ndarray) -> np.ndarray:
    inside = np.abs(s) < 1.0
    safe = np.where(inside, s, 0.0)
    one_m = 1.0 - safe * safe
    out = np.where(inside, np.exp(-1.0 / one_m) * (-2.0 * safe) / (one_m * one_m), 0.0)
    return out


@dataclass(frozen=True)
class BumpTestFunction:
    """Smooth compactly supported psi(x,t): bump(x) * bump(t) * polynomial.

    The polynomial is a sum of coef * x**px * t**pt terms; partial
    derivatives are analytic so quadrature errors are purely from the
    integration rule.
    """

    x_center: float
    x_halfwidth: float
    t_center: float
    t_halfwidth: float
    poly: Tuple[Tuple[float, int, int], ...] = ((1.0, 0, 0),)

    @property
    def support_x(self) -> Tuple[float, float]:
        return self.x_center - self.x_halfwidth, self.x_center + self.x_halfwidth

    @property
    def support_t(self) -> Tuple[float, float]:
        return self.t_center - self.t_halfwidth, self.t_center + self.t_halfwidth

    def _parts(self, x, t):
        sx = (np.asarray(x, dtype=float) - self.x_center) / self.x_halfwidth
        st = (np.asarray(t, dtype=float) - self.t_center) / self.t_halfwidth
        return sx, st

    def _poly(self, x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        p = np.zeros(np.broadcast(x, t).shape)
        px_sum = np.zeros_like(p)
        pt_sum = np.zeros_like(p)
        for c, ix, it in self.poly:
            p = p + c * x**ix * t**it
            if ix > 0:
                px_sum = px_sum + c * ix * x ** (ix - 1) * t**it
            if it > 0:
                pt_sum = pt_sum + c * it * x**ix * t ** (it - 1)
        return p, px_sum, pt_sum

    def value(self, x, t):
        sx, st = self._parts(x, t)
        p, _, _ = self._poly(x, t)
        return _bump(sx) * _bump(st) * p

    def dx(self, x, t):
        sx, st = self._parts(x, t)
        p, px, _ = self._poly(x, t)
        bt = _bump(st)
        return (_bump_prime(sx) / self.x_halfwidth * p + _bump(sx) * px) * bt

    def dt(self, x, t):
        sx, st = self._parts(x, t)
        p, _, pt = self._poly(x, t)
        bx = _bump(sx)
        return (_bump_prime(st) / self.t_halfwidth * p + _bump(st) * pt) * bx


def _simpson_weights(n: int) -> np.ndarray:
    if n % 2 != 0 or n < 2:
        raise ValueError("Simpson rule needs an even, positive interval count")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def _segments_at(solution, t: float, x_lo: float, x_hi: float):
    """Piecewise-constant (xa, xb, alpha, u) segments of the regular part.

    Between the wave bounds lies either nothing (a front) or a vacuum,
    whose zero density never contributes.
    """
    x1, x2 = solution.bounds(t)
    al, ul = solution.left_state(t)
    ar, ur = solution.right_state(t)
    return [(x_lo, float(x1), al, ul), (float(x2), x_hi, ar, ur)]


def weak_residual(
    solution,
    test_functions: Sequence[BumpTestFunction],
    quad_resolution: int = 400,
    x_span: Tuple[float, float] = (-1.0, 2.0),
    t_max: float = 2.0,
) -> np.ndarray:
    """Residuals of the two distributional balance identities.

    For each test function psi the mass identity

        <alpha, psi_t> + <alpha u, psi_x>
            + integral alpha0 psi(.,0) + omega0 psi(0,0)

    and the momentum identity

        <alpha u, psi_t> + <alpha u^2, psi_x> + mu <alpha (ua - u), psi>
            + integral alpha0 u0 psi(.,0) + sigma0 omega0 psi(0,0)

    must vanish; point masses pair with psi through a line integral along
    the shock curve.  Returns an array of shape (len(test_functions), 2).

    The space integral is split at the discontinuity curves for every
    time node, so composite Simpson keeps its full order; butting the
    support of psi against the quadrature box is rejected.
    """
    n = int(quad_resolution)
    if n % 2 == 1:
        n += 1
    x_lo, x_hi = x_span
    data: RiemannData = solution.data
    params: ModelParams = solution.params
    mu, ua = params.mu, params.ua

    for psi in test_functions:
        sx = psi.support_x
        st = psi.support_t
        if sx[0] <= x_lo or sx[1] >= x_hi:
            raise ValueError("test function support escapes the quadrature box in x")
        if st[1] >= t_max:
            raise ValueError("test function support escapes the quadrature box in t")

    t_nodes = np.linspace(0.0, t_max, n + 1)
    ht = t_max / n
    wt = _simpson_weights(n)
    wx = _simpson_weights(n)
    frac = np.arange(n + 1) / n

    # per time node, the segment bounds (piecewise constant fields in x)
    seg_rows = [_segments_at(solution, float(tk), x_lo, x_hi) for tk in t_nodes]
    n_seg = len(seg_rows[0])
    # the point mass rides the front; a contact's weight is omega0, so its
    # line terms add exactly zero unless the run starts from a point mass
    has_front = solution.kind != "vacuum"

    out = np.zeros((len(test_functions), 2))
    for p_idx, psi in enumerate(test_functions):
        r1 = 0.0
        r2 = 0.0
        for s_idx in range(n_seg):
            xa = np.array([row[s_idx][0] for row in seg_rows])
            xb = np.array([row[s_idx][1] for row in seg_rows])
            a_seg = np.array([row[s_idx][2] for row in seg_rows])
            u_seg = np.array([row[s_idx][3] for row in seg_rows])
            hx = (xb - xa) / n
            X = xa[:, None] + (xb - xa)[:, None] * frac[None, :]
            T = np.broadcast_to(t_nodes[:, None], X.shape)
            pt = psi.dt(X, T)
            px = psi.dx(X, T)
            pv = psi.value(X, T)
            g1 = a_seg[:, None] * (pt + u_seg[:, None] * px)
            g2 = a_seg[:, None] * (
                u_seg[:, None] * pt
                + (u_seg**2)[:, None] * px
                + mu * (ua - u_seg)[:, None] * pv
            )
            inner1 = hx * np.sum(wx[None, :] * g1, axis=1)
            inner2 = hx * np.sum(wx[None, :] * g2, axis=1)
            r1 += ht * np.sum(wt * inner1)
            r2 += ht * np.sum(wt * inner2)

        if has_front:
            w_line = np.asarray(solution.weight(t_nodes), dtype=float)
            s_line = np.asarray(solution.speed(t_nodes), dtype=float)
            xi_line = np.asarray(solution.position(t_nodes), dtype=float)
            pt = psi.dt(xi_line, t_nodes)
            px = psi.dx(xi_line, t_nodes)
            pv = psi.value(xi_line, t_nodes)
            r1 += ht * np.sum(wt * w_line * (pt + s_line * px))
            r2 += ht * np.sum(
                wt * w_line * (s_line * pt + s_line**2 * px + mu * (ua - s_line) * pv)
            )

        # initial-time terms, split at the jump
        for xa0, xb0, a0, u0 in ((x_lo, 0.0, data.alpha_l, data.u_l), (0.0, x_hi, data.alpha_r, data.u_r)):
            xs = np.linspace(xa0, xb0, n + 1)
            h0 = (xb0 - xa0) / n
            pv0 = psi.value(xs, np.zeros_like(xs))
            r1 += a0 * h0 * np.sum(wx * pv0)
            r2 += a0 * u0 * h0 * np.sum(wx * pv0)
        if has_front:
            p00 = float(psi.value(0.0, 0.0))
            s0 = float(solution.speed(0.0))
            r1 += data.omega0 * p00
            r2 += s0 * data.omega0 * p00

        out[p_idx, 0] = r1
        out[p_idx, 1] = r2
    return out


def sample_exact(solution, grid: Grid1D, t: float, lump_delta: bool = False) -> FieldState:
    """Exact regular fields sampled at the cell centers of ``grid``.

    With ``lump_delta`` the point mass (if any) is deposited into the cell
    containing it, as a finite-volume scheme would represent it.
    """
    x = grid.centers()
    alpha, u = solution.regular_fields(x, t)
    alpha = np.array(alpha, dtype=float)
    q = alpha * np.asarray(u, dtype=float)
    if lump_delta and solution.kind == "delta-shock":
        w = float(solution.weight(t))
        xi = float(solution.position(t))
        j = grid.cell_index(xi)
        alpha[j] += w / grid.dx
        q[j] += w * float(solution.speed(t)) / grid.dx
    return FieldState(grid=grid, alpha=alpha, q=q, time=float(t))


@dataclass(frozen=True)
class ErrorReport:
    """L1 and feature errors of a numerical state against an exact solution."""

    scenario: str
    n_cells: int
    t: float
    l1_u: float
    l1_alpha_regular: float
    shock_position_error: float
    excess_mass_rel_error: float

    CSV_HEADER = "scenario,n_cells,t,l1_u,l1_alpha,pos_err_cells,mass_rel_err"

    def csv_row(self) -> str:
        return ",".join(
            [
                self.scenario,
                str(self.n_cells),
                f"{self.t:.17g}",
                f"{self.l1_u:.17g}",
                f"{self.l1_alpha_regular:.17g}",
                f"{self.shock_position_error:.17g}",
                f"{self.excess_mass_rel_error:.17g}",
            ]
        )


def compare(
    numeric: FieldState,
    exact,
    exclusion_half_width: float = 0.05,
    label: str = "",
) -> ErrorReport:
    """Error report of a finite-volume state against an exact solution.

    L1 norms use the midpoint rule on the numeric grid.  For delta-shock
    solutions a window around the shock is excluded from both L1 norms
    (a pointwise norm against a point mass is meaningless there); the
    spike location is compared in cell-index units and the excess mass in
    the window is compared with the exact point mass.
    """
    grid = numeric.grid
    t = numeric.time
    x = grid.centers()
    dx = grid.dx
    alpha_ex, u_ex = exact.regular_fields(x, t)
    u_num = reconstruct_velocity(numeric, exact.params)
    keep = np.ones(x.shape, dtype=bool)
    pos_err = mass_err = 0.0
    if exact.kind == "delta-shock":
        xi = float(exact.position(t))
        if not grid.x_min < xi < grid.x_max:
            raise ValueError("shock location left the grid; domains do not match")
        keep = np.abs(x - xi) > exclusion_half_width
        pos_err = float(abs(int(np.argmax(numeric.alpha)) - grid.cell_index(xi)))
        w = float(exact.weight(t))
        excess = shock_mass(numeric, xi, exclusion_half_width, exact.data.alpha_l, exact.data.alpha_r)
        mass_err = abs(excess - w) / w if w > 0.0 else abs(excess)
    l1_u = float(np.sum(np.abs(u_num - u_ex)[keep]) * dx)
    l1_a = float(np.sum(np.abs(numeric.alpha - alpha_ex)[keep]) * dx)

    return ErrorReport(
        scenario=label,
        n_cells=grid.n_cells,
        t=t,
        l1_u=l1_u,
        l1_alpha_regular=l1_a,
        shock_position_error=pos_err,
        excess_mass_rel_error=mass_err,
    )


def convergence_study(
    data: RiemannData,
    params: ModelParams,
    t_end: float,
    n_cells_list: Sequence[int],
    domain: Tuple[float, float] = (-1.0, 2.0),
    cfl: float = 0.15,
    exclusion_half_width: float = 0.05,
    label: str = "",
) -> List[ErrorReport]:
    """Run the solver over a grid ladder and report errors in grid order."""
    exact = solve(data, params)
    reports = []
    for n in n_cells_list:
        grid = Grid1D(domain[0], domain[1], int(n))
        state = advance(FieldState.from_riemann(grid, data), params, t_end, cfl=cfl)
        reports.append(
            compare(state, exact, exclusion_half_width, label=f"{label}n{n}" if label else f"n{n}")
        )
    return reports


def vacuum_extent(state: FieldState, threshold: float) -> float:
    """x-extent of the longest contiguous run of cells with alpha below threshold."""
    below = state.alpha < threshold
    best = 0
    run = 0
    for flag in below:
        run = run + 1 if flag else 0
        best = max(best, run)
    return best * state.grid.dx
