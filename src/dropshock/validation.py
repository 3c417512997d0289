"""Oracles and comparison harness.

Independent checks for the closed-form machinery: a brute-force
characteristic-crossing search (the reference for the blowup predictor),
distributional-identity residuals evaluated by quadrature (the reference
for the exact wave solutions), and L1/position/mass error reports
comparing finite-volume output against the exact solutions.

The quadrature evaluates a solution once per time node: its regular part
becomes strips (x_a(t), x_b(t), alpha, u(t)) of constant state between
the discontinuity curves, its point mass a one-node strip on the shock
curve, and each test function is evaluated once per strip, on the time
rows of its support only.  A strip keeps x_a(t) and its width per row,
not its nodes: each block of rows forms x_a + width * j/n on just the
columns j that its rows' x-support can reach, found from the node
indices of x_c -/+ x_h, so no node array or mask spans a whole row.
Everywhere else bump(t) or bump(x), and with it psi, is exactly +-0, and
an extra column adds nothing.  The row sums still run over matrices of
the full height, so the residuals are bit for bit those of evaluating
psi on every node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import ModelParams, RiemannData, SmoothProfile, decay_integral
from .fv import FieldState, Grid1D, reconstruct_velocity, shock_mass

__all__ = [
    "ErrorReport",
    "BumpTestFunction",
    "first_crossing_time",
    "weak_residual",
    "sample_exact",
    "compare",
    "vacuum_extent",
]


MAX_FEET = 10**7  # largest n_feet accepted: a few float64 arrays per foot
_ROW_BLOCK = 32  # time rows per evaluation of psi in weak_residual: small temporaries
_ROUNDING = 1e-14  # relative bound, with a margin, on the rounding of a node and of its column


# an overflow either makes a u0 difference non-finite, which is rejected, or
# makes a gap +-inf through dv*tau, with the sign of the exact gap
@np.errstate(over="ignore")
def first_crossing_time(
    profile: SmoothProfile,
    params: ModelParams,
    t_max: float,
    n_feet: int = 2001,
) -> Optional[float]:
    """Earliest time two adjacent characteristics cross, or None.

    Brute force over ``n_feet`` equally spaced foot points: for each
    adjacent pair the gap between their characteristic positions is
    monotone, so the crossing time is found by bisection; a pair drops out
    as soon as it can no longer hold the earliest crossing.  This is the
    independent reference the blowup predictor is tested against.  A u0
    difference between adjacent feet that is not finite raises ValueError.
    """
    if n_feet < 3:
        raise ValueError("n_feet must be at least 3")
    if n_feet > MAX_FEET:
        raise ValueError(f"n_feet={n_feet} exceeds the limit of {MAX_FEET}")
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise ValueError(f"t_max must be finite and nonnegative, got {t_max!r}")
    feet = np.linspace(profile.domain[0], profile.domain[1], n_feet)
    x1, x2 = feet[:-1], feet[1:]
    v1 = np.asarray(profile.u0(x1), dtype=float)
    v2 = np.asarray(profile.u0(x2), dtype=float)
    dx, dv = x2 - x1, v2 - v1
    finite = np.isfinite(dv)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"u0 changes by {dv[i]} between the feet x={x1[i]:.6g} and x={x2[i]:.6g}")

    def gap(s):  # in the free frame, where the ua*s both positions share cancels exactly
        return dx + dv * decay_integral(params.mu, s)

    crossing = gap(t_max) < 0.0
    if not np.any(crossing):
        return None
    # gap reads these names at call time: bisect only the crossing pairs
    dx, dv = dx[crossing], dv[crossing]

    lo = np.zeros(dx.shape)
    hi = np.full(dx.shape, float(t_max))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        still_open = gap(mid) > 0.0
        lo = np.where(still_open, mid, lo)
        hi = np.where(still_open, hi, mid)
        # a pair whose lo exceeds another pair's hi ends with a larger
        # midpoint than that pair, so dropping it leaves the minimum as it is
        keep = lo <= hi[hi.argmin()]
        if not keep.all():
            dx, dv, lo, hi = dx[keep], dv[keep], lo[keep], hi[keep]
    return float(np.min(0.5 * (lo + hi)))


def _bump(s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """exp(-1/(1 - s^2)) on |s| < 1 and its derivative in s; both 0 outside."""
    inside = np.abs(s) < 1.0
    safe = np.where(inside, s, 0.0)
    one_m = 1.0 - safe * safe
    b = np.where(inside, np.exp(-1.0 / one_m), 0.0)
    return b, b * (-2.0 * safe) / (one_m * one_m)


def _monomial(c: float, x: np.ndarray, ix: int, t: np.ndarray, it: int):
    """c * x**ix * t**it, leaving out a zeroth power (exactly 1.0, so the bits stay)."""
    if ix:
        c = c * x**ix
    if it:
        c = c * t**it
    return c


@dataclass(frozen=True)
class BumpTestFunction:
    """Smooth compactly supported psi(x,t): bump(x) * bump(t) * polynomial.

    The polynomial is a sum of coef * x**px * t**pt terms; partial
    derivatives are analytic so quadrature errors are purely from the
    integration rule.  A half-width may be negative: the bump is even, so
    the support is |x - x_center| < |x_halfwidth| either way.
    """

    x_center: float
    x_halfwidth: float
    t_center: float
    t_halfwidth: float
    poly: Tuple[Tuple[float, int, int], ...] = ((1.0, 0, 0),)

    def __post_init__(self):
        for name in ("x_center", "x_halfwidth", "t_center", "t_halfwidth"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.x_halfwidth == 0.0 or self.t_halfwidth == 0.0:
            raise ValueError("half-widths must be nonzero")

    @property
    def support_x(self) -> Tuple[float, float]:
        h = abs(self.x_halfwidth)
        return self.x_center - h, self.x_center + h

    @property
    def support_t(self) -> Tuple[float, float]:
        h = abs(self.t_halfwidth)
        return self.t_center - h, self.t_center + h

    def value_and_partials(self, x, t):
        """(psi, psi_x, psi_t) at the broadcast of x and t; each bump is
        evaluated on its own argument's shape, the polynomial once."""
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        bx, bx_s = _bump((x - self.x_center) / self.x_halfwidth)
        bt, bt_s = _bump((t - self.t_center) / self.t_halfwidth)
        p = p_x = p_t = 0.0
        for c, ix, it in self.poly:
            p = p + _monomial(c, x, ix, t, it)
            if ix > 0:
                p_x = p_x + _monomial(c * ix, x, ix - 1, t, it)
            if it > 0:
                p_t = p_t + _monomial(c * it, x, ix, t, it - 1)
        return (
            bx * bt * p,
            (bx_s / self.x_halfwidth * p + bx * p_x) * bt,
            (bt_s / self.t_halfwidth * p + bt * p_t) * bx,
        )

    def value(self, x, t):
        return self.value_and_partials(x, t)[0]


def _simpson_weights(n: int) -> np.ndarray:
    if n % 2 != 0 or n < 2:
        raise ValueError("Simpson rule needs an even, positive interval count")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def _block_nodes(psi: BumpTestFunction, xa, width, frac, rows):
    """(cols, x): the columns of the rows ``rows`` whose nodes may lie in
    psi's x-support, and those nodes; None when none can.

    A row's nodes are xa + width * frac (for a point mass, width None: xa).
    The columns run between the node indices of x_c -/+ x_h, widened by a
    bound on the rounding of nodes and indices, which exceeds a tenth of a
    column only when the node spacing is below 1e-13 of the coordinates; a
    row whose width is not positive and finite takes every column.  Off its
    support psi and its partials are +-0, so a column too many changes no
    row sum.
    """
    xa = xa[rows]
    if width is None:
        return slice(0, 1), xa[:, None]
    width = width[rows]
    n = frac.size - 1
    lo = hi = math.nan
    if width.min() > 0.0:
        h = abs(psi.x_halfwidth)
        with np.errstate(over="ignore", invalid="ignore"):
            scale = n / width
            slack = _ROUNDING * (np.abs(xa) + (abs(psi.x_center) + h) + width) * scale
            lo = (((psi.x_center - h) - xa) * scale - slack).min()
            hi = (((psi.x_center + h) - xa) * scale + slack).max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        cols = slice(0, n + 1)
    else:
        cols = slice(max(math.floor(lo), 0), min(math.ceil(hi) + 1, n + 1))
        if cols.start >= cols.stop:
            return None
    return cols, xa[:, None] + width[:, None] * frac[cols]


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

    The integrals are split into strips at the discontinuity curves (see
    the module docstring), so composite Simpson keeps its full order;
    butting the support of psi against the quadrature box is rejected.
    """
    n = int(quad_resolution)
    if n % 2 == 1:
        n += 1
    x_lo, x_hi = x_span
    data: RiemannData = solution.data
    mu, ua = solution.params.mu, solution.params.ua

    for psi in test_functions:
        if psi.support_x[0] <= x_lo or psi.support_x[1] >= x_hi:
            raise ValueError("test function support escapes the quadrature box in x")
        if psi.support_t[1] >= t_max:
            raise ValueError("test function support escapes the quadrature box in t")

    w = _simpson_weights(n)
    t = np.linspace(0.0, t_max, n + 1)
    row_weight = t_max / n * w
    frac = np.arange(n + 1) / n

    x1, x2 = solution.bounds(t)
    strips = [
        (np.full(t.shape, float(x_lo)), x1, *solution.left_state(t)),
        (x2, np.full(t.shape, float(x_hi)), *solution.right_state(t)),
    ]
    # a piece: per time node the left node x_a and the width of its nodes
    # x_a + width * frac (None for a point mass, whose one node is x_a), their
    # weights, and per row the mass weight and the velocity (a contact's point
    # mass is omega0, so it adds exactly zero unless the run starts from one);
    # the initial data, split at the jump, are pieces at t = 0 alone
    pieces = [(xa, xb - xa, w, row_weight * (xb - xa) / n * alpha, u) for xa, xb, alpha, u in strips]
    initial = [
        (np.linspace(x_lo, 0.0, n + 1), w, data.alpha_l * (0.0 - x_lo) / n, data.u_l),
        (np.linspace(0.0, x_hi, n + 1), w, data.alpha_r * (x_hi - 0.0) / n, data.u_r),
    ]
    if solution.kind != "vacuum":
        one = np.ones(1)
        pieces.append((solution.position(t), None, one, row_weight * solution.weight(t), solution.speed(t)))
        initial.append((np.zeros(1), one, data.omega0, float(solution.speed(0.0))))

    out = np.zeros((len(test_functions), 2))
    # a BLAS row sum depends on the row's place in the matrix, so psi, psi_x
    # and psi_t fill the rows in use of full-height grids that are zero
    # elsewhere; a point mass uses their first column (a one-node row sums
    # exactly)
    grid = np.zeros((3, n + 1, n + 1))
    for r, psi in zip(out, test_functions):
        # bump(t), and with it psi, is exactly 0 off the rows k0:k1
        inside = np.flatnonzero(np.abs((t - psi.t_center) / psi.t_halfwidth) < 1.0)
        k0, k1 = (inside[0], inside[-1] + 1) if inside.size else (0, 0)
        for xa, width, wx, rho, u in pieces:
            f = grid[:, :, : wx.size]
            c0, c1 = wx.size, 0  # the columns written by some block
            for k in range(k0, k1, _ROW_BLOCK):
                rows = slice(k, min(k + _ROW_BLOCK, k1))
                nodes = _block_nodes(psi, xa, width, frac, rows)
                if nodes is None:
                    continue
                cols, x = nodes
                for f_k, g in zip(f, psi.value_and_partials(x, t[rows, None])):
                    f_k[rows, cols] = g
                c0, c1 = min(c0, cols.start), max(c1, cols.stop)
            v, v_x, v_t = (f_k @ wx for f_k in f)
            f[:, k0:k1, c0:c1] = 0.0
            r[0] += rho @ (v_t + u * v_x)
            r[1] += rho @ (u * v_t + u * u * v_x + mu * (ua - u) * v)
        for x_nodes, wx, mass, u in initial:
            v = psi.value(x_nodes, 0.0) @ wx
            r += mass * v, mass * u * v
    return out


def sample_exact(solution, grid: Grid1D, t: float, lump_delta: bool = False) -> FieldState:
    """Exact regular fields sampled at the cell centers of ``grid``.

    With ``lump_delta`` the point mass of a front (a delta shock or a
    contact; a vacuum has none) is deposited into the cell containing it,
    as a finite-volume scheme would represent it.  A contact with omega0 = 0
    adds zeros of the cell's own sign, so every cell keeps its bytes.
    """
    x = grid.centers()
    alpha, u = solution.regular_fields(x, t)
    alpha = np.array(alpha, dtype=float)
    q = alpha * np.asarray(u, dtype=float)
    if lump_delta and solution.kind != "vacuum":
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


@np.errstate(over="ignore", invalid="ignore")  # a metric past the float range is rejected at the end
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
    the window is compared with the exact point mass.  The spike is the
    largest excess over the two-state background; with no exact point mass
    (t = 0 without omega0) there is none, and its error reads 0.  An error
    past the float range (say, relative to a subnormal point mass) raises ValueError.
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
        w = float(exact.weight(t))
        if w > 0.0:
            # early on the spike is still below the alpha_l plateau
            background = np.where(x < xi, exact.data.alpha_l, exact.data.alpha_r)
            pos_err = float(abs(int(np.argmax(numeric.alpha - background)) - grid.cell_index(xi)))
        excess = shock_mass(numeric, xi, exclusion_half_width, exact.data.alpha_l, exact.data.alpha_r)
        mass_err = abs(excess - w) / w if w > 0.0 else abs(excess)
    errors = dict(
        l1_u=float(np.sum(np.abs(u_num - u_ex)[keep]) * dx),
        l1_alpha_regular=float(np.sum(np.abs(numeric.alpha - alpha_ex)[keep]) * dx),
        shock_position_error=pos_err,
        excess_mass_rel_error=mass_err,
    )
    if not all(map(math.isfinite, errors.values())):
        raise ValueError(f"the errors at t={t:g} leave the float range: {errors}")
    return ErrorReport(scenario=label, n_cells=grid.n_cells, t=t, **errors)


def vacuum_extent(state: FieldState, threshold: float) -> float:
    """x-extent of the longest contiguous run of cells with alpha below threshold."""
    below = np.concatenate(([False], state.alpha < threshold, [False]))
    edges = np.flatnonzero(below[1:] != below[:-1])  # run starts and ends, alternating
    return int(np.max(edges[1::2] - edges[::2], initial=0)) * state.grid.dx
