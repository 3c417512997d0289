"""First-order finite-volume solver on a uniform 1-D grid.

Godunov splitting per step: an upwind kinetic transport flux for the
conserved pair (alpha, q = alpha*u), then the exact exponential update of
the drag source.  The flux is the first-order moment closure of free
monokinetic transport, which keeps alpha nonnegative and the
reconstructed velocity inside the convex hull of the data under CFL <= 1.

``advance`` returns, byte for byte, the state of stepping every cell with
the four-argument flux; it gets there with less work, as follows.

It steps only a window [lo, hi) of m cells.  Cells 0..lo hold the bits of
cell lo and cells hi-1..n-1 those of cell hi-1, and the outflow ghosts
copy the edge cells, so an edge cell whose inner neighbour equals it takes
the update of the whole uniform far field it stands for.  Before each step
the window grows by one cell, a copy of the edge cell, on a side whose
edge cell differs from its inner neighbour (a three-point scheme moves
information one cell per step).  The far field is filled from the edge
cells on return, and before the negative-density abort names its cell.

The window lives in one buffer s = [left ghost, alpha (m), right ghost,
q (m)], and the interface fluxes in one buffer fg = [f_mass (m + 1),
f_mom (m + 1)], which ``kinetic_flux(..., out=)`` fills.  So one
difference of fg, one multiply by dt/dx and one in-place subtract update
both fields: s[1:2m+2] -= (fg[1:2m+2] - fg[:2m+1])*dt/dx.  The middle
value of that difference, f_mom[0] - f_mass[m], lands on the right ghost,
which every flux that reads it rewrites first.  Growing the window moves
the blocks by a slice copy (on the left alpha moves by 1 and q by 2, on
the right q by 1).  Every buffer is allocated once per call.

When no cell is vacuum and every velocity has one strict sign,
``kinetic_flux`` gets the upwind states only and returns their physical
flux (alpha*u, alpha*u^2); the other side would add only zeros, so the
flux differences, and so the output, are those of the two-sided flux.

No ufunc call of a step takes a Python float, which numpy 2 converts on
every call: 0.0 and VACUUM_ALPHA are read-only 0-d float64 arrays, ua is
one per call, and dt/dx and the drag factor exp(-mu*dt) are written into
0-d arrays when dt changes.  They hold the floats' values, so every
operation gives the bits it gives with the floats.  Only the clip to the
velocity hull, a branch taken when rounding leaves the hull, keeps its
float bounds.  Single cells (ghosts, growth tests, extremes) are read and
written through memoryviews, as Python floats and ints, bit for bit.

A step reads three extremes: min and max of the velocity, which set dt
and choose the flux, and after the transport update min(alpha), which the
next step's vacuum test needs.  Each is read at x.argmin() or x.argmax(),
and its value is the numpy reduction's: argmin and argmax return the index
of the first NaN when there is one, so the extreme is NaN exactly when the
reduction's is, and +-inf extremes agree.  Only a tie of 0.0 and -0.0 may
come out with the other sign; every use of an extreme is a comparison, a
finiteness test or max(-u_lo, u_hi, 1e-300), where either zero loses to
1e-300, so no result depends on that sign.

After the drag a step takes one dot product alpha.q.  A NaN or inf among
them makes the IEEE sum non-finite, so a finite dot proves every value
finite; only a non-finite dot (a bad value, or finite data that overflow
it) takes max(alpha), min(q) and max(q) to decide the abort.  There is one
check per step, after the drag.  numpy's overflow and invalid warnings are
off for the whole of each ``advance`` call (one ``errstate`` per call): the
checks, not warnings, report a bad state.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .core import ModelParams, RiemannData

__all__ = [
    "VACUUM_ALPHA",
    "SolverAbort",
    "Grid1D",
    "FieldState",
    "kinetic_flux",
    "reconstruct_velocity",
    "source_step",
    "advance",
    "shock_mass",
]

# cells at or below this volume fraction are treated as vacuum: their
# velocity is reported as the carrier velocity ua and their momentum set
# to alpha*ua
VACUUM_ALPHA = 1e-12

# largest n_cells accepted: advance keeps a few float64 arrays per cell
MAX_CELLS = 10**7

# Largest step count advance takes, as grh.MAX_STEPS for integrate: a dt
# below the rounding of t (t + dt == t) would otherwise never end the loop
MAX_STEPS = 10**7


def _constant(value: float) -> np.ndarray:
    """A read-only 0-d float64 operand (see the module docstring)."""
    c = np.array(value, dtype=float)
    c.flags.writeable = False
    return c


_ZERO = _constant(0.0)
_VACUUM_ALPHA = _constant(VACUUM_ALPHA)


class SolverAbort(RuntimeError):
    """The time loop hit NaN/negative density or a CFL violation."""


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_cells, numbers.Integral):
            raise ValueError(f"n_cells must be an integer, got {self.n_cells!r}")
        if self.n_cells < 1:
            raise ValueError("n_cells must be positive")
        if self.n_cells > MAX_CELLS:
            raise ValueError(f"n_cells={self.n_cells} exceeds the limit of {MAX_CELLS}")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        # an infinite bound, a width that overflows or a cell width that underflows
        if not 0.0 < self.dx < math.inf:
            raise ValueError(
                f"[{self.x_min!r}, {self.x_max!r}] over {self.n_cells} cells gives dx={self.dx!r}, "
                "not a positive finite float"
            )

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx

    def cell_index(self, x: float) -> int:
        """Index of the cell containing x (clipped to the grid)."""
        j = int(math.floor((x - self.x_min) / self.dx))
        return min(max(j, 0), self.n_cells - 1)


@dataclass(frozen=True)
class FieldState:
    """Cell-averaged volume fraction and momentum at one time."""

    grid: Grid1D
    alpha: np.ndarray
    q: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.alpha.shape != (self.grid.n_cells,) or self.q.shape != (self.grid.n_cells,):
            raise ValueError("alpha and q must have one value per cell")

    @classmethod
    def from_riemann(cls, grid: Grid1D, data: RiemannData) -> "FieldState":
        """Cell averages of the two constant states; a point mass omega0 > 0 is rejected."""
        if data.omega0 > 0.0:
            raise ValueError(f"the FV state carries no point mass: omega0 must be 0, got {data.omega0!r}")
        x = grid.centers()
        alpha = np.where(x <= 0.0, data.alpha_l, data.alpha_r)
        u = np.where(x <= 0.0, data.u_l, data.u_r)
        return cls(grid=grid, alpha=alpha, q=alpha * u, time=0.0)

    def total_mass(self) -> float:
        return float(np.sum(self.alpha) * self.grid.dx)


def _velocity(alpha, q, ua, bounds, out, vac, any_vacuum=True):
    """out <- q/alpha, pinned to ua in vacuum cells and clipped to ``bounds``.

    A cell is vacuum unless alpha > VACUUM_ALPHA, so a NaN alpha is vacuum.
    With ``any_vacuum`` the vacuum mask is written to ``vac``; a caller that
    knows min(alpha) > VACUUM_ALPHA passes False and skips the masking.
    Returns (min, max) of ``out``, read at argmin/argmax (see the module
    docstring).
    """
    if any_vacuum:
        np.greater(alpha, _VACUUM_ALPHA, out=vac)
        np.divide(q, alpha, out=out, where=vac)
        np.logical_not(vac, out=vac)
        np.copyto(out, ua, where=vac)
    else:
        np.divide(q, alpha, out=out)
    lo, hi = float(out[out.argmin()]), float(out[out.argmax()])
    if bounds is not None and not (lo >= bounds[0] and hi <= bounds[1]):  # also taken on NaN
        np.clip(out, bounds[0], bounds[1], out=out)
        lo, hi = float(out[out.argmin()]), float(out[out.argmax()])
    return lo, hi


def reconstruct_velocity(state: FieldState, params: ModelParams, bounds=None) -> np.ndarray:
    """Cell velocities q/alpha, with vacuum cells pinned to the carrier velocity.

    ``bounds`` (lo, hi), when given, clips the result; the exact solution
    obeys the maximum principle so clipping only strips float noise.
    """
    if bounds is not None and not (len(bounds) == 2 and -math.inf < bounds[0] <= bounds[1] < math.inf):  # False on NaN
        raise ValueError(f"bounds must be two finite values lo <= hi, got {bounds!r}")
    n = state.grid.n_cells
    u = np.empty(n)
    _velocity(state.alpha, state.q, params.ua, bounds, u, np.empty(n, dtype=bool))
    return u


def kinetic_flux(alpha_l, u_l, alpha_r=None, u_r=None, out=None):
    """Upwind kinetic interface flux (f_mass, f_momentum).

    Left cells contribute their rightward-moving content, right cells
    their leftward-moving content; consistent with (alpha*u, alpha*u^2)
    for equal states and positivity-preserving under CFL <= 1.

    Called with one side only, it returns the physical flux (alpha*u,
    alpha*u^2) of those upwind states.  That is the four-argument flux
    whenever every density is positive and every velocity has one strict
    sign: the left states alone for u > 0, the right states alone for
    u < 0.  The other side then adds only zeros, which can flip the sign
    of a zero flux but not the flux differences ``advance`` applies.

    ``out``, a pair (f_mass, f_momentum) of interface-length float64
    arrays, receives the flux in either form and is returned; the values
    are those of the allocating call.  The four-argument form then still
    allocates one array, the right states' share.
    """
    f_mass, f_mom = (None, None) if out is None else out
    if alpha_r is None:
        f_mass = np.multiply(u_l, alpha_l, out=f_mass)
        return f_mass, np.multiply(f_mass, u_l, out=f_mom)
    fl = np.maximum(u_l, _ZERO, out=f_mom, dtype=float)
    fl *= alpha_l
    fr = np.minimum(u_r, _ZERO, dtype=float)
    fr *= alpha_r
    f_mass = np.add(fl, fr, out=f_mass)
    fl *= u_l
    fr *= u_r
    fl += fr
    return f_mass, fl


def _drag(q, alpha, ua, decay, q_eq=None) -> np.ndarray:
    """Exact drag relaxation in place: q <- q_eq + (q - q_eq)*decay, q_eq = alpha*ua.

    ``ua`` and ``decay`` are floats or 0-d arrays; ``q_eq`` is scratch for
    alpha*ua (allocated when None).
    """
    q_eq = np.multiply(alpha, ua, out=q_eq)
    q -= q_eq
    q *= decay
    q += q_eq
    return q


def source_step(state: FieldState, params: ModelParams, dt: float) -> FieldState:
    """Exact drag update over dt: q relaxes toward alpha*ua, alpha unchanged."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if params.mu == 0.0:
        return state
    q = np.array(state.q, dtype=float)
    return replace(state, q=_drag(q, state.alpha, params.ua, math.exp(-params.mu * dt)))


def _hull_bounds(state: FieldState, params: ModelParams, pad: float = 1e-9):
    """Hull of the data's velocities and ua, which drag relaxes them toward."""
    u = reconstruct_velocity(state, params)
    return min(float(np.min(u)), params.ua) - pad, max(float(np.max(u)), params.ua) + pad


def _window(a_bits: np.ndarray, q_bits: np.ndarray):
    """[lo, hi) such that cells 0..lo repeat the bits of cell lo and cells
    hi-1..n-1 those of cell hi-1; uniform data keep the whole grid."""
    n = len(a_bits)
    differs = (a_bits != a_bits[0]) | (q_bits != q_bits[0])
    if not differs.any():
        return 0, n
    differs_right = (a_bits != a_bits[-1]) | (q_bits != q_bits[-1])
    return int(differs.argmax()) - 1, n + 1 - int(differs_right[::-1].argmax())


def _nonfinite(a, q, a_lo) -> bool:
    """Whether any value of a or q is NaN or +-inf; ``a_lo`` is min(a).

    One NaN or inf makes its product, and so the IEEE sum of products,
    non-finite: a finite dot proves every value finite.  Finite data can
    overflow the dot, so only a non-finite dot looks at the extremes.
    """
    if math.isfinite(np.dot(a, q)):
        return False
    return not all(map(math.isfinite, (a_lo, float(a.max()), float(q.min()), float(q.max()))))


def _fill_far_field(alpha, q, lo, hi) -> None:
    """Copy the window's edge cells over the far field [0, lo) and [hi, n)."""
    for arr in (alpha, q):
        arr[:lo] = arr[lo]
        arr[hi:] = arr[hi - 1]


# once per call: an errstate per step would cost about what the dot saves
@np.errstate(over="ignore", invalid="ignore")
def advance(
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
    so the total mass changes by the net boundary flux.

    A run takes at most ``MAX_STEPS`` steps.  A ``fixed_dt`` that needs
    more, (t_end - time)/fixed_dt > MAX_STEPS, is rejected up front with
    ValueError; a run whose step count passes the cap (a dt so small that
    t + dt == t, say, from velocities near 1e100) raises SolverAbort.
    """
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end!r}")
    if not math.isfinite(state.time):  # a NaN time would take no step and pass every check
        raise ValueError(f"the state time must be finite, got {state.time!r}")
    if t_end < state.time:
        raise ValueError("t_end must not precede the state time")
    if fixed_dt is None and not 0.0 < cfl <= 1.0:
        raise ValueError("cfl must lie in (0, 1]")
    if fixed_dt is not None and not (fixed_dt > 0.0 and math.isfinite(fixed_dt)):
        raise ValueError(f"fixed_dt must be positive and finite, got {fixed_dt!r}")
    if fixed_dt is not None and (t_end - state.time) / fixed_dt > MAX_STEPS:  # inf too
        raise ValueError(
            f"(t_end - t)/fixed_dt = {(t_end - state.time) / fixed_dt:g} steps exceeds the limit of {MAX_STEPS}"
        )
    grid = state.grid
    n, dx = grid.n_cells, grid.dx
    alpha, q = np.array(state.alpha, dtype=float), np.array(state.q, dtype=float)
    a_lo = float(alpha.min())
    t = state.time
    b_lo, b_hi = bounds = _hull_bounds(state, params)
    mu = params.mu
    # 0-d float64 operands (see the module docstring); lam and decay are rewritten when dt changes
    ua, lam, decay = np.array(params.ua, dtype=float), np.empty(()), np.empty(())
    # the window [lo, hi) of m cells: cells 0..lo hold the bits of cell lo and
    # cells hi-1..n-1 those of cell hi-1, so the edge cells stand for the far field
    lo, hi = _window(alpha.view(np.int64), q.view(np.int64))
    m = hi - lo
    # s = [left ghost, alpha window, right ghost, q window] and fg = [f_mass, f_mom]
    # (m + 1 interfaces each) in buffers sized for the whole grid; u_ext = [ghost, u window, ghost]
    s, fg, d = np.empty(2 * n + 2), np.empty(2 * n + 2), np.empty(2 * n + 1)
    u_ext = np.empty(n + 2)
    vac = np.empty(n, dtype=bool)
    s[1 : m + 1], s[m + 2 : 2 * m + 2] = alpha[lo:hi], q[lo:hi]
    # single cells are read and written as Python floats and ints, bit for bit
    sv, sb, uv = memoryview(s), memoryview(s.view(np.int64)), memoryview(u_ext)
    moved = True
    dt_prev = None

    step, max_steps = 0, MAX_STEPS
    t_stop = t_end - 1e-14 * max(1.0, abs(t_end))
    while t < t_stop:
        step += 1
        if step > max_steps:
            raise SolverAbort(f"no end after {max_steps} steps (t={t:.6g} of t_end={t_end:.6g})")
        # a cell moves information one cell per step: grow the window on a
        # side whose edge cell differs from its inner neighbour, repeating the
        # edge cell; on the left alpha moves by 1 and q by 2, on the right q by 1
        if lo > 0 and (sb[1] != sb[2] or sb[m + 2] != sb[m + 3]):
            lo -= 1
            s[m + 4 : 2 * m + 4] = s[m + 2 : 2 * m + 2]
            sv[m + 3] = sv[m + 2]
            s[2 : m + 2] = s[1 : m + 1]
            m += 1
            moved = True
        if hi < n and (sb[m] != sb[m - 1] or sb[2 * m + 1] != sb[2 * m]):
            hi += 1
            s[m + 3 : 2 * m + 3] = s[m + 2 : 2 * m + 2]
            sv[2 * m + 3], sv[m + 1] = sv[2 * m + 2], sv[m]
            m += 1
            moved = True
        if moved:
            moved = False
            aw, qw, uw, dw, vw = s[1 : m + 1], s[m + 2 : 2 * m + 2], u_ext[1 : m + 1], d[:m], vac[:m]
            awv, uwv = memoryview(aw), memoryview(uw)
            a_left, u_left = s[: m + 1], u_ext[: m + 1]
            a_right, u_right = s[1 : m + 2], u_ext[1 : m + 2]
            flux = (fg[: m + 1], fg[m + 1 : 2 * m + 2])
            # one transport update of alpha and q; its middle value,
            # f_mom[0] - f_mass[m], lands on the right ghost, which every
            # flux that reads it rewrites first
            s_upd, f_upper, f_lower, d_upd = s[1 : 2 * m + 2], fg[1 : 2 * m + 2], fg[: 2 * m + 1], d[: 2 * m + 1]
        # a_lo is min(alpha) (NaN if any alpha is NaN), carried over from the checks below
        any_vacuum = not a_lo > VACUUM_ALPHA
        if any_vacuum:
            u_lo, u_hi = _velocity(aw, qw, ua, bounds, uw, vw)
            # zeroing q instead would leave q/alpha outside the velocity hull
            # once mass flows into the cell
            np.multiply(aw, ua, out=qw, where=vw)
        else:
            np.divide(qw, aw, out=uw)
            u_lo, u_hi = uwv[uw.argmin()], uwv[uw.argmax()]
            if not (u_lo >= b_lo and u_hi <= b_hi):  # also taken on NaN
                u_lo, u_hi = _velocity(aw, qw, ua, bounds, uw, vw, False)
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

        # with every density positive and every velocity of one strict sign,
        # the flux is the physical flux of the upwind side: refresh its ghost only
        if not any_vacuum and u_lo > 0.0:
            sv[0], uv[0] = sv[1], uv[1]
            kinetic_flux(a_left, u_left, out=flux)
        elif not any_vacuum and u_hi < 0.0:
            sv[m + 1], uv[m + 1] = sv[m], uv[m]
            kinetic_flux(a_right, u_right, out=flux)
        else:
            sv[0], sv[m + 1] = sv[1], sv[m]
            uv[0], uv[m + 1] = uv[1], uv[m]
            kinetic_flux(a_left, u_left, a_right, u_right, out=flux)
        if dt != dt_prev:
            dt_prev = dt
            lam[()] = dt / dx
            if mu > 0.0:
                decay[()] = math.exp(-mu * dt)
        s_upd -= np.multiply(np.subtract(f_upper, f_lower, out=d_upd), lam, out=d_upd)

        a_lo = awv[aw.argmin()]
        if a_lo < -1e-13:
            if _nonfinite(aw, qw, a_lo):  # a -inf or a bad q aborts as non-finite, not negative
                raise SolverAbort(f"non-finite state at step {step} (t={t + dt:.6g})")
            alpha[lo:hi], q[lo:hi] = aw, qw
            _fill_far_field(alpha, q, lo, hi)  # the message names the first such cell of the grid
            j = int(np.argmin(alpha))
            raise SolverAbort(
                f"negative volume fraction {alpha[j]:g} in cell {j} at step {step} (t={t + dt:.6g})"
            )
        if a_lo <= 0.0:
            np.maximum(aw, _ZERO, out=aw)

        if mu > 0.0:
            _drag(qw, aw, ua, decay, dw)
        # after the drag, so a step's own drag overflow is reported at that step
        if _nonfinite(aw, qw, a_lo):
            raise SolverAbort(f"non-finite state at step {step} (t={t + dt:.6g})")
        t = t_end if remaining <= dt * (1.0 + 1e-12) else t + dt

    alpha[lo:hi], q[lo:hi] = s[1 : m + 1], s[m + 2 : 2 * m + 2]
    _fill_far_field(alpha, q, lo, hi)
    return FieldState(grid=grid, alpha=alpha, q=q, time=t_end)


def shock_mass(
    state: FieldState,
    center: float,
    half_width: float,
    alpha_left: float,
    alpha_right: float,
) -> float:
    """Excess mass in [center-half_width, center+half_width] over the background.

    The background is alpha_left for cells left of the center and
    alpha_right to the right, so a pure two-state profile reports zero and
    a concentrated spike reports the mass attributable to the point mass.
    """
    if not (math.isfinite(center) and math.isfinite(half_width)):
        raise ValueError(f"center and half_width must be finite, got {center!r}, {half_width!r}")
    if half_width < 0.0:
        raise ValueError("half_width must be nonnegative")
    grid = state.grid
    if center - half_width < grid.x_min or center + half_width > grid.x_max:
        raise ValueError("window must lie inside the domain")
    x = grid.centers()
    sel = (x >= center - half_width) & (x <= center + half_width)
    background = np.where(x < center, alpha_left, alpha_right)
    return float(np.sum(state.alpha[sel] - background[sel]) * grid.dx)
