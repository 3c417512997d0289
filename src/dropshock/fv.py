"""First-order finite-volume solver on a uniform 1-D grid.

``advance`` steps the model in the free frame of the drag.  With
c = exp(-mu*(t - t0)), t0 the start of the call, v = (u - ua)/c and
p = alpha*v obey alpha_t + (alpha*u)_x = 0 and p_t + (p*u)_x = 0 with
u = ua + c*v: a step is transport alone, with no drag phase.  On entry
p = q - alpha*ua, on return q = alpha*ua + c*p.  The upwind kinetic flux
advects with u and carries v in the momentum flux.  In exact arithmetic
this is transport of (alpha, q) followed by the exact drag; under
CFL <= 1 it keeps alpha >= 0 and v inside the hull of the data.

``advance`` returns, byte for byte, the state of the full-grid loop
``tests/helpers.py`` keeps, with less work.  It steps only a window
[lo, hi) of m cells: cells 0..lo hold the bits of cell lo and cells
hi-1..n-1 those of cell hi-1, and the outflow ghosts copy the edge cells,
so an edge cell takes the update of the uniform far field it stands for.
Before each step the window grows by one cell, a copy of the edge cell,
on a side whose edge cell differs from its inner neighbour.  The far field
is filled on return.

The window lives in one buffer s = [left ghost, alpha (m), right ghost,
p (m)] and the interface fluxes in fg = [f_mass (m + 1), f_mom (m + 1)],
which ``kinetic_flux(..., out=)`` fills, so one difference, one multiply
and one in-place subtract update both fields:
s[1:2m+2] -= (fg[1:2m+2] - fg[:2m+1])*dt/dx.  Its middle value lands on
the right ghost, which every flux that reads it rewrites first.  The
difference goes to d, which until then holds the two-sided flux's
right-state share, so a step allocates no array that grows with the grid.

s, fg, d and the velocity rows u_ext and v_ext are views of one arena,
allocated once per call by ``_work_buffers``: view k starts on pages of
its own, _STAGGER*k bytes past a _PAGE boundary.  Separate arrays would
start wherever the heap leaves them, which depends on everything
allocated before the call, and the step's speed depends on their offsets
within a page (likely 4K aliasing between a ufunc's loads and stores).
Fixed, staggered offsets give every process the same layout.  alpha, q
and the vacuum mask stay arrays of their own.

The velocity is one sequence: v = p/alpha; only if min(alpha) >
VACUUM_ALPHA fails, v = 0 and p = 0 in the vacuum cells (u = ua); only if
the extremes of v leave the hull, a clip to it.  The hull is that of the
data's u - ua and 0, widened by _HULL_PAD and fixed for the call; the
clip takes a NaN to the lower bound, so a bad value aborts at a finite
time.  Then u = ua + c*v, whose extremes are ua + c times those of v, as
rounding is monotone.  With no vacuum cell and every velocity of one
strict sign, ``kinetic_flux`` gets the upwind states only; the other side
would add only zeros, so the flux differences are the two-sided ones.

No ufunc call of a step takes a Python float, which numpy 2 converts on
every call: 0.0, VACUUM_ALPHA, ua, c and dt/dx are 0-d float64 arrays
(c rewritten every step, dt/dx when dt changes); only the clip keeps its
float bounds.  Ufuncs take their output positionally, except np.maximum
and np.minimum.  Single cells are read and written through memoryviews.
An extreme is read at x.argmin() or x.argmax(), which return the first
NaN, so it is NaN exactly when numpy's reduction is; only a tie of 0.0
and -0.0 may differ in sign, which no use of an extreme can tell.

After the update a step takes one dot product alpha.p: a finite dot
proves every value finite, and only a non-finite one reads the extremes
to decide the abort.  The conversion back to q is checked the same way,
since alpha*ua may overflow there.  numpy's divide, overflow and invalid
warnings are off inside ``advance``: the checks report a bad state.  A
negative density names the grid's first cell holding min(alpha).
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

# advance clips v to the hull of the data's u - ua and 0 widened by this much
_HULL_PAD = 1e-9

# advance's work buffers start _STAGGER*k bytes past a _PAGE boundary, k = 0, 1, ...
_PAGE = 4096
_STAGGER = 64


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
        """Cell averages of the two constant states; a point mass omega0 > 0, or a
        momentum alpha*u that overflows, is rejected."""
        if data.omega0 > 0.0:
            raise ValueError(f"the FV state carries no point mass: omega0 must be 0, got {data.omega0!r}")
        if not (math.isfinite(data.alpha_l * data.u_l) and math.isfinite(data.alpha_r * data.u_r)):
            raise ValueError(f"the momentum alpha*u overflows: {data!r}")
        x = grid.centers()
        alpha = np.where(x <= 0.0, data.alpha_l, data.alpha_r)
        u = np.where(x <= 0.0, data.u_l, data.u_r)
        return cls(grid=grid, alpha=alpha, q=alpha * u, time=0.0)

    def total_mass(self) -> float:
        return float(np.sum(self.alpha) * self.grid.dx)


def reconstruct_velocity(state: FieldState, params: ModelParams, bounds=None) -> np.ndarray:
    """Cell velocities q/alpha, with vacuum cells pinned to the carrier velocity.

    A cell is vacuum unless alpha > VACUUM_ALPHA, so a NaN alpha is vacuum.
    ``bounds``, a pair (lo, hi) of finite numbers, when given, clips the
    result; the exact solution obeys the maximum principle so clipping only
    strips float noise.
    """
    if bounds is not None and not (
        isinstance(bounds, (tuple, list)) and len(bounds) == 2 and all(isinstance(b, numbers.Real) for b in bounds)
        and -math.inf < bounds[0] <= bounds[1] < math.inf  # False on NaN
    ):
        raise ValueError(f"bounds must be a pair of finite numbers lo <= hi, got {bounds!r}")
    u = np.full(state.grid.n_cells, params.ua, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # as in advance: q/alpha may overflow
        np.divide(state.q, state.alpha, u, where=state.alpha > VACUUM_ALPHA)
        if bounds is not None and not (u[u.argmin()] >= bounds[0] and u[u.argmax()] <= bounds[1]):  # also on NaN
            np.clip(u, bounds[0], bounds[1], u)
    return u


def kinetic_flux(alpha_l, u_l, alpha_r=None, u_r=None, out=None, *, v_l=None, v_r=None, scratch=None):
    """Upwind kinetic interface flux (f_mass, f_momentum).

    Left cells contribute their rightward-moving content, right cells
    their leftward-moving content; consistent with (alpha*u, alpha*u*v)
    for equal states and positivity-preserving under CFL <= 1.  The
    keyword-only ``v_l`` and ``v_r`` are the velocities the momentum flux
    carries (``advance`` passes the free-frame v); each defaults to its
    side's u, which gives (alpha*u, alpha*u^2).

    Called with one side only, it returns the physical flux (alpha*u,
    alpha*u*v_l) of those upwind states.  That is the four-argument flux
    whenever every density is positive and every velocity has one strict
    sign: the left states alone for u > 0, the right states alone for
    u < 0.  The other side then adds only zeros, which can flip the sign
    of a zero flux but not the flux differences ``advance`` applies.

    ``out``, a pair (f_mass, f_momentum) of interface-length float64
    arrays, receives the flux in either form and is returned; the values
    are those of the allocating call.  The four-argument form then still
    allocates one array, the right states' share, unless the keyword-only
    ``scratch``, one more such array, takes it.
    """
    f_mass, f_mom = (None, None) if out is None else out
    if alpha_r is None:
        f_mass = np.multiply(u_l, alpha_l, f_mass)
        return f_mass, np.multiply(f_mass, u_l if v_l is None else v_l, f_mom)
    fl = np.maximum(u_l, _ZERO, out=f_mom, dtype=float)
    fl *= alpha_l
    fr = np.minimum(u_r, _ZERO, out=scratch, dtype=float)
    fr *= alpha_r
    f_mass = np.add(fl, fr, f_mass)
    fl *= u_l if v_l is None else v_l
    fr *= u_r if v_r is None else v_r
    fl += fr
    return f_mass, fl


def source_step(state: FieldState, params: ModelParams, dt: float) -> FieldState:
    """Exact drag update over dt: q relaxes toward alpha*ua, alpha unchanged."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if params.mu == 0.0:
        return state
    q_eq = state.alpha * params.ua
    return replace(state, q=(state.q - q_eq) * math.exp(-params.mu * dt) + q_eq)


def _work_buffers(*sizes: int) -> list:
    """float64 views of the given lengths from one allocation (see the module docstring).

    View k starts _STAGGER*k bytes past a _PAGE boundary, on a page that
    no earlier view reaches.  Over separate arrays this costs less than a
    page plus _STAGGER*k bytes before view k, and under a page to align.
    """
    page, stagger = _PAGE // 8, _STAGGER // 8
    starts, end = [], 0
    for k, size in enumerate(sizes):
        starts.append(-(-end // page) * page + k * stagger)
        end = starts[-1] + size
    arena = np.empty(end + page - 1)
    base = -(arena.ctypes.data // 8) % page  # to the first page boundary
    return [arena[base + a : base + a + size] for a, size in zip(starts, sizes)]


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
    if math.isfinite(a.dot(q)):
        return False
    return not all(map(math.isfinite, (a_lo, float(a.max()), float(q.min()), float(q.max()))))


# once per call: an errstate per step would cost about what the dot saves
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def advance(
    state: FieldState,
    params: ModelParams,
    t_end: float,
    cfl: float = 0.15,
    fixed_dt: float = None,
) -> FieldState:
    """March the state to t_end by transport in the free frame (see the module docstring).

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
    t = t0 = state.time
    t_stop = t_end - 1e-14 * max(1.0, abs(t_end))
    if not t < t_stop:  # no step: the state's own bytes, not their round trip through p
        return FieldState(grid=grid, alpha=alpha, q=q, time=t_end)
    a_lo = float(alpha.min())
    mu, ua_f = params.mu, params.ua
    # the hull of v: the data's u - ua and 0, a vacuum cell's; 0.0 comes first, so a NaN leaves a finite bound
    u0 = reconstruct_velocity(state, params)
    b_lo, b_hi = min(0.0, float(np.min(u0)) - ua_f) - _HULL_PAD, max(0.0, float(np.max(u0)) - ua_f) + _HULL_PAD
    # 0-d float64 operands (see the module docstring); c is rewritten every step, lam when dt changes
    ua, lam, c = np.array(ua_f, dtype=float), np.empty(()), np.empty(())
    # the window [lo, hi) of m cells: cells 0..lo hold the bits of cell lo and
    # cells hi-1..n-1 those of cell hi-1, so the edge cells stand for the far field
    lo, hi = _window(alpha.view(np.int64), q.view(np.int64))
    m = hi - lo
    # s = [left ghost, alpha window, right ghost, p window] and fg = [f_mass, f_mom]
    # (m + 1 interfaces each) in buffers sized for the whole grid; u_ext and
    # v_ext = [ghost, window, ghost]; all five from one arena
    s, fg, d, u_ext, v_ext = _work_buffers(2 * n + 2, 2 * n + 2, 2 * n + 1, n + 2, n + 2)
    vac = np.empty(n, dtype=bool)
    s[1 : m + 1] = alpha[lo:hi]
    p0 = s[m + 2 : 2 * m + 2]
    np.subtract(q[lo:hi], np.multiply(alpha[lo:hi], ua, p0), p0)  # p = q - alpha*ua
    # single cells are read and written as Python floats and ints, bit for bit
    sv, sb, uv, vv = memoryview(s), memoryview(s.view(np.int64)), memoryview(u_ext), memoryview(v_ext)
    moved = True
    dt_prev = None

    step, max_steps = 0, MAX_STEPS
    while t < t_stop:
        step += 1
        if step > max_steps:
            raise SolverAbort(f"no end after {max_steps} steps (t={t:.6g} of t_end={t_end:.6g})")
        # a cell moves information one cell per step: grow the window on a
        # side whose edge cell differs from its inner neighbour, repeating the
        # edge cell; on the left alpha moves by 1 and p by 2, on the right p by 1
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
            aw, pw, uw, vw, mw = s[1 : m + 1], s[m + 2 : 2 * m + 2], u_ext[1 : m + 1], v_ext[1 : m + 1], vac[:m]
            awv, vwv = memoryview(aw), memoryview(vw)
            aw_argmin, vw_argmin, vw_argmax = aw.argmin, vw.argmin, vw.argmax
            a_left, u_left, v_left = s[: m + 1], u_ext[: m + 1], v_ext[: m + 1]
            a_right, u_right, v_right = s[1 : m + 2], u_ext[1 : m + 2], v_ext[1 : m + 2]
            flux, right_share = (fg[: m + 1], fg[m + 1 : 2 * m + 2]), d[: m + 1]  # d is free until the update
            # one transport update of alpha and p; its middle value,
            # f_mom[0] - f_mass[m], lands on the right ghost, which every
            # flux that reads it rewrites first
            s_upd, f_upper, f_lower, d_upd = s[1 : 2 * m + 2], fg[1 : 2 * m + 2], fg[: 2 * m + 1], d[: 2 * m + 1]
        np.divide(pw, aw, vw)
        # a_lo is min(alpha) (NaN if any alpha is NaN), carried over from the checks below
        any_vacuum = not a_lo > VACUUM_ALPHA
        if any_vacuum:
            # a cell is vacuum unless alpha > VACUUM_ALPHA (NaN is vacuum): it
            # moves with the carrier, v = 0, and holds no free-frame momentum
            np.logical_not(np.greater(aw, _VACUUM_ALPHA, mw), mw)
            np.copyto(vw, _ZERO, where=mw)
            np.copyto(pw, _ZERO, where=mw)
        v_lo, v_hi = vwv[vw_argmin()], vwv[vw_argmax()]
        if not (v_lo >= b_lo and v_hi <= b_hi):  # rounding left the hull, or a NaN, which goes to b_lo
            np.fmin(np.fmax(vw, b_lo, vw), b_hi, vw)
            v_lo, v_hi = vwv[vw_argmin()], vwv[vw_argmax()]
        cf = math.exp(-mu * (t - t0))
        c[()] = cf
        np.add(np.multiply(vw, c, uw), ua, uw)
        u_lo, u_hi = ua_f + cf * v_lo, ua_f + cf * v_hi
        # max(-u_lo, u_hi, 1e-300), min(fixed_dt, remaining) and
        # min(cfl*dx/umax, remaining) as the builtins compare, NaN included
        umax = -u_lo
        if u_hi > umax:
            umax = u_hi
        if 1e-300 > umax:
            umax = 1e-300
        remaining = t_end - t
        if fixed_dt is not None:
            dt = remaining if remaining < fixed_dt else fixed_dt
            if dt * umax / dx > 1.0 + 1e-12:
                raise SolverAbort(
                    f"fixed dt={fixed_dt:g} violates CFL at step {step} "
                    f"(t={t:.6g}, max|u|={umax:g}, dx={dx:g})"
                )
        else:
            dt = cfl * dx / umax
            if remaining < dt:
                dt = remaining

        # with every density positive and every velocity of one strict sign,
        # the flux is the physical flux of the upwind side: refresh its ghost only
        if not any_vacuum and u_lo > 0.0:
            sv[0], uv[0], vv[0] = sv[1], uv[1], vv[1]
            kinetic_flux(a_left, u_left, out=flux, v_l=v_left)
        elif not any_vacuum and u_hi < 0.0:
            sv[m + 1], uv[m + 1], vv[m + 1] = sv[m], uv[m], vv[m]
            kinetic_flux(a_right, u_right, out=flux, v_l=v_right)
        else:
            sv[0], sv[m + 1] = sv[1], sv[m]
            uv[0], uv[m + 1] = uv[1], uv[m]
            vv[0], vv[m + 1] = vv[1], vv[m]
            kinetic_flux(a_left, u_left, a_right, u_right, out=flux, v_l=v_left, v_r=v_right, scratch=right_share)
        if dt != dt_prev:
            dt_prev = dt
            lam[()] = dt / dx
        np.subtract(s_upd, np.multiply(np.subtract(f_upper, f_lower, d_upd), lam, d_upd), s_upd)

        a_lo = awv[aw_argmin()]
        if a_lo < -1e-13:
            if _nonfinite(aw, pw, a_lo):  # a -inf or a bad p aborts as non-finite, not negative
                raise SolverAbort(f"non-finite state at step {step} (t={t + dt:.6g})")
            k = int(aw_argmin())  # the grid's first such cell: cells 0..lo repeat window cell 0
            raise SolverAbort(
                f"negative volume fraction {a_lo:g} in cell {lo + k if k else 0} at step {step} (t={t + dt:.6g})"
            )
        if a_lo <= 0.0:
            np.maximum(aw, _ZERO, out=aw)
        if _nonfinite(aw, pw, a_lo):
            raise SolverAbort(f"non-finite state at step {step} (t={t + dt:.6g})")
        t = t_end if remaining <= dt * (1.0 + 1e-12) else t + dt

    # q = alpha*ua + c*p at the final time; alpha*ua may overflow here
    c[()] = math.exp(-mu * (t - t0))
    qw = q[lo:hi]
    alpha[lo:hi] = aw
    np.add(np.multiply(aw, ua, qw), np.multiply(pw, c, pw), qw)
    if _nonfinite(aw, qw, a_lo):
        raise SolverAbort(f"non-finite state at step {step} (t={t:.6g})")
    for arr in (alpha, q):  # the far field repeats the window's edge cells
        arr[:lo] = arr[lo]
        arr[hi:] = arr[hi - 1]
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
