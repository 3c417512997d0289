"""First-order finite-volume solver on a uniform 1-D grid.

Godunov splitting per step: an upwind kinetic transport flux for the
conserved pair (alpha, q = alpha*u), then the exact exponential update of
the drag source.  The flux is the first-order moment closure of free
monokinetic transport, which keeps alpha nonnegative and the
reconstructed velocity inside the convex hull of the data under CFL <= 1.

``advance`` is one in-place kernel.  It allocates its ghost-extended alpha
and u buffers, the momentum, one scratch array and one mass-flux and one
momentum-flux buffer of n + 1 interfaces once per call, and the views of
the stepped window (the flux pair and the four flux-difference operands
among them) only when the window grows.  Each step refreshes the ghost
values it reads and writes every update into those buffers with ``out=``
and in-place operators, the flux through ``kinetic_flux(..., out=)``.
When no cell is vacuum and every velocity has one strict sign, the step
passes ``kinetic_flux`` the upwind states only and gets their physical
flux (alpha*u, alpha*u^2) in two array operations, allocating no array;
the flux differences, and so the output, are those of the two-sided flux,
which still allocates the right states' share.

No ufunc call of a step takes a Python float.  numpy 2 converts such an
operand on every call: at 600 cells a multiply, an in-place multiply, a
comparison or a maximum costs ~0.4 us more with a Python float than with
a 0-d float64 array (medians ~1.3-1.6 against ~1.0-1.2 us, fastest
~0.9-1.1 against ~0.6-0.8 us, on the VM below).  So 0.0 and VACUUM_ALPHA
are read-only 0-d arrays, ua is one 0-d array per call, and dt/dx and the
drag factor exp(-mu*dt) are written each step into 0-d arrays
(``lam[()] = dt / dx`` costs ~0.1 us).  The operands hold the floats'
values, so every operation and every output byte is as with the floats;
numpy 1.x's value-based casting picks the same float64 loops for both.
Only the clip to the velocity hull, a branch taken
when rounding leaves the hull, keeps its float bounds.

The kernel steps only a window [lo, hi) of cells.  Cells 0..lo hold the
bits of cell lo and cells hi-1..n-1 those of cell hi-1; the ghosts copy
the edge cells, so an edge cell whose inner neighbour equals it takes the
update of the whole uniform far field it stands for.  Before each step the
window grows by one cell on a side whose edge cell differs from its inner
neighbour (a three-point scheme moves information one cell per step), and
the far field is filled from the edge cells on return (and before the
negative-density abort names its cell), so the output is byte for byte
that of stepping every cell.

A step reads three extremes: min and max of the velocity, which set dt
and choose the flux, and after the transport update min(alpha), which the
next step's vacuum test needs.  Each is read by index, x[x.argmin()] or
x[x.argmax()]: on a 600-cell window an index search costs ~0.7 us and a
numpy min()/max() reduction ~2.3-2.9 us.  The value is the reduction's.
argmin and argmax return the index of the first NaN when there is one,
so the extreme is NaN exactly when the reduction's is; +-inf extremes
agree.  Only a tie of 0.0 and -0.0 may come out with the other sign, and
every use of an extreme is a comparison, a finiteness test or
max(-u_lo, u_hi, 1e-300), where either zero loses to 1e-300, so no
result depends on that sign.

After the drag a step takes one dot product alpha.q.  A NaN or inf among
them makes the IEEE sum non-finite, so a finite dot proves every value
finite; only a non-finite dot (a bad value, or finite data that overflow
it) takes max(alpha), min(q) and max(q) to decide the abort.  There is one
check per step, after the drag.  numpy's overflow and invalid warnings are
off for the whole of each ``advance`` call (one ``errstate`` per call): the
checks, not warnings, report a bad state.

On a loaded 2-vCPU Intel Xeon VM (CPython 3.11, numpy 2.4; 100 runs
alternated in one process with a step that allocates its flux arrays and
passes Python floats) a step costs a median ~25 us (fastest ~16 us) on the
README delta data at 3000 cells (a window of 603 cells on average) and
~31 us (~21 us) on the vacuum data at 12 000 cells (1231 cells), against
~28 (~19) and ~34 (~23) us for that step; both runs take the one-sided
flux at every step.
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
    so the total mass changes exactly by the net boundary flux.

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
    # ghost-extended buffers: the interior is a view, each step refreshes
    # the two outflow ghosts (copies of the window's edge cells)
    a_ext = np.empty(n + 2)
    u_ext = np.empty(n + 2)
    alpha, u = a_ext[1:-1], u_ext[1:-1]
    alpha[:] = state.alpha
    q = np.array(state.q, dtype=float)
    diff = np.empty(n)
    vac = np.empty(n, dtype=bool)
    # interface fluxes, written by kinetic_flux(..., out=) on the window's m + 1 interfaces
    f_mass, f_mom = np.empty(n + 1), np.empty(n + 1)
    a_lo = float(alpha.min())
    t = state.time
    bounds = _hull_bounds(state, params)
    mu = params.mu
    # 0-d float64 operands (see the module docstring); lam and decay are rewritten each step
    ua, lam, decay = np.array(params.ua, dtype=float), np.empty(()), np.empty(())
    # the window [lo, hi): cells 0..lo hold the bits of cell lo and cells
    # hi-1..n-1 those of cell hi-1, so the edge cells stand for the far field
    a_bits, q_bits = alpha.view(np.int64), q.view(np.int64)
    lo, hi = _window(a_bits, q_bits)
    moved = True

    step, max_steps = 0, MAX_STEPS
    while t < t_end - 1e-14 * max(1.0, abs(t_end)):
        step += 1
        if step > max_steps:
            raise SolverAbort(f"no end after {max_steps} steps (t={t:.6g} of t_end={t_end:.6g})")
        # a cell moves information one cell per step: grow the window on a
        # side whose edge cell differs from its inner neighbour
        if lo > 0 and (a_bits[lo] != a_bits[lo + 1] or q_bits[lo] != q_bits[lo + 1]):
            lo -= 1
            alpha[lo], q[lo] = alpha[lo + 1], q[lo + 1]
            moved = True
        if hi < n and (a_bits[hi - 1] != a_bits[hi - 2] or q_bits[hi - 1] != q_bits[hi - 2]):
            hi += 1
            alpha[hi - 1], q[hi - 1] = alpha[hi - 2], q[hi - 2]
            moved = True
        if moved:
            moved = False
            m = hi - lo
            aw, qw, uw, dw, vw = alpha[lo:hi], q[lo:hi], u[lo:hi], diff[:m], vac[:m]
            a_left, u_left = a_ext[lo : hi + 1], u_ext[lo : hi + 1]
            a_right, u_right = a_ext[lo + 1 : hi + 2], u_ext[lo + 1 : hi + 2]
            flux = (f_mass[: m + 1], f_mom[: m + 1])
            fm_right, fm_left, fq_right, fq_left = f_mass[1 : m + 1], f_mass[:m], f_mom[1 : m + 1], f_mom[:m]
        # a_lo is min(alpha) (NaN if any alpha is NaN), carried over from the checks below
        any_vacuum = not a_lo > VACUUM_ALPHA
        u_lo, u_hi = _velocity(aw, qw, ua, bounds, uw, vw, any_vacuum)
        if any_vacuum:
            # zeroing q instead would leave q/alpha outside the velocity hull
            # once mass flows into the cell
            np.multiply(aw, ua, out=qw, where=vw)
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
            a_ext[lo], u_ext[lo] = aw[0], uw[0]
            kinetic_flux(a_left, u_left, out=flux)
        elif not any_vacuum and u_hi < 0.0:
            a_ext[hi + 1], u_ext[hi + 1] = aw[-1], uw[-1]
            kinetic_flux(a_right, u_right, out=flux)
        else:
            a_ext[lo], a_ext[hi + 1] = aw[0], aw[-1]
            u_ext[lo], u_ext[hi + 1] = uw[0], uw[-1]
            kinetic_flux(a_left, u_left, a_right, u_right, out=flux)
        lam[()] = dt / dx
        aw -= np.multiply(np.subtract(fm_right, fm_left, out=dw), lam, out=dw)
        qw -= np.multiply(np.subtract(fq_right, fq_left, out=dw), lam, out=dw)

        a_lo = float(aw[aw.argmin()])
        if a_lo < -1e-13:
            if _nonfinite(aw, qw, a_lo):  # a -inf or a bad q aborts as non-finite, not negative
                raise SolverAbort(f"non-finite state at step {step} (t={t + dt:.6g})")
            _fill_far_field(alpha, q, lo, hi)  # the message names the first such cell of the grid
            j = int(np.argmin(alpha))
            raise SolverAbort(
                f"negative volume fraction {alpha[j]:g} in cell {j} at step {step} (t={t + dt:.6g})"
            )
        if a_lo <= 0.0:
            np.maximum(aw, _ZERO, out=aw)

        if mu > 0.0:
            decay[()] = math.exp(-mu * dt)
            _drag(qw, aw, ua, decay, dw)
        # after the drag, so a step's own drag overflow is reported at that step
        if _nonfinite(aw, qw, a_lo):
            raise SolverAbort(f"non-finite state at step {step} (t={t + dt:.6g})")
        t = t_end if remaining <= dt * (1.0 + 1e-12) else t + dt

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
