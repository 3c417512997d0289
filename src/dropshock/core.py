"""Model parameters, Riemann data and exponential-relaxation kernels.

The model is pressureless gas dynamics for a dispersed phase (volume
fraction ``alpha``, velocity ``u``) with a linear drag source that pulls
the velocity toward the carrier-fluid velocity ``ua`` at rate ``mu``.

One change of variables, the free-frame map

    y = x - ua*t,   tau = decay_integral(mu, t),   v = (u - ua)*exp(mu*t),

turns the drag system into the drag-free one (alpha unchanged), in which
particles move on straight lines y = y0 + v*tau.  Every closed form in
this package is a drag-free formula put through this map:
``relax_velocity``, ``characteristic_position`` and ``fan_velocity`` are
the inverse images of a constant velocity, a straight line and the fan
v = y/tau.

All operations are pure functions of immutable values and accept scalars
or numpy arrays in their time/space arguments.  Each closed form is one
numpy expression: it returns a Python float when every such argument is a
scalar and an array otherwise, and a scalar call gives the same bits as
the matching element of an array call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Tuple

import numpy as np

__all__ = [
    "BlowupError",
    "ModelParams",
    "RiemannData",
    "SmoothProfile",
    "cubic_profile",
    "decay_integral",
    "relax_velocity",
    "characteristic_position",
    "fan_velocity",
    "tanh_profile",
]


class BlowupError(ArithmeticError):
    """A smooth-solution formula was evaluated at or past its blowup time."""


# largest SmoothProfile.sample_count accepted: a few float64 arrays per sample
MAX_SAMPLES = 10**7


def _times(t) -> np.ndarray:
    """``t`` as a float array, checked finite and nonnegative."""
    tt = np.asarray(t, dtype=float)
    # one pass: NaN fails both comparisons, -inf the first and +inf the second
    if not ((tt >= 0.0) & (tt < np.inf)).all():
        raise ValueError("t must be finite and nonnegative")
    return tt


def _scalar_or_array(out):
    """A formula's result as a Python float when every argument was a scalar.

    The result broadcasts its arguments, so it has no dimension exactly
    when none of them has one.
    """
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class ModelParams:
    """Drag coefficient ``mu`` (1/time) and carrier velocity ``ua``.

    ``mu = 0`` selects the homogeneous (drag-free) limit; every kernel
    reduces to its analytic limit there, so the zero-drag system is a
    degenerate configuration rather than a separate code path.
    """

    mu: float
    ua: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.mu) and self.mu >= 0.0):
            raise ValueError(f"mu must be finite and nonnegative, got {self.mu!r}")
        if not np.isfinite(self.ua):
            raise ValueError(f"ua must be finite, got {self.ua!r}")


@dataclass(frozen=True)
class RiemannData:
    """Piecewise-constant initial data with a single jump at x = 0.

    ``omega0`` is the weight of a point mass sitting on the jump at t = 0;
    it is zero for the plain Riemann problem and may be positive when the
    run starts from an already-formed singular state.
    """

    alpha_l: float
    u_l: float
    alpha_r: float
    u_r: float
    omega0: float = 0.0

    def __post_init__(self) -> None:
        for name in ("alpha_l", "alpha_r", "omega0"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {v!r}")
        if not (np.isfinite(self.u_l) and np.isfinite(self.u_r)):
            raise ValueError("u_l and u_r must be finite")


@dataclass(frozen=True)
class SmoothProfile:
    """C1 initial data (u0, alpha0) on a closed interval.

    ``u0``, ``u0_prime`` and ``alpha0`` must accept numpy arrays; alpha0
    must be finite and nonnegative at the sample points.  Unless it is the
    exact derivative of a ``tanh_profile`` or ``cubic_profile``,
    ``u0_prime`` is checked against central differences at the sample
    points on construction (tolerance 1e-6 relative to max(1, |u0'|)),
    and u0 and u0' must be finite there.
    """

    u0: Callable
    u0_prime: Callable
    alpha0: Callable
    domain: Tuple[float, float]
    sample_count: int = 2001

    def __post_init__(self) -> None:
        lo, hi = self.domain
        if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
            raise ValueError(f"domain must be a nonempty interval, got {self.domain!r}")
        if self.sample_count < 2:
            raise ValueError("sample_count must be at least 2")
        if self.sample_count > MAX_SAMPLES:
            raise ValueError(f"sample_count={self.sample_count} exceeds the limit of {MAX_SAMPLES}")
        x = self.samples()
        alpha0 = _finite_at(self.alpha0, x, "alpha0")
        if not alpha0.min() >= 0.0:
            raise ValueError(f"alpha0 must be nonnegative, got {float(alpha0.min())!r}")
        if getattr(self.u0_prime, "func", None) not in (_tanh_prime, _cubic_prime):
            self._verify_derivative(x)

    def samples(self) -> np.ndarray:
        return np.linspace(self.domain[0], self.domain[1], self.sample_count)

    def _verify_derivative(self, x: np.ndarray, rtol: float = 1e-6, h: float = 1e-6) -> None:
        u_right, u_left = _finite_at(self.u0, x + h, "u0"), _finite_at(self.u0, x - h, "u0")
        claimed = _finite_at(self.u0_prime, x, "u0_prime")
        with np.errstate(over="ignore"):  # a difference past the float range is inf, which fails
            fd = (u_right - u_left) / (2.0 * h)
            tol = rtol * np.maximum(1.0, np.abs(claimed))
            bad = np.abs(fd - claimed) > tol
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValueError(
                "u0_prime disagrees with central differences at "
                f"x={x[i]:.6g}: claimed {claimed[i]:.6g}, finite difference {fd[i]:.6g}"
            )


def _finite_at(f: Callable, x: np.ndarray, name: str) -> np.ndarray:
    """f(x) as a float array of x's shape; ValueError names f and the first x where it is not finite."""
    values = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{name} is not finite at x={x[i]:.6g}: {values[i]}")
    return values


def _sech2(z):
    """1/cosh(z)**2 as (2e/(1 + e*e))**2 with e = exp(-|z|): no overflow, where cosh overflows past |z| ~ 710."""
    e = np.exp(-np.abs(z))
    return (2.0 * e / (1.0 + e * e)) ** 2


# z = (x - center)/width may overflow to +-inf: harmless, as tanh(z) is +-1 there and _sech2(z) is 0
@np.errstate(over="ignore")
def _tanh(x, amplitude, width, center, offset):
    return offset + amplitude * np.tanh((np.asarray(x) - center) / width)


@np.errstate(over="ignore")
def _tanh_prime(x, amplitude, width, center):
    return amplitude / width * _sech2((np.asarray(x) - center) / width)


def _cubic(x, c1, c3, center, offset):
    return offset + c1 * (np.asarray(x) - center) + c3 * (np.asarray(x) - center) ** 3


def _cubic_prime(x, c1, c3, center):
    return c1 + 3.0 * c3 * (np.asarray(x) - center) ** 2


def _constant(x, value):
    return value + 0.0 * np.asarray(x, dtype=float)


def _family_profile(u0, u0_prime, alpha0, domain, sample_count, u0_bound, u0_prime_bound) -> SmoothProfile:
    """A family's profile, if its bounds on |u0| and |u0'| over the domain are finite: then no
    evaluation on the domain overflows or warns.  Its u0' is exact, so SmoothProfile does not check it."""
    profile = SmoothProfile(u0, u0_prime, partial(_constant, value=alpha0), domain, sample_count)
    for name, bound in (("u0", u0_bound), ("u0_prime", u0_prime_bound)):
        if not math.isfinite(bound):
            raise ValueError(f"{name} leaves the float range on the domain {tuple(domain)!r}")
    return profile


def tanh_profile(amplitude, width=1.0, center=0.0, offset=0.0, alpha0=1.0, domain=(-3.0, 3.0),
                 sample_count=2001) -> SmoothProfile:
    """u0 = offset + amplitude*tanh((x - center)/width) and a constant alpha0.

    Raises ValueError unless width > 0, center is finite and the bounds
    |u0| <= |offset| + |amplitude| and |u0'| <= |amplitude|/width are finite.
    """
    if not (width > 0.0 and math.isfinite(center)):
        raise ValueError(f"tanh profile needs width > 0 and a finite center, got width={width!r}, center={center!r}")
    shape = dict(amplitude=amplitude, width=width, center=center)
    return _family_profile(
        partial(_tanh, offset=offset, **shape), partial(_tanh_prime, **shape), alpha0, domain, sample_count,
        abs(offset) + abs(amplitude), abs(amplitude) / width,
    )


def cubic_profile(c1, c3=0.0, center=0.0, offset=0.0, alpha0=1.0, domain=(-3.0, 3.0),
                  sample_count=2001) -> SmoothProfile:
    """u0 = offset + c1*(x - center) + c3*(x - center)**3 and a constant alpha0.

    With R = max|x - center| over the domain ends, raises ValueError unless
    |u0| <= |offset| + |c1|*R + |c3|*R*R*R and |u0'| <= |c1| + 3|c3|*R*R are
    finite.  R*R*R is formed first, as the formula forms (x - center)**3
    even when c3 = 0, so a cube past the float range fails.
    """
    shape = dict(c1=c1, c3=c3, center=center)
    r = max(abs(domain[0] - center), abs(domain[1] - center))
    return _family_profile(
        partial(_cubic, offset=offset, **shape), partial(_cubic_prime, **shape), alpha0, domain, sample_count,
        abs(offset) + abs(c1) * r + abs(c3) * (r * r * r), abs(c1) + 3.0 * abs(c3) * (r * r),
    )


def _no_overflow(mu: float, tt: np.ndarray) -> np.ndarray:
    """``tt`` with every time past 1000/mu cut to it, so mu*t stays finite.

    Only mu > 1 can overflow mu*t, as t is finite.  Past the cut mu*t is
    above 745, where exp(-mu*t) is 0 and expm1(-mu*t) is -1 either way.
    """
    return np.minimum(tt, 1e3 / mu) if mu > 1.0 else tt


def decay_integral(mu: float, t):
    """Integral of exp(-mu*s) over [0, t]: (1 - exp(-mu*t))/mu, with limit t at mu = 0.

    Evaluated through expm1 so there is no cancellation as mu*t -> 0;
    relative error stays within a few ulps for every mu and t accepted,
    subnormal mu included.  The value is t(1 - mu*t/2 + ...), so where
    mu*t < 2**-53 the second term is below half an ulp and it is t: that
    covers mu = 0 and a mu*t that underflows before expm1 sees it.
    """
    if not (mu >= 0.0 and math.isfinite(mu)):
        raise ValueError(f"mu must be finite and nonnegative, got {mu!r}")
    tt = _times(t)
    mt = mu * _no_overflow(mu, tt)
    return _scalar_or_array(np.divide(-np.expm1(-mt), mu, out=tt.copy(), where=mt >= 2.0**-53))


def relax_velocity(u0, params: ModelParams, t):
    """Velocity along a characteristic: ua + (u0 - ua) * exp(-mu*t).

    Monotone in t toward ``ua``.  Where the decay factor is 1.0 (every t
    for mu = 0, and t = 0 for any mu) the value is ua + (u0 - ua)*1.0, not
    u0 bit for bit: it can move by up to one ulp of max(|u0|, |ua|).  At
    ua = 1, 145 of the 601 values u0 = -3, -2.99, ..., 3 move; 0.1 becomes
    0.09999999999999998.
    """
    decay = np.exp(-params.mu * _no_overflow(params.mu, _times(t)))
    out = params.ua + (np.asarray(u0, dtype=float) - params.ua) * decay
    return _scalar_or_array(out)


@np.errstate(over="ignore", invalid="ignore")
def characteristic_position(x0, u0_at_x0, params: ModelParams, t):
    """Position at time t of the characteristic leaving x0 with velocity u0_at_x0.

    x0 + ua*t + (u0 - ua) * decay_integral(mu, t); a straight line for mu = 0.
    A position past the float range is +-inf or NaN, without a warning.
    """
    tau = decay_integral(params.mu, t)
    out = (
        np.asarray(x0, dtype=float)
        + params.ua * np.asarray(t, dtype=float)
        + (np.asarray(u0_at_x0, dtype=float) - params.ua) * tau
    )
    return _scalar_or_array(out)


def fan_velocity(x, t: float, params: ModelParams):
    """Velocity at time t > 0 of the characteristic fan leaving x = 0.

    The drag-free fan v = y/tau mapped back: ua + exp(-mu*t)*(x - ua*t)/tau,
    which is x/t at mu = 0.  t = 0 is a removable 0/0 singularity and is
    rejected.
    """
    if t <= 0.0:
        raise ValueError("fan velocity is undefined at t <= 0 (removable singularity)")
    mu, ua = params.mu, params.ua
    out = ua + (np.asarray(x, dtype=float) - ua * t) * math.exp(-mu * t) / decay_integral(mu, t)
    return _scalar_or_array(out)
