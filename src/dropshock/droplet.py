"""Exact Riemann solutions of the two-field droplet system.

A decreasing velocity jump concentrates mass into a moving Dirac point
(delta shock); an increasing jump opens a vacuum bounded by two contact
discontinuities; equal velocities give a single contact.  The delta-shock
weight and speed have closed forms both for the full conservative system
(square-root-of-density weighting) and for the velocity-decoupled
subsystem (arithmetic density weighting); the two are deliberately kept
under one type with a variant tag because they disagree whenever the side
densities differ.  The full-system closed form also covers data with one
zero side density: no mass is swept in, so the weight stays omega0 and
the front rides the relaxed velocity of the non-empty side.

The velocity of the subsystem's solutions (the ``DeltaVariant.SUBSYSTEM``
delta shock, the vacuum and the contact) is the exact Riemann solution of
the velocity equation u_t + (u^2/2)_x = mu*(ua - u): its shock moves with
``speed`` along ``position``, its fan has edges ``bounds`` and velocity
``fan_velocity``, its limit states are the second components of
``left_state`` and ``right_state``, and its pointwise value is
``regular_fields(x, t)[1]``.

Point masses are carried by ``weight`` and ``position``;
``regular_fields`` never folds a Dirac mass into a pointwise density value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple, Union

import numpy as np

from .core import (
    ModelParams,
    RiemannData,
    characteristic_position,
    decay_integral,
    fan_velocity,
    relax_velocity,
)

__all__ = [
    "DeltaVariant",
    "DeltaShockSolution",
    "VacuumSolution",
    "ContactSolution",
    "RiemannSolution",
    "solve",
    "initial_shock_speed",
    "weight_lower_bound",
]


class DeltaVariant(Enum):
    FULL_SYSTEM = "full-system"
    SUBSYSTEM = "subsystem"


def initial_shock_speed(alpha_l: float, u_l: float, alpha_r: float, u_r: float) -> float:
    """Entropy-admissible initial speed of a freshly forming delta shock.

    The square-root-of-density weighted mean of the side velocities,
    strictly between u_r and u_l and the arithmetic mean for equal
    densities.  With one density zero it is the other side's velocity bit
    for bit; two zero densities, or a negative or NaN one, raise ValueError.
    """
    if not (alpha_l >= 0.0 and alpha_r >= 0.0) or alpha_l == alpha_r == 0.0:
        raise ValueError(f"densities must be nonnegative and not both zero, got {alpha_l!r}, {alpha_r!r}")
    if alpha_l == 0.0 or alpha_r == 0.0:
        return u_r if alpha_l == 0.0 else u_l
    sl, sr = math.sqrt(alpha_l), math.sqrt(alpha_r)
    mean = (sr * u_r + sl * u_l) / (sr + sl)
    # the weighted sum may overflow although the mean cannot; only then are the
    # weights normalised first, which would change the bits of a finite mean
    return mean if math.isfinite(mean) else sr / (sr + sl) * u_r + sl / (sr + sl) * u_l


def weight_lower_bound(t, data: RiemannData, params: ModelParams):
    """Guaranteed minimum point mass: omega0 + min(alpha)*(u_l - u_r)*decay_integral."""
    k = min(data.alpha_l, data.alpha_r) * (data.u_l - data.u_r)
    return data.omega0 + k * decay_integral(params.mu, t)


@dataclass(frozen=True)
class _Solution:
    """Riemann data and parameters, with the relaxed one-sided limit states.

    Every solution has a ``kind``, a ``warning`` (None when the closed form's
    hypotheses hold), the ``bounds`` of its wave and its ``_wave_fields`` there.
    """

    data: RiemannData
    params: ModelParams

    warning = None

    def left_state(self, t) -> Tuple[float, float]:
        return self.data.alpha_l, relax_velocity(self.data.u_l, self.params, t)

    def right_state(self, t) -> Tuple[float, float]:
        return self.data.alpha_r, relax_velocity(self.data.u_r, self.params, t)

    def regular_fields(self, x, t):
        """Regular (alpha, u) arrays at time t; a Dirac mass is not included.

        The left state where x < x1 and the right state elsewhere (a NaN x
        too), with (x1, x2) = ``bounds(t)``; x1 <= x <= x2 gets ``_wave_fields``.
        """
        xx = np.asarray(x, dtype=float)
        x1, x2 = self.bounds(t)
        (al, ul), (ar, ur) = self.left_state(t), self.right_state(t)
        alpha = np.where(xx < x1, al, ar)
        u = np.where(xx < x1, ul, ur)
        on = (x1 <= xx) & (xx <= x2)
        alpha[on], u[on] = self._wave_fields(xx[on], t)
        return alpha, u


@dataclass(frozen=True)
class _Front(_Solution):
    """A single discontinuity leaving x = 0 with ``initial_speed``.

    It carries a point mass omega0 + ``_weight_rate`` * decay_integral(mu, t).
    """

    def speed(self, t):
        """Front speed at time t, relaxing toward the carrier velocity."""
        return relax_velocity(self.initial_speed, self.params, t)

    def position(self, t):
        """Front location, the time integral of the speed, with position(0) = 0."""
        return characteristic_position(0.0, self.initial_speed, self.params, t)

    def bounds(self, t):
        """The wave's extent (xi(t), xi(t)): a front has zero width."""
        xi = self.position(t)
        return xi, xi

    def weight(self, t):
        """Point mass at time t, starting from omega0."""
        return self.data.omega0 + self._weight_rate * decay_integral(self.params.mu, t)

    def _wave_fields(self, x, t):
        """On the curve, a measure-zero convention: the mean of the side densities and the front speed."""
        return 0.5 * (self.data.alpha_l + self.data.alpha_r), self.speed(t)


@dataclass(frozen=True)
class DeltaShockSolution(_Front):
    """Closed-form delta shock: point mass, speed and trajectory vs time.

    Both variants share the speed form ua + (s0 - ua)*exp(-mu*t), with
    s0 the square-root-weighted mean (full system) or the arithmetic mean
    (subsystem); the weights grow like decay_integral with prefactors
    sqrt(alpha_l*alpha_r) and (alpha_l+alpha_r)/2 respectively.  One zero
    side density is allowed and flagged by ``warning``; the point mass is
    ``weight`` at ``position``, never part of ``regular_fields``.
    Only the full system rejects two zero densities.
    """

    variant: DeltaVariant = DeltaVariant.FULL_SYSTEM

    kind = "delta-shock"

    def __post_init__(self) -> None:
        if not self.data.u_l > self.data.u_r:
            raise ValueError("a delta shock requires u_l > u_r")
        if self.variant is DeltaVariant.FULL_SYSTEM and self.data.alpha_l == self.data.alpha_r == 0.0:
            raise ValueError("both densities vanish; there is no mass to concentrate")

    @property
    def warning(self) -> Optional[str]:
        """Why the data lie outside the existence hypotheses and what this variant does there, or None."""
        if self.data.alpha_l > 0.0 and self.data.alpha_r > 0.0:
            return None
        if self.variant is DeltaVariant.FULL_SYSTEM:
            how = "the full-system shock keeps weight omega0 and moves with the other side"
        else:
            how = ("the subsystem shock moves with the mean velocity and its weight grows by "
                   "(alpha_l + alpha_r)(u_l - u_r)/2 per unit of decay_integral(mu, t)")
        return f"one side has zero density: outside the closed-form existence hypotheses; {how}"

    @property
    def initial_speed(self) -> float:
        d = self.data
        if self.variant is DeltaVariant.FULL_SYSTEM:
            return initial_shock_speed(d.alpha_l, d.u_l, d.alpha_r, d.u_r)
        return 0.5 * (d.u_l + d.u_r)

    @property
    def _weight_rate(self) -> float:
        d = self.data
        if self.variant is DeltaVariant.FULL_SYSTEM:
            return math.sqrt(d.alpha_l * d.alpha_r) * (d.u_l - d.u_r)
        return 0.5 * (d.alpha_l + d.alpha_r) * (d.u_l - d.u_r)

    def entropy_gaps(self, t):
        """(u_l - sigma, sigma - u_r); nonnegative and decaying to zero.

        Both are positive when both densities are; the gap on the side of
        the nonzero density is zero otherwise.
        """
        s = self.speed(t)
        return self.left_state(t)[1] - s, s - self.right_state(t)[1]


@dataclass(frozen=True)
class VacuumSolution(_Solution):
    """Two contact discontinuities enclosing a vacuum, velocity continuous."""

    kind = "vacuum"

    def __post_init__(self) -> None:
        if not self.data.u_l < self.data.u_r:
            raise ValueError("a vacuum solution requires u_l < u_r")
        if self.data.omega0 > 0.0:
            raise ValueError("a vacuum solution carries no point mass: omega0 must be 0 when u_l < u_r")

    def bounds(self, t):
        """Contact locations (X1(t), X2(t)) delimiting the vacuum."""
        x1 = characteristic_position(0.0, self.data.u_l, self.params, t)
        x2 = characteristic_position(0.0, self.data.u_r, self.params, t)
        return x1, x2

    def fan_velocity(self, x, t):
        """Continuous velocity inside the vacuum region (t > 0)."""
        return fan_velocity(x, t, self.params)

    def _wave_fields(self, x, t):
        """Density 0 and the fan velocity; at t = 0, on the jump, alpha_l and the mean velocity."""
        if t == 0.0:
            return self.data.alpha_l, 0.5 * (self.left_state(t)[1] + self.right_state(t)[1])
        return 0.0, self.fan_velocity(x, t)


@dataclass(frozen=True)
class ContactSolution(_Front):
    """Equal side velocities: a single contact moving with the relaxed velocity."""

    kind = "contact"
    # the point mass never grows across a contact
    _weight_rate = 0.0

    def __post_init__(self) -> None:
        if self.data.u_l != self.data.u_r:
            raise ValueError("a contact requires u_l == u_r")

    @property
    def initial_speed(self) -> float:
        return self.data.u_l


RiemannSolution = Union[DeltaShockSolution, VacuumSolution, ContactSolution]


def solve(data: RiemannData, params: ModelParams) -> RiemannSolution:
    """Classify and solve the Riemann problem for the full system.

    u_l > u_r: delta shock (closed form; one zero side density sets its
    ``warning``, both zero is rejected); u_l < u_r: vacuum two-contact
    solution (a point mass omega0 > 0 is rejected); equal velocities: contact.
    """
    if data.u_l > data.u_r:
        return DeltaShockSolution(data, params, DeltaVariant.FULL_SYSTEM)
    if data.u_l < data.u_r:
        return VacuumSolution(data, params)
    return ContactSolution(data, params)
