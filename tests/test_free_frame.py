"""The free-frame identity for every closed form.

Under y = x - ua*t, tau = decay_integral(mu, t), v = (u - ua)*exp(mu*t)
the drag system is the drag-free one, so each closed form at (x, t) with
mu > 0 must equal the mu = 0 closed form of the shifted data u - ua at
(y, tau), mapped back through x = y + ua*t, u = ua + exp(-mu*t)*v.  The
comparison is made on the mapped-back values, which stay O(1) where the
free-frame velocities grow like exp(mu*t).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import dropshock as ds
from dropshock.burgers import smooth_fields

from helpers import make_tanh_profile, velocity_solution

FREE = ds.ModelParams(0.0, 0.0)
Y = np.linspace(-3.0, 3.0, 41)

density = st.floats(0.001, 0.05)
velocity = st.floats(-1.0, 2.0)


@st.composite
def drag(draw):
    """Parameters with mu > 0 and a time t > 0."""
    return ds.ModelParams(draw(st.floats(0.05, 4.0)), draw(velocity)), draw(st.floats(0.01, 5.0))


@st.composite
def riemann(draw, order):
    """Riemann data with u_l > u_r (order 1), u_l < u_r (-1) or u_l == u_r (0).

    Only a closing jump or a contact carries a point mass; an opening jump has
    none to carry, and its solution rejects omega0 > 0.
    """
    u_l = draw(velocity)
    u_r = u_l - order * draw(st.floats(0.05, 2.0))
    omega0 = draw(st.floats(0.0, 0.01)) if order >= 0 else 0.0
    return ds.RiemannData(draw(density), u_l, draw(density), u_r, omega0)


def free_frame(data, params, t):
    """(shifted data, tau, back-map of positions, back-map of velocities)."""
    ua, decay = params.ua, math.exp(-params.mu * t)
    shifted = ds.RiemannData(data.alpha_l, data.u_l - ua, data.alpha_r, data.u_r - ua, data.omega0)
    return shifted, ds.decay_integral(params.mu, t), lambda y: y + ua * t, lambda v: ua + decay * v


def close(a, b):
    return a == pytest.approx(b, rel=1e-12, abs=1e-12)


@given(riemann(1), drag(), st.sampled_from(list(ds.DeltaVariant)))
def test_delta_shock(data, case, variant):
    params, t = case
    shifted, tau, to_x, to_u = free_frame(data, params, t)
    sol = ds.DeltaShockSolution(data, params, variant)
    free = ds.DeltaShockSolution(shifted, FREE, variant)
    assert close(sol.position(t), to_x(free.position(tau)))
    assert close(sol.weight(t), free.weight(tau))
    assert close(sol.speed(t), to_u(free.speed(tau)))


@given(riemann(0), drag())
def test_contact(data, case):
    params, t = case
    shifted, tau, to_x, _ = free_frame(data, params, t)
    assert close(ds.ContactSolution(data, params).position(t), to_x(ds.ContactSolution(shifted, FREE).position(tau)))


@given(riemann(-1), drag())
def test_vacuum(data, case):
    params, t = case
    shifted, tau, to_x, to_u = free_frame(data, params, t)
    sol, free = ds.VacuumSolution(data, params), ds.VacuumSolution(shifted, FREE)
    for x, y in zip(sol.bounds(t), free.bounds(tau)):
        assert close(x, to_x(y))
    y1, y2 = free.bounds(tau)
    y = np.linspace(y1, y2, 9)
    assert close(sol.fan_velocity(to_x(y), t), to_u(free.fan_velocity(y, tau)))


@given(st.sampled_from([1, -1, 0]).flatmap(riemann), drag())
def test_burgers_wave(data, case):
    params, t = case
    shifted, tau, to_x, to_u = free_frame(data, params, t)
    wave, free = velocity_solution(data, params), velocity_solution(shifted, FREE)
    y = Y
    if free.kind == "delta-shock":
        # a point within rounding of the shock may land on either side
        y = Y[np.abs(Y - free.position(tau)) > 1e-9]
    assert close(wave.regular_fields(to_x(y), t)[1], to_u(free.regular_fields(y, tau)[1]))


@given(st.floats(-3.0, 3.0), st.floats(0.5, 2.0), velocity, st.floats(-2.0, 2.0), drag())
def test_smooth_fields(amplitude, width, offset, x0, case):
    params, t = case
    tau = ds.decay_integral(params.mu, t)
    profile = make_tanh_profile(amplitude, width, offset=offset, sample_count=11)
    shifted = make_tanh_profile(amplitude, width, offset=offset - params.ua, sample_count=11)
    assume(1.0 + tau * float(profile.u0_prime(x0)) > 1e-6)
    u_x, alpha = smooth_fields(x0, t, profile, params)
    free_u_x, free_alpha = smooth_fields(x0, tau, shifted, FREE)
    assert close(alpha, free_alpha)
    # u = ua + exp(-mu*t)*v with x - y independent of x0, so du/dx = exp(-mu*t)*dv/dy
    assert close(u_x, math.exp(-params.mu * t) * free_u_x)
