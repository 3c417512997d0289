"""The velocity equation u_t + (u^2/2)_x = mu*(ua - u).

Its Riemann solution is the velocity of the subsystem's droplet solution
(``velocity_solution``); the smooth-solution machinery and the blowup
predictor are ``dropshock.burgers``.
"""

import numpy as np
import pytest

import dropshock as ds
from dropshock.burgers import blowup, blowup_time_for_slope, smooth_fields

from helpers import (
    DENOM_05,
    LEFT1,
    LN2,
    SIG1,
    X1_1,
    X2_1,
    XI1,
    make_cubic_profile,
    make_tanh_profile,
    velocity_solution,
)

P1 = ds.ModelParams(1.0, 0.2)
SHOCK = velocity_solution(ds.RiemannData(1.0, 1.0, 1.0, 0.5), P1)
FAN = velocity_solution(ds.RiemannData(1.0, 0.5, 1.0, 1.0), P1)


def quad(f, a, b):
    from scipy.integrate import quad as _quad

    val, _ = _quad(f, a, b, epsabs=1e-13, epsrel=1e-13)
    return val


def u_left(wave, t):
    return wave.left_state(t)[1]


def u_right(wave, t):
    return wave.right_state(t)[1]


def velocity(wave, x, t):
    return wave.regular_fields(x, t)[1]


def test_left_right_states():
    assert u_left(SHOCK, 0.0) == 1.0
    assert u_right(SHOCK, 0.0) == 0.5
    assert u_left(SHOCK, 1.0) == pytest.approx(LEFT1, rel=1e-14)
    # relaxation equilibrium
    assert u_left(SHOCK, 100.0) == pytest.approx(P1.ua, abs=1e-12)
    assert u_right(SHOCK, 100.0) == pytest.approx(P1.ua, abs=1e-12)


def test_shock_speed_symmetric_case_constant():
    wave = velocity_solution(ds.RiemannData(1.0, 1.0, 1.0, 0.5), ds.ModelParams(1.0, 0.75))
    for t in (0.0, 0.3, 2.0, 10.0):
        assert wave.speed(t) == pytest.approx(0.75, abs=1e-14)


def test_shock_speed_values():
    assert SHOCK.speed(0.0) == pytest.approx(0.75, abs=1e-15)
    assert SHOCK.speed(1.0) == pytest.approx(SIG1, rel=1e-14)
    # jump-conditions cross-check: sigma = (u_l + u_r)/2 at any t
    t = 1.0
    assert SHOCK.speed(t) == pytest.approx(0.5 * (u_left(SHOCK, t) + u_right(SHOCK, t)), rel=1e-15)


def test_shock_position_values():
    assert SHOCK.position(0.0) == 0.0
    assert SHOCK.position(1.0) == pytest.approx(XI1, rel=1e-14)
    # independent oracle: adaptive quadrature of the speed
    assert SHOCK.position(1.0) == pytest.approx(quad(SHOCK.speed, 0.0, 1.0), abs=1e-12)


def test_shock_position_mu_zero_line():
    wave = velocity_solution(ds.RiemannData(1.0, 1.0, 1.0, 0.5), ds.ModelParams(0.0, 0.0))
    for t in (0.5, 2.0):
        assert wave.position(t) == pytest.approx(0.75 * t, rel=1e-14)


def test_shock_position_derivative_is_speed():
    h = 1e-6
    for t in (0.2, 1.0, 4.0):
        fd = (SHOCK.position(t + h) - SHOCK.position(t - h)) / (2 * h)
        assert fd == pytest.approx(SHOCK.speed(t), abs=1e-9)


def test_rarefaction_bounds_values():
    assert FAN.bounds(0.0) == (0.0, 0.0)
    x1, x2 = FAN.bounds(1.0)
    assert x1 == pytest.approx(X1_1, rel=1e-14)
    assert x2 == pytest.approx(X2_1, rel=1e-14)
    # the defining integrals of the limit states are the binding oracle
    assert x1 == pytest.approx(quad(lambda t: u_left(FAN, t), 0.0, 1.0), abs=1e-12)
    assert x2 == pytest.approx(quad(lambda t: u_right(FAN, t), 0.0, 1.0), abs=1e-12)
    assert x1 < x2


def test_rarefaction_bounds_mu_zero():
    fan = velocity_solution(ds.RiemannData(1.0, 0.5, 1.0, 1.0), ds.ModelParams(0.0, 0.0))
    x1, x2 = fan.bounds(2.0)
    assert (x1, x2) == (pytest.approx(1.0), pytest.approx(2.0))


def test_fan_velocity_center_and_edges():
    t = 1.0
    assert FAN.fan_velocity(P1.ua * t, t) == pytest.approx(P1.ua, abs=1e-15)
    x1, x2 = FAN.bounds(t)
    assert FAN.fan_velocity(x1, t) == pytest.approx(u_left(FAN, t), abs=1e-12)
    assert FAN.fan_velocity(x2, t) == pytest.approx(u_right(FAN, t), abs=1e-12)


def test_fan_velocity_mu_zero_similarity():
    fan = velocity_solution(ds.RiemannData(1.0, -1.0, 1.0, 1.0), ds.ModelParams(0.0, 0.0))
    assert fan.fan_velocity(0.3, 1.0) == pytest.approx(0.3, abs=1e-15)


@pytest.mark.parametrize("u_l,u_r", [(1.0, 0.5), (0.5, 1.0), (0.7, 0.7)])
def test_velocity_ignores_densities(u_l, u_r):
    # zero densities included: the velocity solution never reads them
    empty = velocity_solution(ds.RiemannData(0.0, u_l, 0.0, u_r), P1)
    full = velocity_solution(ds.RiemannData(1.0, u_l, 1.0, u_r), P1)
    x = np.linspace(-1.0, 2.0, 31)
    for t in (0.0, 0.7, 3.0):
        assert np.array_equal(velocity(empty, x, t), velocity(full, x, t))
    if empty.kind == "delta-shock":
        assert empty.speed(1.0) == full.speed(1.0)


def test_fan_velocity_rejects_t0():
    with pytest.raises(ValueError, match="singularity"):
        FAN.fan_velocity(0.0, 0.0)


def test_evaluate_constant_kind():
    p = ds.ModelParams(0.2, 1.0)
    wave = velocity_solution(ds.RiemannData(1.0, 0.5, 1.0, 0.5), p)
    for x in (-3.0, 0.0, 7.0):
        assert velocity(wave, x, 2.0) == pytest.approx(ds.relax_velocity(0.5, p, 2.0), rel=1e-15)


def test_evaluate_shock_regions():
    t = 1.0
    xi = SHOCK.position(t)
    assert velocity(SHOCK, -10.0, t) == pytest.approx(u_left(SHOCK, t), rel=1e-15)
    assert velocity(SHOCK, 10.0, t) == pytest.approx(u_right(SHOCK, t), rel=1e-15)
    assert velocity(SHOCK, xi, t) == pytest.approx(SHOCK.speed(t), rel=1e-15)


def test_evaluate_fan_midpoint():
    t = 1.0
    x1, x2 = FAN.bounds(t)
    xm = 0.5 * (x1 + x2)
    assert velocity(FAN, xm, t) == pytest.approx(FAN.fan_velocity(xm, t), rel=1e-15)


def test_entropy_strict_and_degenerate():
    for t in np.linspace(0.0, 20.0, 81):
        sig = SHOCK.speed(t)
        assert u_right(SHOCK, t) < sig < u_left(SHOCK, t)
    # both gaps decay by exactly e^-10 at t = 10/mu
    t10 = 10.0 / P1.mu
    gap0 = 0.5 * (SHOCK.data.u_l - SHOCK.data.u_r)
    bound = gap0 * np.exp(-10.0) * (1 + 1e-9)
    assert u_left(SHOCK, t10) - SHOCK.speed(t10) <= bound
    assert SHOCK.speed(t10) - u_right(SHOCK, t10) <= bound


def test_entropy_gaps_monotone():
    ts = np.linspace(0.0, 20.0, 200)
    gl = np.array([u_left(SHOCK, t) - SHOCK.speed(t) for t in ts])
    gr = np.array([SHOCK.speed(t) - u_right(SHOCK, t) for t in ts])
    assert np.all(np.diff(gl) < 0) and np.all(np.diff(gr) < 0)


def test_jump_condition_identity():
    rng = np.random.default_rng(3)
    for t in rng.uniform(0.0, 20.0, 100):
        ul, ur, sig = u_left(SHOCK, t), u_right(SHOCK, t), SHOCK.speed(t)
        assert abs((ur - ul) * sig - 0.5 * (ur * ur - ul * ul)) <= 1e-13


def _residual(wave, x, t, h=1e-5):
    u_t = (velocity(wave, x, t + h) - velocity(wave, x, t - h)) / (2 * h)
    u_x = (velocity(wave, x + h, t) - velocity(wave, x - h, t)) / (2 * h)
    u = velocity(wave, x, t)
    return u_t + u * u_x - wave.params.mu * (wave.params.ua - u)


def test_classical_residual_away_from_waves():
    rng = np.random.default_rng(11)
    for _ in range(20):
        t = rng.uniform(0.3, 5.0)
        xi = SHOCK.position(t)
        assert abs(_residual(SHOCK, xi - rng.uniform(1.0, 5.0), t)) <= 1e-6
        assert abs(_residual(SHOCK, xi + rng.uniform(1.0, 5.0), t)) <= 1e-6


def test_fan_residual_inside():
    rng = np.random.default_rng(12)
    for _ in range(20):
        t = rng.uniform(0.3, 5.0)
        x1, x2 = FAN.bounds(t)
        x = rng.uniform(x1 + 0.05 * (x2 - x1), x2 - 0.05 * (x2 - x1))
        assert abs(_residual(FAN, x, t)) <= 1e-6


def test_blowup_tanh_example():
    rep = blowup(make_tanh_profile(-2.0, domain=(-3.0, 3.0)), ds.ModelParams(1.0, 0.2))
    assert rep.blows_up
    assert rep.t_star == pytest.approx(LN2, abs=1e-9)
    assert rep.x0_star == pytest.approx(0.0, abs=1e-6)


def test_blowup_increasing_profile_never():
    rep = blowup(make_tanh_profile(+1.0), ds.ModelParams(0.5, 0.0))
    assert not rep.blows_up and rep.t_star is None


def test_blowup_subcritical_slope():
    # min slope -0.5 stays above -mu = -1
    rep = blowup(make_tanh_profile(-0.5), ds.ModelParams(1.0, 0.0))
    assert not rep.blows_up
    with pytest.raises(ValueError, match="slope < -mu"):
        blowup_time_for_slope(-0.5, 1.0)


def test_blowup_constant_profile():
    prof = ds.cubic_profile(0.0, offset=0.3, domain=(-1.0, 1.0), sample_count=11)
    assert not blowup(prof, ds.ModelParams(0.0, 0.0)).blows_up


def test_blowup_agrees_with_crossing_oracle():
    rng = np.random.default_rng(21)
    for k in range(6):
        if k % 2 == 0:
            amp = -rng.uniform(0.8, 3.0)
            width = rng.uniform(0.8, 1.6)
            prof = make_tanh_profile(amp, width, center=rng.uniform(-0.5, 0.5))
            min_slope = amp / width
        else:
            c1 = -rng.uniform(0.6, 2.0)
            prof = make_cubic_profile(c1, rng.uniform(0.1, 0.5))
            min_slope = c1
        mu = rng.uniform(0.0, 0.7) * abs(min_slope)
        p = ds.ModelParams(mu, rng.uniform(-0.5, 1.0))
        rep = blowup(prof, p)
        oracle = ds.first_crossing_time(prof, p, 50.0, n_feet=8001)
        assert rep.blows_up and oracle is not None
        assert abs(rep.t_star - oracle) <= 1e-6


def test_blowup_coarse_samples_find_the_foot():
    # the samples -4, 0 and 4 lie far from the foot at 0.3, where u0' = -5
    p = ds.ModelParams(0.3, 0.0)
    coarse = blowup(make_tanh_profile(-1.0, 0.2, center=0.3, sample_count=3), p)
    fine = blowup(make_tanh_profile(-1.0, 0.2, center=0.3), p)
    oracle = ds.first_crossing_time(make_tanh_profile(-1.0, 0.2, center=0.3), p, 50.0, n_feet=40001)
    assert coarse.t_star == fine.t_star == blowup_time_for_slope(-5.0, 0.3)
    assert abs(coarse.t_star - oracle) <= 1e-6
    assert coarse.x0_star == pytest.approx(0.3, abs=1e-9)


def test_blowup_scalar_and_nan_slopes():
    def profile(u0, u0_prime, sample_count=2001):
        return ds.SmoothProfile(u0, u0_prime, lambda x: 1.0 + 0.0 * x, domain=(-1.0, 1.0), sample_count=sample_count)

    p = ds.ModelParams(0.5, 0.0)
    # a u0_prime that returns a scalar for an array of points
    rep = blowup(profile(lambda x: -2.0 * x, lambda x: -2.0), p)
    assert rep.blows_up and rep.t_star == blowup_time_for_slope(-2.0, 0.5) == 0.5753641449035618
    # a NaN slope never qualifies: SmoothProfile checks u0' = x^2 - 2 at the
    # samples -1, 0 and 1 only; between them it is NaN left of 0 and -3 right
    # of it, which the rescans around x = 0 must find
    def nan_off_the_samples(x):
        return np.where(np.isin(x, (-1.0, 0.0, 1.0)), x * x - 2.0, np.where(x < 0.0, np.nan, -3.0))

    rep = blowup(profile(lambda x: x**3 / 3.0 - 2.0 * x, nan_off_the_samples, sample_count=3), p)
    assert rep.t_star == blowup_time_for_slope(-3.0, 0.5) and rep.x0_star > 0.0


def test_smooth_fields_flat_slope_transports_alpha():
    prof = make_tanh_profile(-2.0)
    p = ds.ModelParams(1.0, 0.0)
    # far from the center the slope is ~0 at x0 = 4 (tanh saturated)
    u_x, alpha = smooth_fields(4.0, 2.0, prof, p)
    assert abs(u_x) < 1e-3
    assert alpha == pytest.approx(float(prof.alpha0(4.0)), rel=1e-2)


def test_smooth_fields_frozen_denominator():
    prof = make_tanh_profile(-2.0)
    p = ds.ModelParams(1.0, 0.0)
    u_x, alpha = smooth_fields(0.0, 0.5, prof, p)
    assert alpha == pytest.approx(float(prof.alpha0(0.0)) / DENOM_05, rel=1e-12)


def test_smooth_fields_blowup_divergence_and_error():
    prof = make_tanh_profile(-2.0)
    p = ds.ModelParams(1.0, 0.0)
    t_star = blowup(prof, p).t_star
    _, alpha = smooth_fields(0.0, t_star - 1e-8, prof, p)
    assert alpha > 1e6 * float(prof.alpha0(0.0))
    with pytest.raises(ds.BlowupError):
        smooth_fields(0.0, t_star + 1e-6, prof, p)
    with pytest.raises(ValueError, match="nonnegative"):
        smooth_fields(0.0, -1e-3, prof, p)


def test_smooth_fields_against_characteristic_strip_oracle():
    # independent oracle: integrate d(alpha)/dt = -alpha * du/dx along the
    # characteristic, with du/dx measured from two neighbouring
    # characteristics (positions and velocities from the base kernels only)
    prof = make_tanh_profile(-2.0)
    p = ds.ModelParams(1.0, 0.0)
    x0, t_end, delta = 0.3, 0.5, 1e-5
    ua_l = float(prof.u0(x0 - delta))
    ua_r = float(prof.u0(x0 + delta))

    def dux(t):
        du = ds.relax_velocity(ua_r, p, t) - ds.relax_velocity(ua_l, p, t)
        dx = ds.characteristic_position(x0 + delta, ua_r, p, t) - ds.characteristic_position(
            x0 - delta, ua_l, p, t
        )
        return du / dx

    n, h = 2000, t_end / 2000
    a = float(prof.alpha0(x0))
    t = 0.0
    for _ in range(n):
        k1 = -a * dux(t)
        k2 = -(a + 0.5 * h * k1) * dux(t + 0.5 * h)
        k3 = -(a + 0.5 * h * k2) * dux(t + 0.5 * h)
        k4 = -(a + h * k3) * dux(t + h)
        a += (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    u_x, alpha = smooth_fields(x0, t_end, prof, p)
    assert alpha == pytest.approx(a, rel=1e-5)
    assert u_x == pytest.approx(dux(t_end), rel=1e-4)
