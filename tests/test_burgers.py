import numpy as np
import pytest

import dropshock as ds
from dropshock.burgers import BurgersWave, WaveKind, blowup, smooth_fields

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
)

P1 = ds.ModelParams(1.0, 0.2)
SHOCK = BurgersWave(ds.RiemannData(1.0, 1.0, 1.0, 0.5), P1)
FAN = BurgersWave(ds.RiemannData(1.0, 0.5, 1.0, 1.0), P1)


def quad(f, a, b):
    from scipy.integrate import quad as _quad

    val, _ = _quad(f, a, b, epsabs=1e-13, epsrel=1e-13)
    return val


@pytest.mark.parametrize(
    "u_l,u_r,kind",
    [(1.0, 0.5, WaveKind.SHOCK), (0.5, 1.0, WaveKind.RAREFACTION), (0.7, 0.7, WaveKind.CONSTANT)],
)
def test_classification(u_l, u_r, kind):
    assert BurgersWave(ds.RiemannData(1.0, u_l, 1.0, u_r), P1).kind is kind


def test_left_right_states():
    assert SHOCK.left_state(0.0) == 1.0
    assert SHOCK.right_state(0.0) == 0.5
    assert SHOCK.left_state(1.0) == pytest.approx(LEFT1, rel=1e-14)
    # relaxation equilibrium
    assert SHOCK.left_state(100.0) == pytest.approx(P1.ua, abs=1e-12)
    assert SHOCK.right_state(100.0) == pytest.approx(P1.ua, abs=1e-12)


def test_shock_speed_symmetric_case_constant():
    wave = BurgersWave(ds.RiemannData(1.0, 1.0, 1.0, 0.5), ds.ModelParams(1.0, 0.75))
    for t in (0.0, 0.3, 2.0, 10.0):
        assert wave.shock_speed(t) == pytest.approx(0.75, abs=1e-14)


def test_shock_speed_values():
    assert SHOCK.shock_speed(0.0) == pytest.approx(0.75, abs=1e-15)
    assert SHOCK.shock_speed(1.0) == pytest.approx(SIG1, rel=1e-14)
    # jump-conditions cross-check: sigma = (u_l + u_r)/2 at any t
    t = 1.0
    assert SHOCK.shock_speed(t) == pytest.approx(
        0.5 * (SHOCK.left_state(t) + SHOCK.right_state(t)), rel=1e-15
    )


def test_shock_position_values():
    assert SHOCK.shock_position(0.0) == 0.0
    assert SHOCK.shock_position(1.0) == pytest.approx(XI1, rel=1e-14)
    # independent oracle: adaptive quadrature of the speed
    assert SHOCK.shock_position(1.0) == pytest.approx(quad(SHOCK.shock_speed, 0.0, 1.0), abs=1e-12)


def test_shock_position_mu_zero_line():
    wave = BurgersWave(ds.RiemannData(1.0, 1.0, 1.0, 0.5), ds.ModelParams(0.0, 0.0))
    for t in (0.5, 2.0):
        assert wave.shock_position(t) == pytest.approx(0.75 * t, rel=1e-14)


def test_shock_position_derivative_is_speed():
    h = 1e-6
    for t in (0.2, 1.0, 4.0):
        fd = (SHOCK.shock_position(t + h) - SHOCK.shock_position(t - h)) / (2 * h)
        assert fd == pytest.approx(SHOCK.shock_speed(t), abs=1e-9)


def test_wave_kind_usage_errors():
    with pytest.raises(ValueError, match="shock"):
        FAN.shock_speed(1.0)
    with pytest.raises(ValueError, match="rarefaction"):
        SHOCK.rarefaction_bounds(1.0)


def test_rarefaction_bounds_values():
    assert FAN.rarefaction_bounds(0.0) == (0.0, 0.0)
    x1, x2 = FAN.rarefaction_bounds(1.0)
    assert x1 == pytest.approx(X1_1, rel=1e-14)
    assert x2 == pytest.approx(X2_1, rel=1e-14)
    # the defining integrals of the limit states are the binding oracle
    assert x1 == pytest.approx(quad(FAN.left_state, 0.0, 1.0), abs=1e-12)
    assert x2 == pytest.approx(quad(FAN.right_state, 0.0, 1.0), abs=1e-12)
    assert x1 < x2


def test_rarefaction_bounds_mu_zero():
    fan = BurgersWave(ds.RiemannData(1.0, 0.5, 1.0, 1.0), ds.ModelParams(0.0, 0.0))
    x1, x2 = fan.rarefaction_bounds(2.0)
    assert (x1, x2) == (pytest.approx(1.0), pytest.approx(2.0))


def test_fan_velocity_center_and_edges():
    t = 1.0
    assert FAN.fan_velocity(P1.ua * t, t) == pytest.approx(P1.ua, abs=1e-15)
    x1, x2 = FAN.rarefaction_bounds(t)
    assert FAN.fan_velocity(x1, t) == pytest.approx(FAN.left_state(t), abs=1e-12)
    assert FAN.fan_velocity(x2, t) == pytest.approx(FAN.right_state(t), abs=1e-12)


def test_fan_velocity_mu_zero_similarity():
    fan = BurgersWave(ds.RiemannData(1.0, -1.0, 1.0, 1.0), ds.ModelParams(0.0, 0.0))
    assert fan.fan_velocity(0.3, 1.0) == pytest.approx(0.3, abs=1e-15)


@pytest.mark.parametrize("u_l,u_r", [(1.0, 0.5), (0.5, 1.0), (0.7, 0.7)])
def test_velocity_ignores_densities(u_l, u_r):
    # zero densities included: the velocity solution never reads them
    empty = BurgersWave(ds.RiemannData(0.0, u_l, 0.0, u_r), P1)
    full = BurgersWave(ds.RiemannData(1.0, u_l, 1.0, u_r), P1)
    x = np.linspace(-1.0, 2.0, 31)
    for t in (0.0, 0.7, 3.0):
        assert np.array_equal(empty.evaluate(x, t), full.evaluate(x, t))
    if empty.kind is WaveKind.SHOCK:
        assert empty.shock_speed(1.0) == full.shock_speed(1.0)


def test_fan_velocity_rejects_t0():
    with pytest.raises(ValueError, match="singularity"):
        FAN.fan_velocity(0.0, 0.0)


def test_evaluate_constant_kind():
    p = ds.ModelParams(0.2, 1.0)
    wave = BurgersWave(ds.RiemannData(1.0, 0.5, 1.0, 0.5), p)
    for x in (-3.0, 0.0, 7.0):
        assert wave.evaluate(x, 2.0) == pytest.approx(ds.relax_velocity(0.5, p, 2.0), rel=1e-15)


def test_evaluate_shock_regions():
    t = 1.0
    xi = SHOCK.shock_position(t)
    assert SHOCK.evaluate(-10.0, t) == pytest.approx(SHOCK.left_state(t), rel=1e-15)
    assert SHOCK.evaluate(10.0, t) == pytest.approx(SHOCK.right_state(t), rel=1e-15)
    assert SHOCK.evaluate(xi, t) == pytest.approx(SHOCK.shock_speed(t), rel=1e-15)


def test_evaluate_fan_midpoint():
    t = 1.0
    x1, x2 = FAN.rarefaction_bounds(t)
    xm = 0.5 * (x1 + x2)
    assert FAN.evaluate(xm, t) == pytest.approx(FAN.fan_velocity(xm, t), rel=1e-15)


def test_entropy_strict_and_degenerate():
    for t in np.linspace(0.0, 20.0, 81):
        sig = SHOCK.shock_speed(t)
        assert SHOCK.right_state(t) < sig < SHOCK.left_state(t)
    # both gaps decay by exactly e^-10 at t = 10/mu
    t10 = 10.0 / P1.mu
    gap0 = 0.5 * (SHOCK.data.u_l - SHOCK.data.u_r)
    bound = gap0 * np.exp(-10.0) * (1 + 1e-9)
    assert SHOCK.left_state(t10) - SHOCK.shock_speed(t10) <= bound
    assert SHOCK.shock_speed(t10) - SHOCK.right_state(t10) <= bound


def test_entropy_gaps_monotone():
    ts = np.linspace(0.0, 20.0, 200)
    gl = np.array([SHOCK.left_state(t) - SHOCK.shock_speed(t) for t in ts])
    gr = np.array([SHOCK.shock_speed(t) - SHOCK.right_state(t) for t in ts])
    assert np.all(np.diff(gl) < 0) and np.all(np.diff(gr) < 0)


def test_jump_condition_identity():
    rng = np.random.default_rng(3)
    for t in rng.uniform(0.0, 20.0, 100):
        ul, ur, sig = SHOCK.left_state(t), SHOCK.right_state(t), SHOCK.shock_speed(t)
        assert abs((ur - ul) * sig - 0.5 * (ur * ur - ul * ul)) <= 1e-13


def _residual(wave, x, t, h=1e-5):
    u_t = (wave.evaluate(x, t + h) - wave.evaluate(x, t - h)) / (2 * h)
    u_x = (wave.evaluate(x + h, t) - wave.evaluate(x - h, t)) / (2 * h)
    u = wave.evaluate(x, t)
    return u_t + u * u_x - wave.params.mu * (wave.params.ua - u)


def test_classical_residual_away_from_waves():
    rng = np.random.default_rng(11)
    for _ in range(20):
        t = rng.uniform(0.3, 5.0)
        xi = SHOCK.shock_position(t)
        assert abs(_residual(SHOCK, xi - rng.uniform(1.0, 5.0), t)) <= 1e-6
        assert abs(_residual(SHOCK, xi + rng.uniform(1.0, 5.0), t)) <= 1e-6


def test_fan_residual_inside():
    rng = np.random.default_rng(12)
    for _ in range(20):
        t = rng.uniform(0.3, 5.0)
        x1, x2 = FAN.rarefaction_bounds(t)
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


def test_blowup_constant_profile():
    prof = ds.SmoothProfile(
        u0=lambda x: 0.3 + 0.0 * np.asarray(x, float),
        u0_prime=lambda x: 0.0 * np.asarray(x, float),
        alpha0=lambda x: 1.0 + 0.0 * np.asarray(x, float),
        domain=(-1.0, 1.0),
        sample_count=11,
    )
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
