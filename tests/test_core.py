import numpy as np
import pytest
from hypothesis import given, strategies as st

import dropshock as ds
from dropshock.core import decay_integral, relax_velocity, characteristic_position, fan_velocity

from helpers import PHI_1_1, PHI_02_1, RELAX_15, CHARPOS


EPS = np.finfo(float).eps


def series_decay_integral(mu, t, terms=60):
    """Independent oracle: truncated series sum_k (-mu)^(k-1) t^k / k!."""
    from mpmath import mp, mpf, factorial

    mp.dps = 40
    acc = mpf(0)
    for k in range(1, terms + 1):
        acc += (-mpf(mu)) ** (k - 1) * mpf(t) ** k / factorial(k)
    return float(acc)


def test_decay_integral_mu_zero_is_t():
    assert decay_integral(0.0, 2.5) == 2.5


@pytest.mark.parametrize(
    "mu,t,expected",
    [(1.0, 1.0, PHI_1_1), (0.2, 1.0, PHI_02_1)],
)
def test_decay_integral_frozen_values(mu, t, expected):
    got = decay_integral(mu, t)
    assert got == pytest.approx(expected, rel=4 * EPS)
    assert got == pytest.approx(series_decay_integral(mu, t), rel=4 * EPS)


def test_decay_integral_accuracy_over_range():
    from mpmath import mp, mpf, expm1

    mp.dps = 40
    for mut in np.geomspace(1e-12, 50.0, 40):
        mu = 1.3
        t = mut / mu
        exact = float(-expm1(-mpf(mu) * mpf(t)) / mpf(mu))
        assert decay_integral(mu, t) == pytest.approx(exact, rel=4 * EPS)


def test_decay_integral_continuous_at_mu_zero():
    # series bound |phi - t| <= mu t^2 / 2 for mu t <= 1
    for mu in (1e-9, 1e-4, 0.1, 0.5):
        for t in (1e-3, 0.3, 1.0 / mu * 0.999):
            if mu * t > 1.0:
                continue
            assert abs(decay_integral(mu, t) - t) <= mu * t * t / 2 + 4 * EPS


@pytest.mark.parametrize(
    "bad",
    [(-1.0, 1.0), (1.0, -0.5), (1.0, np.inf), (1.0, -np.inf), (1.0, np.nan), (0.0, np.inf), (1.0, np.array([0.5, np.inf]))],
)
def test_decay_integral_domain_errors(bad):
    with pytest.raises(ValueError):
        decay_integral(*bad)


def test_decay_integral_vectorized():
    t = np.array([0.0, 0.5, 1.0])
    out = decay_integral(0.2, t)
    assert out.shape == t.shape
    assert out[2] == pytest.approx(PHI_02_1, rel=4 * EPS)


@pytest.mark.parametrize("mu,ua", [(0.37, 0.3), (0.0, -0.5)])
def test_scalar_calls_equal_array_calls_bit_for_bit(mu, ua):
    # one numpy expression per closed form: a scalar call returns a float
    # with the bits of the matching element of the array call
    p = ds.ModelParams(mu, ua)
    rng = np.random.default_rng(37)
    t = rng.uniform(0.0, 20.0, 2000)
    x0 = rng.uniform(-1.0, 1.0, t.size)
    u0 = rng.uniform(-2.0, 2.0, t.size)
    t[0] = 0.0
    ts, xs, us = t.tolist(), x0.tolist(), u0.tolist()
    forms = {
        "decay_integral": ([decay_integral(mu, ti) for ti in ts], decay_integral(mu, t)),
        "relax_velocity": ([relax_velocity(ui, p, ti) for ui, ti in zip(us, ts)], relax_velocity(u0, p, t)),
        "characteristic_position": (
            [characteristic_position(xi, ui, p, ti) for xi, ui, ti in zip(xs, us, ts)],
            characteristic_position(x0, u0, p, t),
        ),
        "fan_velocity": (
            [fan_velocity(xi, ti, p) for xi, ti in zip(xs[1:], ts[1:])],
            np.array([fan_velocity(x0, ti, p)[i + 1] for i, ti in enumerate(ts[1:])]),
        ),
    }
    for name, (scalar, array) in forms.items():
        assert all(type(v) is float for v in scalar), name
        assert np.array(scalar).tobytes() == array.tobytes(), name
    # Python ints count as scalars too
    for scalar, array in (
        (decay_integral(1, 3), decay_integral(1, np.array([3.0]))),
        (relax_velocity(2, p, 3), relax_velocity(np.array([2.0]), p, 3)),
        (characteristic_position(-1, 2, p, 3), characteristic_position(np.array([-1.0]), 2, p, 3)),
        (fan_velocity(1, 3, p), fan_velocity(np.array([1.0]), 3, p)),
    ):
        assert type(scalar) is float and np.float64(scalar).tobytes() == array[0].tobytes()


def test_relax_velocity_identity_at_t0():
    assert relax_velocity(1.5, ds.ModelParams(0.2, 1.0), 0.0) == 1.5


def test_relax_velocity_mu_zero():
    assert relax_velocity(0.5, ds.ModelParams(0.0, 1.0), 7.0) == 0.5


def test_relax_velocity_frozen_value():
    assert relax_velocity(1.5, ds.ModelParams(0.2, 1.0), 1.0) == pytest.approx(RELAX_15, rel=4 * EPS)


@given(
    u0a=st.floats(-5, 5),
    gap=st.floats(1e-6, 5),
    t=st.floats(0, 5),
    mu=st.floats(0, 4),
    ua=st.floats(-3, 3),
)
def test_relax_velocity_preserves_order(u0a, gap, t, mu, ua):
    # mu*t capped so the decayed gap stays above one ulp of ua
    p = ds.ModelParams(mu, ua)
    assert relax_velocity(u0a, p, t) < relax_velocity(u0a + gap, p, t)


def test_characteristic_at_equilibrium_is_line():
    p = ds.ModelParams(1.7, 0.3)
    for t in (0.0, 0.5, 3.0):
        assert characteristic_position(0.0, p.ua, p, t) == pytest.approx(p.ua * t, abs=1e-15)


def test_characteristic_frozen_value():
    p = ds.ModelParams(1.0, 0.2)
    assert characteristic_position(-1.0, 1.0, p, 1.0) == pytest.approx(CHARPOS, rel=4 * EPS)


def test_characteristic_mu_zero_straight_line():
    p = ds.ModelParams(0.0, 123.0)  # ua irrelevant at mu = 0
    assert characteristic_position(2.0, 0.5, p, 3.0) == pytest.approx(3.5, abs=1e-14)


@pytest.mark.parametrize("mu,ua,x0,u0", [(1.0, 0.2, -1.0, 1.0), (0.0, 0.7, 2.0, -0.5), (3.0, -0.4, 0.3, 2.0)])
def test_characteristic_vs_adaptive_integration(mu, ua, x0, u0):
    # independent oracle: adaptive integration of dx/ds = relaxed velocity
    from scipy.integrate import solve_ivp

    p = ds.ModelParams(mu, ua)
    sol = solve_ivp(
        lambda s, y: [relax_velocity(u0, p, s)],
        (0.0, 10.0),
        [x0],
        rtol=1e-12,
        atol=1e-13,
        dense_output=True,
    )
    for t in np.linspace(0.0, 10.0, 21):
        assert characteristic_position(x0, u0, p, t) == pytest.approx(float(sol.sol(t)[0]), abs=1e-10)


def test_smooth_profile_accepts_consistent_derivative():
    prof = ds.SmoothProfile(
        u0=lambda x: np.sin(x),
        u0_prime=lambda x: np.cos(x),
        alpha0=lambda x: 1.0 + 0.0 * np.asarray(x, float),
        domain=(-2.0, 2.0),
        sample_count=101,
    )
    assert prof.samples().shape == (101,)


def test_smooth_profile_rejects_wrong_derivative():
    with pytest.raises(ValueError, match="central differences"):
        ds.SmoothProfile(
            u0=lambda x: np.sin(x),
            u0_prime=lambda x: 1.1 * np.cos(x),
            alpha0=lambda x: 1.0 + 0.0 * np.asarray(x, float),
            domain=(-2.0, 2.0),
            sample_count=101,
        )


def test_model_params_validation():
    with pytest.raises(ValueError):
        ds.ModelParams(-0.1, 1.0)
    with pytest.raises(ValueError):
        ds.ModelParams(float("nan"), 1.0)


def test_riemann_data_validation():
    with pytest.raises(ValueError):
        ds.RiemannData(-0.1, 1.0, 0.1, 0.5)
    with pytest.raises(ValueError):
        ds.RiemannData(0.1, 1.0, 0.1, 0.5, omega0=-1.0)
