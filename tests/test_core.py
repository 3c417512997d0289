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


@pytest.mark.parametrize("mu", [5e-324, 1e-310, 2.3e-308, 1e-300, 1e-20])
def test_decay_integral_tiny_mu_against_mpmath(mu):
    # mu*t underflowed before expm1: mu = 5e-324 gave 0.0 at t = 0.1, and
    # 1e-310 was ~220 ulps off; 1.1e4 and 1.2e4 straddle mu*t = 2**-53 at 1e-20
    from mpmath import mp, mpf, expm1

    mp.dps = 60
    ts = [0.0, 1e-300, 1e-10, 0.1, 1.0, 1.1e4, 1.2e4, 1e10, 1e300]
    got = decay_integral(mu, np.array(ts))
    for t, g in zip(ts, got):
        exact = float(-expm1(-mpf(mu) * mpf(t)) / mpf(mu))
        assert decay_integral(mu, t) == g == pytest.approx(exact, rel=4 * EPS, abs=0.0)


@pytest.mark.parametrize("mu, t", [(1e308, 10.0), (1e300, 1e10), (2.0, 1e308), (1.5, 1.7e308)])
def test_overflowing_mu_t_gives_the_limits_without_a_warning(mu, t):
    # mu*t overflowed and numpy warned "overflow encountered in multiply"
    # (an error in this suite); the values were already the limits
    params = ds.ModelParams(mu, 0.25)
    assert decay_integral(mu, t) == 1.0 / mu
    assert relax_velocity(3.0, params, t) == 0.25
    times = np.array([0.0, t])
    assert decay_integral(mu, times).tolist() == [0.0, 1.0 / mu]
    assert relax_velocity(np.array([3.0, -3.0]), params, times).tolist() == [3.0, 0.25]


def test_overflow_guard_keeps_the_bytes_of_the_plain_formulas():
    # the times are cut to 1000/mu for mu > 1 only where mu*t is past 745:
    # every value equals the uncut formula's, evaluated with warnings off
    ua, u0 = 0.25, np.array([3.0, -3.0, 0.25, 1e300])
    for mu in [0.5, 1.0, np.nextafter(1.0, 2.0), 1.3, 7.0, 1e5, 1e150, 1e308]:
        cut = 1e3 / mu
        t = np.array([0.0, 1e-300, 0.7 * 745.0 / mu, 745.0 / mu, 746.0 / mu, 0.999 * cut, cut, 1.001 * cut,
                      2.0 * cut, 1e10, 1.7e308])
        with np.errstate(over="ignore"):
            mt = mu * t
            want_tau = np.where(mt >= 2.0**-53, -np.expm1(-mt) / mu, t)
            want_u = ua + (u0[:, None] - ua) * np.exp(-mu * t)
        assert decay_integral(mu, t).tobytes() == want_tau.tobytes()
        assert relax_velocity(u0[:, None], ds.ModelParams(mu, ua), t).tobytes() == want_u.tobytes()
        for tk, want in zip(t, want_tau):
            assert decay_integral(mu, float(tk)) == want


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


def _zero_and_log_uniform(rng, n):
    """0, both ends of [5e-324, 1.7e308], and n draws log-uniform over it."""
    return np.concatenate([[0.0, 5e-324, 1.7e308], np.exp(rng.uniform(np.log(5e-324), np.log(1.7e308), n))])


def test_error_budgets_against_mpmath():
    """The budgets the docstrings state, on a seeded grid of (mu, t) pairs.

    ``decay_integral`` is within 3 ulps of the exact value, and
    ``relax_velocity`` within 3 ulps of max(|u0|, |ua|), for mu and t at 0
    and over every positive float up to 1.7e308, subnormals included.
    The velocities are up to 1e307 in size, so u0 - ua stays finite; half
    of the u0 lie within a factor 2 of ua, where u0 - ua rounds most.
    """
    from mpmath import mp, mpf, exp, expm1

    mp.prec = 200
    rng = np.random.default_rng(36)
    worst_tau = worst_u = 0.0
    for mu in _zero_and_log_uniform(rng, 45):
        for t in _zero_and_log_uniform(rng, 45):
            tau = decay_integral(mu, t)
            exact = mpf(t) if mu == 0.0 else -expm1(-mpf(mu) * mpf(t)) / mpf(mu)
            worst_tau = max(worst_tau, abs(tau - exact) / np.spacing(abs(float(exact))))
            ua, u0 = rng.choice([-1.0, 1.0], 2) * np.exp(rng.uniform(np.log(5e-324), np.log(1e307), 2))
            if rng.random() < 0.5:
                u0 = ua * rng.uniform(-2.0, 2.0)
            u = relax_velocity(u0, ds.ModelParams(mu, ua), t)
            exact = mpf(ua) + (mpf(u0) - mpf(ua)) * exp(-mpf(mu) * mpf(t))
            worst_u = max(worst_u, abs(u - exact) / np.spacing(max(abs(u0), abs(ua))))
    assert worst_tau <= 3.0 and worst_u <= 3.0, (float(worst_tau), float(worst_u))


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


@pytest.mark.parametrize(
    "domain, sample_count, match",
    [((1.0, -1.0), 11, "nonempty interval"), ((-1.0, np.inf), 11, "nonempty interval"), ((-1.0, 1.0), 1, "at least 2")],
    ids=["domain-reversed", "domain-inf", "sample_count-1"],
)
def test_smooth_profile_rejects_bad_domain_and_count(domain, sample_count, match):
    with pytest.raises(ValueError, match=match):
        ds.SmoothProfile(
            u0=lambda x: np.sin(x),
            u0_prime=lambda x: np.cos(x),
            alpha0=lambda x: 1.0 + 0.0 * np.asarray(x, float),
            domain=domain,
            sample_count=sample_count,
        )


def test_smooth_profile_rejects_wrong_derivative():
    with pytest.raises(ValueError, match="central differences"):
        ds.SmoothProfile(
            u0=lambda x: np.sin(x),
            u0_prime=lambda x: 1.1 * np.cos(x),
            alpha0=lambda x: 1.0 + 0.0 * np.asarray(x, float),
            domain=(-2.0, 2.0),
            sample_count=101,
        )


@pytest.mark.parametrize(
    "u0, u0_prime, alpha0, match",
    [
        # inf - inf warned "invalid value encountered in subtract" in the central difference
        (lambda x: np.where(x > 0.0, np.inf, 0.0), lambda x: 0.0 * x, 1.0, "u0 is not finite at x=1e-06"),
        (np.sin, lambda x: np.full(np.shape(x), np.nan), 1.0, "u0_prime is not finite at x=-2"),
        (np.sin, np.cos, -1.0, "alpha0 must be nonnegative, got -1.0"),  # as RiemannData's densities
        (np.sin, np.cos, np.inf, "alpha0 is not finite at x=-2"),
    ],
    ids=["u0-inf-right-of-0", "u0_prime-nan", "alpha0-negative", "alpha0-inf"],
)
def test_smooth_profile_rejects_non_finite_values_and_negative_alpha0(u0, u0_prime, alpha0, match):
    with pytest.raises(ValueError, match=match):
        ds.SmoothProfile(u0, u0_prime, lambda x: alpha0 + 0.0 * x, domain=(-2.0, 2.0), sample_count=101)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ds.ModelParams(-0.1, 1.0)
    with pytest.raises(ValueError):
        ds.ModelParams(float("nan"), 1.0)
    with pytest.raises(ValueError, match="ua must be finite"):
        ds.ModelParams(0.1, float("inf"))


def test_riemann_data_validation():
    with pytest.raises(ValueError):
        ds.RiemannData(-0.1, 1.0, 0.1, 0.5)
    with pytest.raises(ValueError):
        ds.RiemannData(0.1, 1.0, 0.1, 0.5, omega0=-1.0)
    with pytest.raises(ValueError, match="u_l and u_r must be finite"):
        ds.RiemannData(0.1, float("nan"), 0.1, 0.5)
