import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dropshock as ds
from dropshock.droplet import (
    ContactSolution,
    DeltaShockSolution,
    DeltaVariant,
    VacuumSolution,
    initial_shock_speed,
    solve,
    weight_lower_bound,
)
from dropshock.validation import weak_residual

from helpers import (
    BOUND1,
    CRITERION9_PSIS,
    DELTA_DATA,
    OMEGA1_FULL,
    OMEGA1_SUB,
    PARAMS_02,
    SIGBAR0,
    SIGMA1_FULL,
    VACUUM_DATA,
    XI1_FULL,
    reference_front_fields,
    reference_vacuum_fields,
)

FULL = DeltaShockSolution(DELTA_DATA, PARAMS_02)
SUB = DeltaShockSolution(DELTA_DATA, PARAMS_02, DeltaVariant.SUBSYSTEM)
VAC = VacuumSolution(VACUUM_DATA, PARAMS_02)


def test_solve_dispatch():
    delta = solve(DELTA_DATA, PARAMS_02)
    assert isinstance(delta, DeltaShockSolution)
    assert delta.warning is None
    assert isinstance(solve(VACUUM_DATA, PARAMS_02), VacuumSolution)
    contact = solve(ds.RiemannData(0.01, 0.7, 0.02, 0.7), PARAMS_02)
    assert isinstance(contact, ContactSolution)
    assert contact.speed(2.0) == pytest.approx(ds.relax_velocity(0.7, PARAMS_02, 2.0))
    assert contact.weight(2.0) == 0.0
    # one weight formula for every front, so one check of t
    for front in (contact, delta):
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="t must be finite and nonnegative"):
                front.weight(bad)


def test_solutions_describe_themselves():
    contact = solve(ds.RiemannData(0.01, 0.7, 0.02, 0.7), PARAMS_02)
    assert [s.kind for s in (FULL, SUB, VAC, contact)] == ["delta-shock", "delta-shock", "vacuum", "contact"]
    assert VAC.warning is None and contact.warning is None
    for front in (FULL, SUB, contact):
        xi = front.position(1.5)
        assert front.bounds(1.5) == (xi, xi)
    assert VAC.bounds(0.0) == (0.0, 0.0)


def test_subsystem_accepts_zero_densities():
    # the subsystem speed is the arithmetic mean whatever the densities
    d = ds.RiemannData(0.0, 1.5, 0.0, 0.5, omega0=0.02)
    sub = DeltaShockSolution(d, PARAMS_02, DeltaVariant.SUBSYSTEM)
    for t in (0.0, 0.5, 3.0):
        assert sub.weight(t) == 0.02
        assert sub.speed(t) == ds.relax_velocity(1.0, PARAMS_02, t)
    with pytest.raises(ValueError, match="both densities vanish"):
        DeltaShockSolution(d, PARAMS_02, DeltaVariant.FULL_SYSTEM)


def test_initial_shock_speed_equal_densities_is_mean():
    assert initial_shock_speed(0.01, 1.5, 0.01, 0.5) == pytest.approx(1.0, rel=1e-15)


def test_initial_shock_speed_frozen_value():
    assert initial_shock_speed(0.008, 1.5, 0.003, 0.5) == pytest.approx(SIGBAR0, rel=1e-15)


def test_initial_shock_speed_degenerate_weighting():
    # the deviation from u_l is sqrt(alpha_r/alpha_l)*(u_l - u_r) to first order
    dev = abs(initial_shock_speed(0.008, 1.5, 1e-12, 0.5) - 1.5)
    assert dev <= np.sqrt(1e-12 / 0.008) * 1.0 * (1 + 1e-12)
    assert initial_shock_speed(0.008, 1.5, 1e-13, 0.5) == pytest.approx(1.5, abs=1e-5)


def test_initial_shock_speed_rejects_zero_density():
    # one empty side sweeps in no mass: the front takes the other side's u,
    # bit for bit; there is no mean of two empty sides or of a bad density
    u = 1.0 / 3.0
    assert initial_shock_speed(0.0, 1.5, 0.003, u) == u
    assert initial_shock_speed(0.008, u, 0.0, 0.5) == u
    assert initial_shock_speed(-0.0, 1.5, 1e-300, u) == u
    for alpha_l, alpha_r in ((0.0, 0.0), (-0.0, 0.0), (-1e-300, 0.003), (0.008, -1.0), (np.nan, 0.003),
                             (0.008, np.nan), (0.0, np.nan)):
        with pytest.raises(ValueError, match="nonnegative and not both zero"):
            initial_shock_speed(alpha_l, 1.5, alpha_r, 0.5)


@given(
    al=st.floats(1e-4, 0.1),
    ar=st.floats(1e-4, 0.1),
    ul=st.floats(-2, 3),
    gap=st.floats(1e-3, 4),
)
def test_initial_shock_speed_entropy_interval(al, ar, ul, gap):
    s0 = initial_shock_speed(al, ul, ar, ul - gap)
    assert ul - gap < s0 < ul


def test_full_weight_and_speed_frozen_values():
    assert FULL.weight(0.0) == 0.0
    assert FULL.weight(1.0) == pytest.approx(OMEGA1_FULL, rel=1e-14)
    assert FULL.speed(1.0) == pytest.approx(SIGMA1_FULL, rel=1e-14)
    assert FULL.position(1.0) == pytest.approx(XI1_FULL, rel=1e-14)


def test_full_weight_against_ode_oracle():
    # independent oracle: adaptive integration of the point-mass balance
    # pair starting from a tiny regularized mass
    from scipy.integrate import solve_ivp

    d, p = DELTA_DATA, PARAMS_02
    a = d.alpha_r - d.alpha_l

    def rhs(t, z):
        w, m = z
        ul = ds.relax_velocity(d.u_l, p, t)
        ur = ds.relax_velocity(d.u_r, p, t)
        b = d.alpha_r * ur - d.alpha_l * ul
        c = d.alpha_r * ur * ur - d.alpha_l * ul * ul
        s = m / w
        return [a * s - b, b * s + p.mu * (p.ua * w - m) - c]

    eps = 1e-12
    sol = solve_ivp(rhs, (0.0, 1.0), [eps, eps * SIGBAR0], rtol=1e-11, atol=1e-14)
    assert FULL.weight(1.0) == pytest.approx(sol.y[0, -1], abs=1e-8)
    assert FULL.speed(1.0) == pytest.approx(sol.y[1, -1] / sol.y[0, -1], abs=1e-8)


def test_mu_zero_reduction_linear_weight_constant_speed():
    p0 = ds.ModelParams(0.0, 1.0)
    sol = DeltaShockSolution(DELTA_DATA, p0)
    for t in (0.5, 1.0, 4.0):
        assert sol.weight(t) == pytest.approx(sol._weight_rate * t, rel=1e-14)
        assert sol.speed(t) == pytest.approx(sol.initial_speed, rel=1e-15)


def test_subsystem_weight_frozen_and_quadrature():
    from scipy.integrate import quad

    assert SUB.weight(1.0) == pytest.approx(OMEGA1_SUB, rel=1e-14)
    # oracle: quadrature of the mass-balance rate with the mean shock speed
    d, p = DELTA_DATA, PARAMS_02

    def rate(t):
        ul = ds.relax_velocity(d.u_l, p, t)
        ur = ds.relax_velocity(d.u_r, p, t)
        sig = 0.5 * (ul + ur)
        return (d.alpha_r - d.alpha_l) * sig - (d.alpha_r * ur - d.alpha_l * ul)

    val, _ = quad(rate, 0.0, 1.0, epsabs=1e-13)
    assert SUB.weight(1.0) == pytest.approx(val, abs=1e-12)


def test_subsystem_speed_is_mean_speed():
    for t in (0.0, 0.7, 3.0):
        assert SUB.speed(t) == pytest.approx(
            0.5 * (FULL.left_state(t)[1] + FULL.right_state(t)[1]), rel=1e-14
        )


def test_equal_densities_weights_coincide():
    d = ds.RiemannData(0.005, 1.2, 0.005, 0.3)
    full = DeltaShockSolution(d, PARAMS_02)
    sub = DeltaShockSolution(d, PARAMS_02, DeltaVariant.SUBSYSTEM)
    for t in (0.2, 1.0, 5.0):
        assert full.weight(t) == pytest.approx(sub.weight(t), rel=1e-14)


@settings(max_examples=100)
@given(
    al=st.floats(1e-4, 0.1),
    ar=st.floats(1e-4, 0.1),
    ul=st.floats(-1, 2),
    gap=st.floats(0.01, 3),
    t=st.floats(0.01, 10),
)
def test_subsystem_weight_dominates_full(al, ar, ul, gap, t):
    d = ds.RiemannData(al, ul, ar, ul - gap)
    full = DeltaShockSolution(d, PARAMS_02)
    sub = DeltaShockSolution(d, PARAMS_02, DeltaVariant.SUBSYSTEM)
    wf, ws = full.weight(t), sub.weight(t)
    assert ws >= wf * (1 - 1e-12)
    if abs(al - ar) > 1e-6 * max(al, ar):
        assert ws > wf


def test_weight_lower_bound_values():
    assert weight_lower_bound(1.0, DELTA_DATA, PARAMS_02) == pytest.approx(BOUND1, rel=1e-14)
    assert FULL.weight(1.0) >= BOUND1
    # equal side velocities: the bound degenerates to omega0
    flat = ds.RiemannData(0.01, 0.5, 0.02, 0.5, omega0=0.3)
    assert weight_lower_bound(7.0, flat, PARAMS_02) == 0.3
    # drag-free limit grows linearly
    assert weight_lower_bound(2.0, DELTA_DATA, ds.ModelParams(0.0, 1.0)) == pytest.approx(
        0.003 * 1.0 * 2.0, rel=1e-14
    )


def test_weight_lower_bound_holds_randomized():
    rng = np.random.default_rng(5)
    for _ in range(100):
        al, ar = rng.uniform(1e-4, 0.1, 2)
        ul = rng.uniform(-1, 2)
        d = ds.RiemannData(al, ul, ar, ul - rng.uniform(0.01, 3))
        p = ds.ModelParams(rng.uniform(0, 4), rng.uniform(-1, 2))
        sol = DeltaShockSolution(d, p)
        t = rng.uniform(0, 10)
        assert sol.weight(t) >= weight_lower_bound(t, d, p) - 1e-12


def _grh_residuals(weight, speed, data, params, t, h=1e-6):
    """Finite-difference residuals of the two point-mass balance ODEs."""
    ul = ds.relax_velocity(data.u_l, params, t)
    ur = ds.relax_velocity(data.u_r, params, t)
    a = data.alpha_r - data.alpha_l
    b = data.alpha_r * ur - data.alpha_l * ul
    c = data.alpha_r * ur * ur - data.alpha_l * ul * ul
    w, s = weight(t), speed(t)
    dw = (weight(t + h) - weight(t - h)) / (2 * h)
    dth = (weight(t + h) * speed(t + h) - weight(t - h) * speed(t - h)) / (2 * h)
    r1 = dw - (a * s - b)
    r2 = dth - (b * s + params.mu * (params.ua * w - w * s) - c)
    return r1, r2


def test_closed_form_satisfies_point_mass_odes():
    rng = np.random.default_rng(17)
    for t in rng.uniform(1e-3, 20.0, 100):
        r1, r2 = _grh_residuals(FULL.weight, FULL.speed, DELTA_DATA, PARAMS_02, float(t))
        assert abs(r1) <= 1e-6 and abs(r2) <= 1e-6


def test_closed_form_with_initial_weight():
    d = ds.RiemannData(0.008, 1.5, 0.003, 0.5, omega0=0.25)
    sol = DeltaShockSolution(d, PARAMS_02)
    assert sol.weight(0.0) == 0.25
    for t in (0.5, 2.0):
        r1, r2 = _grh_residuals(sol.weight, sol.speed, d, PARAMS_02, t)
        assert abs(r1) <= 1e-6 and abs(r2) <= 1e-6


def test_subsystem_pair_fails_full_system_odes():
    # the arithmetic-mean pair satisfies the mass ODE but not the momentum
    # ODE whenever the side densities differ
    r1, r2 = _grh_residuals(SUB.weight, SUB.speed, DELTA_DATA, PARAMS_02, 1.0)
    assert abs(r1) <= 1e-6
    assert abs(r2) > 1e-4
    assert r2 == pytest.approx(-0.0008379000575445491, rel=1e-4)


def test_entropy_strictly_inside():
    for t in np.linspace(0.0, 20.0, 101):
        s = FULL.speed(t)
        assert FULL.right_state(t)[1] < s < FULL.left_state(t)[1]


def test_position_derivative_is_speed():
    h = 1e-6
    for t in (0.3, 1.0, 6.0):
        fd = (FULL.position(t + h) - FULL.position(t - h)) / (2 * h)
        assert fd == pytest.approx(FULL.speed(t), abs=1e-9)


def test_weight_strictly_increasing():
    ts = np.linspace(0.0, 20.0, 400)
    w = FULL.weight(ts)
    assert np.all(np.diff(w) > 0)


def test_evaluate_regular_and_singular_parts():
    t = 1.0
    xi = FULL.position(t)
    alpha, u = FULL.regular_fields(np.array([-10.0, xi]), t)
    assert alpha[0] == DELTA_DATA.alpha_l
    assert u[0] == pytest.approx(FULL.left_state(t)[1])
    # on the curve: the front speed and the mean density; the point mass is weight(t) at xi
    assert u[1] == FULL.speed(t)
    assert alpha[1] == 0.5 * (DELTA_DATA.alpha_l + DELTA_DATA.alpha_r)
    assert FULL.weight(t) == pytest.approx(OMEGA1_FULL, rel=1e-14)
    assert xi == pytest.approx(XI1_FULL, rel=1e-14)


def test_vacuum_bounds_and_interior():
    assert VAC.bounds(0.0) == (0.0, 0.0)
    x1, x2 = VAC.bounds(1.0)
    assert x1 < x2
    alpha, u = VAC.regular_fields(np.array([0.5 * (x1 + x2), x1 - 1.0]), 1.0)
    assert alpha[0] == 0.0
    assert u[0] == pytest.approx(VAC.fan_velocity(0.5 * (x1 + x2), 1.0))
    assert alpha[1] == VACUUM_DATA.alpha_l


def test_vacuum_velocity_continuity():
    for t in (0.1, 1.0, 5.0):
        x1, x2 = VAC.bounds(t)
        assert abs(VAC.fan_velocity(x1, t) - VAC.left_state(t)[1]) <= 1e-12
        assert abs(VAC.fan_velocity(x2, t) - VAC.right_state(t)[1]) <= 1e-12


def test_vacuum_rejects_point_mass():
    # an opening jump leaves no front to carry omega0; solving such data used
    # to return a vacuum whose fields silently dropped the point mass
    d = ds.RiemannData(VACUUM_DATA.alpha_l, VACUUM_DATA.u_l, VACUUM_DATA.alpha_r, VACUUM_DATA.u_r, omega0=0.02)
    with pytest.raises(ValueError, match="omega0"):
        solve(d, PARAMS_02)
    with pytest.raises(ValueError, match="omega0"):
        VacuumSolution(d, PARAMS_02)


@pytest.mark.parametrize(
    "kind, data, match",
    [
        (DeltaShockSolution, VACUUM_DATA, "u_l > u_r"),
        (VacuumSolution, DELTA_DATA, "u_l < u_r"),
        (ContactSolution, DELTA_DATA, "u_l == u_r"),
    ],
    ids=["delta-on-opening-jump", "vacuum-on-closing-jump", "contact-on-jump"],
)
def test_solution_rejects_data_of_another_kind(kind, data, match):
    with pytest.raises(ValueError, match=match):
        kind(data, PARAMS_02)


def test_degenerate_density_routes_to_numeric():
    d = ds.RiemannData(0.008, 1.5, 0.0, 0.5)
    sol = solve(d, PARAMS_02)
    assert "zero" in sol.warning
    # vacuum ahead: nothing to sweep up, so no mass concentrates and the
    # front rides the left-state velocity
    assert sol.weight(1.0) == 0.0
    assert sol.speed(1.0) == ds.relax_velocity(1.5, PARAMS_02, 1.0)


def test_degenerate_both_zero_rejected():
    with pytest.raises(ValueError):
        solve(ds.RiemannData(0.0, 1.5, 0.0, 0.5), PARAMS_02)


def test_closed_form_requires_positive_densities():
    # one zero side density is inside the closed form; both zero is not
    with pytest.raises(ValueError, match="both densities vanish"):
        DeltaShockSolution(ds.RiemannData(0.0, 1.5, 0.0, 0.5), PARAMS_02)


# one side density zero; in the first case the front speed starts on the
# edge of the entropy interval; the third case's weighted quotient
# 0.1*1.5/0.1 rounds to 1.5000000000000002
ONE_EMPTY_SIDE = [
    (ds.RiemannData(0.0, 2.0, 0.05, -1.0), -0.5),
    (ds.RiemannData(0.008, 1.5, 0.0, 0.5), 1.0),
    (ds.RiemannData(0.01, 1.5, 0.0, 0.5), 1.0),
]


@pytest.mark.parametrize("omega0", [0.0, 0.01])
@pytest.mark.parametrize("mu", [0.0, 0.2, 3.0])
@pytest.mark.parametrize("case", ONE_EMPTY_SIDE, ids=["alpha_l=0", "alpha_r=0", "alpha_r=0-rounding-quotient"])
def test_one_zero_density_closed_form(case, mu, omega0):
    base, ua = case
    d = ds.RiemannData(base.alpha_l, base.u_l, base.alpha_r, base.u_r, omega0)
    p = ds.ModelParams(mu, ua)
    sol = solve(d, p)
    assert "zero density" in sol.warning
    # no mass is swept in, and the front moves with the non-empty side
    u_side = d.u_r if d.alpha_l == 0.0 else d.u_l
    for t in (0.0, 0.5, 1.0, 4.0):
        assert sol.weight(t) == omega0
        assert sol.speed(t) == ds.relax_velocity(u_side, p, t)
    assert np.max(np.abs(weak_residual(sol, CRITERION9_PSIS, quad_resolution=400))) <= 1e-6


@given(
    alpha=st.floats(1e-6, 1.0),
    u_side=st.floats(-3.0, 3.0),
    gap=st.floats(1e-3, 4.0),
    left_empty=st.booleans(),
    mu=st.sampled_from([0.0, 0.2, 3.0]),
    ua=st.floats(-2.0, 2.0),
)
def test_one_empty_side_starts_at_the_other_side_velocity(alpha, u_side, gap, left_empty, mu, ua):
    # the weighted mean with one weight 0 is the other side's u, bit for bit,
    # so the gap on that side is 0 and never a rounding below it
    if left_empty:
        d = ds.RiemannData(0.0, u_side + gap, alpha, u_side)
    else:
        d = ds.RiemannData(alpha, u_side, 0.0, u_side - gap)
    sol = solve(d, ds.ModelParams(mu, ua))
    assert sol.initial_speed == u_side
    for t in (0.0, 0.3, 1.0, 7.0):
        gap_l, gap_r = sol.entropy_gaps(t)
        assert gap_l >= 0.0 and gap_r >= 0.0


def test_initial_speed_stays_finite_when_the_weighted_sum_overflows():
    # sqrt(1e150) * 1.7e308 overflows; the mean itself lies between u_r and u_l
    speed = initial_shock_speed(1e150, 1.7e308, 1e148, 0.5)
    assert speed == pytest.approx(1.7e308 / 1.1, rel=1e-15) and 0.5 < speed < 1.7e308
    assert initial_shock_speed(1e150, 1.7e308, 1e150, -1.7e308) == 0.0


def test_subsystem_warning_describes_the_growing_weight():
    # the subsystem's weight grows beside an empty side; only the full
    # system keeps omega0
    for d in (ds.RiemannData(0.01, 1.5, 0.0, 0.5), ds.RiemannData(0.0, 2.0, 0.05, -1.0),
              ds.RiemannData(0.0, 1.5, 0.0, 0.5, omega0=0.02)):
        sub = DeltaShockSolution(d, PARAMS_02, DeltaVariant.SUBSYSTEM)
        assert "zero density" in sub.warning
        assert "keeps weight" not in sub.warning and "(alpha_l + alpha_r)(u_l - u_r)/2" in sub.warning
    sub = DeltaShockSolution(ds.RiemannData(0.01, 1.5, 0.0, 0.5), PARAMS_02, DeltaVariant.SUBSYSTEM)
    assert sub.weight(1.0) == pytest.approx(0.5 * 0.01 * 1.0 * ds.decay_integral(0.2, 1.0), rel=1e-15)
    assert "keeps weight omega0" in solve(ds.RiemannData(0.01, 1.5, 0.0, 0.5), PARAMS_02).warning


def test_contact_regular_fields_scalar_equals_array():
    d = ds.RiemannData(0.01, 0.7, 0.02, 0.7)
    sol = ContactSolution(d, PARAMS_02)
    t = 1.5
    xi = sol.position(t)
    speed = sol.speed(t)
    x = np.array([xi - 1.0, xi - 1e-9, xi, xi + 1e-9, xi + 1.0])
    alpha, u = sol.regular_fields(x, t)
    assert list(alpha) == [0.01, 0.01, 0.5 * (0.01 + 0.02), 0.02, 0.02]
    assert np.all(u == speed)
    for xk, ak in zip(x, alpha):
        assert sol.regular_fields(float(xk), t) == (ak, speed)
    assert sol.weight(t) == 0.0  # no point mass rides a contact


SIDE_ALPHAS = st.sampled_from([0.0, 1e-3, 0.008, 0.5]) | st.floats(0.0, 10.0)


@st.composite
def any_solution(draw):
    """A delta shock of either variant, a contact or a vacuum, from random data."""
    kind = draw(st.sampled_from(["full", "subsystem", "contact", "vacuum"]))
    alpha_l, alpha_r = draw(SIDE_ALPHAS), draw(SIDE_ALPHAS)
    u_a, u_b = sorted(draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2, unique=True)))
    params = ds.ModelParams(draw(st.sampled_from([0.0, 0.2, 4.0]) | st.floats(0.0, 10.0)), draw(st.floats(-2.0, 2.0)))
    omega0 = 0.0 if kind == "vacuum" else draw(st.sampled_from([0.0, 0.01]))
    if kind == "vacuum":
        return VacuumSolution(ds.RiemannData(alpha_l, u_a, alpha_r, u_b), params)
    if kind == "contact":
        return ContactSolution(ds.RiemannData(alpha_l, u_a, alpha_r, u_a, omega0), params)
    if kind == "full" and alpha_l == alpha_r == 0.0:
        alpha_r = 0.5
    variant = DeltaVariant.FULL_SYSTEM if kind == "full" else DeltaVariant.SUBSYSTEM
    return DeltaShockSolution(ds.RiemannData(alpha_l, u_b, alpha_r, u_a, omega0), params, variant)


@given(
    sol=any_solution(),
    t=st.sampled_from([0.0, 5e-324, 1e-310, 0.1, 0.4, 1.0, 3.0]) | st.floats(0.0, 5.0),
    n=st.integers(1, 3000),
    span=st.sampled_from([1e-300, 1e-3, 1.0, 10.0]),
    scalar=st.booleans(),
    pick=st.integers(0, 3),
)
@settings(max_examples=300, deadline=None)
def test_regular_fields_equal_the_per_kind_formulas_bit_for_bit(sol, t, n, span, scalar, pick):
    # the shared method against the two per-kind bodies it replaced: on the
    # bounds, at +-0, on grids that straddle the wave and for a scalar x
    x1, x2 = sol.bounds(t)
    x = np.concatenate([np.linspace(x1 - span, x2 + span, n), [x1, x2, 0.0, -0.0]])
    if scalar:
        x = float(x[-1 - pick])
    reference = reference_vacuum_fields if sol.kind == "vacuum" else reference_front_fields
    for got, want in zip(sol.regular_fields(x, t), reference(sol, x, t)):
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape == np.shape(x)
        assert got.tobytes() == want.tobytes()


def test_regular_fields_give_the_right_state_at_a_nan_x():
    # the one documented change: the vacuum gave (0, NaN) at a NaN x
    for sol, t in ((FULL, 1.0), (VAC, 1.0), (VAC, 0.0)):
        alpha, u = sol.regular_fields(np.array([np.nan]), t)
        assert (alpha[0], u[0]) == sol.right_state(t)
