import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dropshock as ds
from dropshock.validation import (
    MAX_FEET,
    BumpTestFunction,
    compare,
    first_crossing_time,
    sample_exact,
    vacuum_extent,
    weak_residual,
)

from helpers import CRITERION9_PSIS as PSIS
from helpers import (
    DELTA_DATA,
    LN2,
    PARAMS_02,
    VACUUM_DATA,
    make_cubic_profile,
    make_tanh_profile,
    reference_first_crossing_time,
    reference_weak_residual,
)


def test_crossing_oracle_increasing_profile_none():
    prof = make_tanh_profile(+1.5)
    assert first_crossing_time(prof, ds.ModelParams(0.5, 0.0), 50.0) is None


def test_crossing_oracle_tanh_self_consistency():
    prof = make_tanh_profile(-2.0, domain=(-3.0, 3.0))
    p = ds.ModelParams(1.0, 0.2)
    coarse = first_crossing_time(prof, p, 50.0, n_feet=2001)
    fine = first_crossing_time(prof, p, 50.0, n_feet=8001)
    assert coarse == pytest.approx(LN2, abs=1e-5)
    assert fine == pytest.approx(LN2, abs=1e-6)
    assert abs(coarse - fine) <= 1e-5


def test_crossing_oracle_discontinuous_data_immediate():
    # step data: the feet straddling the jump cross essentially immediately
    # (within one foot spacing, since the jump exceeds unit size)
    lo, hi, n_feet = -3.0004, 2.9996, 2001
    prof = ds.SmoothProfile(
        u0=lambda x: np.where(np.asarray(x, float) < 0.0, 1.5, -0.5),
        u0_prime=lambda x: 0.0 * np.asarray(x, float),
        alpha0=lambda x: 1.0 + 0.0 * np.asarray(x, float),
        domain=(lo, hi),
        sample_count=n_feet,
    )
    dx_feet = (hi - lo) / (n_feet - 1)
    t = first_crossing_time(prof, ds.ModelParams(0.2, 1.0), 10.0, n_feet=n_feet)
    assert t is not None and t <= dx_feet


def test_crossing_oracle_requires_three_feet():
    with pytest.raises(ValueError):
        first_crossing_time(make_tanh_profile(-2.0), PARAMS_02, 1.0, n_feet=2)
    # the upper limit is checked before any foot is allocated
    with pytest.raises(ValueError, match="exceeds the limit"):
        first_crossing_time(make_tanh_profile(-2.0), PARAMS_02, 1.0, n_feet=MAX_FEET + 1)


@pytest.mark.parametrize("t_max", [-1.0, float("inf"), float("nan")])
def test_crossing_oracle_rejects_bad_t_max(t_max):
    with pytest.raises(ValueError, match="t_max must be finite and nonnegative"):
        first_crossing_time(make_tanh_profile(-2.0), PARAMS_02, t_max)


@pytest.mark.parametrize("ua", [1e9, 1e12, 1e300])
def test_crossing_oracle_does_not_depend_on_a_large_ua(ua):
    # the gap of two lab-frame positions lost itself in their shared ua*t:
    # 0.5753275 at ua 1e9, 0.1007152 at 1e15 and None at 1e300
    prof = make_tanh_profile(-2.0, domain=(-3.0, 3.0))
    want = first_crossing_time(prof, ds.ModelParams(0.5, 0.2), 50.0, n_feet=4001)
    assert want == pytest.approx(0.5753641, abs=1e-6)
    assert first_crossing_time(prof, ds.ModelParams(0.5, ua), 50.0, n_feet=4001) == want


@settings(max_examples=60, deadline=None)
@given(
    cubic=st.booleans(),
    slope=st.floats(-3.0, 1.0),
    shape=st.floats(0.2, 2.0),
    center=st.floats(-0.5, 0.5),
    mu=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
    ua=st.floats(-1.0, 1.0),
    t_max=st.floats(0.05, 50.0),
    n_feet=st.integers(3, 3001),
)
# the tanh and cubic profiles of the benchmark at 8001 feet
@example(cubic=False, slope=-2.0, shape=1.0, center=0.0, mu=0.5, ua=0.2, t_max=50.0, n_feet=8001)
@example(cubic=True, slope=-1.5, shape=0.3, center=0.0, mu=0.4, ua=-0.3, t_max=50.0, n_feet=8001)
def test_crossing_oracle_equals_unpruned_bisection(cubic, slope, shape, center, mu, ua, t_max, n_feet):
    if cubic:
        prof = make_cubic_profile(slope, shape, center=center)
    else:
        prof = make_tanh_profile(slope, width=shape, center=center)
    p = ds.ModelParams(mu, ua)
    got = first_crossing_time(prof, p, t_max, n_feet=n_feet)
    want = reference_first_crossing_time(prof, p, t_max, n_feet=n_feet)
    assert got == want


def test_bump_function_support_and_smoothness():
    psi = BumpTestFunction(0.5, 0.9, 0.8, 0.7, ((1.0, 1, 1),))
    assert psi.value(0.5 + 0.9, 0.8) == 0.0
    assert psi.value(0.5, 0.8 + 0.7) == 0.0
    assert psi.value(-2.0, 0.8) == 0.0
    # analytic partials against central differences
    h = 1e-6
    for x, t in ((0.4, 0.7), (0.9, 1.1), (0.1, 0.5)):
        fd_x = (psi.value(x + h, t) - psi.value(x - h, t)) / (2 * h)
        fd_t = (psi.value(x, t + h) - psi.value(x, t - h)) / (2 * h)
        _, v_x, v_t = psi.value_and_partials(x, t)
        assert v_x == pytest.approx(fd_x, abs=1e-7)
        assert v_t == pytest.approx(fd_t, abs=1e-7)
    # value_and_partials on an x row against a t column (the poly term is in
    # both x and t): (value, dx, dt), pointwise equal to scalar evaluation,
    # zero outside the support and agreeing with central differences
    xs = np.array([0.4, 0.9, 0.1, 1.4, -2.0])
    ts = np.array([0.7, 1.1, 0.5, 1.5])[:, None]
    v, v_x, v_t = psi.value_and_partials(xs, ts)
    assert v.shape == v_x.shape == v_t.shape == (4, 5)
    assert np.array_equal(v, psi.value(xs, ts))
    for i, t in enumerate(ts[:, 0]):
        for j, x in enumerate(xs):
            assert (v[i, j], v_x[i, j], v_t[i, j]) == tuple(psi.value_and_partials(x, t))
    assert not np.any(v[:, 3:]) and not np.any(v_x[:, 3:]) and not np.any(v_t[:, 3:])
    assert not np.any(v[3]) and not np.any(v_x[3]) and not np.any(v_t[3])
    fd_x = (psi.value(xs + h, ts) - psi.value(xs - h, ts)) / (2 * h)
    fd_t = (psi.value(xs, ts + h) - psi.value(xs, ts - h)) / (2 * h)
    assert np.max(np.abs(v_x - fd_x)) <= 1e-7
    assert np.max(np.abs(v_t - fd_t)) <= 1e-7
    assert np.any(v_x) and np.any(v_t)


def test_weak_residual_zero_test_function():
    sol = ds.solve(DELTA_DATA, PARAMS_02)
    psi = BumpTestFunction(0.5, 0.9, 0.8, 0.7, ((0.0, 0, 0),))
    r = weak_residual(sol, [psi], quad_resolution=60)
    assert np.all(r == 0.0)


@pytest.mark.parametrize("data", [DELTA_DATA, VACUUM_DATA], ids=["delta", "vacuum"])
def test_weak_residual_exact_families(data):
    sol = ds.solve(data, PARAMS_02)
    r = weak_residual(sol, PSIS, quad_resolution=400)
    assert np.max(np.abs(r)) <= 1e-6


def test_weak_residual_contact_family():
    sol = ds.solve(ds.RiemannData(0.008, 0.7, 0.003, 0.7), PARAMS_02)
    r = weak_residual(sol, PSIS, quad_resolution=400)
    assert np.max(np.abs(r)) <= 1e-6


def test_weak_residual_rejects_subsystem_shock():
    # the subsystem's arithmetic-mean shock conserves mass but not the
    # full system's momentum: the oracle must see that
    sol = ds.DeltaShockSolution(DELTA_DATA, PARAMS_02, ds.DeltaVariant.SUBSYSTEM)
    r = weak_residual(sol, PSIS, quad_resolution=400)
    assert np.max(np.abs(r[:, 0])) <= 1e-9
    assert np.max(np.abs(r[:, 1])) > 1e-5


def test_weak_residual_initial_point_mass():
    # a run started from an existing point mass keeps the balance identities
    d = ds.RiemannData(0.008, 1.5, 0.003, 0.5, omega0=0.02)
    sol = ds.DeltaShockSolution(d, PARAMS_02)
    r = weak_residual(sol, PSIS, quad_resolution=400)
    assert np.max(np.abs(r)) <= 1e-6


def test_weak_residual_quadrature_order():
    sol = ds.solve(DELTA_DATA, PARAMS_02)
    psi = BumpTestFunction(0.5, 0.9, 0.8, 0.7, ((1.0, 1, 0),))
    r40 = np.max(np.abs(weak_residual(sol, [psi], quad_resolution=40)))
    r160 = np.max(np.abs(weak_residual(sol, [psi], quad_resolution=160)))
    # two refinement doublings of a fourth-order rule: >= 16^2
    assert r40 / r160 >= 256.0


@pytest.mark.parametrize("resolution", [0, -3, -4])
def test_weak_residual_rejects_zero_resolution(resolution):
    # a negative count is rejected by the rule, not inside np.linspace
    sol = ds.solve(DELTA_DATA, PARAMS_02)
    with pytest.raises(ValueError, match="even, positive interval count"):
        weak_residual(sol, [BumpTestFunction(0.5, 0.9, 0.8, 0.7)], quad_resolution=resolution)


def test_weak_residual_rejects_escaping_support():
    sol = ds.solve(DELTA_DATA, PARAMS_02)
    with pytest.raises(ValueError, match="escapes"):
        weak_residual(sol, [BumpTestFunction(0.5, 3.0, 0.8, 0.7)], quad_resolution=40)
    with pytest.raises(ValueError, match="escapes"):
        weak_residual(sol, [BumpTestFunction(0.5, 0.9, 1.9, 0.5)], quad_resolution=40, t_max=2.0)
    # a negative half-width spans |half-width| on both sides of the center
    with pytest.raises(ValueError, match="escapes the quadrature box in t"):
        weak_residual(sol, [BumpTestFunction(0.5, 0.6, 1.9, -0.2)], quad_resolution=40, t_max=2.0)
    with pytest.raises(ValueError, match="escapes the quadrature box in x"):
        weak_residual(sol, [BumpTestFunction(0.5, -1.6, 1.9, 0.08)], quad_resolution=40)


@pytest.mark.parametrize(
    "args, match",
    [
        ((0.5, 0.0, 0.8, 0.7), "nonzero"),
        ((0.5, 0.9, 0.8, -0.0), "nonzero"),
        ((0.5, math.nan, 0.8, 0.7), "x_halfwidth must be finite"),
        ((0.5, 0.9, 0.8, math.inf), "t_halfwidth must be finite"),
        ((math.nan, 0.9, 0.8, 0.7), "x_center must be finite"),
        ((0.5, 0.9, -math.inf, 0.7), "t_center must be finite"),
    ],
)
def test_bump_test_function_rejects_degenerate_shape(args, match):
    with pytest.raises(ValueError, match=match):
        BumpTestFunction(*args)


RESIDUAL_SOLUTIONS = {
    "delta": ds.solve(DELTA_DATA, PARAMS_02),
    "vacuum": ds.solve(VACUUM_DATA, PARAMS_02),
    "contact-omega0": ds.solve(ds.RiemannData(0.01, 0.5, 0.02, 0.5, omega0=0.3), PARAMS_02),
    "one-zero-density": ds.solve(ds.RiemannData(0.008, 1.5, 0.0, 0.5, omega0=0.01), PARAMS_02),
}
# supports inside the box (-1, 2) x [0, 2); a t-support may start below t = 0
# or, when narrower than the node spacing, hold no node at all
RANDOM_PSI = st.builds(
    BumpTestFunction,
    x_center=st.floats(-0.1, 1.1),
    x_halfwidth=st.floats(0.01, 0.85),
    t_center=st.floats(-0.6, 1.1),
    t_halfwidth=st.floats(1e-3, 0.85),
    poly=st.lists(st.tuples(st.floats(-2.0, 2.0), st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=3).map(
        tuple
    ),
)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(RESIDUAL_SOLUTIONS)), psis=st.lists(RANDOM_PSI, min_size=1, max_size=3), n=st.integers(2, 160))
@example(name="contact-omega0", psis=PSIS, n=400)
# an x-support narrower than the node spacing
@example(name="delta", psis=[BumpTestFunction(0.55, 0.01, 0.8, 0.7)], n=10)
# t-support from below 0; none below 0; none between nodes 0.2 and 0.4;
# ends exactly on the nodes 0.2 and 0.6
@example(
    name="delta",
    psis=[
        BumpTestFunction(0.5, 0.6, 0.1, 0.5, ((-1.5, 1, 2),)),
        BumpTestFunction(0.5, 0.6, -0.5, 0.3),
        BumpTestFunction(0.5, 0.6, 0.3, 0.05),
        BumpTestFunction(0.5, 0.6, 0.4, 0.2, ((1.0, 0, 0), (-0.5, 2, 1))),
    ],
    n=10,
)
# x-support edges exactly on node columns: at t = 0 the left strip's nodes
# are -1 + j/16 and the right strip's j/8
@example(name="delta", psis=[BumpTestFunction(-0.5, 0.25, 0.0, 0.1), BumpTestFunction(1.0, 0.5, 0.0, 0.1)], n=16)
# an x-support holding every node of the left strip but its box edge: the
# columns clip to the grid at both ends
@example(name="delta", psis=[BumpTestFunction(0.5, 1.45, 1.5, 0.45)], n=40)
# a negative x_halfwidth: the support is |x - x_c| < |x_h| = (-0.9, 1.9),
# which meets both strips
@example(name="delta", psis=[BumpTestFunction(0.5, -1.4, 1.9, 0.08, ((1.0, 1, 1),))], n=40)
def test_weak_residual_equals_full_grid_reference(name, psis, n):
    sol = RESIDUAL_SOLUTIONS[name]
    r = weak_residual(sol, psis, quad_resolution=n)
    assert np.array_equal(r, reference_weak_residual(sol, psis, quad_resolution=n))


def test_weak_residual_columns_cover_rounded_nodes():
    # a strip 8 ulps wide: its 41 nodes round onto 9 values, so a node's
    # column can lie 2.5 columns past the one its exact position gives; psi
    # is as narrow and nonzero on them, so each missed column shows
    sol = RESIDUAL_SOLUTIONS["delta"]
    n, k = 40, 30
    xk = float(sol.position(2.0 * k / n))
    ulp = float(np.spacing(xk))
    psi = BumpTestFunction(xk + 4 * ulp, 2.25 * ulp, 2.0 * k / n, 0.01)
    box = (-1.0, xk + 8 * ulp)
    r = weak_residual(sol, [psi], quad_resolution=n, x_span=box)
    assert np.array_equal(r, reference_weak_residual(sol, [psi], quad_resolution=n, x_span=box))


def test_weak_residual_builds_no_node_grid():
    # psi's three full-height grids, 3 (n+1)^2 doubles, are the largest
    # arrays; an (n+1)^2 node array or a (rows x (n+1)) mask would add to them
    sol = RESIDUAL_SOLUTIONS["delta"]
    n = 400
    weak_residual(sol, PSIS, quad_resolution=n)
    tracemalloc.start()
    try:
        weak_residual(sol, PSIS, quad_resolution=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 3 * (n + 1) ** 2 * 8


def test_compare_self_comparison_is_zero():
    sol = ds.solve(DELTA_DATA, PARAMS_02)
    grid = ds.Grid1D(-1.0, 2.0, 600)
    st = sample_exact(sol, grid, 1.0, lump_delta=True)
    rep = compare(st, sol, 0.05, label="self")
    assert rep.l1_u <= 1e-12
    assert rep.l1_alpha_regular <= 1e-12
    assert rep.shock_position_error == 0.0
    assert rep.excess_mass_rel_error <= 1e-12


@pytest.mark.parametrize(
    "params, data, domain, error",
    [
        # mu*t past 745: the point mass is 1/mu, subnormal, and the excess over it overflows
        (ds.ModelParams(1.7e308, 1.0), ds.RiemannData(0.008, 1.5, 1e12, 0.5), (-1.0, 2.0), "excess_mass_rel_error"),
        # |u_num - u_ex| summed, times a cell width of 2.5e298
        (ds.ModelParams(0.2, 1e150), DELTA_DATA, (-1.0, 1e300), "l1_u"),
    ],
    ids=["subnormal-weight", "l1-overflow"],
)
def test_compare_rejects_an_error_past_the_float_range(params, data, domain, error):
    # the report held inf (a JSON report then held Infinity), or numpy warned first
    sol = ds.solve(data, params)
    state = ds.advance(ds.FieldState.from_riemann(ds.Grid1D(*domain, 40), data), params, 0.05, cfl=0.15)
    with pytest.raises(ValueError, match=f"leave the float range: .*'{error}': inf"):
        compare(state, sol, 0.05)


def test_compare_rejects_shock_off_the_grid():
    # at t = 1 the shock sits at x = 1.1, right of the grid
    sol = ds.solve(DELTA_DATA, PARAMS_02)
    st = sample_exact(sol, ds.Grid1D(-1.0, 0.5, 300), 1.0)
    with pytest.raises(ValueError, match="shock location left the grid"):
        compare(st, sol, 0.05)


def test_sample_exact_lumps_contact_point_mass():
    grid = ds.Grid1D(-1.0, 2.0, 300)
    contact = ds.solve(ds.RiemannData(0.008, 1.0, 0.003, 1.0, omega0=0.02), PARAMS_02)
    regular = sample_exact(contact, grid, 1.0)
    lumped = sample_exact(contact, grid, 1.0, lump_delta=True)
    assert np.sum(regular.alpha) * grid.dx == pytest.approx(0.019, rel=1e-12)
    assert np.sum(lumped.alpha) * grid.dx == pytest.approx(0.039, rel=1e-12)
    j = grid.cell_index(float(contact.position(1.0)))
    assert lumped.q[j] - regular.q[j] == pytest.approx(0.02 * contact.speed(1.0) / grid.dx, rel=1e-12)
    # without a point mass the lumped state keeps every byte, signed zeros included
    for a, u in ((0.008, 0.7), (0.008, -0.7), (0.0, 0.7), (0.0, -0.7)):
        contact = ds.solve(ds.RiemannData(a, u, a, u), PARAMS_02)
        for t in (0.0, 1.0):
            regular = sample_exact(contact, grid, t)
            lumped = sample_exact(contact, grid, t, lump_delta=True)
            assert regular.alpha.tobytes() == lumped.alpha.tobytes()
            assert regular.q.tobytes() == lumped.q.tobytes()


def test_compare_numeric_run_sane():
    grid = ds.Grid1D(-1.0, 2.0, 750)
    st = ds.advance(ds.FieldState.from_riemann(grid, DELTA_DATA), PARAMS_02, 1.0, cfl=0.15)
    rep = compare(st, ds.solve(DELTA_DATA, PARAMS_02), 0.05, label="n750")
    assert rep.shock_position_error <= 3
    assert rep.excess_mass_rel_error <= 0.1
    assert rep.l1_u <= 5e-3


@pytest.mark.parametrize(
    "data, errors",
    # README densities 0.008/0.003 and the mirrored 0.003/0.008; at
    # t = 0.0005 and 0.001 the README spike is still below the alpha_l
    # plateau, so the argmax of alpha alone lands 1000 cells off
    [(DELTA_DATA, [0, 1, 0, 1, 2]), (ds.RiemannData(0.003, 1.5, 0.008, 0.5), [0, 1, 0, 0, 1])],
    ids=["readme", "mirrored"],
)
def test_compare_locates_spike_above_background(data, errors):
    sol = ds.solve(data, PARAMS_02)
    st = ds.FieldState.from_riemann(ds.Grid1D(-1.0, 2.0, 3000), data)
    got = []
    for t in (0.0, 0.0005, 0.001, 0.4, 1.0):
        st = ds.advance(st, PARAMS_02, t, fixed_dt=1e-4)
        got.append(compare(st, sol, 0.05).shock_position_error)
    assert got == errors  # t = 0 has no point mass, so no spike to miss


def test_convergence_ladder():
    # errors shrink monotonically under refinement; the rate is measured on
    # the finest grid pair, where the scheme is in its asymptotic regime
    ladder = (750, 1500, 3000, 6000)
    vac_sol = ds.solve(VACUUM_DATA, PARAMS_02)
    vac = []
    for n in ladder:
        st = ds.advance(ds.FieldState.from_riemann(ds.Grid1D(-1.0, 2.0, n), VACUUM_DATA), PARAMS_02, 1.0, cfl=0.15)
        vac.append(compare(st, vac_sol, 0.05, label=f"vac-n{n}"))
    l1u = [r.l1_u for r in vac]
    l1a = [r.l1_alpha_regular for r in vac]
    assert all(b < a for a, b in zip(l1u, l1u[1:]))
    assert all(b < a for a, b in zip(l1a, l1a[1:]))
    assert np.log2(l1u[-2] / l1u[-1]) >= 0.5
    assert np.log2(l1a[-2] / l1a[-1]) >= 0.5
    # frozen regression bounds at n=3000 (measured 1.27e-2 and 3.02e-4; the
    # velocity error is dominated by dust velocity vs the fan inside the vacuum)
    assert l1u[2] <= 1.4e-2
    assert l1a[2] <= 3.5e-4

    # each delta grid is advanced once for both the windowed and whole-domain errors
    sol = ds.solve(DELTA_DATA, PARAMS_02)
    delta, whole = [], []
    for n in ladder:
        grid = ds.Grid1D(-1.0, 2.0, n)
        st = ds.advance(ds.FieldState.from_riemann(grid, DELTA_DATA), PARAMS_02, 1.0, cfl=0.15)
        delta.append(compare(st, sol, 0.05, label=f"delta-n{n}"))
        _, u_ex = sol.regular_fields(grid.centers(), 1.0)
        whole.append(float(np.sum(np.abs(ds.reconstruct_velocity(st, PARAMS_02) - u_ex)) * grid.dx))
    # outside the exclusion window the fields converge hard: once the spike
    # smear fits inside the window the transport is exact to rounding
    du = [r.l1_u for r in delta]
    da = [r.l1_alpha_regular for r in delta]
    assert all(b < a for a, b in zip(du, du[1:]))
    assert all(b < a for a, b in zip(da, da[1:]))
    assert np.log2(du[-2] / du[-1]) >= 0.5
    assert np.log2(da[-2] / da[-1]) >= 0.5
    assert du[-1] <= 1e-9 and da[-1] <= 1e-9
    # the concentrated-mass error is the converging feature
    mass_err = [r.excess_mass_rel_error for r in delta]
    assert mass_err[-1] <= mass_err[0]
    assert all(r.shock_position_error <= 3 for r in delta)
    # whole-domain velocity error (spike smearing included) also converges
    assert all(b < a for a, b in zip(whole, whole[1:]))
    assert np.log2(whole[-2] / whole[-1]) >= 0.5


def test_vacuum_extent():
    g = ds.Grid1D(0.0, 1.0, 10)
    alpha = np.array([1, 1, 1e-6, 1e-6, 1e-6, 1, 1e-6, 1e-6, 1, 1], dtype=float)
    st = ds.FieldState(g, alpha, alpha, 0.0)
    assert vacuum_extent(st, 0.5) == pytest.approx(0.3)
    assert vacuum_extent(st, 1e-9) == 0.0
    # runs touching either end, the whole grid, and a single cell
    for below, cells in [([0, 1, 2], 3), ([6, 7, 8, 9], 4), (range(10), 10), ([9], 1), ([0, 9], 1)]:
        alpha = np.ones(10)
        alpha[list(below)] = 1e-6
        assert vacuum_extent(ds.FieldState(g, alpha, alpha, 0.0), 0.5) == cells * g.dx
