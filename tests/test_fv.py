import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dropshock as ds
from dropshock import fv
from dropshock.fv import (
    FieldState,
    Grid1D,
    SolverAbort,
    advance,
    kinetic_flux,
    reconstruct_velocity,
    shock_mass,
    source_step,
)

from helpers import (
    DELTA_DATA,
    PARAMS_02,
    RELAX_15,
    VACUUM_DATA,
    _reference_velocity,
    reference_advance,
    reference_free_advance,
)


def test_grid_geometry():
    g = Grid1D(-1.0, 2.0, 3000)
    assert g.dx == pytest.approx(1e-3)
    x = g.centers()
    assert x[0] == pytest.approx(-1.0 + 0.5e-3)
    assert x[-1] == pytest.approx(2.0 - 0.5e-3)
    assert g.cell_index(x[17]) == 17
    assert g.cell_index(-5.0) == 0 and g.cell_index(5.0) == 2999


@pytest.mark.parametrize(
    "x_min, x_max, n_cells, message",
    [
        (-np.inf, 1.0, 10, "dx=inf"),  # NaN centres
        (-1e308, 1e308, 10, "dx=inf"),  # the width overflows
        (0.0, 5e-324, 10, "dx=0.0"),  # the cell width underflows
        (0.0, 1.0, 10.5, "integer"),  # 11 centres, and no FieldState fits them
        (0.0, 1.0, 10.0, "integer"),  # np.empty(n + 2) in advance rejects a float
        (0.0, 1.0, 0, "positive"),
        (1.0, 1.0, 10, "x_max must exceed x_min"),
    ],
    ids=["x_min-inf", "dx-overflow", "dx-underflow", "n_cells-fraction", "n_cells-float", "n_cells-zero",
         "empty-interval"],
)
def test_grid_rejects_unrepresentable_grid(x_min, x_max, n_cells, message):
    with pytest.raises(ValueError, match=message):
        Grid1D(x_min, x_max, n_cells)
    assert Grid1D(0.0, 1.0, np.int64(10)).centers().shape == (10,)


def test_kinetic_flux_rest_state():
    assert kinetic_flux(1.0, 0.0, 2.0, 0.0) == (0.0, 0.0)


def test_kinetic_flux_consistency():
    a, u = 0.7, 1.3
    fm, fq = kinetic_flux(a, u, a, u)
    assert fm == pytest.approx(a * u, rel=1e-15)
    assert fq == pytest.approx(a * u * u, rel=1e-15)
    # positive densities, one strict sign: the upwind side alone gives the same bits
    rng = np.random.default_rng(7)
    a_l, a_r = rng.uniform(1e-6, 0.05, (2, 500))
    speed_l, speed_r = rng.uniform(1e-3, 2.0, (2, 500))
    for sign in (1.0, -1.0):
        u_l, u_r = sign * speed_l, sign * speed_r
        upwind = (a_l, u_l) if sign > 0 else (a_r, u_r)
        one_sided, full = kinetic_flux(*upwind), kinetic_flux(a_l, u_l, a_r, u_r)
        for f1, f4 in zip(one_sided, full):
            assert f1.tobytes() == f4.tobytes()
    # an underflowing flux is zero in both forms, only the sign of the zero may differ
    f1, f4 = kinetic_flux(2e-12, -1e-320)[0], kinetic_flux(0.01, -0.5, 2e-12, -1e-320)[0]
    assert f1 == f4 == 0.0


def test_kinetic_flux_carries_given_velocities():
    # the momentum flux carries v_l and v_r; each left out is its side's u, bit for bit
    rng = np.random.default_rng(3)
    a_l, a_r = rng.uniform(0.0, 0.05, (2, 50))
    u_l, u_r, v_l, v_r = rng.uniform(-2.0, 2.0, (4, 50))
    up, down = np.maximum(u_l, 0.0) * a_l, np.minimum(u_r, 0.0) * a_r
    f_mass, f_mom = kinetic_flux(a_l, u_l, a_r, u_r, v_l=v_l, v_r=v_r)
    assert f_mass.tobytes() == (up + down).tobytes()
    assert f_mom.tobytes() == (up * v_l + down * v_r).tobytes()
    f_mass, f_mom = kinetic_flux(a_l, u_l, v_l=v_l)
    assert f_mass.tobytes() == (u_l * a_l).tobytes() and f_mom.tobytes() == (u_l * a_l * v_l).tobytes()
    for args in ((a_l, u_l, a_r, u_r), (a_l, u_l)):
        explicit = kinetic_flux(*args, v_l=args[1], v_r=args[3] if len(args) == 4 else None)
        assert [f.tobytes() for f in explicit] == [f.tobytes() for f in kinetic_flux(*args)]


def test_kinetic_flux_compressive_against_particle_oracle():
    # free transport of two monokinetic particle blocks over one step,
    # counting the mass and momentum carried across the interface
    rng = np.random.default_rng(42)
    a_l, u_l, a_r, u_r = 0.8, 1.0, 0.5, -0.6
    dx, dt, n = 1.0, 0.4, 10_000
    x_l = rng.uniform(-dx, 0.0, n)
    x_r = rng.uniform(0.0, dx, n)
    m_l = a_l * dx / n
    m_r = a_r * dx / n
    crossed_l = (x_l + u_l * dt) > 0.0
    crossed_r = (x_r + u_r * dt) < 0.0
    f_mass_mc = (crossed_l.sum() * m_l - crossed_r.sum() * m_r) / dt
    f_mom_mc = (crossed_l.sum() * m_l * u_l - crossed_r.sum() * m_r * u_r) / dt
    f_mass, f_mom = kinetic_flux(a_l, u_l, a_r, u_r)
    assert f_mass == pytest.approx(f_mass_mc, rel=0.02)
    assert f_mom == pytest.approx(f_mom_mc, rel=0.02)


def test_source_step_mu_zero_identity():
    g = Grid1D(0.0, 1.0, 4)
    st = FieldState(g, np.full(4, 0.5), np.full(4, 0.25), 0.0)
    out = source_step(st, ds.ModelParams(0.0, 1.0), 0.5)
    assert np.array_equal(out.q, st.q)


def test_source_step_exact_relaxation():
    g = Grid1D(0.0, 1.0, 1)
    st = FieldState(g, np.array([0.008]), np.array([0.008 * 1.5]), 0.0)
    out = source_step(st, PARAMS_02, 1.0)
    assert out.q[0] / out.alpha[0] == pytest.approx(RELAX_15, rel=1e-14)
    assert np.array_equal(out.alpha, st.alpha)


def test_source_step_fixed_point():
    g = Grid1D(0.0, 1.0, 8)
    alpha = np.linspace(0.1, 0.8, 8)
    st = FieldState(g, alpha, alpha * PARAMS_02.ua, 0.0)
    out = source_step(st, PARAMS_02, 2.0)
    assert np.allclose(out.q, st.q, rtol=0, atol=1e-16)


def test_advance_uniform_equilibrium_state_is_invariant():
    g = Grid1D(-1.0, 2.0, 300)
    alpha = np.full(300, 0.01)
    st = FieldState(g, alpha, alpha * 1.0, 0.0)
    out = advance(st, ds.ModelParams(0.3, 1.0), 0.5, cfl=0.5)
    # a uniform profile shifted by ua*t is itself; the scheme keeps it exactly
    assert np.max(np.abs(out.alpha - 0.01)) <= 1e-15
    assert np.max(np.abs(out.q - 0.01)) <= 1e-15


def test_from_riemann_rejects_point_mass():
    # the FV state has no point mass, so an omega0 > 0 start is refused
    # rather than silently dropped
    with pytest.raises(ValueError, match="no point mass"):
        FieldState.from_riemann(Grid1D(-1.0, 2.0, 64), ds.RiemannData(0.008, 1.5, 0.003, 0.5, omega0=0.02))


def test_advance_single_step_conservation():
    g = Grid1D(-1.0, 2.0, 600)
    st = FieldState.from_riemann(g, DELTA_DATA)
    dt = 1e-4
    out = advance(st, PARAMS_02, dt, fixed_dt=dt)
    # recompute the boundary fluxes the step used
    u = reconstruct_velocity(st, PARAMS_02)
    f_left = st.alpha[0] * max(u[0], 0.0) + st.alpha[0] * min(u[0], 0.0)
    f_right = st.alpha[-1] * max(u[-1], 0.0) + st.alpha[-1] * min(u[-1], 0.0)
    dmass = out.total_mass() - st.total_mass()
    assert abs(dmass + dt * (f_right - f_left)) <= 1e-12


def test_advance_multi_step_conservation_interior():
    # no wave reaches the boundary, so the mass budget is the integrated
    # far-field boundary flux; the explicit scheme samples that flux at the
    # start of each step, leaving only a rectangle-rule gap O(dt * t_end)
    g = Grid1D(-1.0, 2.0, 750)
    st = FieldState.from_riemann(g, DELTA_DATA)
    t_end = 0.25
    out = advance(st, PARAMS_02, t_end, cfl=0.3)
    from scipy.integrate import quad

    influx, _ = quad(lambda s: DELTA_DATA.alpha_l * ds.relax_velocity(DELTA_DATA.u_l, PARAMS_02, s), 0, t_end, epsabs=1e-14)
    outflux, _ = quad(lambda s: DELTA_DATA.alpha_r * ds.relax_velocity(DELTA_DATA.u_r, PARAMS_02, s), 0, t_end, epsabs=1e-14)
    assert out.total_mass() - st.total_mass() == pytest.approx(influx - outflux, abs=1e-6)


def test_advance_positivity_and_velocity_hull():
    g = Grid1D(-1.0, 2.0, 750)
    for data in (DELTA_DATA, VACUUM_DATA):
        st = FieldState.from_riemann(g, data)
        for t in (0.25, 0.5, 1.0):
            st = advance(st, PARAMS_02, t, cfl=0.15)
            assert np.min(st.alpha) >= 0.0
            u = reconstruct_velocity(st, PARAMS_02)
            lo = min(data.u_l, data.u_r, PARAMS_02.ua) - 1e-9
            hi = max(data.u_l, data.u_r, PARAMS_02.ua) + 1e-9
            assert np.min(u) >= lo and np.max(u) <= hi


def test_advance_delta_spike_tracks_exact_shock():
    g = Grid1D(-1.0, 2.0, 750)
    st = advance(FieldState.from_riemann(g, DELTA_DATA), PARAMS_02, 1.0, cfl=0.15)
    sol = ds.solve(DELTA_DATA, PARAMS_02)
    j_num = int(np.argmax(st.alpha))
    j_exact = g.cell_index(sol.position(1.0))
    assert abs(j_num - j_exact) <= 3
    excess = shock_mass(st, sol.position(1.0), 0.05, DELTA_DATA.alpha_l, DELTA_DATA.alpha_r)
    assert excess == pytest.approx(sol.weight(1.0), rel=0.1)


def test_advance_vacuum_depth_regression():
    # the numerical vacuum floor sits orders below the side densities and
    # deepens roughly linearly under refinement (first-order scheme)
    sol = ds.solve(VACUUM_DATA, PARAMS_02)
    x1, x2 = sol.bounds(1.0)
    floors = {}
    for n in (750, 1500):
        g = Grid1D(-1.0, 2.0, n)
        st = advance(FieldState.from_riemann(g, VACUUM_DATA), PARAMS_02, 1.0, cfl=0.15)
        x = g.centers()
        inside = (x > x1) & (x < x2)
        floors[n] = float(np.min(st.alpha[inside]))
        assert floors[n] <= min(VACUUM_DATA.alpha_l, VACUUM_DATA.alpha_r) / 50.0
    assert floors[1500] < 0.7 * floors[750]


def test_advance_rejects_bad_inputs():
    g = Grid1D(0.0, 1.0, 32)
    st = FieldState(g, np.full(32, 0.01), np.full(32, 0.01), 0.0)
    with pytest.raises(ValueError):
        advance(st, PARAMS_02, -1.0)
    with pytest.raises(ValueError):
        advance(st, PARAMS_02, 1.0, cfl=1.5)
    with pytest.raises(ValueError, match="one value per cell"):
        FieldState(g, np.full(31, 0.01), np.full(32, 0.01), 0.0)
    with pytest.raises(ValueError, match="dt must be positive"):
        source_step(st, PARAMS_02, 0.0)


@pytest.mark.parametrize("t_end", [np.inf, np.nan], ids=["inf", "nan"])
def test_advance_rejects_nonfinite_t_end(t_end):
    # a non-finite end time would skip the time loop and echo the state
    st = FieldState.from_riemann(Grid1D(-1.0, 2.0, 64), DELTA_DATA)
    with pytest.raises(ValueError, match="finite"):
        advance(st, PARAMS_02, t_end)


@pytest.mark.parametrize("time", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_advance_rejects_nonfinite_state_time(time):
    # a NaN time took no step and returned the input stamped t_end; -inf never ends
    g = Grid1D(-1.0, 2.0, 64)
    st = FieldState.from_riemann(g, DELTA_DATA)
    with pytest.raises(ValueError, match="state time must be finite"):
        advance(FieldState(g, st.alpha, st.q, time), PARAMS_02, 1.0)


@pytest.mark.parametrize("fixed_dt", [0.0, -1e-3, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
def test_advance_rejects_bad_fixed_dt(fixed_dt):
    # zero never advances t, a negative step marches backward in time
    st = FieldState.from_riemann(Grid1D(-1.0, 2.0, 64), DELTA_DATA)
    with pytest.raises(ValueError, match="fixed_dt"):
        advance(st, PARAMS_02, 1.0, fixed_dt=fixed_dt)


@pytest.mark.parametrize("fixed_dt", [1e-25, 5e-324], ids=["1e-25", "subnormal"])
def test_advance_rejects_fixed_dt_past_step_cap(fixed_dt):
    # from t ~ 9.3e-10 on, t + 1e-25 == t: the loop ran on without end
    st = FieldState.from_riemann(Grid1D(-1.0, 2.0, 64), DELTA_DATA)
    with pytest.raises(ValueError, match=f"exceeds the limit of {fv.MAX_STEPS}"):
        advance(st, PARAMS_02, 1.0, fixed_dt=fixed_dt)


def test_advance_fixed_dt_step_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(fv, "MAX_STEPS", 100)
    st = FieldState.from_riemann(Grid1D(-1.0, 2.0, 64), DELTA_DATA)
    assert advance(st, PARAMS_02, 1.0, fixed_dt=0.01).time == 1.0  # 100 steps
    with pytest.raises(ValueError, match="exceeds the limit of 100"):
        advance(st, PARAMS_02, 1.0, fixed_dt=0.0099)


def test_advance_aborts_past_step_cap(monkeypatch):
    # at |u| = 1e100 the adaptive dt is ~1e-103: reaching t = 1 takes ~1e103 steps
    monkeypatch.setattr(fv, "MAX_STEPS", 1000)
    st = FieldState.from_riemann(Grid1D(-1.0, 2.0, 64), ds.RiemannData(0.008, 1e100, 0.003, 1e100))
    with pytest.raises(SolverAbort, match=r"no end after 1000 steps \(t=7\.03125e-100 of t_end=1\)"):
        advance(st, PARAMS_02, 1.0)


def test_advance_aborts_on_nonfinite():
    g = Grid1D(0.0, 1.0, 32)
    q = np.full(32, 0.01)
    q[5] = np.inf
    st = FieldState(g, np.full(32, 0.01), q, 0.0)
    with pytest.raises(SolverAbort, match=r"non-finite state at step 1 \("):
        advance(st, PARAMS_02, 0.5, cfl=0.5)


@pytest.mark.parametrize(
    "value, message",
    # a NaN cell counts as vacuum for the velocity, then poisons its fluxes
    [(-1.0, "in cell 5 at step 1"), (np.nan, "non-finite state at step 1")],
    ids=["negative", "nan"],
)
def test_advance_aborts_on_bad_density(value, message):
    g = Grid1D(0.0, 1.0, 32)
    alpha = np.full(32, 0.01)
    alpha[5] = value
    st = FieldState(g, alpha, np.full(32, 0.01), 0.0)
    with pytest.raises(SolverAbort, match=message):
        advance(st, PARAMS_02, 0.5, cfl=0.5)


@pytest.mark.parametrize("mode", [{"cfl": 0.5}, {"fixed_dt": 1e-3}], ids=["cfl", "fixed_dt"])
def test_advance_leaves_input_untouched(mode):
    g = Grid1D(-1.0, 2.0, 200)
    st = FieldState.from_riemann(g, VACUUM_DATA)
    alpha0, q0 = st.alpha.copy(), st.q.copy()
    out = advance(st, PARAMS_02, 0.1, **mode)
    assert np.array_equal(st.alpha, alpha0) and np.array_equal(st.q, q0)
    for a in (out.alpha, out.q):
        for b in (st.alpha, st.q):
            assert not np.shares_memory(a, b)
    assert not np.array_equal(out.alpha, alpha0)


@pytest.mark.parametrize(
    "mode, t_end, steps",
    # |u| = 1 everywhere: fixed dt 1e-3 gives 10 full steps and a partial one,
    # cfl 0.5 gives dt = 0.5 * dx = 5e-3, so 20 full steps and a partial one
    [({"fixed_dt": 1e-3}, 0.0105, 11), ({"cfl": 0.5}, 0.1025, 21)],
    ids=["fixed_dt", "cfl"],
)
@pytest.mark.parametrize(
    "case, n_args",
    # a density ramp keeps the window on the whole grid: u = +1 takes the
    # left states, u = -1 (drag toward ua = -1) the right states; an empty
    # first cell (a lasting vacuum) or velocities of both signs take both
    [("left", 2), ("right", 2), ("vacuum", 4), ("both_signs", 4)],
    ids=["left", "right", "vacuum", "both_signs"],
)
def test_advance_calls_kinetic_flux_once_per_step(monkeypatch, mode, t_end, steps, case, n_args):
    # the benchmark's fv.steps and fv.cell_steps counters wrap the module
    # global, so each step must make exactly one call on the n + 1 interfaces
    n = 100
    calls, ghosts, outs = [], [], []
    original = fv.kinetic_flux

    def counting(*args, **kwargs):
        calls.append([len(a) for a in args])
        # the left states' densities open with the left ghost, the right
        # states' close with the right one; a one-sided call passes one of them
        a_left, a_right = args[0], args[-2]
        ghosts.append((a_left[0] == a_left[1], a_right[-1] == a_right[-2]))
        outs.append(_flux_buffers(args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(fv, "kinetic_flux", counting)
    alpha = np.linspace(0.01, 0.02, n)
    u = np.full(n, -1.0 if case == "right" else 1.0)
    if case == "vacuum":
        alpha[0] = 0.0
    if case == "both_signs":
        u[n // 2 :] = -1.0
    st = FieldState(Grid1D(0.0, 1.0, n), alpha, alpha * u, 0.0)
    advance(st, ds.ModelParams(0.3, u[0]), t_end, **mode)
    assert calls == [[n + 1] * n_args] * steps
    expected = {"left": (True, False), "right": (False, True)}.get(case, (True, True))
    assert ghosts == [expected] * steps
    # the window never moves here, so every step writes its flux into the same memory
    assert len(set(outs)) == 1


def _flux_buffers(args, kwargs):
    """The (address, address, length) of a kinetic_flux call's ``out`` pair,
    which must span the interfaces of its first argument."""
    f_mass, f_mom = kwargs["out"]
    assert len(f_mass) == len(f_mom) == len(args[0])
    return f_mass.ctypes.data, f_mom.ctypes.data, len(f_mass)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(16, 64),
    mu=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
    ua=st.floats(-2.0, 2.0),
    fixed=st.booleans(),
    courant=st.floats(0.1, 1.0),
    t_end=st.floats(0.0, 0.5),
)
def test_advance_mirror_symmetry_exact(seed, n, mu, ua, fixed, courant, t_end):
    # x -> -x maps (alpha, q, ua) to (reversed alpha, -reversed q, -ua); the
    # kinetic flux and the flux difference are symmetric in floating point,
    # so the mirrored run must reproduce the mirrored result bit for bit
    rng = np.random.default_rng(seed)
    x_min = rng.uniform(-2.0, 0.0)
    x_max = x_min + rng.uniform(0.5, 3.0)
    alpha = rng.uniform(0.0, 0.05, n) * (rng.uniform(size=n) > 0.2)  # some exact vacuum cells
    alpha[rng.uniform(size=n) < 0.1] = 1e-13  # and some below the vacuum threshold
    u = rng.uniform(-2.0, 2.0, n)
    params, mirrored = ds.ModelParams(mu, ua), ds.ModelParams(mu, -ua)
    grid, grid_m = Grid1D(x_min, x_max, n), Grid1D(-x_max, -x_min, n)
    kw = {"fixed_dt": courant * grid.dx / max(np.max(np.abs(u)), abs(ua))} if fixed else {"cfl": courant}
    out = advance(FieldState(grid, alpha, alpha * u, 0.0), params, t_end, **kw)
    out_m = advance(FieldState(grid_m, alpha[::-1], -(alpha * u)[::-1], 0.0), mirrored, t_end, **kw)
    assert np.array_equal(out_m.alpha, out.alpha[::-1])
    assert np.array_equal(out_m.q, -out.q[::-1])


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 64),
    mu=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
    ua=st.floats(0.01, 2.0),
    fixed=st.booleans(),
    courant=st.floats(0.1, 1.0),
    t_end=st.floats(0.0, 0.5),
)
def test_advance_mirror_symmetry_one_sided(seed, n, mu, ua, fixed, courant, t_end):
    # vacuum-free data with every velocity and ua positive take the left
    # states' flux on every step, and the mirrored run the right states'
    # flux; the two one-sided branches must agree bit for bit
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(1e-4, 0.05, n)
    u = rng.uniform(0.05, 2.0, n)
    params, mirrored = ds.ModelParams(mu, ua), ds.ModelParams(mu, -ua)
    grid = Grid1D(-1.0, 1.0, n)
    kw = {"fixed_dt": courant * grid.dx / max(np.max(u), ua)} if fixed else {"cfl": courant}
    with mock.patch.object(fv, "kinetic_flux", wraps=fv.kinetic_flux) as spy:
        out = advance(FieldState(grid, alpha, alpha * u, 0.0), params, t_end, **kw)
        out_m = advance(FieldState(grid, alpha[::-1], -(alpha * u)[::-1], 0.0), mirrored, t_end, **kw)
    assert all(len(call.args) == 2 for call in spy.call_args_list)
    assert out_m.alpha.tobytes() == out.alpha[::-1].tobytes()
    assert out_m.q.tobytes() == (-out.q[::-1]).tobytes()


@pytest.mark.parametrize(
    "data, ua, l1_max",
    # ua lies outside the hull of the initial velocities in every case, so
    # drag leaves that hull; clipping u to it measured 0.26, 0.19 and 0.071
    [
        (ds.RiemannData(0.008, 1.0, 0.003, 1.0), 5.0, 1e-12),
        (DELTA_DATA, 3.0, 0.03),
        (VACUUM_DATA, -1.0, 0.02),
    ],
    ids=["contact", "delta", "vacuum"],
)
def test_drag_toward_ua_outside_velocity_hull(data, ua, l1_max):
    params = ds.ModelParams(1.0, ua)
    st = advance(FieldState.from_riemann(Grid1D(-2.0, 4.0, 600), data), params, 0.5)
    rep = ds.compare(st, ds.solve(data, params))
    assert rep.l1_u <= l1_max


def _outcome(run, *args, **kw):
    """The final (alpha, q) bytes of a run, or its abort message."""
    try:
        out = run(*args, **kw)
    except SolverAbort as exc:
        return str(exc)
    return out.alpha.tobytes(), out.q.tobytes()


def _reference_outcome(*args, **kw):
    """``_outcome`` of ``reference_free_advance``, whose loop warns as it computes with bad values.

    ``advance`` itself must not warn: the suite turns warnings into errors.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return _outcome(reference_free_advance, *args, **kw)


STATE = st.tuples(st.sampled_from([0.0, 1e-13, 0.002, 0.01, 0.03]), st.floats(-2.0, 2.0))
POISON = st.none() | st.tuples(
    st.sampled_from(["first", "last", "interior"]),
    st.sampled_from(["alpha", "q"]),
    st.sampled_from([np.nan, np.inf, -np.inf, -1.0]),
)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 48),
    cuts=st.lists(st.integers(0, 48), max_size=4),
    states=st.lists(STATE, min_size=5, max_size=5),
    poison=POISON,
    mu=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
    ua=st.floats(-2.0, 2.0),
    fixed=st.booleans(),
    courant=st.floats(0.1, 1.2),
    t_end=st.floats(0.0, 0.4),
)
# multi-piece data with jumps next to both ends, end states at alpha = 0 or
# 1e-13 with -0.0 momenta, bad values in an end cell and in an interior cell
@example(n=20, cuts=[1, 10, 19], states=[(0.01, 1.0), (0.002, -0.5), (0.03, 0.7), (0.01, 1.2), (0, 0)],
         poison=None, mu=0.5, ua=0.3, fixed=False, courant=0.5, t_end=0.3)
@example(n=24, cuts=[1, 23], states=[(0.0, -1.0), (0.01, 0.5), (1e-13, -0.3), (0, 0), (0, 0)],
         poison=None, mu=0.0, ua=-0.4, fixed=True, courant=0.9, t_end=0.3)
@example(n=24, cuts=[12], states=[(1e-13, -1.5), (0.0, -0.2), (0, 0), (0, 0), (0, 0)],
         poison=None, mu=1.0, ua=1.0, fixed=False, courant=0.3, t_end=0.2)
@example(n=16, cuts=[8], states=[(0.01, 1.0), (0.02, -1.0), (0, 0), (0, 0), (0, 0)],
         poison=("first", "alpha", np.nan), mu=0.2, ua=1.0, fixed=False, courant=0.5, t_end=0.2)
@example(n=16, cuts=[8], states=[(0.01, 1.0), (0.02, -1.0), (0, 0), (0, 0), (0, 0)],
         poison=("last", "q", np.inf), mu=0.2, ua=1.0, fixed=True, courant=0.5, t_end=0.2)
@example(n=16, cuts=[8], states=[(0.01, 1.0), (0.02, -1.0), (0, 0), (0, 0), (0, 0)],
         poison=("interior", "alpha", -1.0), mu=0.2, ua=1.0, fixed=False, courant=0.5, t_end=0.2)
@example(n=16, cuts=[8], states=[(0.01, 1.0), (0.02, -1.0), (0, 0), (0, 0), (0, 0)],
         poison=("last", "alpha", -1.0), mu=0.0, ua=1.0, fixed=True, courant=0.5, t_end=0.2)
@example(n=16, cuts=[], states=[(0.01, 1.0), (0, 0), (0, 0), (0, 0), (0, 0)],
         poison=("interior", "q", -np.inf), mu=0.0, ua=1.0, fixed=False, courant=0.5, t_end=0.2)
@example(n=16, cuts=[4], states=[(0.01, 2.0), (0.02, -1.0), (0, 0), (0, 0), (0, 0)],
         poison=None, mu=0.0, ua=1.0, fixed=True, courant=1.2, t_end=0.2)
@example(n=16, cuts=[6], states=[(-1e-3, 0.5), (0.01, -1.0), (0, 0), (0, 0), (0, 0)],
         poison=None, mu=0.5, ua=1.0, fixed=False, courant=0.5, t_end=0.2)
# one-sided fluxes: negative velocities with underflowing products (alpha*u
# is -0 in the first piece until drag toward ua < 0 moves it, and the second
# piece holds the smallest denormal momentum), alpha one ulp above
# VACUUM_ALPHA, drag turning every velocity negative (left states, both, then
# right states) and an empty cell filling up (both states, then left states)
@example(n=24, cuts=[8, 16], states=[(2e-12, -1e-320), (2e-12, -2.5e-312), (0.01, -0.5), (0, 0), (0, 0)],
         poison=None, mu=1.0, ua=-1.0, fixed=False, courant=0.5, t_end=0.2)
@example(n=24, cuts=[12], states=[(1.0000000000000002e-12, 0.7), (0.01, 1.2), (0, 0), (0, 0), (0, 0)],
         poison=None, mu=0.5, ua=1.0, fixed=True, courant=0.9, t_end=0.3)
@example(n=32, cuts=[16], states=[(0.01, 1.0), (0.02, 0.5), (0, 0), (0, 0), (0, 0)],
         poison=None, mu=3.0, ua=-1.0, fixed=False, courant=0.5, t_end=0.6)
@example(n=16, cuts=[7, 8], states=[(0.01, 1.0), (0.0, 0.0), (0.01, 1.0), (0, 0), (0, 0)],
         poison=None, mu=0.0, ua=1.0, fixed=True, courant=0.5, t_end=0.1)
# densities whose squares overflow: every value stays finite, but the
# finiteness dot of alpha and q is inf and the extremes must clear it
@example(n=16, cuts=[8], states=[(1e155, 1.0), (2e155, -0.5), (0, 0), (0, 0), (0, 0)],
         poison=None, mu=0.5, ua=1.0, fixed=False, courant=0.5, t_end=0.2)
@example(n=16, cuts=[8], states=[(1e200, 1.5), (3e200, 0.5), (0, 0), (0, 0), (0, 0)],
         poison=None, mu=0.2, ua=1.0, fixed=True, courant=0.9, t_end=0.2)
# window growth: every u < 0, so after the first step only the left edge
# grows, step by step until it reaches cell 0; colliding streams, which grow
# both edges in one step; and a fixed dt ending on a partial step
# (t_end = 10.5 dt), so dt/dx and the drag factor change on the last step
@example(n=12, cuts=[6], states=[(0.01, -0.5), (0.02, -1.0), (0, 0), (0, 0), (0, 0)],
         poison=None, mu=0.5, ua=-1.0, fixed=True, courant=0.9, t_end=0.4)
@example(n=24, cuts=[12], states=[(0.01, 1.0), (0.02, -1.0), (0, 0), (0, 0), (0, 0)],
         poison=None, mu=0.3, ua=0.2, fixed=True, courant=0.9, t_end=0.4)
@example(n=16, cuts=[8], states=[(0.01, 1.0), (0.02, 0.5), (0, 0), (0, 0), (0, 0)],
         poison=None, mu=0.5, ua=1.0, fixed=True, courant=0.8, t_end=0.525)
# a negative density is named by the grid's first cell holding min(alpha):
# cell 0 when it is the window's left edge (the window starts at cell 19),
# and cell 21 inside the window [9, 31)
@example(n=40, cuts=[20, 30], states=[(-2e-3, 0.4), (0.01, -0.8), (0.02, 0.3), (0, 0), (0, 0)],
         poison=None, mu=0.3, ua=0.5, fixed=True, courant=0.7, t_end=0.3)
@example(n=40, cuts=[10, 20, 30], states=[(0.01, 0.5), (0.02, 0.5), (-0.004, -0.2), (0.01, -0.5), (0, 0)],
         poison=None, mu=0.0, ua=0.5, fixed=False, courant=0.4, t_end=0.3)
# an empty cell holding momentum: q/alpha divides by zero, without a
# warning, before ua overwrites it
@example(n=16, cuts=[4, 12], states=[(0.01, 1.0), (0.0, 0.0), (0.01, -1.0), (0, 0), (0, 0)],
         poison=("interior", "q", -1.0), mu=0.5, ua=0.3, fixed=False, courant=0.5, t_end=0.2)
# a contact at u = 1e9: q/alpha rounds outside the hull padded by 1e-9, and
# the clip back to it changes the output
@example(n=16, cuts=[8], states=[(0.01, 1e9), (0.02, 1e9), (0, 0), (0, 0), (0, 0)],
         poison=None, mu=0.0, ua=0.3, fixed=False, courant=0.5, t_end=2.5e-9)
def test_advance_equals_full_grid_reference(n, cuts, states, poison, mu, ua, fixed, courant, t_end):
    # the windowed kernel must return the full-grid loop's bytes, or abort
    # with its message (same step, same argmin cell and value)
    piece = np.searchsorted(sorted({c % (n + 1) for c in cuts}), np.arange(n), side="right")
    alpha = np.array([states[k][0] for k in piece])
    q = alpha * np.array([states[k][1] for k in piece])
    if poison is not None:
        where, field, value = poison
        (alpha if field == "alpha" else q)[{"first": 0, "last": n - 1, "interior": n // 2}[where]] = value
    grid = Grid1D(-1.0, 1.0, n)
    kw = {"fixed_dt": courant * grid.dx / 2.0} if fixed else {"cfl": min(courant, 1.0)}
    state, params = FieldState(grid, alpha, q, 0.0), ds.ModelParams(mu, ua)
    assert _outcome(advance, state, params, t_end, **kw) == _reference_outcome(state, params, t_end, **kw)


@pytest.mark.parametrize("field", ["alpha", "q"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_advance_nonfinite_interior_value_aborts_as_reference(field, value):
    # the bad value makes the dot non-finite, and the extremes name the step
    g = Grid1D(0.0, 1.0, 32)
    alpha = np.full(32, 0.01)
    q = np.full(32, 0.01)
    (alpha if field == "alpha" else q)[16] = value
    st = FieldState(g, alpha, q, 0.0)
    message = _outcome(advance, st, PARAMS_02, 0.5, cfl=0.5)
    assert message == _reference_outcome(st, PARAMS_02, 0.5, cfl=0.5)
    assert message.startswith("non-finite state at step ")


@pytest.mark.parametrize("t_end, step", [(0.01, 1), (0.05, 1)])
def test_advance_aborts_on_nonfinite_last_drag(t_end, step):
    # alpha*ua overflows, so the free-frame momentum p = q - alpha*ua is
    # -inf from the start; the check after the first step reports that
    # step, last or not
    g = Grid1D(0.0, 1.0, 16)
    alpha = np.full(16, 1e308)
    st = FieldState(g, alpha, 0.5 * alpha, 0.0)
    params = ds.ModelParams(1.0, 2.0)
    message = _outcome(advance, st, params, t_end, fixed_dt=0.01)
    assert message == _reference_outcome(st, params, t_end, fixed_dt=0.01)
    assert message.startswith(f"non-finite state at step {step} (")


def test_advance_nonfinite_momentum_beside_negative_density():
    # colliding streams at |u| = 1e160 overflow alpha*u^2 while alpha stays
    # finite and negative in cell 0: the abort names the non-finite state
    g = Grid1D(0.0, 1.0, 16)
    alpha = np.full(16, 1e-10)
    alpha[0] = -1.0
    q = alpha * np.where(np.arange(16) < 8, 1e160, -1e160)
    q[0] = 0.0
    st = FieldState(g, alpha, q, 0.0)
    params = ds.ModelParams(0.0, 0.5)
    message = _outcome(advance, st, params, 0.05, cfl=0.5)
    assert message == _reference_outcome(st, params, 0.05, cfl=0.5)
    assert message.startswith("non-finite state at step 1 (")


def test_advance_aborts_when_density_overflows():
    # colliding streams at alpha = 1.5e308 and CFL 1: the two cells at the
    # jump overflow to alpha = +inf while min(alpha) and q stay finite, so
    # only max(alpha) behind the non-finite dot catches the first step
    g = Grid1D(-1.0, 1.0, 16)
    alpha = np.full(16, 1.5e308)
    st = FieldState(g, alpha, alpha * np.where(np.arange(16) < 8, 0.5, -0.5), 0.0)
    params = ds.ModelParams(0.0, 1.0)
    message = _outcome(advance, st, params, 0.5, cfl=1.0)
    assert message == _reference_outcome(st, params, 0.5, cfl=1.0)
    assert message.startswith("non-finite state at step 1 (")


def test_advance_aborts_when_the_momentum_overflows_on_return():
    # the jump cells gain mass, so alpha*ua first overflows in the
    # conversion back to q after the last step, while alpha and p stay
    # finite: that check names the step, as the drag's did
    g = Grid1D(-1.0, 1.0, 16)
    alpha = np.full(16, 1.7e307)
    st = FieldState(g, alpha, alpha * np.where(np.arange(16) < 8, 10.5, 9.5), 0.0)
    for mu in (0.0, 0.5):
        params = ds.ModelParams(mu, 10.0)
        message = _outcome(advance, st, params, 0.01, fixed_dt=0.01)
        assert message == _reference_outcome(st, params, 0.01, fixed_dt=0.01)
        assert message == "non-finite state at step 1 (t=0.01)"


SPLIT_CASES = {
    "delta": DELTA_DATA,
    "vacuum": VACUUM_DATA,
    "left-moving": ds.RiemannData(0.004, 0.3, 0.009, -0.8),
    "sign-changing": ds.RiemannData(0.004, -0.8, 0.009, 0.6),
}


@pytest.mark.parametrize("t0", [0.0, 0.4])
@pytest.mark.parametrize("mode", [{"cfl": 0.5}, {"fixed_dt": 1e-3}], ids=["cfl", "fixed_dt"])
@pytest.mark.parametrize("mu", [0.0, 0.2, 4.0])
@pytest.mark.parametrize("case", list(SPLIT_CASES))
def test_advance_within_rounding_of_split_step_reference(case, mu, mode, t0):
    # the free-frame step is transport then exact drag in exact arithmetic:
    # the split loop it replaced stays within rounding of it (measured
    # <= 3e-13 relative on these cases); a start at t0 > 0 checks that the
    # frame starts with the call
    st = FieldState.from_riemann(Grid1D(-1.0, 2.0, 600), SPLIT_CASES[case])
    st = FieldState(st.grid, st.alpha, st.q, t0)
    params = ds.ModelParams(mu, 1.0)
    got, want = advance(st, params, t0 + 0.5, **mode), reference_advance(st, params, t0 + 0.5, **mode)
    assert np.max(np.abs(got.alpha - want.alpha)) <= 1e-10 * np.max(want.alpha)
    assert np.max(np.abs(got.q - want.q)) <= 1e-10 * np.max(np.abs(want.q))


@pytest.mark.parametrize("mode", [{"cfl": 0.5}, {"fixed_dt": 1e-3}], ids=["cfl", "fixed_dt"])
def test_advance_decay_underflow_matches_split_step_reference(mode):
    # exp(-mu*(t - t0)) underflows to 0 from t ~ 0.75 on: u = ua exactly,
    # as the split loop's drag reaches it (measured max |delta| <= 9e-19)
    st = FieldState.from_riemann(Grid1D(-1.0, 2.0, 600), DELTA_DATA)
    params = ds.ModelParams(1000.0, 1.0)
    got, want = advance(st, params, 1.0, **mode), reference_advance(st, params, 1.0, **mode)
    assert np.max(np.abs(got.alpha - want.alpha)) <= 6e-17
    assert np.max(np.abs(got.q - want.q)) <= 6e-17


def test_advance_window_grows_one_cell_per_side(monkeypatch):
    # one jump: the first step covers the two jump cells and one cell on
    # each side, and each later step adds at most one cell per side
    n = 200
    sizes, outs = [], []
    original = fv.kinetic_flux

    def counting(*args, **kwargs):
        sizes.append(len(args[0]))
        outs.append(_flux_buffers(args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(fv, "kinetic_flux", counting)
    st = FieldState.from_riemann(Grid1D(-1.0, 2.0, n), DELTA_DATA)
    advance(st, PARAMS_02, 0.3, cfl=0.15)
    assert sizes[0] == 5
    steps = np.diff(sizes)
    assert np.all(steps >= 0) and np.all(steps <= 2)
    assert max(sizes) <= n + 1
    assert sizes[-1] < n + 1  # the far field was never stepped
    # steps on an unchanged window write their flux into the same memory
    assert all(a == b for a, b in zip(outs, outs[1:]) if a[2] == b[2])
    assert 0 in steps  # and there are such steps


@settings(max_examples=100, deadline=None)
@given(
    alpha_l=st.one_of(st.just(0.0), st.floats(1e-4, 0.05)),
    alpha_r=st.one_of(st.just(0.0), st.floats(1e-4, 0.05)),
    u_l=st.floats(-2.0, 2.0),
    u_r=st.floats(-2.0, 2.0),
    mu=st.one_of(st.just(0.0), st.floats(0.01, 4.0)),
    ua=st.floats(-3.0, 3.0),
    t_end=st.floats(0.0, 0.6),
)
# mass flowing into cells that were vacuum: they must not keep a zeroed momentum
@example(alpha_l=0.0, alpha_r=0.03125, u_l=-1.0, u_r=-1.0, mu=0.0, ua=-1.0, t_end=0.5)
def test_advance_positivity_and_velocity_hull_property(alpha_l, alpha_r, u_l, u_r, mu, ua, t_end):
    # the kinetic flux keeps alpha >= 0 and, with drag toward ua, every
    # velocity inside the hull of the data and ua
    params = ds.ModelParams(mu, ua)
    st = FieldState.from_riemann(Grid1D(-1.0, 2.0, 120), ds.RiemannData(alpha_l, u_l, alpha_r, u_r))
    out = advance(st, params, t_end, cfl=0.5)
    assert np.min(out.alpha) >= 0.0
    u = reconstruct_velocity(out, params)
    assert np.min(u) >= min(u_l, u_r, ua) - 1e-9
    assert np.max(u) <= max(u_l, u_r, ua) + 1e-9


def test_advance_fixed_dt_cfl_violation_aborts():
    g = Grid1D(-1.0, 2.0, 100)
    st = FieldState.from_riemann(g, DELTA_DATA)
    with pytest.raises(SolverAbort, match="CFL"):
        advance(st, PARAMS_02, 1.0, fixed_dt=0.1)


def test_advance_zero_duration_echoes_state():
    g = Grid1D(-1.0, 2.0, 64)
    st = FieldState.from_riemann(g, DELTA_DATA)
    out = advance(st, PARAMS_02, 0.0)
    assert np.array_equal(out.alpha, st.alpha) and np.array_equal(out.q, st.q)


def test_shock_mass_background_only_is_zero():
    g = Grid1D(-1.0, 2.0, 500)
    st = FieldState.from_riemann(g, DELTA_DATA)
    assert abs(shock_mass(st, 0.0, 0.25, DELTA_DATA.alpha_l, DELTA_DATA.alpha_r)) <= 1e-12


def test_shock_mass_zero_width_window():
    g = Grid1D(-1.0, 2.0, 500)
    st = FieldState.from_riemann(g, DELTA_DATA)
    assert shock_mass(st, 0.1234, 0.0, DELTA_DATA.alpha_l, DELTA_DATA.alpha_r) == 0.0


def test_shock_mass_window_must_fit_domain():
    g = Grid1D(-1.0, 2.0, 500)
    st = FieldState.from_riemann(g, DELTA_DATA)
    with pytest.raises(ValueError):
        shock_mass(st, 1.9, 0.5, DELTA_DATA.alpha_l, DELTA_DATA.alpha_r)
    with pytest.raises(ValueError, match="nonnegative"):
        shock_mass(st, 0.5, -0.1, DELTA_DATA.alpha_l, DELTA_DATA.alpha_r)


@pytest.mark.parametrize("center, half_width", [(np.nan, 0.1), (0.5, np.nan), (np.inf, 0.1)],
                         ids=["center-nan", "half_width-nan", "center-inf"])
def test_shock_mass_rejects_nonfinite_window(center, half_width):
    # a NaN selects no cell, and the excess mass read 0.0
    st = FieldState.from_riemann(Grid1D(-1.0, 2.0, 500), DELTA_DATA)
    with pytest.raises(ValueError, match="finite"):
        shock_mass(st, center, half_width, DELTA_DATA.alpha_l, DELTA_DATA.alpha_r)


@pytest.mark.parametrize(
    "bounds",
    [(2.0, 0.0), (np.nan, 1.0), (0.0, np.nan), (-np.inf, 1.0), (0.0, np.inf), (0.0, 1.0, 5.0), (0.0,),
     5, "ab", (0, "1"), (None, 1.0), {0: 1, 1: 2}],
    ids=["reversed", "lo-nan", "hi-nan", "lo-inf", "hi-inf", "three-values", "one-value",
         "number", "text", "text-bound", "none-bound", "dict"],
)
def test_reconstruct_velocity_rejects_bad_bounds(bounds):
    # reversed bounds clipped every velocity to 0.0, a NaN bound to NaN; a
    # third value was ignored and a single one raised IndexError; a number,
    # text or None raised TypeError, and a dict clipped to its values
    st = FieldState.from_riemann(Grid1D(-1.0, 2.0, 64), DELTA_DATA)
    with pytest.raises(ValueError, match="bounds"):
        reconstruct_velocity(st, PARAMS_02, bounds)
    assert np.array_equal(reconstruct_velocity(st, PARAMS_02, (1.0, 1.0)), np.ones(64))


def test_reconstruct_velocity_overflow_is_silent():
    # q/alpha overflows to inf in the first cell; advance's errstate keeps
    # that silent, and so does this one, with and without the clip
    st = FieldState(Grid1D(0.0, 1.0, 2), np.array([1e-11, 1.0]), np.array([1e300, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert reconstruct_velocity(st, PARAMS_02).tolist() == [np.inf, 1.0]
        assert reconstruct_velocity(st, PARAMS_02, (0.0, 2.0)).tolist() == [2.0, 1.0]


SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-12])
VALUE = SPECIAL | st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=500, deadline=None)
@given(
    alpha=st.lists(VALUE, min_size=1, max_size=12),
    q=st.lists(VALUE, min_size=12, max_size=12),
    ua=st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0]),
    bounds=st.none() | st.lists(st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0]), min_size=2, max_size=2),
)
@example(alpha=[1.0, 1.0], q=[0.0, -0.0] + [0.0] * 10, ua=0.0, bounds=None)
@example(alpha=[1.0, 1.0], q=[-0.0, 0.0] + [0.0] * 10, ua=0.0, bounds=[-0.0, 0.0])
@example(alpha=[1.0, np.nan, 1.0], q=[-5.0, 1.0, np.inf] + [0.0] * 9, ua=1.0, bounds=[-1.0, 1.0])
def test_reconstruct_velocity_equals_reference(alpha, q, ua, bounds):
    # advance's velocity rule, out of the time loop: q/alpha, ua where alpha
    # is not above VACUUM_ALPHA (NaN included), clipped only when an extreme
    # leaves the bounds; the bytes of the masked-divide reference
    alpha = np.array(alpha)
    q = np.array(q[: len(alpha)])
    bounds = None if bounds is None else tuple(sorted(bounds))
    n = len(alpha)
    want = np.empty(n)
    with np.errstate(all="ignore"):
        _reference_velocity(alpha, q, ua, bounds, want, np.empty(n, dtype=bool), any_vacuum=True)
        got = reconstruct_velocity(FieldState(Grid1D(0.0, 1.0, n), alpha, q), ds.ModelParams(0.0, ua), bounds)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    states=st.lists(st.tuples(VALUE, VALUE, VALUE, VALUE), min_size=1, max_size=12),
    one_sided=st.booleans(),
)
@example(states=[(0.0, -0.0, -0.0, 0.0), (5e-324, -5e-324, np.inf, -np.inf), (np.nan, 1.0, 1.0, np.nan)],
         one_sided=False)
@example(states=[(-0.0, 0.0, 0.0, 0.0), (np.inf, 0.0, 0.0, 0.0), (2.2e-308, -1e-310, 0.0, 0.0)], one_sided=True)
def test_kinetic_flux_out_equals_allocating_form(states, one_sided):
    # advance passes preallocated interface buffers: the flux written into
    # them must be the allocating call's bytes, in the given arrays
    a_l, u_l, a_r, u_r = (np.array(column) for column in zip(*states))
    args = (a_l, u_l) if one_sided else (a_l, u_l, a_r, u_r)
    inputs = [a.tobytes() for a in args]
    out = (np.full(len(a_l), 7.0), np.full(len(a_l), 7.0))  # stale values to overwrite
    with np.errstate(all="ignore"):
        want = kinetic_flux(*args)
        got = kinetic_flux(*args, out=out)
    assert got[0] is out[0] and got[1] is out[1]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert [a.tobytes() for a in args] == inputs


def test_shock_mass_recovers_lumped_delta():
    sol = ds.solve(DELTA_DATA, PARAMS_02)
    g = Grid1D(-1.0, 2.0, 500)
    st = ds.sample_exact(sol, g, 1.0, lump_delta=True)
    m = shock_mass(st, sol.position(1.0), 0.05, DELTA_DATA.alpha_l, DELTA_DATA.alpha_r)
    assert m == pytest.approx(sol.weight(1.0), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    states=st.lists(st.tuples(VALUE, VALUE, VALUE, VALUE, VALUE, VALUE), min_size=1, max_size=12),
    carried=st.booleans(),
)
@example(states=[(0.0, -0.0, -0.0, 0.0, 1.0, 1.0), (5e-324, -5e-324, np.inf, -np.inf, np.nan, 0.0)], carried=True)
def test_kinetic_flux_scratch_takes_the_right_share(states, carried):
    # advance's two-sided step hands the four-argument flux a scratch array
    # for the right states' share, so the step allocates no array; the flux
    # keeps the allocating call's bytes and the scratch holds that share
    a_l, u_l, a_r, u_r, v_l, v_r = (np.array(column) for column in zip(*states))
    velocities = {"v_l": v_l, "v_r": v_r} if carried else {}
    out = (np.full(len(a_l), 7.0), np.full(len(a_l), 7.0))
    scratch = np.full(len(a_l), 7.0)
    with np.errstate(all="ignore"):
        want = kinetic_flux(a_l, u_l, a_r, u_r, **velocities)
        got = kinetic_flux(a_l, u_l, a_r, u_r, out=out, scratch=scratch, **velocities)
        share = np.minimum(u_r, 0.0) * a_r * (v_r if carried else u_r)
    assert got[0] is out[0] and got[1] is out[1]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert scratch.tobytes() == share.tobytes()


# the sizes advance takes from the arena for an n-cell grid: s, fg, d, u_ext, v_ext
def _buffer_sizes(n):
    return 2 * n + 2, 2 * n + 2, 2 * n + 1, n + 2, n + 2


@pytest.mark.parametrize("pad", [0, 1, 24, 1000, 4097, 40000, 65536])
@pytest.mark.parametrize("n", [1, 2, 3000, 12000])
def test_work_buffers_sit_at_fixed_page_offsets(n, pad):
    # the five views are contiguous float64 of the given sizes, disjoint and
    # on pages of their own, and view k starts 64*k bytes past a page
    # boundary whatever the heap held before the call
    filler = bytearray(pad)
    sizes = _buffer_sizes(n)
    views = fv._work_buffers(*sizes)
    assert [v.shape for v in views] == [(size,) for size in sizes]
    assert all(v.dtype == np.float64 and v.flags.c_contiguous and v.flags.writeable for v in views)
    starts = [v.ctypes.data for v in views]
    assert [a % 4096 for a in starts] == [0, 64, 128, 192, 256]
    for v, w in zip(views, views[1:]):
        last_page = (v.ctypes.data + v.nbytes - 1) // 4096
        assert last_page < w.ctypes.data // 4096
    for j, v in enumerate(views):
        assert not any(np.shares_memory(v, w) for w in views[j + 1 :])
    # one allocation, at most six pages above the views' own bytes
    base = views[0].base
    assert all(v.base is base for v in views)
    assert base.nbytes <= sum(v.nbytes for v in views) + 6 * 4096
    assert len(filler) == pad


# (data, params): every velocity positive takes the one-sided flux; the
# other two take the four-argument one, a delta shock on a narrow window and
# a vacuum across u = 0 whose window widens by two cells a step
PEAK_CASES = {
    "one-sided": (DELTA_DATA, PARAMS_02),
    "two-sided-delta": (ds.RiemannData(0.008, 0.5, 0.003, -0.5), ds.ModelParams(0.2, 0.0)),
    "two-sided-vacuum": (ds.RiemannData(0.008, -0.5, 0.003, 0.5), ds.ModelParams(0.2, 0.0)),
}


@pytest.mark.parametrize("fixed", [True, False], ids=["fixed_dt", "cfl"])
@pytest.mark.parametrize("case", list(PEAK_CASES))
def test_advance_peak_memory_does_not_grow_with_steps(monkeypatch, case, fixed):
    # a step allocates no array: the traced peak of a 2000-step call is
    # within 4 KiB of a 10-step call's on 3000 cells (a per-step array of
    # the window would add up to 24 KB)
    import tracemalloc

    data, params = PEAK_CASES[case]
    state = FieldState.from_riemann(Grid1D(-1.0, 2.0, 3000), data)
    # fixed dt 2e-4, or the initial adaptive dt = 0.15*dx/max|u| of these
    # data, which grows as the drag slows the two-sided data toward ua = 0
    dt = 2e-4 if fixed else 0.15 * 1e-3 / max(abs(data.u_l), abs(data.u_r))
    kwargs = {"fixed_dt": 2e-4} if fixed else {"cfl": 0.15}

    def run(steps):
        advance(state, params, steps * dt, **kwargs)  # warm-up: numpy's small-block cache
        tracemalloc.start()
        try:
            advance(state, params, steps * dt, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = run(10), run(2000)
    calls = []
    monkeypatch.setattr(fv, "kinetic_flux", lambda *a, **k: calls.append(1) or kinetic_flux(*a, **k))
    advance(state, params, 2000 * dt, **kwargs)
    assert 1850 <= len(calls) <= 2001
    assert long - short <= 4096, (short, long)
