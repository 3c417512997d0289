import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dropshock as ds
from dropshock.grh import GrhMonitorError, GrhState, LimitStates, integrate, rhs

from helpers import (
    DELTA_DATA,
    OMEGA1_FULL,
    PARAMS_02,
    SIGBAR0,
    SIGMA1_FULL,
    random_admissible,
    reference_integrate,
)

STATES = LimitStates.from_riemann(DELTA_DATA, PARAMS_02)
FULL = ds.DeltaShockSolution(DELTA_DATA, PARAMS_02)


def test_rhs_equal_densities_case():
    d = ds.RiemannData(0.01, 1.2, 0.01, 0.4)
    st = LimitStates.from_riemann(d, PARAMS_02)
    dw, _ = rhs(GrhState(1e-3, 1e-3 * 0.8), 0.0, st, PARAMS_02)
    assert dw == pytest.approx(0.01 * (1.2 - 0.4), rel=1e-14)
    assert dw > 0


def test_rhs_rejects_nonpositive_mass():
    with pytest.raises(ValueError):
        rhs(GrhState(0.0, 0.0), 0.0, STATES, PARAMS_02)


def test_rhs_matches_closed_form_slope_at_t0():
    w0 = 1e-3
    d = ds.RiemannData(0.008, 1.5, 0.003, 0.5, omega0=w0)
    sol = ds.DeltaShockSolution(d, PARAMS_02)
    st = LimitStates.from_riemann(d, PARAMS_02)
    dw, dm = rhs(GrhState(w0, w0 * SIGBAR0), 0.0, st, PARAMS_02)
    h = 1e-6
    # second-order one-sided differences at t = 0

    def theta(t):
        return sol.weight(t) * sol.speed(t)

    fd_w = (-3 * sol.weight(0.0) + 4 * sol.weight(h) - sol.weight(2 * h)) / (2 * h)
    fd_m = (-3 * theta(0.0) + 4 * theta(h) - theta(2 * h)) / (2 * h)
    assert dw == pytest.approx(fd_w, abs=1e-6)
    assert dm == pytest.approx(fd_m, abs=1e-6)


def test_rhs_autonomous_when_mu_zero_constant_states():
    p0 = ds.ModelParams(0.0, 1.0)
    st = LimitStates.from_riemann(DELTA_DATA, p0)
    z = GrhState(0.01, 0.01 * 1.1)
    assert rhs(z, 0.0, st, p0) == rhs(z, 5.0, st, p0)


def test_integrate_reproduces_closed_form():
    traj = integrate(GrhState(0.0, 0.0), None, 1.0, 1e-4, STATES, PARAMS_02)
    assert abs(traj.mass[-1] - OMEGA1_FULL) <= 1e-8
    assert abs(traj.speed[-1] - SIGMA1_FULL) <= 1e-8
    assert abs(traj.position[-1] - FULL.position(1.0)) <= 1e-8


def test_integrate_fourth_order_in_dt():
    # positive starting mass so the measured error is pure truncation
    d = ds.RiemannData(0.008, 1.5, 0.003, 0.5, omega0=0.01)
    sol = ds.DeltaShockSolution(d, PARAMS_02)
    st = LimitStates.from_riemann(d, PARAMS_02)
    errs = []
    for dt in (0.2, 0.1, 0.05, 0.025):
        traj = integrate(GrhState(0.01, 0.01 * sol.initial_speed), None, 1.0, dt, st, PARAMS_02)
        errs.append(abs(traj.mass[-1] - sol.weight(1.0)) + abs(traj.speed[-1] - sol.speed(1.0)))
    for e0, e1 in zip(errs, errs[1:]):
        assert 10.0 < e0 / e1 < 24.0


def test_seed_sweep_regularization():
    # the seeded trajectory is the closed form started from omega0 = eps,
    # so the final mass offset equals the seed
    finals = {}
    for eps in (1e-6, 1e-8, 1e-10):
        traj = integrate(GrhState(0.0, 0.0), None, 1.0, 1e-3, STATES, PARAMS_02, eps_seed=eps)
        finals[eps] = traj.mass[-1]
        assert abs(traj.mass[-1] - (OMEGA1_FULL + eps)) <= 0.05 * eps + 1e-12
    spread = max(finals.values()) - min(finals.values())
    assert spread <= 10 * 1e-6


def test_integrate_degenerate_equal_velocities_constant():
    u = 0.9
    st = LimitStates(
        alpha_l=lambda t: 0.01 + 0.0 * np.asarray(t, float),
        u_l=lambda t: u + 0.0 * np.asarray(t, float),
        alpha_r=lambda t: 0.02 + 0.0 * np.asarray(t, float),
        u_r=lambda t: u + 0.0 * np.asarray(t, float),
    )
    p = ds.ModelParams(0.3, u)  # carrier at the common velocity: a fixed point
    traj = integrate(GrhState(0.5, 0.5 * u), None, 2.0, 1e-2, st, p)
    assert np.max(np.abs(traj.mass - 0.5)) <= 1e-13
    assert np.max(np.abs(traj.speed - u)) <= 1e-13


def test_integrate_validates_inputs():
    with pytest.raises(ValueError):
        integrate(GrhState(0.0, 0.0), None, -1.0, 1e-3, STATES, PARAMS_02)
    with pytest.raises(ValueError):
        integrate(GrhState(0.0, 0.0), None, 1.0, -1e-3, STATES, PARAMS_02)
    # step guard: dt must resolve the relaxation scale
    p4 = ds.ModelParams(4.0, 1.0)
    st4 = LimitStates.from_riemann(DELTA_DATA, p4)
    with pytest.raises(ValueError, match="relaxation"):
        integrate(GrhState(0.0, 0.0), None, 1.0, 0.05, st4, p4)
    # initial speed outside the limit-state interval
    with pytest.raises(ValueError, match="interval"):
        integrate(GrhState(0.0, 0.0), 2.0, 1.0, 1e-3, STATES, PARAMS_02)
    # non-finite times and unbounded step counts fail before anything is allocated
    for t_end, dt in ((1.0, 1e-320), (math.nan, 1e-3), (1.0, math.nan), (math.inf, 1e-3), (2.0, 1e-7)):
        with pytest.raises(ValueError, match="finite|exceeds the limit"):
            integrate(GrhState(0.0, 0.0), None, t_end, dt, STATES, PARAMS_02)
    # non-finite starting states and seeds are named, not left to the monitor
    for z0, eps, field in (
        (GrhState(0.0, 0.0), math.nan, "eps_seed"),
        (GrhState(0.0, 0.0), math.inf, "eps_seed"),
        (GrhState(math.inf, 1.0), None, "z0.mass"),
        (GrhState(math.nan, 0.0), None, "z0.mass"),
        (GrhState(1e-3, math.inf), None, "z0.momentum"),
        (GrhState(1e-3, -math.nan), None, "z0.momentum"),
    ):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            integrate(z0, None, 1.0, 1e-3, STATES, PARAMS_02, eps_seed=eps)


def _const(value):
    return lambda t: value + 0.0 * np.asarray(t, float)


# limit states that collapse and cross in finite time (inadmissible)
CROSSING = LimitStates(
    alpha_l=_const(1.0), u_l=lambda t: 1.0 - np.asarray(t, float), alpha_r=_const(1.0), u_r=_const(0.0)
)
# a negative right density: the mass shrinks while the speed stays inside (u_r, u_l)
NEGATIVE = LimitStates(alpha_l=_const(0.0), u_l=_const(1.0), alpha_r=_const(-1.0), u_r=_const(0.0))
FREE = ds.ModelParams(0.0, 0.0)


def test_monitor_aborts_when_states_cross():
    # the monitor must flag an inadmissible run rather than return a trajectory
    with pytest.raises(GrhMonitorError):
        integrate(GrhState(0.0, 0.0), 0.5, 3.0, 1e-2, CROSSING, FREE)


def test_monotone_mass_and_entropy_randomized():
    rng = np.random.default_rng(99)
    for _ in range(10):
        data, params = random_admissible(rng)
        st = LimitStates.from_riemann(data, params)
        traj = integrate(GrhState(0.0, 0.0), None, 2.0, 2e-3, st, params)
        assert np.all(np.diff(traj.mass) > 0)
        u_l = np.asarray(st.u_l(traj.t), dtype=float)
        u_r = np.asarray(st.u_r(traj.t), dtype=float)
        assert np.all(traj.speed < u_l) and np.all(traj.speed > u_r)
        bound = ds.weight_lower_bound(traj.t, data, params)
        assert np.all(traj.mass >= bound - 1e-8)


def _assert_agrees_with_reference(z0, sigma0, t_end, dt, states, params, eps_seed=None):
    # every output bit for bit: the limit states give the same bits for a
    # float time as for that time in a block's array; an abort must be the
    # same exception with the same message (step, stage time and values)
    args = (z0, sigma0, t_end, dt, states, params, eps_seed)
    try:
        want = reference_integrate(*args)
    except GrhMonitorError as exc:
        with pytest.raises(GrhMonitorError) as got:
            integrate(*args)
        assert str(got.value) == str(exc)
        return
    got = integrate(*args)
    for name in ("t", "mass", "momentum", "speed", "position"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t_end=st.floats(0.05, 3.0), dt=st.floats(1e-3, 0.05))
def test_integrate_agrees_with_stage_by_stage_loop(seed, t_end, dt):
    data, params = random_admissible(np.random.default_rng(seed))
    if params.mu > 0.0:
        dt = min(dt, 0.1 / params.mu)
    states = LimitStates.from_riemann(data, params)
    _assert_agrees_with_reference(GrhState(0.0, 0.0), None, t_end, dt, states, params)


OMEGA0_DATA = ds.RiemannData(0.008, 1.5, 0.003, 0.5, omega0=0.01)


@pytest.mark.parametrize(
    "z0, sigma0, t_end, dt, states, params, eps_seed",
    [
        pytest.param(GrhState(0.0, 0.0), None, 1.0, 1e-3, LimitStates.from_riemann(DELTA_DATA, FREE), FREE, None,
                     id="mu-0"),
        pytest.param(GrhState(0.01, 0.01 * 1.1), 1.1, 1.0, 1e-3, LimitStates.from_riemann(OMEGA0_DATA, PARAMS_02),
                     PARAMS_02, None, id="omega0-sigma0"),
        pytest.param(GrhState(0.0, 0.0), None, 1.0, 3e-3, STATES, PARAMS_02, None, id="short-last-step"),
        # ten steps of 0.1 sum to 0.9999999999999999: the last node is set to t_end
        pytest.param(GrhState(0.0, 0.0), None, 1.0, 0.1, STATES, PARAMS_02, None, id="last-node-is-t_end"),
        pytest.param(GrhState(0.0, 0.0), None, 1.0, 3e-4, STATES, PARAMS_02, None, id="many-blocks"),
        pytest.param(GrhState(0.0, 0.0), 0.5, 3.0, 1e-2, CROSSING, FREE, None, id="entropy-abort"),
        pytest.param(GrhState(0.0, 0.0), 0.5, 3.0, 1e-4, CROSSING, FREE, None, id="entropy-abort-late-block"),
        pytest.param(GrhState(1.0, 0.5), None, 1.0, 1e-2, NEGATIVE, FREE, None, id="mass-decrease-abort"),
        pytest.param(GrhState(0.0, 0.0), 0.5, 1.0, 1e-2, NEGATIVE, FREE, 1e-3, id="nonpositive-stage-abort"),
    ],
)
def test_integrate_agrees_with_stage_by_stage_loop_examples(z0, sigma0, t_end, dt, states, params, eps_seed):
    _assert_agrees_with_reference(z0, sigma0, t_end, dt, states, params, eps_seed)


def test_limit_states_evaluated_per_block_not_per_step():
    calls = {name: [] for name in ("alpha_l", "u_l", "alpha_r", "u_r")}

    def counted(name):
        f = getattr(STATES, name)

        def g(t):
            calls[name].append(t)
            return f(t)

        return g

    counted_states = LimitStates(**{name: counted(name) for name in calls})
    steps = len(integrate(GrhState(0.0, 0.0), None, 1.0, 1e-4, counted_states, PARAMS_02).t) - 1
    assert steps == 10_000
    for name, args in calls.items():
        assert len(args) <= 0.01 * steps, (name, len(args))
        for t in args:
            # arrays of stage times, apart from the scalar probes at t = 0
            assert isinstance(t, np.ndarray) or t == 0.0, (name, t)
