"""The three benchmark workloads: inputs, one job, and its output checks.

Each workload is built by ``make(name, tmp, seed)`` (the measured set-up:
scenario parse plus initial state or exact solution).  ``run(out, run_cli)``
runs the program once on those inputs and is the timed part of a job;
``check(out, raw)`` reads what it produced and returns a ``JobResult``: the
output arrays compared against the stored references, the accuracy numbers
and the gated checks.  Jobs call the package through module attributes
(``fv.advance``, ``validation.compare``...) and the CLI through ``run_cli``
(``cli.main`` or a traced wrapper of it), so the traced run can wrap them
where callers look them up.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from dropshock import burgers, core, droplet, fv, grh, validation

PARAMS = {"mu": 0.2, "ua": 1.0}
DELTA = {"alpha_l": 0.008, "u_l": 1.5, "alpha_r": 0.003, "u_r": 0.5}
VACUUM = {"alpha_l": 0.008, "u_l": 0.5, "alpha_r": 0.003, "u_r": 1.5}
DOMAIN = (-1.0, 2.0)

# gates (acceptance criteria 6, 7 and 9, and the blowup oracle bound)
POS_ERR_CELLS_MAX = 3
MASS_REL_ERR_MAX = 0.1
L1_U_MAX = 5e-3
VELOCITY_JUMP_FACTOR = 5.0
RESIDUAL_MAX = 1e-6
BLOWUP_GAP_MAX = 1e-6


@dataclass
class JobResult:
    outputs: dict = field(default_factory=dict)
    accuracy: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)  # (name, ok, detail)
    probe: tuple = None  # (FieldState, dt) for the FV kernel micro-timings

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))


def _read_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _write_json(path: str, payload: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _load_riemann(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    return core.ModelParams(**cfg["params"]), core.RiemannData(**cfg["riemann"]), cfg


class DeltaCompare:
    """`dropshock compare` on the README delta scenario, in process via cli.main."""

    name = "delta_compare"
    n_cells = 3000
    fixed_dt = 1e-4

    def __init__(self, tmp: str, seed: int):
        scenario = {
            "name": "delta",
            "params": PARAMS,
            "riemann": dict(DELTA, omega0=0.0),
            "domain": list(DOMAIN),
            "n_cells": self.n_cells,
            "t_snapshots": [0.4, 1.0],
            "cfl": 0.15,
            "outputs": {"csv": True, "svg": True, "report": True},
        }
        self.config = _write_json(os.path.join(tmp, "delta.json"), scenario)
        # what a library user builds from the scenario; the CLI builds its own in every job
        self.params, data, cfg = _load_riemann(self.config)
        self.grid = fv.Grid1D(cfg["domain"][0], cfg["domain"][1], cfg["n_cells"])
        self.state0 = fv.FieldState.from_riemann(self.grid, data)
        self.solution = droplet.solve(data, self.params)

    def argv(self, out: str):
        return ["compare", "--config", self.config, "--out", out, "--fixed-dt", repr(self.fixed_dt)]

    def run(self, out: str, run_cli):
        return run_cli(self.argv(out))

    def check(self, out: str, rc) -> JobResult:
        res = JobResult()
        res.check("exit_code", rc == 0, f"dropshock compare exited {rc}")
        if rc != 0:
            return res
        expected = ["delta_errors.csv", "delta_compare_report.json"] + [
            f"delta_{kind}_t{t}.{ext}"
            for t in ("0.4", "1")
            for kind, ext in (("num", "csv"), ("exact", "csv"), ("overlay_alpha", "svg"), ("overlay_u", "svg"))
        ]
        missing = [f for f in expected if not os.path.isfile(os.path.join(out, f))]
        res.check("outputs_written", not missing, f"missing outputs {missing}")
        with open(os.path.join(out, "delta_errors.csv"), "r", encoding="utf-8") as fh:
            rows = [line.strip().split(",") for line in fh.read().splitlines()[1:]]
        final = rows[-1]
        l1_u, l1_a, pos, mass = (float(v) for v in final[3:7])
        res.accuracy.update(l1_u=l1_u, l1_alpha=l1_a, pos_err_cells=pos, mass_rel_err=mass)
        res.check("criterion6_pos", pos <= POS_ERR_CELLS_MAX, f"peak {pos:g} cells off (<= {POS_ERR_CELLS_MAX})")
        res.check("criterion6_mass", mass <= MASS_REL_ERR_MAX, f"excess mass error {mass:.3g} (<= {MASS_REL_ERR_MAX})")
        res.check("criterion6_l1_u", l1_u <= L1_U_MAX, f"L1(u) {l1_u:.3g} (<= {L1_U_MAX})")
        num = _read_csv(os.path.join(out, "delta_num_t1.csv"))
        res.outputs = {"alpha": num[:, 1], "u": num[:, 2]}
        state = fv.FieldState(grid=self.grid, alpha=num[:, 1], q=num[:, 1] * num[:, 2], time=1.0)
        res.probe = (state, self.fixed_dt)
        return res


class VacuumFine:
    """Library fv.advance on the vacuum data, 12 000 cells, adaptive CFL 0.15, t = 0.25."""

    name = "vacuum_fine"
    n_cells = 12000
    t_end = 0.25
    cfl = 0.15

    def __init__(self, tmp: str, seed: int):
        scenario = {"params": PARAMS, "riemann": VACUUM, "domain": list(DOMAIN), "n_cells": self.n_cells}
        self.params, data, cfg = _load_riemann(_write_json(os.path.join(tmp, "vacuum.json"), scenario))
        self.grid = fv.Grid1D(cfg["domain"][0], cfg["domain"][1], cfg["n_cells"])
        self.state0 = fv.FieldState.from_riemann(self.grid, data)
        self.solution = droplet.solve(data, self.params)

    def run(self, out: str, run_cli):
        state = fv.advance(self.state0, self.params, self.t_end, cfl=self.cfl)
        return state, validation.compare(state, self.solution, label="vacuum_fine")

    def check(self, out: str, raw) -> JobResult:
        res = JobResult()
        p = self.params
        state, rep = raw
        # criterion-7 style checks at t_end: velocity continuity across the
        # fan (gated) and the density floor inside the vacuum (reported only)
        x1, x2 = self.solution.bounds(self.t_end)
        x = self.grid.centers()
        inside = (x > x1) & (x < x2)
        floor = float(np.min(state.alpha[inside]))
        u = fv.reconstruct_velocity(state, p)
        worst_jump = float(np.max(np.abs(np.diff(u))))
        jump_limit = VELOCITY_JUMP_FACTOR * self.grid.dx * p.mu / np.expm1(p.mu * self.t_end)
        res.accuracy.update(l1_u=rep.l1_u, l1_alpha=rep.l1_alpha_regular, vacuum_floor=floor)
        res.check("criterion7_velocity_jump", worst_jump <= jump_limit,
                  f"max velocity jump {worst_jump:.3g} (<= {jump_limit:.3g})")
        res.check("vacuum_cells", int(np.sum(inside)) > 0, "no cell inside the exact vacuum")
        res.outputs = {"alpha": state.alpha, "q": state.q}
        umax = float(np.max(np.abs(u)))
        res.probe = (state, self.cfl * self.grid.dx / umax)
        return res


def _random_admissible(rng):
    """Random Riemann data and parameters in the delta-shock regime."""
    alpha_l, alpha_r = rng.uniform(0.001, 0.05, size=2)
    u_l = rng.uniform(-1.0, 2.0)
    u_r = u_l - rng.uniform(0.2, 2.0)
    mu = 0.0 if rng.uniform() < 0.15 else rng.uniform(0.05, 4.0)
    ua = rng.uniform(-1.0, 2.0)
    return core.RiemannData(alpha_l, u_l, alpha_r, u_r), core.ModelParams(mu, ua)


def _tanh_profile(amp, width):
    return core.SmoothProfile(
        u0=lambda x: amp * np.tanh(np.asarray(x, float) / width),
        u0_prime=lambda x: amp / width / np.cosh(np.asarray(x, float) / width) ** 2,
        alpha0=lambda x: 0.01 + 0.0 * np.asarray(x, float),
        domain=(-4.0, 4.0),
    )


def _cubic_profile(c1, c3):
    return core.SmoothProfile(
        u0=lambda x: c1 * np.asarray(x, float) + c3 * np.asarray(x, float) ** 3,
        u0_prime=lambda x: c1 + 3.0 * c3 * np.asarray(x, float) ** 2,
        alpha0=lambda x: 0.01 + 0.0 * np.asarray(x, float),
        domain=(-2.0, 2.0),
    )


class ExactOracles:
    """Exact-side oracles: RK4 vs closed form, weak residuals, blowup, grh and exact CLI."""

    name = "exact_oracles"
    batch = 50
    grh_t_end, grh_dt = 2.0, 2e-3
    n_feet = 8001
    exact_cells = 3000

    def __init__(self, tmp: str, seed: int):
        rng = np.random.default_rng(seed)
        self.draws = []
        for _ in range(self.batch):
            data, params = _random_admissible(rng)
            self.draws.append(
                (grh.LimitStates.from_riemann(data, params), params, droplet.DeltaShockSolution(data, params))
            )
        self.params = core.ModelParams(**PARAMS)
        self.solutions = {
            "delta": droplet.solve(core.RiemannData(**DELTA), self.params),
            "vacuum": droplet.solve(core.RiemannData(**VACUUM), self.params),
        }
        B = validation.BumpTestFunction
        self.psis = [
            B(0.5, 0.9, 0.8, 0.7),
            B(0.3, 0.8, 0.3, 0.6, ((1.0, 1, 0),)),
            B(0.7, 1.0, 0.5, 0.8, ((0.5, 0, 1), (1.0, 0, 0))),
            B(0.2, 0.7, -0.1, 0.5),
            B(0.9, 0.9, 0.9, 0.85, ((1.0, 2, 0),)),
        ]
        self.profiles = {
            "tanh": (_tanh_profile(-2.0, 1.0), core.ModelParams(0.5, 0.2)),
            "cubic": (_cubic_profile(-1.5, 0.3), core.ModelParams(0.4, -0.3)),
        }
        self.grh_config = _write_json(
            os.path.join(tmp, "grh.json"),
            {"name": "grh", "params": PARAMS, "riemann": DELTA, "t_end": 1.0, "dt": 1e-4},
        )
        self.snapshots = [round(0.1 * k, 10) for k in range(1, 11)]
        self.exact_config = _write_json(
            os.path.join(tmp, "exact.json"),
            {"name": "exact", "params": PARAMS, "riemann": DELTA, "domain": list(DOMAIN),
             "n_cells": self.exact_cells, "t_snapshots": self.snapshots,
             "outputs": {"csv": True, "svg": False, "report": True}},
        )

    def run(self, out: str, run_cli):
        trajs = [
            grh.integrate(grh.GrhState(0.0, 0.0), None, self.grh_t_end, self.grh_dt, states, params)
            for states, params, _ in self.draws
        ]
        residuals = {
            key: validation.weak_residual(sol, self.psis, quad_resolution=400)
            for key, sol in self.solutions.items()
        }
        blowups = {
            key: (burgers.blowup(profile, params), validation.first_crossing_time(profile, params, 50.0, self.n_feet))
            for key, (profile, params) in self.profiles.items()
        }
        rc_grh = run_cli(["grh", "--config", self.grh_config, "--out", out])
        rc_exact = run_cli(["exact", "--config", self.exact_config, "--out", out])
        return trajs, residuals, blowups, rc_grh, rc_exact

    def check(self, out: str, raw) -> JobResult:
        trajs, residuals, blowups, rc_grh, rc_exact = raw
        res = JobResult()
        # np.max rather than max() throughout, so a NaN is kept and fails its gate
        rk4_errs = []
        for traj, (_, _, sol) in zip(trajs, self.draws):
            rk4_errs += [np.abs(traj.mass - sol.weight(traj.t)), np.abs(traj.speed - sol.speed(traj.t))]
        rk4_err = float(np.max(np.concatenate(rk4_errs)))

        for key, r in residuals.items():
            res.outputs[f"residual_{key}"] = r
        worst_res = float(np.max(np.abs(list(residuals.values()))))

        gaps = [0.0]
        for key, (rep, oracle) in blowups.items():
            res.check(f"blowup_{key}", rep.blows_up and oracle is not None, f"{key} profile: no blowup found")
            if oracle is None:
                continue
            res.outputs[f"blowup_{key}"] = np.array([rep.t_star, oracle])
            gaps.append(abs(rep.t_star - oracle))
        gap = float(np.max(gaps))

        res.check("grh_exit_code", rc_grh == 0, f"dropshock grh exited {rc_grh}")
        if rc_grh == 0:
            traj = _read_csv(os.path.join(out, "grh_grh.csv"))
            res.check("grh_rows", traj.shape == (10001, 6), f"grh CSV shape {traj.shape}")
            res.check("grh_entropy", bool(np.all(traj[:, 5] == 1.0)), "grh CSV flags an entropy violation")
            res.outputs.update(grh_omega=traj[:, 1], grh_sigma=traj[:, 2])

        res.check("exact_exit_code", rc_exact == 0, f"dropshock exact exited {rc_exact}")
        if rc_exact == 0:
            paths = [os.path.join(out, f"exact_exact_t{t:g}.csv") for t in self.snapshots]
            rows = set()
            for path in paths:
                with open(path, "r", encoding="utf-8") as fh:
                    rows.add(sum(1 for _ in fh) - 1)
            res.check("exact_rows", rows == {self.exact_cells}, f"exact CSV row counts {rows}")
            last = _read_csv(paths[-1])
            res.outputs.update(exact_alpha=last[:, 1], exact_u=last[:, 2])

        res.accuracy.update(weak_residual_max=worst_res, rk4_max_err=rk4_err, blowup_gap=gap)
        res.check("criterion9_residual", worst_res <= RESIDUAL_MAX, f"max residual {worst_res:.3g} (<= {RESIDUAL_MAX})")
        res.check("blowup_gap", gap <= BLOWUP_GAP_MAX, f"|t*_formula - t*_oracle| {gap:.3g} (<= {BLOWUP_GAP_MAX})")

        grid = fv.Grid1D(DOMAIN[0], DOMAIN[1], self.exact_cells)
        res.probe = (validation.sample_exact(self.solutions["delta"], grid, 1.0), 1e-4)
        return res


WORKLOADS = {w.name: w for w in (DeltaCompare, VacuumFine, ExactOracles)}


def make(name: str, tmp: str, seed: int):
    return WORKLOADS[name](tmp, seed)
