import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import dropshock as ds
from dropshock import cli
from dropshock.burgers import blowup_time_for_slope
from dropshock.cli import _CSV_CHUNK_ROWS, _run_text, build_parser, main, write_csv

from helpers import LN2, OMEGA1_FULL, PARAMS_02, SIGMA1_FULL


def write_config(path, payload):
    text = json.dumps(payload, indent=2)
    path.write_text(text)
    return text


DELTA_SCENARIO = {
    "name": "delta",
    "params": {"mu": 0.2, "ua": 1.0},
    "riemann": {"alpha_l": 0.008, "u_l": 1.5, "alpha_r": 0.003, "u_r": 0.5},
    "domain": [-1.0, 2.0],
    "n_cells": 300,
    "t_snapshots": [0.4, 1.0],
    "cfl": 0.15,
}


def test_exact_delta_outputs_and_roundtrip(tmp_path):
    cfg = tmp_path / "s.json"
    raw = write_config(cfg, DELTA_SCENARIO)
    assert main(["exact", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    for t in ("0.4", "1"):
        assert (tmp_path / f"delta_exact_t{t}.csv").exists()
    report = json.loads((tmp_path / "delta_exact_report.json").read_text())
    assert report["scenario"] == raw  # verbatim echo
    assert report["solution_kind"] == "delta-shock"
    snap = report["snapshots"][1]
    sol = ds.solve(ds.RiemannData(0.008, 1.5, 0.003, 0.5), PARAMS_02)
    assert snap["sigma"] == pytest.approx(SIGMA1_FULL, rel=1e-12)
    assert snap["omega"] == pytest.approx(OMEGA1_FULL, rel=1e-12)
    assert snap["xi"] == pytest.approx(sol.position(1.0), rel=1e-12)
    assert snap["gap_left"] > 0 and snap["gap_right"] > 0
    # csv body: header plus one row per cell, velocity jumps across xi
    lines = (tmp_path / "delta_exact_t1.csv").read_text().splitlines()
    assert lines[0] == "x,alpha,u"
    assert len(lines) == 1 + 300


def test_exact_vacuum_report(tmp_path):
    cfg = tmp_path / "s.json"
    scenario = dict(DELTA_SCENARIO, name="vac", riemann={"alpha_l": 0.008, "u_l": 0.5, "alpha_r": 0.003, "u_r": 1.5})
    write_config(cfg, scenario)
    assert main(["exact", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "vac_exact_report.json").read_text())
    assert report["solution_kind"] == "vacuum"
    assert {"t", "X1", "X2"} <= set(report["snapshots"][0])
    assert report["snapshots"][0]["X1"] < report["snapshots"][0]["X2"]


def test_exact_constant_state(tmp_path):
    cfg = tmp_path / "s.json"
    scenario = dict(DELTA_SCENARIO, name="flat", riemann={"alpha_l": 0.01, "u_l": 0.7, "alpha_r": 0.02, "u_r": 0.7})
    write_config(cfg, scenario)
    assert main(["exact", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "flat_exact_t1.csv", delimiter=",", skiprows=1)
    u = rows[:, 2]
    expected = ds.relax_velocity(0.7, PARAMS_02, 1.0)
    assert np.allclose(u, expected, rtol=1e-14, atol=0)


def test_exact_contact_reports_point_mass(tmp_path):
    # a contact is a front with a weight: omega0 rides it unchanged
    cfg = tmp_path / "s.json"
    riemann = {"alpha_l": 0.008, "u_l": 1.0, "alpha_r": 0.003, "u_r": 1.0, "omega0": 0.02}
    write_config(cfg, dict(DELTA_SCENARIO, name="contact", riemann=riemann))
    assert main(["exact", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "contact_exact_report.json").read_text())
    assert report["solution_kind"] == "contact"
    for snap in report["snapshots"]:
        assert set(snap) == {"t", "xi", "sigma", "omega"}
        assert snap["omega"] == 0.02


def test_simulate_initial_snapshot_echo(tmp_path):
    cfg = tmp_path / "s.json"
    scenario = dict(DELTA_SCENARIO, name="t0", t_snapshots=[0.0], n_cells=64)
    write_config(cfg, scenario)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "t0_num_t0.csv", delimiter=",", skiprows=1)
    x, alpha = rows[:, 0], rows[:, 1]
    assert np.all(alpha[x <= 0] == 0.008) and np.all(alpha[x > 0] == 0.003)


def test_compare_outputs(tmp_path):
    cfg = tmp_path / "s.json"
    scenario = dict(DELTA_SCENARIO, n_cells=300, outputs={"svg": True})
    write_config(cfg, scenario)
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path), "--rescale-alpha"]) == 0
    errors = (tmp_path / "delta_errors.csv").read_text().splitlines()
    assert errors[0] == "scenario,n_cells,t,l1_u,l1_alpha,pos_err_cells,mass_rel_err"
    assert len(errors) == 3
    svg = (tmp_path / "delta_overlay_alpha_t1.svg").read_text()
    assert svg.startswith("<svg") and "x100" in svg
    assert (tmp_path / "delta_overlay_u_t0.4.svg").exists()
    report = json.loads((tmp_path / "delta_compare_report.json").read_text())
    assert len(report["errors"]) == 2
    # every output switched off: no file at all, errors CSV included
    out = tmp_path / "none"
    write_config(cfg, dict(scenario, outputs={"csv": False, "svg": False, "report": False}))
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    assert list(out.iterdir()) == []


def test_cells_override(tmp_path):
    cfg = tmp_path / "s.json"
    write_config(cfg, dict(DELTA_SCENARIO, t_snapshots=[0.2]))
    assert main(["exact", "--config", str(cfg), "--out", str(tmp_path), "--cells", "64"]) == 0
    lines = (tmp_path / "delta_exact_t0.2.csv").read_text().splitlines()
    assert len(lines) == 1 + 64


@pytest.mark.parametrize(
    "width, sample_count, t_star, oracle_abs",
    [
        pytest.param(1.0, 2001, LN2, 1e-5, id="tanh"),
        # u0' = -2e4 at the sample on the centre, where the central-difference
        # check read -19999.3 and exited 2; the feet are 1.5e-3 apart, one on
        # the centre, and the mean slope -2/1.5e-3 beside it reads 7.5e-4
        pytest.param(1e-4, 201, blowup_time_for_slope(-2e4, 1.0), 1e-3, id="steep-tanh"),
    ],
)
def test_blowup_report(tmp_path, width, sample_count, t_star, oracle_abs):
    cfg = tmp_path / "b.json"
    write_config(
        cfg,
        {
            "name": "tanh",
            "params": {"mu": 1.0, "ua": 0.2},
            "profile": {"kind": "tanh", "amplitude": -2.0, "width": width},
            "domain": [-3.0, 3.0],
            "sample_count": sample_count,
            "t_max": 50.0,
            "n_feet": 4001,
        },
    )
    assert main(["blowup", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "tanh_blowup_report.json").read_text())
    assert report["blows_up"] is True
    assert report["t_star_formula"] == t_star
    assert report["t_star_oracle"] == pytest.approx(t_star, abs=oracle_abs)


@pytest.mark.parametrize("center", [1e300, -1e308])
def test_blowup_tanh_far_from_the_domain_ends_cleanly(tmp_path, center):
    # sech^2 at |z| ~ 1e300: 1/cosh(z)**2 overflowed in cosh, a warning that
    # -W error turned into a traceback; the profile is flat on the domain
    cfg = tmp_path / "b.json"
    write_config(
        cfg,
        {
            "name": "far",
            "params": {"mu": 1.0, "ua": 0.2},
            "profile": {"kind": "tanh", "amplitude": -2.0, "center": center},
            "sample_count": 201,
            "n_feet": 201,
        },
    )
    assert main(["blowup", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "far_blowup_report.json").read_text())
    assert report["blows_up"] is False and report["t_star_oracle"] is None


@pytest.mark.parametrize(
    "profile, domain, mu",
    [
        # the samples -4 and 4 (and 0 at count 3) lie far from the foot at 0.3
        pytest.param({"kind": "tanh", "amplitude": -1.0, "width": 0.2, "center": 0.3}, [-4.0, 4.0], 0.3, id="tanh"),
        pytest.param({"kind": "cubic", "c1": -1.5, "c3": 0.3}, [-2.0, 2.0], 0.4, id="cubic"),
    ],
)
def test_blowup_three_samples_match_default_sampling(tmp_path, profile, domain, mu):
    reports = {}
    for count in (2, 3, 2001):
        cfg = tmp_path / f"n{count}.json"
        scenario = {"name": f"n{count}", "params": {"mu": mu, "ua": 0.0}, "profile": profile,
                    "domain": domain, "sample_count": count, "n_feet": 40001}
        write_config(cfg, scenario)
        assert main(["blowup", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        reports[count] = json.loads((tmp_path / f"n{count}_blowup_report.json").read_text())
    for count in (2, 3):
        assert reports[count]["blows_up"] is True
        assert reports[count]["t_star_formula"] == reports[2001]["t_star_formula"]
        assert abs(reports[count]["t_star_formula"] - reports[count]["t_star_oracle"]) <= 1e-6


def test_grh_trajectory_csv(tmp_path):
    cfg = tmp_path / "g.json"
    write_config(
        cfg,
        {
            "name": "run",
            "params": {"mu": 0.2, "ua": 1.0},
            "riemann": {"alpha_l": 0.008, "u_l": 1.5, "alpha_r": 0.003, "u_r": 0.5},
            "t_end": 1.0,
            "dt": 1e-4,
        },
    )
    assert main(["grh", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "run_grh.csv").read_text().splitlines()
    assert lines[0] == "t,omega,sigma,u_l,u_r,entropy_ok"
    last = [float(v) for v in lines[-1].split(",")]
    assert last[1] == pytest.approx(OMEGA1_FULL, abs=1e-8)
    assert last[2] == pytest.approx(SIGMA1_FULL, abs=1e-8)
    assert last[5] == 1.0
    report = json.loads((tmp_path / "run_grh_report.json").read_text())
    assert report["final"]["omega"] == pytest.approx(OMEGA1_FULL, abs=1e-8)


@pytest.mark.parametrize(
    "alpha_l, alpha_r, omega0",
    [(0.008, 0.003, 0.02), (0.008, 0.0, 0.01), (0.0, 0.003, 0.01), (0.008, 0.0, 0.0), (0.0, 0.003, 0.0)],
    ids=["both-positive", "alpha_r-0", "alpha_l-0", "alpha_r-0-no-mass", "alpha_l-0-no-mass"],
)
def test_grh_with_initial_point_mass(tmp_path, alpha_l, alpha_r, omega0):
    # a point mass on a closing jump, also beside an empty side, which
    # initial_shock_speed rejects and `exact` solves; with omega0 = 0 the
    # seed there starts at the exact speed too (it exited 2), and the strict
    # entropy_ok flag falls either way by rounding: the warning says why
    cfg = tmp_path / "g.json"
    riemann = {"alpha_l": alpha_l, "u_l": 1.5, "alpha_r": alpha_r, "u_r": 0.5, "omega0": omega0}
    scenario = {"name": "seeded", "params": {"mu": 0.2, "ua": 1.0}, "riemann": riemann, "t_end": 1.0, "dt": 1e-3}
    write_config(cfg, scenario)
    assert main(["grh", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "seeded_grh_report.json").read_text())
    exact = ds.DeltaShockSolution(ds.RiemannData(alpha_l, 1.5, alpha_r, 0.5, omega0=omega0), PARAMS_02)
    assert report["final"]["omega"] == pytest.approx(exact.weight(1.0), abs=1e-8)
    assert report["final"]["sigma"] == pytest.approx(exact.speed(1.0), abs=1e-8)
    assert report.get("warning") == exact.warning


def test_grh_on_a_contact_with_a_point_mass_keeps_it(tmp_path):
    # no mass is swept into a contact, so omega0 rides it unchanged
    cfg = tmp_path / "g.json"
    riemann = {"alpha_l": 0.008, "u_l": 0.7, "alpha_r": 0.003, "u_r": 0.7, "omega0": 0.01}
    write_config(cfg, {"name": "c", "params": {"mu": 0.2, "ua": 1.0}, "riemann": riemann, "t_end": 1.0, "dt": 1e-3})
    assert main(["grh", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    final = json.loads((tmp_path / "c_grh_report.json").read_text())["final"]
    exact = ds.solve(ds.RiemannData(0.008, 0.7, 0.003, 0.7, omega0=0.01), PARAMS_02)
    assert final["omega"] == pytest.approx(0.01, rel=1e-12)
    assert final["sigma"] == pytest.approx(exact.speed(1.0), abs=1e-8)


def test_grh_seeds_at_the_closed_form_initial_speed(tmp_path):
    # the limit state u_l at t = 0 is relax_velocity(0.9, ...) = 0.9000000000000001,
    # from which integrate's own seed speed is 0.6341428720207102; the closed
    # form's is 0.6341428720207101
    data, params = ds.RiemannData(0.008, 0.9, 0.003, 0.2), ds.ModelParams(0.2, 0.3)
    cfg = tmp_path / "g.json"
    riemann = {"alpha_l": 0.008, "u_l": 0.9, "alpha_r": 0.003, "u_r": 0.2}
    write_config(cfg, {"name": "run", "params": {"mu": 0.2, "ua": 0.3}, "riemann": riemann, "t_end": 1.0, "dt": 1e-3})
    assert main(["grh", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    states = ds.LimitStates.from_riemann(data, params)
    traj = ds.integrate(ds.GrhState(0.0, 0.0), ds.solve(data, params).initial_speed, 1.0, 1e-3, states, params)
    u_l, u_r = states.u_l(traj.t), states.u_r(traj.t)
    entropy_ok = ((u_r < traj.speed) & (traj.speed < u_l)).astype(float)
    write_csv(str(tmp_path / "expected.csv"), ("t", "omega", "sigma", "u_l", "u_r", "entropy_ok"),
              (traj.t, traj.mass, traj.speed, u_l, u_r, entropy_ok))
    assert (tmp_path / "run_grh.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_parser_built_once_and_still_rejects_bad_arguments(capsys):
    assert build_parser() is build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--no-such-flag"])
        assert exc.value.code == 2


GRH_SCENARIO = {
    "name": "run",
    "params": {"mu": 0.2, "ua": 1.0},
    "riemann": {"alpha_l": 0.008, "u_l": 1.5, "alpha_r": 0.003, "u_r": 0.5},
    "t_end": 0.1,
    "dt": 1e-3,
}
BLOWUP_SCENARIO = {
    "name": "tanh",
    "params": {"mu": 1.0, "ua": 0.2},
    "profile": {"kind": "tanh", "amplitude": -2.0},
    "sample_count": 201,
    "n_feet": 201,
}


@pytest.mark.parametrize(
    "command, scenario, files",
    [
        ("grh", GRH_SCENARIO, {"csv": "run_grh.csv", "report": "run_grh_report.json"}),
        ("blowup", BLOWUP_SCENARIO, {"report": "tanh_blowup_report.json"}),
    ],
)
def test_grh_and_blowup_honour_outputs(tmp_path, command, scenario, files):
    cfg = tmp_path / "s.json"
    for switched_off in [(), ("csv",), ("report",), ("csv", "report")]:
        out = tmp_path / "-".join(("out",) + switched_off)
        write_config(cfg, dict(scenario, outputs={key: False for key in switched_off}))
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        expected = {name for key, name in files.items() if key not in switched_off}
        assert {p.name for p in out.iterdir()} == expected


def test_batch_runs(tmp_path):
    cfg = tmp_path / "batch.json"
    write_config(
        cfg,
        {
            "runs": [
                {"command": "exact", "scenario": dict(DELTA_SCENARIO, name="a", t_snapshots=[0.5])},
                {"command": "exact", "scenario": dict(DELTA_SCENARIO, name="b", t_snapshots=[0.5])},
            ]
        },
    )
    assert main(["batch", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "a" / "a_exact_t0.5.csv").exists()
    assert (tmp_path / "b" / "b_exact_t0.5.csv").exists()


def test_determinism_byte_identical(tmp_path):
    cfg = tmp_path / "s.json"
    write_config(cfg, dict(DELTA_SCENARIO, n_cells=200))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["compare", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["compare", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("delta_num_t1.csv", "delta_exact_t1.csv", "delta_errors.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


VACUUM_RIEMANN = {"alpha_l": 0.008, "u_l": 0.5, "alpha_r": 0.003, "u_r": 1.5}


# the vacuum fan gives u columns with a run-free stretch between their runs
@pytest.mark.parametrize("riemann", [DELTA_SCENARIO["riemann"], VACUUM_RIEMANN], ids=["delta", "vacuum"])
def test_snapshot_csvs_equal_savetxt_of_their_arrays(tmp_path, riemann):
    cfg = tmp_path / "s.json"
    write_config(cfg, dict(DELTA_SCENARIO, riemann=riemann, n_cells=200))
    solution = ds.solve(ds.RiemannData(**riemann), PARAMS_02)
    x = ds.Grid1D(-1.0, 2.0, 200).centers()
    for command, kinds in (("exact", ["exact"]), ("simulate", ["num"]), ("compare", ["exact", "num"])):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        for kind in kinds:
            for t in (0.4, 1.0):
                path = out / f"delta_{kind}_t{t:g}.csv"
                table = np.loadtxt(path, delimiter=",", skiprows=1)  # 17 digits read back exactly
                assert np.array_equal(table[:, 0], x)  # the x text formatted once per command
                if kind == "exact":
                    assert np.array_equal(table[:, 1:].T, solution.regular_fields(x, t))
                columns = (table[:, 0], table[:, 1], table[:, 2])
                assert path.read_bytes() == _savetxt_bytes(tmp_path / "ref.csv", ("x", "alpha", "u"), columns)


@pytest.mark.parametrize("name", ["a,b", 'q"x'])
def test_errors_csv_quotes_scenario_name(tmp_path, name):
    cfg = tmp_path / "s.json"
    write_config(cfg, dict(DELTA_SCENARIO, name=name, n_cells=64))
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    text = (tmp_path / f"{name}_errors.csv").read_text(encoding="utf-8")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[0] == ["scenario", "n_cells", "t", "l1_u", "l1_alpha", "pos_err_cells", "mass_rel_err"]
    assert [len(row) for row in rows] == [7, 7, 7]
    assert [row[0] for row in rows[1:]] == [f"{name}_t0.4", f"{name}_t1"]
    # quoted as RFC 4180 asks, which csv.writer does too
    canonical = io.StringIO()
    csv.writer(canonical, lineterminator="\n").writerows(rows)
    assert text == canonical.getvalue()


def test_errors_csv_fields_are_report_values_at_17_digits(tmp_path):
    cfg = tmp_path / "s.json"
    write_config(cfg, dict(DELTA_SCENARIO, n_cells=600))
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "delta_errors.csv").read_text().splitlines()[1:]
    errors = json.loads((tmp_path / "delta_compare_report.json").read_text())["errors"]
    assert len(rows) == len(errors) == 2
    for row, rep in zip(rows, errors):
        fields = row.split(",")
        assert len(fields) == 7
        assert fields[:2] == [rep["scenario"], "600"]
        values = [rep[k] for k in ("t", "l1_u", "l1_alpha_regular", "shock_position_error", "excess_mass_rel_error")]
        assert fields[2:] == ["%.17g" % v for v in values]
        assert [float(f) for f in fields[2:]] == values  # 17 digits read back exactly
    assert rows[1].startswith("delta_t1,600,1,")


def test_csv_17_digit_roundtrip(tmp_path):
    cfg = tmp_path / "s.json"
    write_config(cfg, dict(DELTA_SCENARIO, t_snapshots=[1.0], n_cells=64))
    assert main(["exact", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "delta_exact_t1.csv", delimiter=",", skiprows=1)
    sol = ds.solve(ds.RiemannData(0.008, 1.5, 0.003, 0.5), PARAMS_02)
    grid = ds.Grid1D(-1.0, 2.0, 64)
    _, u = sol.regular_fields(grid.centers(), 1.0)
    assert np.array_equal(rows[:, 2], u)  # 17 significant digits reproduce doubles exactly


TANH = {"kind": "tanh", "amplitude": -2.0}


def run_as(command, **fields):
    """A mutation that sets ``fields`` and names the subcommand to run instead of `exact`."""

    def mutate(s):
        s.update(fields)
        return command

    return mutate


def out_is_file(command):
    """A mutation that keeps the scenario and points --out at an existing file."""
    return lambda s: (command, "afile", [])


def with_message(mutate, message):
    """``mutate``, whose config error must also contain ``message``."""
    mutate.message = message
    return mutate


def with_flags(command, *flags):
    """A mutation that keeps the scenario and runs ``command`` with extra flags."""
    return lambda s: (command, None, list(flags))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s.pop("t_snapshots"),
        lambda s: s.update(t_snapshots=[]),
        lambda s: s.update(t_snapshots=[1.0, 0.5]),
        lambda s: s.update(n_cells=8),
        lambda s: s.pop("riemann"),
        lambda s: s.update(domain=[2.0, -1.0]),
        lambda s: s.update(domain=["a", 1]),
        lambda s: s.update(domain=[None, 1.0]),
        lambda s: s.update(domain=[-1.0, float("inf")]),
        pytest.param(run_as("exact", cfl=None), id="cfl-null"),
        pytest.param(run_as("exact", n_cells=None), id="n_cells-null"),
        pytest.param(run_as("exact", n_cells=float("inf")), id="n_cells-inf"),
        pytest.param(run_as("exact", n_cells=300.5), id="n_cells-fraction"),
        pytest.param(run_as("compare", exclusion_half_width=float("nan")), id="exclusion-nan"),
        # the window is checked before any output, at every snapshot (shock at x 0.446 and 1.109)
        pytest.param(run_as("compare", exclusion_half_width=-1.0), id="exclusion-negative"),
        pytest.param(run_as("compare", exclusion_half_width=5.0), id="exclusion-wider-than-domain"),
        pytest.param(run_as("compare", exclusion_half_width=1.2), id="exclusion-leaves-domain-at-last-snapshot"),
        pytest.param(run_as("simulate", fixed_dt=0), id="fixed_dt-zero"),
        pytest.param(run_as("simulate", fixed_dt=-1e-3), id="fixed_dt-negative"),
        pytest.param(run_as("simulate", fixed_dt=float("nan")), id="fixed_dt-nan"),
        # t + 1e-25 == t from t ~ 9.3e-10 on: more than fv.MAX_STEPS steps
        pytest.param(run_as("simulate", fixed_dt=1e-25), id="simulate-fixed_dt-1e-25"),
        pytest.param(run_as("exact", params={"mu": None, "ua": 1.0}), id="mu-null"),
        pytest.param(run_as("grh", t_end=float("inf")), id="grh-t_end-inf"),
        pytest.param(run_as("grh", t_end=None), id="grh-t_end-null"),
        pytest.param(run_as("grh", dt="a"), id="grh-dt-text"),
        pytest.param(run_as("grh", dt=1e-320), id="grh-dt-subnormal"),
        # grh.integrate rejects both before any output
        pytest.param(run_as("grh", t_end=0), id="grh-t_end-zero"),
        pytest.param(run_as("grh", dt=-1), id="grh-dt-negative"),
        # an opening jump forms a vacuum, with no point mass to integrate
        pytest.param(with_message(run_as("grh", riemann={"alpha_l": 0.008, "u_l": 0.5, "alpha_r": 0.003, "u_r": 1.5}),
                                  "grh needs u_l >= u_r"), id="grh-opening-jump"),
        # a contact without a point mass forms none: grh wrote its seed, 1.03e-10
        pytest.param(with_message(run_as("grh", riemann={"alpha_l": 0.008, "u_l": 0.7, "alpha_r": 0.003, "u_r": 0.7}),
                                  "grh on a contact needs omega0 > 0"), id="grh-contact-no-mass"),
        # ua*t overflows: the shock position was written to the report as Infinity
        *[pytest.param(with_message(run_as(command, params={"mu": 0.2, "ua": 2.0}, t_snapshots=[1.7e308]),
                                    "leaves the float range"), id=f"{command}-position-inf")
          for command in ("exact", "simulate", "compare")],
        pytest.param(run_as("blowup", profile=TANH, n_feet=None), id="blowup-n_feet-null"),
        pytest.param(run_as("blowup", profile=TANH, n_feet=4000.5), id="blowup-n_feet-fraction"),
        pytest.param(run_as("blowup", profile=TANH, n_feet=10**9), id="blowup-n_feet-huge"),
        pytest.param(run_as("blowup", profile=TANH, sample_count=None), id="blowup-sample_count-null"),
        pytest.param(run_as("blowup", profile=TANH, domain=[1]), id="blowup-domain-short"),
        pytest.param(run_as("blowup", profile=TANH, t_max=float("inf")), id="blowup-t_max-inf"),
        pytest.param(run_as("blowup", profile=dict(TANH, width=None)), id="blowup-width-null"),
        pytest.param(run_as("blowup", profile=dict(TANH, width=0)), id="blowup-width-zero"),
        # u0 overflowed with a warning, then the central-difference check blamed u0_prime
        pytest.param(with_message(run_as("blowup", profile={"kind": "cubic", "c1": -1.0, "c3": 1e300},
                                         domain=[-1e3, 1e3]), "u0 leaves the float range"), id="blowup-cubic-c3-1e300"),
        # the width 1e-310 read t* 0.0 against an oracle of 0.0151
        pytest.param(with_message(run_as("blowup", profile=dict(TANH, width=1e-310)), "u0_prime leaves the float range"),
                     id="blowup-tanh-width-1e-310"),
        # RiemannData rejects a negative density too
        pytest.param(with_message(run_as("blowup", profile=dict(TANH, alpha0=-1.0)), "alpha0 must be nonnegative"),
                     id="blowup-alpha0-negative"),
        *[
            pytest.param(run_as(command, **{block: value}), id=f"{block}-{json.dumps(value)}")
            for command, block in (("exact", "params"), ("exact", "riemann"), ("blowup", "profile"))
            for value in (None, True, 5)
        ],
        *[pytest.param(run_as("exact", outputs=value), id=f"outputs-{json.dumps(value)}") for value in (None, True, [1])],
        pytest.param(run_as("exact", outputs={"csv": "no"}), id="outputs-csv-text"),
        pytest.param(run_as("exact", outputs={"cvs": False}), id="outputs-misspelt-key"),
        pytest.param(run_as("simulate", fixed_dt=True), id="fixed_dt-true"),
        pytest.param(run_as("simulate", t_snapshots=[True]), id="t_snapshots-true"),
        pytest.param(run_as("exact", n_cells=True), id="n_cells-true"),
        pytest.param(run_as("exact", cfl="0.15"), id="cfl-numeric-text"),
        pytest.param(run_as("exact", n_cells=10**400), id="n_cells-huge-int"),
        # a domain whose cell width overflows: every x would be written as inf
        *[pytest.param(run_as(command, domain=[-1e308, 1e308], n_cells=20), id=f"{command}-domain-dx-inf")
          for command in ("exact", "simulate", "compare")],
        # counts past the allocation caps: config error, not a MemoryError traceback
        *[pytest.param(run_as(command, n_cells=1e13), id=f"{command}-n_cells-1e13")
          for command in ("exact", "simulate", "compare")],
        *[pytest.param(with_flags(command, "--cells", "20000000000000"), id=f"{command}-cells-flag-2e13")
          for command in ("exact", "simulate", "compare")],
        pytest.param(run_as("blowup", profile=TANH, sample_count=1e13), id="blowup-sample_count-1e13"),
        pytest.param(run_as("batch"), id="batch-no-runs"),
        pytest.param(run_as("batch", runs=[1]), id="batch-run-not-object"),
        pytest.param(run_as("batch", runs=[{"command": "exact", "scenario": 5}]), id="batch-scenario-not-object"),
        pytest.param(run_as("batch", runs=[{"command": [], "scenario": {}}]), id="batch-command-list"),
        pytest.param(run_as("batch", runs=[{"command": "batch", "scenario": {"runs": []}}]), id="batch-nested"),
        *[
            pytest.param(run_as(command, name=name, profile=TANH), id=f"{command}-name-{name!r}")
            for command in ("exact", "grh", "blowup")
            for name in ("a/b", "../x", "", ".", "..")
        ],
        # a name that is not a JSON string was written as None_…, True_…, 5_… or [1]_…
        *[pytest.param(run_as("exact", name=name), id=f"name-{json.dumps(name)}") for name in (None, True, 5, [1])],
        *[
            pytest.param(run_as("batch", runs=[{"command": "exact", "scenario": dict(DELTA_SCENARIO, name=name)}]),
                         id=f"batch-run-name-{name!r}")
            for name in ("../x", "..", "")
        ],
        pytest.param(out_is_file("exact"), id="out-is-file"),
        pytest.param(out_is_file("batch"), id="batch-out-is-file"),
        pytest.param(run_as("grh", outputs={"csv": "no"}), id="grh-outputs-csv-text"),
        pytest.param(run_as("grh", outputs=None), id="grh-outputs-null"),
        pytest.param(run_as("blowup", profile=TANH, outputs={"report": 0}), id="blowup-outputs-report-number"),
        pytest.param(run_as("blowup", profile=TANH, outputs=[1]), id="blowup-outputs-list"),
        *[
            pytest.param(run_as(command, riemann={"alpha_l": 0.008, "u_l": 0.5, "alpha_r": 0.003, "u_r": 1.5,
                                                  "omega0": 0.02}), id=f"{command}-vacuum-omega0")
            for command in ("exact", "simulate", "compare")
        ],
        # the FV state carries no point mass, so the FV commands reject one
        *[
            pytest.param(run_as(command, riemann={"alpha_l": 0.008, "u_l": 1.5, "alpha_r": 0.003, "u_r": 0.5,
                                                  "omega0": 0.02}), id=f"{command}-delta-omega0")
            for command in ("simulate", "compare")
        ],
    ],
)
def test_config_errors_exit_2(tmp_path, mutate, capsys):
    scenario = json.loads(json.dumps(DELTA_SCENARIO))
    command = mutate(scenario)
    command, out_file, flags = command if isinstance(command, tuple) else (command, None, [])
    cfg = tmp_path / "bad.json"
    write_config(cfg, scenario)
    out = tmp_path
    if out_file:
        out = tmp_path / out_file
        out.write_text("")
    command = command if command in ("exact", "simulate", "compare", "grh", "blowup", "batch") else "exact"
    assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert getattr(mutate, "message", "") in err
    assert not list(tmp_path.glob("*.csv"))


def test_nonfinite_snapshot_exit_2(tmp_path):
    # 1e400 parses as inf; `simulate` must not write the initial data as t=inf
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps(dict(DELTA_SCENARIO, n_cells=64)).replace("[0.4, 1.0]", "[1e400]"))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_fixed_dt_step_cap_checked_before_any_output(tmp_path, monkeypatch, capsys, command):
    # 800 steps to t=0.4, then 1200 to t=1.0: only the second interval passes
    # the cap, and the run must stop before the first snapshot is written
    monkeypatch.setattr(ds.fv, "MAX_STEPS", 1000)
    cfg = tmp_path / "s.json"
    write_config(cfg, dict(DELTA_SCENARIO, n_cells=64, t_snapshots=[0.4, 1.0], fixed_dt=5e-4))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "over the limit of 1000" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_exact_one_zero_density_reports_warning(tmp_path):
    # the front speed starts on the edge of the entropy interval here
    cfg = tmp_path / "s.json"
    scenario = dict(
        DELTA_SCENARIO,
        name="empty",
        params={"mu": 3.0, "ua": -0.5},
        riemann={"alpha_l": 0.0, "u_l": 2.0, "alpha_r": 0.05, "u_r": -1.0},
    )
    write_config(cfg, scenario)
    assert main(["exact", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "empty_exact_report.json").read_text())
    assert report["solution_kind"] == "delta-shock"
    assert "zero density" in report["warning"]
    p = ds.ModelParams(3.0, -0.5)
    for snap in report["snapshots"]:
        assert snap["omega"] == 0.0
        assert snap["sigma"] == ds.relax_velocity(-1.0, p, snap["t"])


def test_compare_one_zero_density_reports_warning(tmp_path):
    cfg = tmp_path / "s.json"
    scenario = dict(
        DELTA_SCENARIO,
        name="empty",
        n_cells=64,
        params={"mu": 3.0, "ua": -0.5},
        riemann={"alpha_l": 0.0, "u_l": 2.0, "alpha_r": 0.05, "u_r": -1.0},
    )
    write_config(cfg, scenario)
    for command in ("exact", "compare"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    exact, compared = (json.loads((tmp_path / f"empty_{c}_report.json").read_text()) for c in ("exact", "compare"))
    assert "zero density" in compared["warning"]
    assert {k: compared[k] for k in exact} == exact  # the report head is the exact report


def test_exact_at_subnormal_mu_keeps_the_drag_free_fronts(tmp_path):
    # decay_integral returned 0 at mu = 5e-324: a delta shock of weight 0
    # and a vacuum (0.1, 0.1), written with exit 0
    cfg = tmp_path / "s.json"
    params = {"mu": 5e-324, "ua": 1.0}
    write_config(cfg, dict(DELTA_SCENARIO, name="tiny", params=params, t_snapshots=[0.1]))
    assert main(["exact", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    snap = json.loads((tmp_path / "tiny_exact_report.json").read_text())["snapshots"][0]
    free = ds.solve(ds.RiemannData(0.008, 1.5, 0.003, 0.5), ds.ModelParams(0.0, 1.0))
    assert snap["omega"] > 0.0 and snap["omega"] == pytest.approx(free.weight(0.1), rel=1e-12)
    riemann = {"alpha_l": 0.008, "u_l": 0.5, "alpha_r": 0.003, "u_r": 1.5}
    write_config(cfg, dict(DELTA_SCENARIO, name="tinyvac", params=params, riemann=riemann, t_snapshots=[0.1]))
    assert main(["exact", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    snap = json.loads((tmp_path / "tinyvac_exact_report.json").read_text())["snapshots"][0]
    assert snap["X1"] == pytest.approx(0.05, rel=1e-15) and snap["X2"] == pytest.approx(0.15, rel=1e-15)


def test_exact_with_overflowing_mu_t_writes_the_limits_without_a_warning(tmp_path):
    # mu*t = 1e309 overflowed in decay_integral and relax_velocity, which
    # warned twice (a traceback under -W error) before writing the right values
    cfg = tmp_path / "s.json"
    write_config(cfg, dict(DELTA_SCENARIO, name="stiff", params={"mu": 1e308, "ua": 1.0}, t_snapshots=[10.0]))
    assert main(["exact", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    snap = json.loads((tmp_path / "stiff_exact_report.json").read_text())["snapshots"][0]
    sol = ds.solve(ds.RiemannData(0.008, 1.5, 0.003, 0.5), ds.ModelParams(1e308, 1.0))
    assert snap["omega"] == sol.weight(10.0) and snap["omega"] > 0.0
    rows = np.loadtxt(tmp_path / "stiff_exact_t10.csv", delimiter=",", skiprows=1)
    assert np.isfinite(rows).all()
    assert (rows[:, 2] == 1.0).all()  # every velocity has relaxed to ua


@pytest.mark.parametrize(
    "command, changes, code, prefix",
    [
        ("grh", {"riemann": {"alpha_l": 0.008, "u_l": 1e300, "alpha_r": 0.003, "u_r": 0.5}}, 3, "numerical abort:"),
        ("grh", {"riemann": {"alpha_l": 0.008, "u_l": 1.5, "alpha_r": 0.003, "u_r": -1e300}}, 3, "numerical abort:"),
        ("simulate", {"riemann": {"alpha_l": 1.7e308, "u_l": 1.5, "alpha_r": 0.003, "u_r": 0.5}}, 2, "config error:"),
        ("simulate", {"riemann": {"alpha_l": 0.008, "u_l": 1.5, "alpha_r": 2.0, "u_r": -1e308}}, 2, "config error:"),
    ],
    ids=["grh-u_l", "grh-u_r", "simulate-alpha_l", "simulate-u_r"],
)
def test_overflowing_data_ends_without_a_warning(tmp_path, capsys, command, changes, code, prefix):
    # numpy warned "overflow encountered in multiply" before these ended,
    # from grh's jump coefficients and from alpha*u of the initial state;
    # the suite turns any such warning into an error
    cfg = tmp_path / "s.json"
    scenario = dict(DELTA_SCENARIO, n_cells=40, t_snapshots=[0.1], t_end=0.01, dt=1e-3)
    write_config(cfg, dict(scenario, **changes))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err.startswith(prefix)
    assert not list(tmp_path.glob("*.csv"))


def test_missing_and_malformed_config_exit_2(tmp_path):
    assert main(["exact", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["exact", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_profile_scenario_rejected_by_exact(tmp_path):
    cfg = tmp_path / "p.json"
    write_config(
        cfg,
        {
            "name": "p",
            "params": {"mu": 1.0, "ua": 0.2},
            "profile": {"kind": "tanh", "amplitude": -2.0},
            "t_snapshots": [1.0],
        },
    )
    assert main(["exact", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_numerical_abort_exit_3(tmp_path):
    cfg = tmp_path / "s.json"
    write_config(cfg, dict(DELTA_SCENARIO, n_cells=100, t_snapshots=[1.0]))
    assert main([
        "simulate", "--config", str(cfg), "--out", str(tmp_path), "--fixed-dt", "0.1",
    ]) == 3


def test_cells_zero_exit_2(tmp_path, capsys):
    cfg = tmp_path / "s.json"
    write_config(cfg, DELTA_SCENARIO)
    assert main(["exact", "--config", str(cfg), "--out", str(tmp_path), "--cells", "0"]) == 2
    assert capsys.readouterr().err.startswith("config error: n_cells must be at least 16")
    assert not list(tmp_path.glob("*.csv"))


def test_blowup_negative_t_max_names_field(tmp_path, capsys):
    cfg = tmp_path / "s.json"
    write_config(cfg, dict(BLOWUP_SCENARIO, t_max=-1))
    assert main(["blowup", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: t_max must be finite and nonnegative, got -1.0")
    assert not (tmp_path / "tanh_blowup_report.json").exists()


def _savetxt_bytes(path, header, columns):
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",", header=",".join(header), comments="")
    return path.read_bytes()


def test_write_csv_special_values(tmp_path):
    values = [1e-300, 1e300, 0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.0 / 3.0]
    path = tmp_path / "v.csv"
    columns = (np.array(values), -np.array(values))
    write_csv(str(path), ("a", "b"), columns)
    expected = ["a,b"] + [f"{v:.17g},{-v:.17g}" for v in values]
    assert path.read_text() == "\n".join(expected) + "\n"
    assert path.read_bytes() == _savetxt_bytes(tmp_path / "ref.csv", ("a", "b"), columns)


def _run_columns(n_rows):
    """Columns whose neighbours repeat: the run path of ``write_csv``."""
    rows = np.arange(n_rows)
    return [
        np.array([0.008, 0.0, 0.003])[3 * rows // n_rows],  # piecewise constant
        np.full(n_rows, 1.0 / 3.0),  # constant
        np.where(rows % 4 < 2, 0.0, -0.0),  # 0.0 next to -0.0: equal values, different bits
        np.array([np.nan, np.inf, -np.inf, np.nan])[4 * rows // n_rows],  # non-finite runs
        np.where(rows >= 1000, 2.5, 0.1 * rows),  # with 1025 rows, a run across the row-1024 chunk edge
    ]


# 1025 rows: one full chunk of formatted rows and one more
@pytest.mark.parametrize("n_rows", [1, 1025])
@pytest.mark.parametrize("n_cols", [1, 3, 6])
def test_write_csv_equals_savetxt(tmp_path, n_cols, n_rows):
    rng = np.random.default_rng(100 * n_cols + n_rows)
    random = [rng.standard_normal(n_rows) * 10.0 ** rng.integers(-320, 300, n_rows) for _ in range(n_cols)]
    for columns in (random, _run_columns(n_rows) + random):
        header = [f"c{k}" for k in range(len(columns))]
        expected = _savetxt_bytes(tmp_path / "ref.csv", header, columns)
        write_csv(str(tmp_path / "a.csv"), header, columns)
        assert (tmp_path / "a.csv").read_bytes() == expected
        # the first column as the text a command formats once for all its files
        write_csv(str(tmp_path / "b.csv"), header, [_run_text(columns[0])] + columns[1:])
        assert (tmp_path / "b.csv").read_bytes() == expected


_NAN_PAYLOAD = np.array([0x7FF8000000000001]).view(float)[0]
POOL = [0.0, -0.0, np.nan, -np.nan, _NAN_PAYLOAD, np.inf, -np.inf, 5e-324, -1e-310, 1.0 / 3.0, -2.5, 1e300]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.integers(1, 4).flatmap(
        lambda n_cols: st.integers(0, 40).flatmap(
            lambda n_rows: st.lists(
                st.lists(st.sampled_from(POOL), min_size=n_rows, max_size=n_rows), min_size=n_cols, max_size=n_cols
            )
        )
    )
)
def test_write_csv_runs_equal_savetxt(tmp_path, table):
    columns = [np.array(col, dtype=float) for col in table]
    header = [f"c{k}" for k in range(len(columns))]
    expected = _savetxt_bytes(tmp_path / "ref.csv", header, columns)
    write_csv(str(tmp_path / "a.csv"), header, columns)
    assert (tmp_path / "a.csv").read_bytes() == expected
    write_csv(str(tmp_path / "b.csv"), header, [_run_text(columns[0])] + columns[1:])
    assert (tmp_path / "b.csv").read_bytes() == expected


def test_write_csv_joins_runs_of_rows_as_savetxt_writes_them(tmp_path, monkeypatch):
    # all columns text: a run of rows whose alpha and u repeat is one join,
    # here rows 1 to n - 2, across two edges of _CSV_CHUNK_ROWS; the one-row
    # runs at both ends and a one-row file go through the row template
    templated = []
    template_rows = cli._template_rows

    def counted(fh, row, cells, i0, i1):
        templated.extend(range(i0, i1))
        template_rows(fh, row, cells, i0, i1)

    monkeypatch.setattr(cli, "_template_rows", counted)
    n = 2 * _CSV_CHUNK_ROWS + 3
    x = np.linspace(-1.0, 2.0, n)
    alpha = np.full(n, 0.008)
    alpha[0], alpha[-1] = 0.003, -0.0
    u = np.full(n, 1.0 / 3.0)
    u[-1] = 1.5
    for columns, rows in (((x, alpha, u), [0, n - 1]), ((x[:1], alpha[:1], u[:1]), [0])):
        templated.clear()
        expected = _savetxt_bytes(tmp_path / "ref.csv", ("x", "alpha", "u"), columns)
        write_csv(str(tmp_path / "a.csv"), ("x", "alpha", "u"), (_run_text(columns[0]), *columns[1:]))
        assert (tmp_path / "a.csv").read_bytes() == expected
        assert templated == rows


def test_exact_evaluates_each_snapshot_row_once(tmp_path, monkeypatch):
    calls = []
    snapshot_row = cli._exact_snapshot_row

    def counted(solution, t):
        calls.append(t)
        return snapshot_row(solution, t)

    monkeypatch.setattr(cli, "_exact_snapshot_row", counted)
    cfg = tmp_path / "s.json"
    write_config(cfg, DELTA_SCENARIO)
    for command in ("exact", "compare"):
        calls.clear()
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert calls == DELTA_SCENARIO["t_snapshots"], command
        report = json.loads((tmp_path / f"delta_{command}_report.json").read_text())
        assert [snap["t"] for snap in report["snapshots"]] == calls


def test_write_csv_empty_columns_write_header_only(tmp_path):
    empty = np.empty(0)
    write_csv(str(tmp_path / "e.csv"), ("a", "b", "c"), (empty, _run_text(empty), empty))
    assert (tmp_path / "e.csv").read_bytes() == b"a,b,c\n"
    assert _savetxt_bytes(tmp_path / "ref.csv", ("a", "b", "c"), (empty, empty, empty)) == b"a,b,c\n"


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    for columns in ((np.zeros(3), np.ones(2)), (np.zeros(2), np.arange(3.0)), (_run_text(np.zeros(2)), np.zeros(3))):
        with pytest.raises(ValueError, match="differ in length"):
            write_csv(str(tmp_path / "a.csv"), ("a", "b"), columns)


# every field the Riemann commands read, and every field `blowup` reads
RIEMANN_FULL = dict(
    DELTA_SCENARIO,
    riemann=dict(DELTA_SCENARIO["riemann"], omega0=0.01),
    n_cells=64,
    t_snapshots=[0.1],
    fixed_dt=1e-3,
    exclusion_half_width=0.05,
    outputs={"csv": True, "svg": True, "report": True},
    t_end=0.05,
    dt=1e-3,
    sigma0=1.0,
)
# the FV commands reject a point mass, so their base scenario keeps omega0 = 0
RIEMANN_FV = dict(RIEMANN_FULL, riemann=dict(RIEMANN_FULL["riemann"], omega0=0.0))
PROFILE_FULL = {
    "name": "tanh",
    "params": {"mu": 1.0, "ua": 0.2},
    "profile": {"kind": "tanh", "amplitude": -2.0, "width": 1.0, "center": 0.1, "offset": 0.2, "alpha0": 0.5},
    "domain": [-3.0, 3.0],
    "sample_count": 201,
    "t_max": 50.0,
    "n_feet": 201,
}
WRONG_TYPES = (None, "x", [], [1], {}, True)


def _key_paths(scenario):
    for key, value in scenario.items():
        yield (key,)
        if isinstance(value, dict):
            yield from ((key, sub) for sub in value)


def test_wrong_typed_field_never_raises(tmp_path, capsys):
    cfg = tmp_path / "s.json"
    cases = 0
    riemann = [("exact", RIEMANN_FULL), ("simulate", RIEMANN_FV), ("compare", RIEMANN_FV), ("grh", RIEMANN_FULL)]
    for command, base in [("blowup", PROFILE_FULL)] + riemann:
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        write_config(cfg, base)
        assert main(argv) == 0, f"{command} fails on the unchanged scenario"
        for path in _key_paths(base):
            for value in WRONG_TYPES:
                scenario = json.loads(json.dumps(base))
                block = scenario if len(path) == 1 else scenario[path[0]]
                block[path[-1]] = value
                write_config(cfg, scenario)
                case = f"{command} {'.'.join(path)}={json.dumps(value)}"
                rc = main(argv)
                err = capsys.readouterr().err
                assert rc in (0, 2), case
                assert rc == 0 or err.startswith("config error:"), case
                cases += 1
    assert cases == 642


FUZZ_BASE = dict(
    DELTA_SCENARIO,
    name="fuzz",
    n_cells=40,
    t_snapshots=[0.05, 0.1],
    t_end=0.1,
    dt=1e-3,
    outputs={"csv": True, "svg": True, "report": True},
)
FUZZ_FIELDS = [("params", "mu"), ("params", "ua"), ("riemann", "alpha_l"), ("riemann", "u_l"),
               ("riemann", "alpha_r"), ("riemann", "u_r"), ("riemann", "omega0"), ("domain", 0), ("domain", 1),
               ("cfl",), ("fixed_dt",), ("exclusion_half_width",), ("t_snapshots", 0), ("t_snapshots", 1),
               ("t_end",), ("dt",), ("sigma0",)]
FUZZ_VALUES = [0.0, -0.0, 5e-324, 1e-300, -1e-300, 1e-12, 1e-9, 0.5, 1.0, 2.0, -1.0, 1e12, 1e150, 1e300, -1e300,
               1.7e308]
VACUUM_CHANGES = [(("riemann", "u_l"), 0.5), (("riemann", "u_r"), 1.5)]
CUBIC_FULL = dict(PROFILE_FULL, profile={"kind": "cubic", "c1": -1.5, "c3": 0.3, "center": 0.1, "offset": 0.2,
                                         "alpha0": 0.5})
# a case is a command and the fields it fuzzes; `blowup` runs the tanh or the cubic family
FUZZ_CASES = {command: (FUZZ_BASE, FUZZ_FIELDS) for command in ("exact", "simulate", "compare", "grh")}
FUZZ_CASES.update({
    f"blowup {base['profile']['kind']}": (base, [("params", "mu"), ("params", "ua"), ("domain", 0), ("domain", 1),
                                                 ("t_max",)] + [("profile", key) for key in keys])
    for base, keys in ((PROFILE_FULL, ("amplitude", "width", "center", "offset", "alpha0")),
                       (CUBIC_FULL, ("c1", "c3", "center", "offset", "alpha0")))
})


def _no_constant(name):
    raise AssertionError(f"a report holds {name}")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(list(FUZZ_CASES)).flatmap(lambda label: st.tuples(st.just(label), st.lists(
    st.tuples(st.sampled_from(FUZZ_CASES[label][1]), st.sampled_from(FUZZ_VALUES)), min_size=1, max_size=3))))
# each warned "overflow encountered in divide" (the fan on every cell) or
# "in multiply" (the shock position) and exited 0
@example(case=("exact", VACUUM_CHANGES + [(("t_snapshots",), [5e-324])]))
@example(case=("compare", VACUUM_CHANGES + [(("t_snapshots",), [5e-324, 0.1])]))
@example(case=("exact", VACUUM_CHANGES + [(("domain", 1), 1.7e308)]))
@example(case=("exact", [(("params", "ua"), 2.0), (("t_snapshots",), [1.7e308])]))
# an L1 error past the float range warned; a relative mass error over a
# subnormal point mass was written as inf; the sqrt-weighted initial speed
# overflowed to inf, and relaxing it warned
@example(case=("compare", [(("params", "ua"), 1e150), (("domain", 1), 1e300)]))
@example(case=("compare", [(("params", "mu"), 1.7e308), (("riemann", "alpha_r"), 1e12)]))
@example(case=("exact", [(("params", "mu"), 1e150), (("riemann", "u_l"), 1.7e308),
                         (("riemann", "alpha_l"), 1e150)]))
# blowup warned "overflow encountered in power" ((x - center)**3), "in
# multiply" (c1*(x - center)), "in divide" ((x - center)/width), and in the
# crossing oracle "in subtract" (u0 at two adjacent feet) and "in multiply" (dv*tau)
@example(case=("blowup cubic", [(("domain", 1), 1e300)]))
@example(case=("blowup cubic", [(("profile", "center"), 1.7e308), (("params", "ua"), 1e150)]))
@example(case=("blowup tanh", [(("profile", "width"), 5e-324)]))
@example(case=("blowup tanh", [(("profile", "amplitude"), 1.7e308), (("domain", 1), 1e300)]))
@example(case=("blowup tanh", [(("profile", "amplitude"), -1e300), (("params", "mu"), 0.0), (("t_max",), 1.7e308)]))
def test_extreme_values_end_cleanly(monkeypatch, capsys, case):
    # a run that could only end at the step cap ends at 2,000 steps instead
    monkeypatch.setattr(ds.fv, "MAX_STEPS", 2000)
    label, changes = case
    command = label.split()[0]
    scenario = json.loads(json.dumps(FUZZ_CASES[label][0]))
    for path, value in changes:
        block = scenario
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value
    with tempfile.TemporaryDirectory() as out:
        cfg = Path(out) / "s.json"
        write_config(cfg, scenario)
        rc = main([command, "--config", str(cfg), "--out", out])
        err = capsys.readouterr().err
        assert rc in (0, 2, 3)
        assert err == "" if rc == 0 else err.startswith(("config error:", "numerical abort:"))
        if rc != 0:
            return
        for path in Path(out).glob("*.csv"):
            rows = list(csv.reader(io.StringIO(path.read_text())))[1:]
            values = np.array([row[1:] if path.name.endswith("_errors.csv") else row for row in rows], dtype=float)
            assert np.isfinite(values).all(), path.name
            if "_t" in path.name and not path.name.endswith("_errors.csv"):
                assert (values[:, 1] >= 0.0).all(), path.name
        for path in Path(out).glob("*.json"):
            if path.name != "s.json":
                json.loads(path.read_text(), parse_constant=_no_constant)


def test_python_m_dropshock_help(tmp_path):
    # `python -m dropshock` runs the CLI from a checkout with PYTHONPATH=src
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "dropshock", "--help"], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: dropshock")
