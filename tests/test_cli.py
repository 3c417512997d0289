import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dropshock as ds
from dropshock.cli import main, write_csv

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


def test_cells_override(tmp_path):
    cfg = tmp_path / "s.json"
    write_config(cfg, dict(DELTA_SCENARIO, t_snapshots=[0.2]))
    assert main(["exact", "--config", str(cfg), "--out", str(tmp_path), "--cells", "64"]) == 0
    lines = (tmp_path / "delta_exact_t0.2.csv").read_text().splitlines()
    assert len(lines) == 1 + 64


def test_blowup_report(tmp_path):
    cfg = tmp_path / "b.json"
    write_config(
        cfg,
        {
            "name": "tanh",
            "params": {"mu": 1.0, "ua": 0.2},
            "profile": {"kind": "tanh", "amplitude": -2.0, "width": 1.0},
            "domain": [-3.0, 3.0],
            "t_max": 50.0,
            "n_feet": 4001,
        },
    )
    assert main(["blowup", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "tanh_blowup_report.json").read_text())
    assert report["blows_up"] is True
    assert report["t_star_formula"] == pytest.approx(LN2, abs=1e-9)
    assert report["t_star_oracle"] == pytest.approx(LN2, abs=1e-5)


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


def test_grh_with_initial_point_mass(tmp_path):
    cfg = tmp_path / "g.json"
    write_config(
        cfg,
        {
            "name": "seeded",
            "params": {"mu": 0.2, "ua": 1.0},
            "riemann": {"alpha_l": 0.008, "u_l": 1.5, "alpha_r": 0.003, "u_r": 0.5, "omega0": 0.02},
            "t_end": 1.0,
            "dt": 1e-3,
        },
    )
    assert main(["grh", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "seeded_grh_report.json").read_text())
    d = ds.RiemannData(0.008, 1.5, 0.003, 0.5, omega0=0.02)
    exact = ds.DeltaShockSolution(d, PARAMS_02)
    assert report["final"]["omega"] == pytest.approx(exact.weight(1.0), abs=1e-8)


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
        pytest.param(run_as("simulate", fixed_dt=0), id="fixed_dt-zero"),
        pytest.param(run_as("simulate", fixed_dt=-1e-3), id="fixed_dt-negative"),
        pytest.param(run_as("simulate", fixed_dt=float("nan")), id="fixed_dt-nan"),
        pytest.param(run_as("exact", params={"mu": None, "ua": 1.0}), id="mu-null"),
        pytest.param(run_as("grh", t_end=float("inf")), id="grh-t_end-inf"),
        pytest.param(run_as("grh", t_end=None), id="grh-t_end-null"),
        pytest.param(run_as("grh", dt="a"), id="grh-dt-text"),
        pytest.param(run_as("grh", dt=1e-320), id="grh-dt-subnormal"),
        pytest.param(run_as("blowup", profile=TANH, n_feet=None), id="blowup-n_feet-null"),
        pytest.param(run_as("blowup", profile=TANH, n_feet=4000.5), id="blowup-n_feet-fraction"),
        pytest.param(run_as("blowup", profile=TANH, n_feet=10**9), id="blowup-n_feet-huge"),
        pytest.param(run_as("blowup", profile=TANH, sample_count=None), id="blowup-sample_count-null"),
        pytest.param(run_as("blowup", profile=TANH, domain=[1]), id="blowup-domain-short"),
        pytest.param(run_as("blowup", profile=TANH, t_max=float("inf")), id="blowup-t_max-inf"),
        pytest.param(run_as("blowup", profile=dict(TANH, width=None)), id="blowup-width-null"),
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
        # counts past the allocation caps: config error, not a MemoryError traceback
        *[pytest.param(run_as(command, n_cells=1e13), id=f"{command}-n_cells-1e13")
          for command in ("exact", "simulate", "compare")],
        *[pytest.param(with_flags(command, "--cells", "20000000000000"), id=f"{command}-cells-flag-2e13")
          for command in ("exact", "simulate", "compare")],
        pytest.param(run_as("blowup", profile=TANH, sample_count=1e13), id="blowup-sample_count-1e13"),
        pytest.param(run_as("batch", runs=[1]), id="batch-run-not-object"),
        pytest.param(run_as("batch", runs=[{"command": "exact", "scenario": 5}]), id="batch-scenario-not-object"),
        pytest.param(run_as("batch", runs=[{"command": [], "scenario": {}}]), id="batch-command-list"),
        pytest.param(run_as("batch", runs=[{"command": "batch", "scenario": {"runs": []}}]), id="batch-nested"),
        *[
            pytest.param(run_as(command, name=name, profile=TANH), id=f"{command}-name-{name!r}")
            for command in ("exact", "grh", "blowup")
            for name in ("a/b", "../x", "", ".", "..")
        ],
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
    assert capsys.readouterr().err.startswith("config error:")
    assert not list(tmp_path.glob("*.csv"))


def test_nonfinite_snapshot_exit_2(tmp_path):
    # 1e400 parses as inf; `simulate` must not write the initial data as t=inf
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps(dict(DELTA_SCENARIO, n_cells=64)).replace("[0.4, 1.0]", "[1e400]"))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
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


def test_write_csv_special_values(tmp_path):
    values = [1e-300, 1e300, 0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.0 / 3.0]
    path = tmp_path / "v.csv"
    write_csv(str(path), ("a", "b"), (np.array(values), -np.array(values)))
    expected = ["a,b"] + [f"{v:.17g},{-v:.17g}" for v in values]
    assert path.read_text() == "\n".join(expected) + "\n"


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


def test_python_m_dropshock_help(tmp_path):
    # `python -m dropshock` runs the CLI from a checkout with PYTHONPATH=src
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "dropshock", "--help"], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: dropshock")
