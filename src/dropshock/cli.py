"""Command-line driver: exact/numeric solution dumps, comparisons, reports.

One JSON scenario per run (schema in the README); subcommands `exact`,
`simulate`, `compare`, `blowup`, `grh` and `batch`.  CSV output carries a
header row and 17 significant digits so runs are byte-reproducible.

Each ``cmd_*(args, cfg, raw)`` is a generator in two phases.  Its plan
parses and checks the whole scenario and runs every step that can
reject it (the exact rows, the initial FV state, the step settings of
each snapshot interval, the grh trajectory, the blowup times); then
``out = yield`` takes the output directory, and its run computes the
rest and writes there.  `main` creates the directory between the two
phases, and `batch` plans every entry before the first one writes.  Exit codes: 0 ok; 2 the input was rejected during the plan,
and nothing was written, not even the output directory; 3 a numerical
abort, or a failure once the directory exists (an OSError while writing,
say), where the files already finished stay.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import fv, grh
from ._record import _Record
from ._runs import run_starts as _run_starts, run_text as _run_text
from .burgers import blowup
from .core import BlowupError, ModelParams, RiemannData, cubic_profile, tanh_profile
from .droplet import RiemannSolution, solve
from .fv import FieldState, Grid1D, SolverAbort, advance, reconstruct_velocity
from .svgplot import line_plot
from .validation import compare, first_crossing_time
from .grh import GrhMonitorError

__all__ = ["main", "ConfigError"]


class ConfigError(Exception):
    """The scenario file is missing, malformed, or inconsistent."""


# the numerical aborts: exit 3
_ABORTS = (SolverAbort, GrhMonitorError, BlowupError)


_CSV_CHUNK_ROWS = 1024  # rows formatted per % operation or join: bounds the transient string and tuple


def write_csv(path: str, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """The columns as CSV under a header row, each value as %.17g: the bytes of np.savetxt.

    A float column with equal neighbours is formatted once per run of equal
    bit patterns and written as text; a column with none goes through the
    %.17g row template.  A column may also be text that ``_run_text``
    returned, so a command formats a shared x column once for all its files.
    When the first column is text, each run of two or more rows whose
    columns after the first all repeat is written as the first column's
    text joined by the rest of the row, and the other rows go through the
    template; a text column after the first joins no rows.  Floats become
    Python lists, and runs are joined, one chunk of rows at a time.
    """
    n = len(columns[0])
    cells = []
    # a flag on the first row of each run (np.unique would import numpy.ma, 1.1 MB)
    first = np.zeros(n + 1, dtype=bool)
    first[[0, n]] = True
    for j, col in enumerate(columns):
        starts = slice(None)  # text is not searched for runs
        if not (isinstance(col, np.ndarray) and col.dtype == object):
            col = np.ascontiguousarray(col, dtype=float)
            starts = _run_starts(col)
            if len(starts) < len(col):
                col = _run_text(col, starts)
        if len(col) != n:
            raise ValueError(f"CSV columns differ in length: {len(col)} != {n}")
        if j or col.dtype != object:  # a float first column joins no rows
            first[starts] = True
        cells.append(col)
    row = ",".join("%s" if col.dtype == object else "%.17g" for col in cells) + "\n"
    bounds = np.flatnonzero(first)
    long = np.flatnonzero(np.diff(bounds) > 1)  # the rows [i0, i1) of each run of two or more
    runs = zip(bounds[long].tolist(), bounds[long + 1].tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        done = 0
        for i0, i1 in runs:
            _template_rows(fh, row, cells, done, i0)
            suffix = "".join("," + col[i0] for col in cells[1:]) + "\n"
            for k in range(i0, i1, _CSV_CHUNK_ROWS):
                fh.write(suffix.join(cells[0][k : min(k + _CSV_CHUNK_ROWS, i1)].tolist()) + suffix)
            done = i1
        _template_rows(fh, row, cells, done, n)


def _template_rows(fh, row: str, cells: list, i0: int, i1: int) -> None:
    """Rows i0 to i1 of the cells through the row template, a chunk of rows per % operation."""
    width = len(cells)
    for k in range(i0, i1, _CSV_CHUNK_ROWS):
        m = min(_CSV_CHUNK_ROWS, i1 - k)
        flat = [None] * (m * width)
        for j, col in enumerate(cells):
            flat[j::width] = col[k : k + m].tolist()
        fh.write(row * m % tuple(flat))


def _load_config(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return _object(cfg, "config root"), raw


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    return value


def _require(cfg: dict, key: str, where: str = "scenario"):
    if key not in cfg:
        raise ConfigError(f"{where} is missing required key {key!r}")
    return cfg[key]


def _finite(value, what: str) -> float:
    if isinstance(value, (bool, str)):  # float() would read true as 1 and "1e-3" as 0.001
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        v = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return v


def _number(block: dict, key: str, default=None, where: str = "scenario") -> float:
    """block[key] as a finite float; required when ``default`` is None."""
    value = _require(block, key, where) if default is None else block.get(key, default)
    return _finite(value, f"{where} {key}")


def _count(block: dict, key: str, default: int) -> int:
    v = _number(block, key, default)
    if not v.is_integer():
        raise ConfigError(f"{key} must be an integer, got {block[key]!r}")
    return int(v)


def _domain(cfg: dict, default) -> tuple:
    domain = cfg.get("domain", default)
    if not (isinstance(domain, (list, tuple)) and len(domain) == 2):
        raise ConfigError(f"domain must be [x_min, x_max] with x_min < x_max, got {domain!r}")
    domain = (_finite(domain[0], "domain x_min"), _finite(domain[1], "domain x_max"))
    if not domain[1] > domain[0]:
        raise ConfigError(f"domain must be [x_min, x_max] with x_min < x_max, got {list(domain)!r}")
    return domain


def _params_from(cfg: dict) -> ModelParams:
    p = _object(_require(cfg, "params"), "params")
    return ModelParams(mu=_number(p, "mu", where="params"), ua=_number(p, "ua", where="params"))


def _riemann_from(cfg: dict) -> RiemannData:
    if "riemann" not in cfg:
        raise ConfigError("scenario needs a 'riemann' block (smooth profiles go through `blowup`)")
    r = _object(cfg["riemann"], "riemann")
    sides = [_number(r, key, where="riemann") for key in ("alpha_l", "u_l", "alpha_r", "u_r")]
    return RiemannData(*sides, omega0=_number(r, "omega0", 0.0, "riemann"))


def _name_from(cfg: dict, default: str) -> str:
    """The scenario name, which prefixes every output file: one plain path component."""
    name = cfg.get("name", default)
    if not isinstance(name, str):
        raise ConfigError(f"name must be a string, got {json.dumps(name)}")
    if name in ("", ".", "..") or os.sep in name or (os.altsep and os.altsep in name):
        raise ConfigError(f"name must be one plain file-name component, got {name!r}")
    return name


class Scenario(_Record):
    name: str
    solution: RiemannSolution  # carries the scenario's params and Riemann data
    grid: Grid1D
    t_snapshots: List[float]
    snapshot_rows: List[dict]  # the exact solution's report row at each snapshot time
    cfl: float
    fixed_dt: Optional[float]
    outputs: dict
    exclusion_half_width: float
    raw: str


def _outputs_from(cfg: dict) -> dict:
    outputs = {"csv": True, "svg": False, "report": True}
    for key, value in _object(cfg.get("outputs", {}), "outputs").items():
        if key not in outputs or not isinstance(value, bool):
            raise ConfigError(f"outputs takes only csv, svg and report, each true or false; got {key!r}: {value!r}")
        outputs[key] = value
    return outputs


def _common_from(cfg: dict, default_name: str):
    """The scenario's (name, params, outputs), checked in that order."""
    return _name_from(cfg, default_name), _params_from(cfg), _outputs_from(cfg)


def _scenario_from(cfg: dict, raw: str, args) -> Scenario:
    name, params, outputs = _common_from(cfg, "scenario")
    solution = solve(_riemann_from(cfg), params)  # rejects data with no exact solution, so `simulate` does too
    domain = _domain(cfg, [-1.0, 2.0])
    n_cells = _count(cfg, "n_cells", 3000)
    if getattr(args, "cells", None) is not None:
        n_cells = args.cells
    if n_cells < 16:
        raise ConfigError(f"n_cells must be at least 16, got {n_cells}")
    grid = Grid1D(domain[0], domain[1], n_cells)
    snaps = cfg.get("t_snapshots", [])
    if not isinstance(snaps, list) or len(snaps) == 0:
        raise ConfigError("t_snapshots must be a nonempty list of times")
    snaps = [_finite(t, "t_snapshots entry") for t in snaps]
    if any(t < 0 for t in snaps) or any(b <= a for a, b in zip(snaps, snaps[1:])):
        raise ConfigError("t_snapshots must be nonnegative and strictly increasing")
    rows = [_exact_snapshot_row(solution, t) for t in snaps]
    for row in rows:  # before any output: no inf to write
        if not all(map(math.isfinite, row.values())):
            raise ConfigError(f"the exact solution leaves the float range at t={row['t']:g}: {row}")
    cfl = _number(cfg, "cfl", 0.15)
    fixed_dt = cfg.get("fixed_dt")
    if getattr(args, "fixed_dt", None) is not None:
        fixed_dt = args.fixed_dt
    fixed_dt = None if fixed_dt is None else _finite(fixed_dt, "fixed_dt")
    for t0, t1 in zip([0.0] + snaps, snaps):  # advance's checks on each snapshot interval, before any output
        fv.check_span(t0, t1, cfl, fixed_dt)
    excl = _number(cfg, "exclusion_half_width", 0.05)
    if excl < 0.0:
        raise ConfigError(f"exclusion_half_width must be nonnegative, got {excl!r}")
    return Scenario(
        name=name,
        solution=solution,
        grid=grid,
        t_snapshots=snaps,
        snapshot_rows=rows,
        cfl=cfl,
        fixed_dt=fixed_dt,
        outputs=outputs,
        exclusion_half_width=excl,
        raw=raw,
    )


def _exact_snapshot_row(solution, t: float) -> dict:
    if solution.kind == "vacuum":
        x1, x2 = solution.bounds(t)
        return {"t": t, "X1": float(x1), "X2": float(x2)}
    row = {"t": t, "xi": float(solution.position(t)), "sigma": float(solution.speed(t)),
           "omega": float(solution.weight(t))}
    if solution.kind == "delta-shock":
        gl, gr = solution.entropy_gaps(t)
        row.update(gap_left=float(gl), gap_right=float(gr))
    return row


def _report_head(sc: Scenario) -> dict:
    """The keys the `exact` and `compare` reports share: scenario, solution kind, snapshots, any warning."""
    solution = sc.solution
    head = {
        "scenario": sc.raw,
        "solution_kind": solution.kind,
        "snapshots": sc.snapshot_rows,
    }
    if solution.warning:
        head["warning"] = solution.warning
    return head


def _write_report(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _x_columns(sc: Scenario):
    """The cell centres, and their CSV text formatted once for every file of a command (None without CSV)."""
    x = sc.grid.centers()
    return x, (_run_text(x) if sc.outputs["csv"] else None)


def _exact_snapshot(sc: Scenario, out: str, x, x_text, t: float):
    """The exact (alpha, u) at the cell centres x, written to <name>_exact_t<t>.csv."""
    alpha, u = sc.solution.regular_fields(x, t)
    if sc.outputs["csv"]:
        write_csv(os.path.join(out, f"{sc.name}_exact_t{t:g}.csv"), ("x", "alpha", "u"), (x_text, alpha, u))
    return alpha, u


def _numeric_snapshot(sc: Scenario, out: str, x_text, t: float, state: FieldState):
    """The FV velocity of ``state`` and the name of the <name>_num_t<t>.csv it is written to."""
    u = reconstruct_velocity(state, sc.solution.params)
    fname = f"{sc.name}_num_t{t:g}.csv"
    if sc.outputs["csv"]:
        write_csv(os.path.join(out, fname), ("x", "alpha", "u"), (x_text, state.alpha, u))
    return u, fname


def cmd_exact(args, cfg: dict, raw: str):
    sc = _scenario_from(cfg, raw, args)
    out = yield
    x, x_text = _x_columns(sc)
    for t in sc.t_snapshots:
        _exact_snapshot(sc, out, x, x_text, t)
    if sc.outputs["report"]:
        _write_report(os.path.join(out, f"{sc.name}_exact_report.json"), _report_head(sc))


def _run_snapshots(sc: Scenario, state: FieldState):
    for t in sc.t_snapshots:
        state = advance(state, sc.solution.params, t, cfl=sc.cfl, fixed_dt=sc.fixed_dt)
        yield t, state


def cmd_simulate(args, cfg: dict, raw: str):
    sc = _scenario_from(cfg, raw, args)
    state = FieldState.from_riemann(sc.grid, sc.solution.data)
    out = yield
    _, x_text = _x_columns(sc)
    files = []
    for t, state in _run_snapshots(sc, state):
        _, fname = _numeric_snapshot(sc, out, x_text, t, state)
        files.append({"t": t, "file": fname})
    if sc.outputs["report"]:
        _write_report(
            os.path.join(out, f"{sc.name}_simulate_report.json"),
            {"scenario": sc.raw, "snapshots": files},
        )


_ERRORS_HEADER = ("scenario", "n_cells", "t", "l1_u", "l1_alpha", "pos_err_cells", "mass_rel_err")


def _csv_text(value: str) -> str:
    """A CSV text field, quoted per RFC 4180 when it holds ``,``, ``"``, CR or LF."""
    if any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def cmd_compare(args, cfg: dict, raw: str):
    sc = _scenario_from(cfg, raw, args)
    grid, h = sc.grid, sc.exclusion_half_width
    # before any output: the window checks that validation.compare and fv.shock_mass make later
    for t in sc.t_snapshots if sc.solution.kind == "delta-shock" else ():
        xi = float(sc.solution.position(t))
        if not (grid.x_min < xi < grid.x_max and xi - h >= grid.x_min and xi + h <= grid.x_max):
            raise ConfigError(f"exclusion window {xi:g} ± {h:g} (shock at t={t:g}) must lie inside the domain")
    scale, suffix = (100.0, " (x100)") if getattr(args, "rescale_alpha", False) else (1.0, "")
    state = FieldState.from_riemann(grid, sc.solution.data)
    out = yield
    reports = []
    x, x_text = _x_columns(sc)
    for t, state in _run_snapshots(sc, state):
        u_num, _ = _numeric_snapshot(sc, out, x_text, t, state)
        alpha_ex, u_ex = _exact_snapshot(sc, out, x, x_text, t)
        reports.append(compare(state, sc.solution, h, label=f"{sc.name}_t{t:g}"))
        if sc.outputs["svg"]:
            line_plot(
                os.path.join(out, f"{sc.name}_overlay_alpha_t{t:g}.svg"),
                x,
                [("exact", alpha_ex * scale), ("numeric", state.alpha * scale)],
                title=f"volume fraction{suffix} at t={t:g}",
                ylabel=f"alpha{suffix}",
            )
            line_plot(
                os.path.join(out, f"{sc.name}_overlay_u_t{t:g}.svg"),
                x,
                [("exact", u_ex), ("numeric", u_num)],
                title=f"velocity at t={t:g}",
                ylabel="u",
            )
    if sc.outputs["csv"]:
        # one column per ErrorReport field, in field order
        scenario, *numbers = zip(*(rep.__dict__.values() for rep in reports))
        scenario = np.array([_csv_text(s) for s in scenario], dtype=object)
        write_csv(os.path.join(out, f"{sc.name}_errors.csv"), _ERRORS_HEADER, (scenario, *numbers))
    if sc.outputs["report"]:
        payload = dict(_report_head(sc), errors=[rep.__dict__ for rep in reports])
        _write_report(os.path.join(out, f"{sc.name}_compare_report.json"), payload)


def _profile_from(cfg: dict):
    """The configured profile's family and shape: a partial of ``tanh_profile`` or ``cubic_profile``."""
    p = _object(_require(cfg, "profile"), "profile")
    kind = _require(p, "kind", "profile")
    common = dict(
        center=_number(p, "center", 0.0, "profile"),
        offset=_number(p, "offset", 0.0, "profile"),
        alpha0=_number(p, "alpha0", 1.0, "profile"),
        domain=_domain(cfg, [-3.0, 3.0]),
        sample_count=_count(cfg, "sample_count", 2001),
    )
    if kind == "tanh":
        shape = tanh_profile, _number(p, "amplitude", where="profile"), _number(p, "width", 1.0, "profile")
    elif kind == "cubic":
        shape = cubic_profile, _number(p, "c1", where="profile"), _number(p, "c3", 0.0, "profile")
    else:
        raise ConfigError(f"unknown profile kind {kind!r} (expected 'tanh' or 'cubic')")
    return functools.partial(*shape, **common)


def cmd_blowup(args, cfg: dict, raw: str):
    name, params, outputs = _common_from(cfg, "profile")
    family = _profile_from(cfg)
    profile = family()
    t_max = _number(cfg, "t_max", 50.0)
    n_feet = _count(cfg, "n_feet", 4001)
    report = blowup(profile, params)
    # an offset cancels in the u0 difference of two feet, which keeps its digits at offset 0
    oracle = first_crossing_time(family(offset=0.0), params, t_max, n_feet)
    out = yield
    if outputs["report"]:
        _write_report(
            os.path.join(out, f"{name}_blowup_report.json"),
            {
                "scenario": raw,
                "blows_up": report.blows_up,
                "t_star_formula": report.t_star,
                "x0_star": report.x0_star,
                "t_star_oracle": oracle,
            },
        )


def cmd_grh(args, cfg: dict, raw: str):
    name, params, outputs = _common_from(cfg, "grh")
    data = _riemann_from(cfg)
    solution = solve(data, params)
    if solution.kind == "vacuum":
        raise ConfigError("grh needs u_l >= u_r: an opening jump forms a vacuum and carries no point mass")
    if solution.kind == "contact" and data.omega0 == 0.0:
        raise ConfigError("grh on a contact needs omega0 > 0: with u_l == u_r no point mass forms")
    t_end = _number(cfg, "t_end", 1.0)
    dt = _number(cfg, "dt", 1e-4)
    sigma0 = cfg.get("sigma0")
    sigma0 = solution.initial_speed if sigma0 is None else _finite(sigma0, "sigma0")
    states = grh.LimitStates.from_riemann(data, params)
    # a zero mass is seeded by integrate at sigma0
    z0 = grh.GrhState(mass=data.omega0, momentum=data.omega0 * sigma0)
    traj = grh.integrate(z0, sigma0, t_end, dt, states, params)
    out = yield
    u_l = np.asarray(states.u_l(traj.t), dtype=float)
    u_r = np.asarray(states.u_r(traj.t), dtype=float)
    entropy_ok = ((u_r < traj.speed) & (traj.speed < u_l)).astype(float)
    if outputs["csv"]:
        write_csv(
            os.path.join(out, f"{name}_grh.csv"),
            ("t", "omega", "sigma", "u_l", "u_r", "entropy_ok"),
            (traj.t, traj.mass, traj.speed, u_l, u_r, entropy_ok),
        )
    if outputs["report"]:
        report = {
            "scenario": raw,
            "final": {
                "t": float(traj.t[-1]),
                "omega": float(traj.mass[-1]),
                "sigma": float(traj.speed[-1]),
                "xi": float(traj.position[-1]),
            },
        }
        if solution.warning:
            report["warning"] = solution.warning
        _write_report(os.path.join(out, f"{name}_grh_report.json"), report)


def cmd_batch(args, cfg: dict, raw: str):
    runs = cfg.get("runs")
    if not isinstance(runs, list) or not runs:
        raise ConfigError("batch config needs a nonempty 'runs' list")
    plans = {}  # output name -> (index, the entry's command, planned and waiting for its directory)
    for k, run in enumerate(runs):
        command = _object(run, f"runs[{k}]").get("command")
        if not isinstance(command, str) or command not in _COMMANDS or command == "batch":
            raise ConfigError(f"runs[{k}] has unknown command {command!r}")
        scenario = _object(run.get("scenario"), f"runs[{k}] scenario")
        name = _name_from(scenario, f"run{k}")
        if name in plans:
            raise ConfigError(f"runs[{plans[name][0]}] and runs[{k}] both write to the output directory {name!r}")
        plans[name] = (k, _COMMANDS[command][0](args, scenario, json.dumps(scenario, indent=2)))
        try:
            next(plans[name][1])
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"runs[{k}]: {exc}") from exc
        except _ABORTS as exc:
            raise type(exc)(f"runs[{k}]: {exc}") from exc
    out = yield
    for name, (_, planned) in plans.items():
        os.makedirs(os.path.join(out, name), exist_ok=True)
        with contextlib.suppress(StopIteration):
            planned.send(os.path.join(out, name))


_FLAGS = {
    "--cells": dict(type=int, help="override n_cells"),
    "--fixed-dt": dict(type=float, help="fixed time step (replaces the CFL-adaptive step)"),
    "--rescale-alpha": dict(action="store_true", help="multiply plotted volume fraction by 100"),
}

# name -> (function, help, extra flags); drives both the parser and `batch`
_COMMANDS = {
    "exact": (cmd_exact, "dump the exact solution at the snapshot times", ("--cells",)),
    "simulate": (cmd_simulate, "run the finite-volume solver", ("--cells", "--fixed-dt")),
    "compare": (
        cmd_compare,
        "run the solver and compare with the exact solution",
        ("--cells", "--fixed-dt", "--rescale-alpha"),
    ),
    "blowup": (cmd_blowup, "blowup prediction for a smooth profile", ()),
    "grh": (cmd_grh, "integrate the point-mass balance ODEs", ()),
    "batch": (cmd_batch, "run a list of scenarios", ()),
}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="dropshock",
        description="Exact and finite-volume Riemann solutions for the droplet flow model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", default=".", help="output directory")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    writing = False  # set once the output directory exists
    try:
        cfg, raw = _load_config(args.config)
        run = args.func(args, cfg, raw)
        next(run)
        os.makedirs(args.out or ".", exist_ok=True)
        writing = True
        with contextlib.suppress(StopIteration):  # the command's normal end (PEP 479)
            run.send(args.out or ".")
    except (ConfigError, ValueError, OSError) as exc:
        print(f"{'numerical abort' if writing else 'config error'}: {exc}", file=sys.stderr)
        return 3 if writing else 2
    except _ABORTS as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
