"""The README's scenario, command lines and library example run as written.

The JSON Riemann scenario goes through every command line of the README
that reads ``scenario.json``, the replication run included; the Python
block under "Library example" is executed.  A README that drifts from the
command line or the library fails here.
"""

import json
import re
from pathlib import Path

import pytest

from dropshock import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def _scenario_command_lines():
    lines = [line for block in _blocks("sh") for line in block.splitlines()]
    # optional flags are shown in brackets
    return [re.sub(r"\s*\[[^]]*\]", "", line).split() for line in lines
            if line.startswith("dropshock ") and "scenario.json" in line]


def test_readme_scenario_runs_under_every_command_line(tmp_path):
    (scenario,) = [block for block in _blocks("json") if '"riemann"' in block]
    cfg = tmp_path / "scenario.json"
    cfg.write_text(scenario, encoding="utf-8")
    argvs = _scenario_command_lines()
    assert ["compare", "--config", "scenario.json", "--out", "results/", "--fixed-dt", "1e-4"] in (
        argv[1:] for argv in argvs
    ), "the replication command is gone"
    assert {argv[1] for argv in argvs} == {"exact", "simulate", "compare", "grh"}
    name = json.loads(scenario)["name"]
    for k, argv in enumerate(argvs):
        out = tmp_path / f"results{k}"
        paths = {"scenario.json": str(cfg), "results/": str(out)}
        assert cli.main([paths.get(arg, arg) for arg in argv[1:]]) == 0, " ".join(argv)
        assert (out / f"{name}_{argv[1]}_report.json").exists(), " ".join(argv)


def test_readme_library_example_runs():
    (example,) = _blocks("python")
    namespace = {"__name__": "readme_example"}
    exec(compile(example, "README.md", "exec"), namespace)
    traj, one_sided, params = namespace["traj"], namespace["one_sided"], namespace["params"]
    exact = namespace["ds"].solve(one_sided, params)
    assert traj.mass[-1] == pytest.approx(exact.weight(1.0), abs=1e-8)
    assert traj.speed[-1] == pytest.approx(exact.speed(1.0), abs=1e-8)
