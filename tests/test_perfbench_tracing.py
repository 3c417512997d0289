"""The traced benchmark run patches package attributes by name; every one must exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from dropshock import fv

from helpers import DELTA_DATA, PARAMS_02

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _targets():
    """(owner, attribute) of every function and method the tracer wraps."""
    out = [(importlib.import_module(m), attr) for m, attr, *_ in tracing.SPANS + tracing.COUNTERS]
    for module, attr, _ in tracing.METHOD_SPANS:
        classes = [c for c in vars(importlib.import_module(module)).values()
                   if inspect.isclass(c) and c.__module__ == module and attr in c.__dict__]
        assert classes, f"no class in {module} defines {attr}"
        out += [(c, attr) for c in classes]
    return out


def test_tracer_wraps_every_target_and_restores():
    targets = _targets()
    originals = [vars(owner)[attr] for owner, attr in targets]
    tracer = tracing.Tracer()
    try:
        tracer.install(counters=True)
        for (owner, attr), original in zip(targets, originals):
            assert vars(owner)[attr].__wrapped__ is original, f"{owner.__name__}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(targets, originals):
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"


def test_traced_advance_counts_every_step_and_window_cell(monkeypatch):
    # the counters wrap fv.kinetic_flux, which advance calls with out=: a
    # traced run must return the untraced bytes and count each step once,
    # with the m cells of its window
    st = fv.FieldState.from_riemann(fv.Grid1D(-1.0, 2.0, 300), DELTA_DATA)
    plain = fv.advance(st, PARAMS_02, 0.2, fixed_dt=1e-3)
    widths = []
    original = fv.kinetic_flux

    def window_cells(*args, **kwargs):
        assert "out" in kwargs
        widths.append(len(args[0]) - 1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fv, "kinetic_flux", window_cells)  # under the tracer's counter
    tracer = tracing.Tracer()
    tracer.install(counters=True)
    try:
        traced = tracer.run_job(0, lambda: fv.advance(st, PARAMS_02, 0.2, fixed_dt=1e-3))
    finally:
        tracer.uninstall()
    assert traced.alpha.tobytes() == plain.alpha.tobytes()
    assert traced.q.tobytes() == plain.q.tobytes()
    assert tracer.counts[0]["fv.steps"] == len(widths) == 200
    assert tracer.counts[0]["fv.cell_steps"] == sum(widths)
    assert 4 * 200 < sum(widths) < 300 * 200  # the window grew from the jump and never covered the grid
