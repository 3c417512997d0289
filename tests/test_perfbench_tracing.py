"""The traced benchmark run patches package attributes by name; every one must exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path

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
