"""The value records behave as frozen dataclasses with the same fields.

Every ``_Record`` subclass is compared with a twin that
``dataclasses.make_dataclass(..., frozen=True)`` builds from its fields and
defaults: the same ``repr`` text, ``==`` and ``hash`` outcomes, the same
construction and the same TypeErrors.  Two deterministic checks stand in
for the import-time saving: importing the package and its CLI loads no
``dataclasses``, and the base builds no method from source.
"""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dropshock.cli as cli
from dropshock import burgers, core, droplet, fv, grh, validation
from dropshock._record import _Record

PARAMS = core.ModelParams(0.2, 1.0)
DELTA = core.RiemannData(0.008, 1.5, 0.003, 0.5)
VACUUM = core.RiemannData(0.008, 0.5, 0.003, 1.5)
CONTACT = core.RiemannData(0.008, 0.7, 0.003, 0.7, omega0=0.02)
GRID = fv.Grid1D(-1.0, 2.0, 8)
PROFILE = core.tanh_profile(-2.0)
STATES = grh.LimitStates.from_riemann(DELTA, PARAMS)


def _arrays(n):
    return [np.linspace(0.0, 1.0, 8) + k for k in range(n)]


# positional field values of sample instances, one list per record class
SAMPLES = {
    core.ModelParams: [(0.2, 1.0), (0.0, -3)],
    core.RiemannData: [(0.008, 1.5, 0.003, 0.5), (0.008, 1.5, 0.003, 0.5, 0.02)],
    core.SmoothProfile: [(PROFILE.u0, PROFILE.u0_prime, PROFILE.alpha0, PROFILE.domain, PROFILE.sample_count)],
    fv.Grid1D: [(-1.0, 2.0, 8), (0, 1, 3)],
    fv.FieldState: [(GRID, *_arrays(2), 0.5), (GRID, *_arrays(2))],
    grh.LimitStates: [(STATES.alpha_l, STATES.u_l, STATES.alpha_r, STATES.u_r)],
    grh.GrhState: [(1.0, 2.0)],
    grh.GrhTrajectory: [tuple(_arrays(5)), tuple(np.zeros(1) for _ in range(5))],
    validation.BumpTestFunction: [(0.0, 0.5, 0.5, 0.25), (0.0, -0.5, 0.5, 0.25, ((2.0, 1, 0),))],
    validation.ErrorReport: [("delta_t1", 300, 1.0, 1e-3, 2e-3, 0.5, -1e-4)],
    burgers.BlowupReport: [(True, 0.5, 0.1), (False,)],
    droplet._Solution: [(DELTA, PARAMS)],
    droplet._Front: [(DELTA, PARAMS)],
    droplet.DeltaShockSolution: [(DELTA, PARAMS), (DELTA, PARAMS, droplet.DeltaVariant.SUBSYSTEM)],
    droplet.VacuumSolution: [(VACUUM, PARAMS)],
    droplet.ContactSolution: [(CONTACT, PARAMS)],
    cli.Scenario: [
        ("s", droplet.solve(DELTA, PARAMS), GRID, [0.5], [{"t": 0.5}], 0.15, None, {"csv": True}, 0.05, "{}"),
    ],
}


def _records():
    """The package's record classes."""
    found, todo = [], [_Record]
    while todo:
        subs = todo.pop().__subclasses__()
        found += subs
        todo += subs
    return [cls for cls in found if cls.__module__.startswith("dropshock.")]


def _twin(cls):
    """A frozen dataclass with the record's name, fields and defaults."""
    specs = [
        (name, object, dataclasses.field(default=cls._defaults[name])) if name in cls._defaults else (name, object)
        for name in cls._fields
    ]
    twin = dataclasses.make_dataclass(cls.__name__, specs, frozen=True)
    twin.__qualname__ = cls.__qualname__
    return twin


def _outcome(call):
    """The call's result, or the type of the exception it raised."""
    try:
        return call()
    except (TypeError, ValueError) as exc:
        return type(exc)


CASES = [pytest.param(cls, args, id=f"{cls.__qualname__}-{k}") for cls, samples in SAMPLES.items()
         for k, args in enumerate(samples)]


def test_every_record_has_samples():
    assert set(_records()) == set(SAMPLES)


def test_fields_follow_the_mro_and_skip_unannotated_attributes():
    assert droplet._Solution._fields == ("data", "params")
    assert droplet.VacuumSolution._fields == droplet.ContactSolution._fields == ("data", "params")
    assert droplet.DeltaShockSolution._fields == ("data", "params", "variant")
    assert droplet.DeltaShockSolution._defaults == {"variant": droplet.DeltaVariant.FULL_SYSTEM}
    assert core.RiemannData._defaults == {"omega0": 0.0}
    # kind, _weight_rate and warning stay class attributes
    assert droplet.ContactSolution.kind == "contact" and droplet.ContactSolution._weight_rate == 0.0
    assert droplet.VacuumSolution.warning is None


@pytest.mark.parametrize("cls, args", CASES)
def test_record_matches_its_frozen_dataclass_twin(cls, args):
    twin = _twin(cls)
    kwargs = dict(zip(cls._fields, args))
    rec, dup, other = cls(*args), cls(*args), twin(*args)
    assert repr(rec) == repr(other) == repr(cls(**kwargs))
    assert cls.__match_args__ == twin.__match_args__
    # two instances with equal fields, one and the same instance, and another class
    assert _outcome(lambda: rec == dup) == _outcome(lambda: other == twin(*args))
    assert (rec == rec) is (other == other) is True
    assert rec.__eq__(other) is NotImplemented and (rec == other) is False and (rec != other) is True
    assert (rec == type("Sub", (cls,), {})(*args)) is (other == type("Sub", (twin,), {})(*args)) is False
    assert _outcome(lambda: hash(rec)) == _outcome(lambda: hash(other))
    # defaults fill what is left out
    required = [name for name in cls._fields if name not in cls._defaults]
    least = args[: len(required)]
    assert repr(cls(*least)) == repr(twin(*least))
    # a missing, unknown, repeated or surplus argument
    for bad_args, bad_kwargs in [
        (least[:-1], {}),
        (args, {"no_such_field": 1}),
        (args, {cls._fields[0]: args[0]}),
        (args + (None,) * (len(cls._fields) - len(args) + 1), {}),
    ]:
        with pytest.raises(TypeError):
            twin(*bad_args, **bad_kwargs)
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)


@pytest.mark.parametrize("cls, args", CASES)
def test_record_rejects_assignment_and_deletion(cls, args):
    rec = cls(*args)
    for name in cls._fields + ("not_a_field",):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(rec, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(rec, name)
    assert repr(rec) == repr(cls(*args))


def test_array_fields_compare_and_hash_as_the_twin_does():
    twin = _twin(fv.FieldState)
    alpha, q = _arrays(2)
    rec, other = fv.FieldState(GRID, alpha, q), fv.FieldState(GRID, alpha.copy(), q)
    # equal arrays that are not the same object have no single truth value
    with pytest.raises(ValueError):
        rec == other
    with pytest.raises(ValueError):
        twin(GRID, alpha, q) == twin(GRID, alpha.copy(), q)
    assert rec == fv.FieldState(GRID, alpha, q)  # the same arrays compare by identity
    for value in (rec, twin(GRID, alpha, q)):
        with pytest.raises(TypeError, match="unhashable type: 'numpy.ndarray'"):
            hash(value)


@pytest.mark.parametrize(
    "build",
    [
        lambda: core.ModelParams(-1.0, 0.0),
        lambda: core.RiemannData(-1.0, 0.0, 1.0, 0.0),
        lambda: core.SmoothProfile(PROFILE.u0, PROFILE.u0_prime, PROFILE.alpha0, (1.0, 0.0)),
        lambda: fv.Grid1D(0.0, 1.0, 0),
        lambda: fv.FieldState(GRID, np.zeros(3), np.zeros(8)),
        lambda: validation.BumpTestFunction(0.0, 0.0, 0.5, 0.25),
        lambda: droplet.DeltaShockSolution(VACUUM, PARAMS),
        lambda: droplet.VacuumSolution(DELTA, PARAMS),
        lambda: droplet.ContactSolution(DELTA, PARAMS),
    ],
)
def test_post_init_still_rejects_bad_input(build):
    with pytest.raises(ValueError):
        build()


def test_importing_the_package_and_cli_loads_no_dataclasses():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, dropshock, dropshock.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_record_base_builds_nothing_from_source():
    path = Path(__file__).resolve().parents[1] / "src" / "dropshock" / "_record.py"
    names = {node.id for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Name)}
    assert names.isdisjoint({"exec", "eval", "compile"})
