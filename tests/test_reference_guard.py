"""The byte oracles stay independent of the code they check.

``helpers.reference_free_advance`` is the full-grid free-frame loop that
``fv.advance`` must equal byte for byte.  It may take from ``dropshock.fv``
only the state type, the abort exception and the vacuum threshold, and it
computes its own flux: a speed-up that routed it through ``advance``'s
helpers (``reconstruct_velocity``, ``kinetic_flux`` with ``out=``) would make the
byte-identity property compare that code with itself.
``helpers.reference_advance``, the split-step loop ``advance`` stays within
rounding of, takes the same three names and calls ``fv.kinetic_flux`` only
in its four-argument, allocating form.

``helpers.reference_weak_residual`` and ``_reference_value_and_partials``
evaluate psi on every node, the oracle ``validation.weak_residual`` must
equal byte for byte.  They may take from ``dropshock.validation`` only the
test-function type, the bump and the Simpson weights, and call no method of
the test function, so they cannot share the per-block nodes and columns or
``value_and_partials`` with the code they check.

``test_svgplot.reference_points`` is the polyline text that
``svgplot.line_plot`` must equal byte for byte.  It formats each point with
its own f-string and calls nothing from ``dropshock``, so it shares no
formatter (such as the run formatter) with the plot.

``helpers.reference_integrate``, with ``_reference_rates`` and
``_default_seed``, is the stage-by-stage RK4 loop that ``grh.integrate``
must equal byte for byte, abort messages included.  It may take from
``dropshock.grh`` only the step cap, the monitor exception and the state,
trajectory and limit-state types, so it cannot share the jump
coefficients, the chunk size or the chunk loop with the code it checks.

``helpers.reference_front_fields`` and ``reference_vacuum_fields`` are the
two per-kind bodies that ``regular_fields`` replaced and must equal bit for
bit.  They take nothing from ``dropshock.droplet`` and read neither
``regular_fields`` nor ``_wave_fields``, so they cannot share the side-state
selection with the method they check.

The guards read the sources, so they need no run of an oracle.
"""

import ast
import inspect
import pathlib

import pytest

import dropshock as ds
from dropshock import droplet, fv, grh, validation

HELPERS = pathlib.Path(__file__).with_name("helpers.py")
FV_GUARD = dict(
    module=fv,
    oracles=("reference_advance",),
    allowed={"FieldState", "SolverAbort", "VACUUM_ALPHA"},
    calls={"kinetic_flux": 4},
)
FREE_FV_GUARD = dict(
    module=fv,
    oracles=("reference_free_advance",),
    allowed={"FieldState", "SolverAbort", "VACUUM_ALPHA"},
)
WEAK_GUARD = dict(
    module=validation,
    oracles=("reference_weak_residual", "_reference_value_and_partials"),
    allowed={"BumpTestFunction", "_bump", "_simpson_weights"},
    methods={name for name, v in vars(validation.BumpTestFunction).items()
             if inspect.isfunction(v) and not name.startswith("__")},
)

GRH_GUARD = dict(
    module=grh,
    oracles=("reference_integrate", "_reference_rates", "_default_seed"),
    allowed={"MAX_STEPS", "GrhMonitorError", "GrhState", "GrhTrajectory", "LimitStates"},
)

FIELDS_GUARD = dict(
    module=droplet,
    oracles=("reference_front_fields", "reference_vacuum_fields"),
    allowed=set(),
    methods={"regular_fields", "_wave_fields"},
)


def _is_module_object(module, name):
    """Whether the package's ``name`` is the object ``module`` has under it."""
    return hasattr(module, name) and getattr(ds, name, None) is getattr(module, name)


def oracle_uses(source: str, module, oracles, allowed, calls=None, methods=()) -> list:
    """Each use of ``module`` by the oracles, and by the module-level
    functions they reach, beyond ``allowed`` and calls of a ``calls`` name
    with exactly its count of positional arguments and no keywords; also
    each read of a ``methods`` attribute.  Empty when the oracles are
    independent."""
    calls = calls or {}
    dotted, short = module.__name__, module.__name__.rsplit(".", 1)[-1]
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    imported, module_aliases, package_aliases = {}, set(), set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == dotted:
            imported.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "dropshock":
            module_aliases.update(a.asname or a.name for a in node.names if a.name == short)
            imported.update((a.asname or a.name, a.name) for a in node.names if _is_module_object(module, a.name))
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name == dotted and a.asname:
                    module_aliases.add(a.asname)
                elif a.name.startswith("dropshock"):
                    package_aliases.add(a.asname or "dropshock")

    def is_module(node):
        return (isinstance(node, ast.Name) and node.id in module_aliases) or (
            isinstance(node, ast.Attribute) and node.attr == short
            and isinstance(node.value, ast.Name) and node.value.id in package_aliases
        )

    def uses(tree_node):
        """The module's names that ``tree_node`` touches, with a note for a bad call."""
        found, counted_calls = [], set()
        for node in ast.walk(tree_node):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in calls and is_module(node.func.value)):
                counted_calls.add(id(node.func))
                count = calls[node.func.attr]
                if len(node.args) != count or node.keywords or any(isinstance(a, ast.Starred) for a in node.args):
                    found.append(f"{short}.{node.func.attr} called other than with {count} positional arguments")
        for node in ast.walk(tree_node):
            if isinstance(node, ast.Name) and node.id in imported and imported[node.id] not in allowed:
                found.append(f"{short}.{imported[node.id]}")
            elif isinstance(node, ast.Attribute) and is_module(node.value):
                if node.attr not in allowed and id(node) not in counted_calls:
                    found.append(f"{short}.{node.attr}")
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in package_aliases and node.attr not in allowed
                    and _is_module_object(module, node.attr)):
                found.append(f"{short}.{node.attr}")
            elif isinstance(node, ast.Attribute) and node.attr in methods:
                found.append(f"method {node.attr}")
        return found

    # module-level names bound to something built from the module carry it along
    tainted = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None and uses(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        tainted[name.id] = uses(node.value)

    found, seen, todo = [], set(), list(oracles)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        found += [f"{name}: {use}" for use in uses(functions[name])]
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name) and node.id in functions:
                todo.append(node.id)
            elif isinstance(node, ast.Name) and node.id in tainted:
                found += [f"{name}: {node.id} = {use}" for use in tainted[node.id]]
    return found


def test_reference_advance_uses_only_allowed_fv_names():
    assert oracle_uses(HELPERS.read_text(), **FV_GUARD) == []


FLUX_CALL = "fv.kinetic_flux(a_ext[:-1], u_ext[:-1], a_ext[1:], u_ext[1:])"
VELOCITY_CALL = "_reference_velocity(alpha, q, ua, bounds, u, vac, any_vacuum)"


def _edited(source, edits):
    for old, new in edits:
        assert old in source
        source = source.replace(old, new, 1)
    return source


@pytest.mark.parametrize(
    "edits, use",
    [
        ([(VELOCITY_CALL, "fv._velocity" + VELOCITY_CALL[19:])], "fv._velocity"),
        ([(FLUX_CALL, FLUX_CALL[:-1] + ", out=(a_ext, u_ext))")], "4 positional"),
        ([(FLUX_CALL, "fv.kinetic_flux(a_ext[:-1], u_ext[:-1])")], "4 positional"),
        ([("    step = 0\n", "    step = 0\n    _ = ds.advance\n")], "fv.advance"),
        ([("import math\n", "import math\n_velocity = fv._velocity\n"), (VELOCITY_CALL, VELOCITY_CALL[10:])],
         "_velocity = fv._velocity"),
        ([("SolverAbort\n", "SolverAbort, reconstruct_velocity\n")], None),
    ],
    ids=["private-velocity", "flux-out", "flux-one-sided", "package-advance", "module-alias", "unused-import"],
)
def test_guard_flags_each_route_into_fv(edits, use):
    found = oracle_uses(_edited(HELPERS.read_text(), edits), **FV_GUARD)
    if use is None:  # an import the oracle never reads is no route
        assert found == []
    else:
        assert found and all(use in f for f in found), found


def test_reference_free_advance_uses_only_allowed_fv_names():
    assert oracle_uses(HELPERS.read_text(), **FREE_FV_GUARD) == []


FREE_FLUX = "        f_mass = right_moving + left_moving\n"


@pytest.mark.parametrize(
    "edits, use",
    [
        ([(FREE_FLUX, "        f_mass, f_mom = fv.kinetic_flux(a_ext[:-1], u_ext[:-1], a_ext[1:], u_ext[1:], "
                      "out=(right_moving, left_moving), v_l=v_ext[:-1], v_r=v_ext[1:])\n")], "fv.kinetic_flux"),
        ([(FREE_FLUX, "        f_mass = fv.kinetic_flux(a_ext[:-1], u_ext[:-1], a_ext[1:], u_ext[1:])[0]\n")],
         "fv.kinetic_flux"),
        ([("    u_lo, u_hi = _reference_velocity(state.alpha, state.q, ua, None, np.empty(n), np.empty(n, dtype=bool))\n"
           "    v_bounds", "    u_lo, u_hi = fv.reconstruct_velocity(state, params)[[0, -1]]\n    v_bounds")],
         "fv.reconstruct_velocity"),
    ],
    ids=["flux-out", "flux-allocating", "public-velocity"],
)
def test_guard_flags_each_route_from_free_frame_oracle_into_fv(edits, use):
    found = oracle_uses(_edited(HELPERS.read_text(), edits), **FREE_FV_GUARD)
    assert found and all(use in f for f in found), found


def test_reference_weak_residual_uses_only_allowed_validation_names():
    assert oracle_uses(HELPERS.read_text(), **WEAK_GUARD) == []


PSI_CALL = "_reference_value_and_partials(psi, x_nodes, t[:, None])"
VALIDATION_IMPORT = "from dropshock.validation import BumpTestFunction, _bump, _simpson_weights\n"
MONOMIAL = "p = p + c * x**ix * t**it"


@pytest.mark.parametrize(
    "edits, use",
    [
        ([(PSI_CALL, "psi.value_and_partials(x_nodes, t[:, None])")], "method value_and_partials"),
        ([(VALIDATION_IMPORT, VALIDATION_IMPORT[:-1] + ", _block_nodes\n"),
          ("    row_weight = t_max / n * w\n", "    row_weight = t_max / n * w\n    _ = _block_nodes\n")],
         "validation._block_nodes"),
        ([(VALIDATION_IMPORT, VALIDATION_IMPORT[:-1] + ", _monomial\n"), (MONOMIAL, "p = p + _monomial(c, x, ix, t, it)")],
         "_reference_value_and_partials: validation._monomial"),
        ([("    out = np.zeros((len(test_functions), 2))\n    for r, psi",
           "    out = np.zeros((len(test_functions), 2))\n    _ = ds.weak_residual\n    for r, psi")],
         "validation.weak_residual"),
        ([("import math\n", "import math\nfrom dropshock import validation as V\n_rows = V._ROW_BLOCK\n"),
          ("    w = _simpson_weights(n)\n    row_weight", "    w = _simpson_weights(n)[:_rows]\n    row_weight")],
         "_rows = validation._ROW_BLOCK"),
        ([(VALIDATION_IMPORT, VALIDATION_IMPORT[:-1] + ", weak_residual\n")], None),
    ],
    ids=["psi-method", "block-nodes", "reached-helper", "package-function", "module-alias", "unused-import"],
)
def test_guard_flags_each_route_into_validation(edits, use):
    found = oracle_uses(_edited(HELPERS.read_text(), edits), **WEAK_GUARD)
    if use is None:
        assert found == []
    else:
        assert found and all(use in f for f in found), found


SVG_TESTS = pathlib.Path(__file__).with_name("test_svgplot.py")
SVG_ORACLE = "reference_points"


def _point_fstring(node) -> bool:
    """Whether ``node`` is a comprehension over ``zip(...)`` whose element is
    one f-string of two ``.2f`` fields, joined by a comma."""
    if not (isinstance(node, (ast.GeneratorExp, ast.ListComp)) and len(node.generators) == 1):
        return False
    it, elt = node.generators[0].iter, node.elt
    if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Name) and it.func.id == "zip"):
        return False
    if not (isinstance(elt, ast.JoinedStr) and len(elt.values) == 3):
        return False
    first, comma, second = elt.values
    return (isinstance(comma, ast.Constant) and comma.value == ","
            and all(isinstance(v, ast.FormattedValue) and v.conversion == -1
                    and v.format_spec is not None and ast.unparse(v.format_spec) == "f'.2f'"
                    for v in (first, second)))


def svg_oracle_faults(source: str) -> list:
    """What keeps the SVG oracle from formatting each point on its own:
    a use of ``dropshock`` by the oracle or a module-level function it
    reaches, or no per-point f-string; empty when the oracle is independent."""
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    package = set()  # module-level names bound to dropshock or to something imported from it
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dropshock":
            package.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            package.update((a.asname or a.name.split(".")[0]) for a in node.names if a.name.split(".")[0] == "dropshock")
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            if any(isinstance(n, ast.Name) and n.id in package for n in ast.walk(node.value)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                package.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))

    found, seen, todo = [], set(), [SVG_ORACLE]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name) and node.id in package:
                found.append(f"{name}: uses {node.id}")
            elif isinstance(node, ast.Name) and node.id in functions:
                todo.append(node.id)
    if not any(_point_fstring(node) for node in ast.walk(functions[SVG_ORACLE])):
        found.append(f"{SVG_ORACLE}: no per-point f-string")
    return found


def test_reference_points_formats_each_point_itself():
    assert svg_oracle_faults(SVG_TESTS.read_text()) == []


POINT_FSTRING = 'f"{ml + (xv - x_lo) / (x_hi - x_lo) * pw:.2f},{mt + ph - (yv - y_lo) / (y_hi - y_lo) * ph:.2f}"'


@pytest.mark.parametrize(
    "edits, fault",
    [
        ([("from dropshock.svgplot import line_plot\n", "from dropshock.svgplot import line_plot, run_text\n"),
          ("    return [\n", "    run_text(x)\n    return [\n")], "uses run_text"),
        ([("import pytest\n", "import pytest\n\nimport dropshock._runs as runs\n"),
          ("    return [\n", "    runs.run_text(x)\n    return [\n")], "uses runs"),
        ([("import pytest\n", "import pytest\nfrom dropshock import _runs\n_fmt = _runs.run_text\n"),
          ("    return [\n", "    _fmt(x)\n    return [\n")], "uses _fmt"),
        ([(POINT_FSTRING, '"%.2f,%.2f" % (xv, yv)')], "no per-point f-string"),
        ([(POINT_FSTRING, POINT_FSTRING.replace(":.2f}", "}"))], "no per-point f-string"),
    ],
    ids=["imported-formatter", "module-alias", "module-level-alias", "percent-format", "no-format-spec"],
)
def test_svg_guard_flags_each_route_into_dropshock(edits, fault):
    source = SVG_TESTS.read_text()
    for old, new in edits:
        assert old in source
        source = source.replace(old, new, 1)
    found = svg_oracle_faults(source)
    assert found and all(fault in f for f in found), found


def test_reference_integrate_uses_only_allowed_grh_names():
    assert oracle_uses(HELPERS.read_text(), **GRH_GUARD) == []


GRH_IMPORT = "from dropshock.grh import MAX_STEPS, GrhMonitorError, GrhState, GrhTrajectory, LimitStates\n"
COEFFICIENTS = "a, b, c = ar - al, ar * ur - al * ul, ar * ur * ur - al * ul * ul"
NONPOSITIVE = 'raise GrhMonitorError(f"point mass became nonpositive ({w:g}) at t={t:g}")'
STEP_COUNT = "    n_steps = max(1, math.ceil(t_end / dt - 1e-12))\n"


@pytest.mark.parametrize(
    "edits, use",
    [
        ([(GRH_IMPORT, GRH_IMPORT[:-1] + ", _jump_coefficients\n"),
          (COEFFICIENTS, "a, b, c = _jump_coefficients(al, ul, ar, ur)")], "_reference_rates: grh._jump_coefficients"),
        ([(GRH_IMPORT, GRH_IMPORT[:-1] + ", _nonpositive_mass\n"), (NONPOSITIVE, "raise _nonpositive_mass(w, t)")],
         "grh._nonpositive_mass"),
        ([(STEP_COUNT, STEP_COUNT + "    _ = ds.integrate\n")], "reference_integrate: grh.integrate"),
        ([("import math\n", "import math\nfrom dropshock import grh as G\n_chunk = G._CHUNK\n"),
          (STEP_COUNT, STEP_COUNT + "    _ = _chunk\n")], "_chunk = grh._CHUNK"),
        ([(GRH_IMPORT, GRH_IMPORT[:-1] + ", integrate\n")], None),
    ],
    ids=["private-coefficients", "private-abort", "package-function", "module-alias", "unused-import"],
)
def test_guard_flags_each_route_into_grh(edits, use):
    found = oracle_uses(_edited(HELPERS.read_text(), edits), **GRH_GUARD)
    if use is None:
        assert found == []
    else:
        assert found and all(use in f for f in found), found


def test_reference_fields_use_no_droplet_name():
    assert oracle_uses(HELPERS.read_text(), **FIELDS_GUARD) == []


FRONT_SPEED = "    u = np.where(xx == xi, solution.speed(t), u)\n"
FAN = "        u = np.asarray(solution.fan_velocity(xx, t))\n"


@pytest.mark.parametrize(
    "edits, use",
    [
        ([(FRONT_SPEED, FRONT_SPEED + "    alpha, u = solution.regular_fields(x, t)\n")], "method regular_fields"),
        ([(FAN, "        u = np.asarray(solution._wave_fields(xx, t)[1])\n")], "method _wave_fields"),
        ([(FRONT_SPEED, FRONT_SPEED + "    _ = ds.solve\n")], "droplet.solve"),
        ([("from dropshock.droplet import initial_shock_speed\n",
           "from dropshock.droplet import initial_shock_speed, VacuumSolution\n"),
          (FAN, "        u = np.asarray(VacuumSolution.fan_velocity(solution, xx, t))\n")], "droplet.VacuumSolution"),
    ],
    ids=["method", "wave-fields", "package-function", "imported-class"],
)
def test_guard_flags_each_route_into_droplet(edits, use):
    found = oracle_uses(_edited(HELPERS.read_text(), edits), **FIELDS_GUARD)
    assert found and all(use in f for f in found), found
