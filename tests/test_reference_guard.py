"""The byte oracle stays independent of the code it checks.

``helpers.reference_advance`` is the full-grid loop that ``fv.advance``
must equal byte for byte.  It may take from ``dropshock.fv`` only the state
type, the abort exception and the vacuum threshold, and it calls
``fv.kinetic_flux`` only in its four-argument, allocating form.  A speed-up
that routed the oracle through ``advance``'s own helpers (``_velocity``,
``_drag``, the ``out=`` flux) would make the byte-identity property compare
that code with itself.  The guard reads the source of ``helpers.py``, so
it needs no run of the oracle.
"""

import ast
import pathlib

import pytest

import dropshock as ds
from dropshock import fv

HELPERS = pathlib.Path(__file__).with_name("helpers.py")
ORACLE = "reference_advance"
ALLOWED = {"FieldState", "SolverAbort", "VACUUM_ALPHA"}


def _is_fv_object(name):
    """Whether the package's ``name`` is the object ``dropshock.fv`` exports under it."""
    return hasattr(fv, name) and getattr(ds, name, None) is getattr(fv, name)


def oracle_fv_uses(source: str) -> list:
    """Each use of ``dropshock.fv`` by the oracle, and by the module-level
    functions it reaches, beyond ALLOWED and four-argument ``kinetic_flux``
    calls without keywords; empty when the oracle is independent."""
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    from_fv, fv_aliases, package_aliases = {}, set(), set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "dropshock.fv":
            from_fv.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "dropshock":
            fv_aliases.update(a.asname or a.name for a in node.names if a.name == "fv")
            from_fv.update((a.asname or a.name, a.name) for a in node.names if _is_fv_object(a.name))
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "dropshock.fv" and a.asname:
                    fv_aliases.add(a.asname)
                elif a.name.startswith("dropshock"):
                    package_aliases.add(a.asname or "dropshock")

    def is_fv_module(node):
        return (isinstance(node, ast.Name) and node.id in fv_aliases) or (
            isinstance(node, ast.Attribute) and node.attr == "fv"
            and isinstance(node.value, ast.Name) and node.value.id in package_aliases
        )

    def uses(tree_node):
        """The fv names that ``tree_node`` touches, with a note for a bad flux call."""
        found, flux_calls = [], set()
        for node in ast.walk(tree_node):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "kinetic_flux" and is_fv_module(node.func.value)):
                flux_calls.add(id(node.func))
                if len(node.args) != 4 or node.keywords or any(isinstance(a, ast.Starred) for a in node.args):
                    found.append("fv.kinetic_flux called other than with four positional arguments")
        for node in ast.walk(tree_node):
            if isinstance(node, ast.Name) and node.id in from_fv and from_fv[node.id] not in ALLOWED:
                found.append(f"fv.{from_fv[node.id]}")
            elif isinstance(node, ast.Attribute) and is_fv_module(node.value):
                if node.attr not in ALLOWED and id(node) not in flux_calls:
                    found.append(f"fv.{node.attr}")
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in package_aliases and node.attr not in ALLOWED
                    and _is_fv_object(node.attr)):
                found.append(f"fv.{node.attr}")
        return found

    # module-level names bound to something built from fv carry it along
    tainted = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None and uses(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        tainted[name.id] = uses(node.value)

    found, seen, todo = [], set(), [ORACLE]
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
    assert oracle_fv_uses(HELPERS.read_text()) == []


FLUX_CALL = "fv.kinetic_flux(a_ext[:-1], u_ext[:-1], a_ext[1:], u_ext[1:])"
VELOCITY_CALL = "_reference_velocity(alpha, q, ua, bounds, u, vac, any_vacuum)"


@pytest.mark.parametrize(
    "edits, use",
    [
        ([(VELOCITY_CALL, "fv._velocity" + VELOCITY_CALL[19:])], "fv._velocity"),
        ([(FLUX_CALL, FLUX_CALL[:-1] + ", out=(a_ext, u_ext))")], "four positional"),
        ([(FLUX_CALL, "fv.kinetic_flux(a_ext[:-1], u_ext[:-1])")], "four positional"),
        ([("    step = 0\n", "    step = 0\n    _ = ds.advance\n")], "fv.advance"),
        ([("import math\n", "import math\n_velocity = fv._velocity\n"), (VELOCITY_CALL, VELOCITY_CALL[10:])],
         "_velocity = fv._velocity"),
        ([("SolverAbort\n", "SolverAbort, reconstruct_velocity\n")], None),
    ],
    ids=["private-velocity", "flux-out", "flux-one-sided", "package-advance", "module-alias", "unused-import"],
)
def test_guard_flags_each_route_into_fv(edits, use):
    source = HELPERS.read_text()
    for old, new in edits:
        assert old in source
        source = source.replace(old, new, 1)
    found = oracle_fv_uses(source)
    if use is None:  # an import the oracle never reads is no route
        assert found == []
    else:
        assert found and all(use in f for f in found), found
