"""``check_covariant`` is called in ``eptl`` only by ``momentum.covariant_orbits``.

Every other module reads its orbit tables through that cached gate, so
each exact matrix is checked once per builder and sector.  A reference
counts as a call: the name, or an attribute of that name, anywhere in
the package beyond its own definition.
"""

import ast
from pathlib import Path

import eptl

SOURCES = sorted(Path(eptl.__file__).parent.glob("*.py"))
CHECK = "check_covariant"
GATE = ("momentum", "covariant_orbits")


def _scopes(tree, module):
    """(module, top-level function or None, node) for every node."""
    for top in tree.body:
        name = top.name if isinstance(top, ast.FunctionDef | ast.ClassDef) else None
        for node in ast.walk(top):
            yield module, name, node


def references(sources) -> list:
    """``(module, top-level definition)`` of every reference to ``check_covariant``
    in ``sources``, a list of (module name, text) pairs."""
    found = []
    for module, text in sources:
        for mod, scope, node in _scopes(ast.parse(text), module):
            named = isinstance(node, ast.Name) and node.id == CHECK
            attr = isinstance(node, ast.Attribute) and node.attr == CHECK
            imported = isinstance(node, ast.ImportFrom) and any(a.name == CHECK for a in node.names)
            if named or attr or imported:
                found.append((mod, scope))
    return found


def test_only_the_gate_calls_check_covariant():
    refs = references((p.stem, p.read_text()) for p in SOURCES)
    assert refs and set(refs) == {GATE}, f"check_covariant referenced outside the gate: {refs}"


def test_detects_a_reference_outside_the_gate():
    momentum = (
        "def check_covariant(x, r, c): pass\n"
        "def covariant_orbits(b, r, c, n, d):\n"
        "    check_covariant(b(n, d), r, c)\n"
    )
    other = (
        "from .momentum import check_covariant\n"
        "from . import momentum\n"
        "def f(x):\n"
        "    return momentum.check_covariant(x, 1, 2)\n"
    )
    refs = references([("momentum", momentum), ("verify", other)])
    assert refs == [GATE, ("verify", None), ("verify", "f")]
