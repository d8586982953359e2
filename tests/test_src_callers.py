"""Every top-level function, class and method of ``eptl`` has a caller in ``eptl``.

Code that only the tests call belongs in ``tests/oracles.py``.  A
definition counts as called when its name appears anywhere in the
package as an identifier or an attribute, beyond its own definition.
Dunder methods are skipped: the language calls them.
"""

import ast
from pathlib import Path

import eptl

SOURCES = sorted(Path(eptl.__file__).parent.glob("*.py"))

# kept in src on purpose, though only tests (or the benchmark) call them;
# a name that gains a caller in src leaves the list
ALLOWED = {
    "bijection_C_inverse": "names the paper's inverse of the bijection C between strata",
    "paths_and_height": "names the paper's path pictures of a link state and their heights",
    "arc_span_sum": "names the paper's arc-length statistic of a link state",
    "LaurentPoly.from_json_dict": "perfbench/workloads.py reads the exported polynomials with it",
}


def _definitions(tree):
    """Qualified names of the top-level functions and classes and their methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef | ast.ClassDef):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}"


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def uncalled(sources) -> list:
    """Definitions whose (last) name is referenced in none of ``sources``."""
    trees = [ast.parse(text) for text in sources]
    refs = {name for tree in trees for name in _references(tree)}
    return [name for tree in trees for name in _definitions(tree) if name.rsplit(".", 1)[-1] not in refs]


def test_every_definition_has_a_caller_in_src():
    missing = set(uncalled(p.read_text() for p in SOURCES))
    assert missing <= ALLOWED.keys(), f"only tests call: {sorted(missing - ALLOWED.keys())}"


def test_no_allowed_name_has_gained_a_caller_in_src():
    called = ALLOWED.keys() - set(uncalled(p.read_text() for p in SOURCES))
    assert not called, f"called in src, so drop from ALLOWED: {sorted(called)}"


def test_every_allowed_name_still_exists():
    defined = {name for p in SOURCES for name in _definitions(ast.parse(p.read_text()))}
    assert ALLOWED.keys() <= defined


def test_detects_an_uncalled_definition():
    module = (
        "class A:\n"
        "    def used(self): pass\n"
        "    def unused(self): pass\n"
        "    def __len__(self): return 0\n"
        "def helper(): return A().used()\n"
        "def orphan(): pass\n"
    )
    other = "x = helper()\n"
    assert uncalled([module, other]) == ["A.unused", "orphan"]
