"""Every name a module of ``eptl`` or of the tests imports is used in that module.

``eptl/__init__.py`` is skipped: its imports are the package's re-exports.
A name counts as used when it appears as an identifier anywhere in the
module, string annotations included.  An import marked ``# noqa: F401``
is kept for its side effect and not checked.
"""

import ast
from pathlib import Path

import pytest

import eptl

MODULES = sorted(p for p in Path(eptl.__file__).parent.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(Path(__file__).parent.glob("*.py"))


def _imported(tree):
    """(bound name, line) for every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef) and node.returns is not None:
            yield node.returns


def _used(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _used(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(text) -> list:
    """(name, line) for every import of the module ``text`` that it never uses."""
    tree = ast.parse(text)
    used = _used(tree)
    lines = text.splitlines()
    return [
        (name, line)
        for name, line in _imported(tree)
        if name not in used and "# noqa: F401" not in lines[line - 1]
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_detects_an_unused_import():
    text = "import os\nimport sys  # noqa: F401\nfrom .ring import ONE, ZERO\nx: 'ZERO' = 1\n"
    assert [name for name, _ in unused_imports(text)] == ["os", "ONE"]
