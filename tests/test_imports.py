"""Every top-level import of a package module is used in that module, and
every top-level private name of a package module is read somewhere in the
package.

``__init__.py`` is exempt from the import check: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import groupsfa

PACKAGE = sorted(Path(groupsfa.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source):
    """Names bound by the module's own import statements and never read."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(bound) - read)


def test_checker_finds_unused_names():
    source = (
        "import os\nimport numpy as np\nimport scipy.stats\n"
        "from math import pi, tau\n\n"
        "def f():\n    return np.ones(2) * pi + scipy.stats.norm.cdf(0)\n"
    )
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources):
    """Top-level ``_``-prefixed names (not dunders) bound by a def, class or
    assignment in one of ``sources`` and never read in any of them, by name
    or as a module attribute."""
    trees = [ast.parse(source) for source in sources]
    bound = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound |= {n.id for t in targets for n in ast.walk(t)
                          if isinstance(n, ast.Name)}
    private = {name for name in bound if name.startswith("_") and not name.startswith("__")}
    read = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return sorted(private - read)


def test_checker_finds_unread_private_names():
    sources = [
        "_A, _B = 1, 2\n_C: int = 3\n__all__ = []\n\n"
        "def _used():\n    return _A\n\ndef _dead():\n    _local = 1\n    return _local\n"
        "\nclass _Gone:\n    pass\n",
        "from . import a\n\ndef public():\n    return a._used() + a._C\n",
    ]
    assert unread_private_names(sources) == ["_B", "_Gone", "_dead"]


def test_private_names_are_read_in_the_package():
    assert unread_private_names([p.read_text() for p in PACKAGE]) == []
