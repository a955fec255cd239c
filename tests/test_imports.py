"""Every top-level import of a package module is used in that module.

``__init__.py`` is exempt: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import groupsfa

MODULES = sorted(
    p for p in Path(groupsfa.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


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
