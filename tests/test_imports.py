"""Every name a program module imports is used in that module.

No linter ships with the project, so this parses each module of
``src/rbmdet`` with ``ast``.  An import line marked ``# noqa`` is kept on
purpose (a name that is looked up on the module from outside), and
``__init__.py`` re-exports, so it is exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rbmdet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never loaded afterwards."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_check_sees_an_unused_import():
    source = ("import math\nimport numpy as np\n"
              "from .quad import build_scheme, Scheme  # noqa: F401\n"
              "from .kernel import (s_ops,\n    kernel_eval)\n"
              "x = np.ones(3)\nkernel_eval(x)\n")
    assert unused_imports(source) == ["math", "s_ops"]
