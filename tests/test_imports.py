"""Every name a program module imports is used in that module, every
parameter of a program function is read by it, every private name a
program module defines at its top level is read by some program module,
and no program module imports scipy, at parse time or at run time.

No linter ships with the project, so this parses each module of
``src/rbmdet`` with ``ast``.  An import line marked ``# noqa`` is kept on
purpose (a name that is looked up on the module from outside), and
``__init__.py`` re-exports, so it is exempt from the import check.
"""

import ast
import os
import subprocess
import sys
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


def unused_parameters(source: str) -> list[str]:
    """``function.parameter`` for every parameter (``self`` and ``cls``
    aside) that its function's body never loads."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        used = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        out += [f"{node.name}.{p}" for p in params
                if p not in used and p not in ("self", "cls")]
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_parameter(path):
    assert unused_parameters(path.read_text()) == []


def test_check_sees_an_unused_parameter():
    source = ("class K:\n    def f(self, a, b=1, *rest, c, **kw):\n"
              "        def g(d):\n            return a + c\n"
              "        return g, kw\n"
              "def h(cls, x):\n    return [x for _ in ()]\n")
    assert unused_parameters(source) == ["f.b", "f.rest", "g.d"]


def unread_private_names(sources: dict) -> list[str]:
    """``module.name`` for every private name bound at the top level of a
    module in ``sources`` ({module: source}) by a def, a class or an
    assignment that no module there loads, as a name or an attribute."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    out = []
    for mod, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            out += [f"{mod}.{name}" for name in names
                    if name.startswith("_") and not name.startswith("__")
                    and name not in read]
    return out


def test_no_unread_private_name():
    assert unread_private_names({p.stem: p.read_text()
                                 for p in sorted(SRC.glob("*.py"))}) == []


def test_check_sees_an_unread_private_name():
    sources = {"a": ("_A, _B = 1, 2\n_C: int = 3\n__all__ = []\n"
                     "def _f():\n    return _B\nclass _K:\n    pass\n"),
               "b": "from . import a\nx = a._K\n"}
    assert unread_private_names(sources) == ["a._A", "a._C", "a._f"]


def scipy_imports(source: str) -> list[int]:
    """Line numbers of every ``import scipy...`` and ``from scipy...``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.")
               for name in names):
            out.append(node.lineno)
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_scipy_import(path):
    # scipy is a test oracle only: the program needs numpy alone
    assert scipy_imports(path.read_text()) == []


def test_check_sees_a_scipy_import():
    source = ("import math\nimport scipy\n"
              "def f():\n    from scipy.special import erfc\n"
              "    import numpy, scipy.linalg as la\n"
              "from .scipyish import g\nimport scipy_like\n")
    assert scipy_imports(source) == [2, 4, 5]


RUNTIME_QUERIES = """
import sys
from dataclasses import replace

import rbmdet
from rbmdet import cli, scaling, simulate
from rbmdet.fredholm import rbm_probability
from rbmdet.initial_data import InitialCondition, packed
from rbmdet.kernel import KernelSpec

two_blocks = KernelSpec(t=1.0, indices=(2, 4),
                        ic=InitialCondition((0.0, 0.0, -1.0, -1.0)))
rbm_probability(two_blocks, [-1.0, -2.0])
rbm_probability(replace(two_blocks, representation="biorth"), [-1.0, -2.0])
scaling.fixedpoint_probability(scaling.FixedPointSpec(
    wedges=(0.0,), T=1.0, x=(0.0,), a_out=(0.0,)), order=4)
simulate.mc_distribution(packed(0.0), 1.0, [2], [0.0], paths=200, dt=0.1,
                         seed=1)
assert cli.main(["prob", "--t", "1", "--levels=0", "--indices", "5",
                 "--a=-4"]) == 0
print(sorted(k for k in sys.modules if k.split(".")[0] == "scipy"))
"""


def test_queries_import_no_scipy():
    # a fresh interpreter, so no test module's scipy import is counted:
    # the hitting sweep (its Poisson tail), biorth, the fixed point, Monte
    # Carlo and the CLI each run once
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                             else []))
    proc = subprocess.run([sys.executable, "-c", RUNTIME_QUERIES], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
