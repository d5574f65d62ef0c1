"""Every module of the package uses each name it imports at module level.

``__init__`` is exempt: its imports are the package's exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import censlmm

PACKAGE = Path(censlmm.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the module-level imports of ``source`` that nothing reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = "import math\nimport os\nfrom a.b import c, d as e\n\nprint(os.sep, e)\n"
    assert unused_imports(source) == [(1, "math"), (3, "c")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_importing_the_package_leaves_scipy_stats_out():
    # scipy.stats took 1.1 s of the 1.7 s import; only QMC blocks (m >= 4) need it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, censlmm; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
