"""Every module of the package uses each name it imports at module level.

``__init__`` is exempt: its imports are the package's exports.
"""

import ast
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
