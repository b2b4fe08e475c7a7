"""No module of the package imports a name it does not use.

No linter is part of the toolchain, so this check reads each module's syntax
tree: every name an import binds must be used somewhere in the module or be
listed in its ``__all__`` as a re-export.  An import left behind when a
helper moves to another module fails here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orliczseq"


def unused_imports(source: str) -> list:
    """The names that ``source`` imports and never uses, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_an_unused_name(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_import_left_behind():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\n"
              "from .functions import _libm, _positive, Power\n"
              "def f(x: Power) -> float:\n    return os.path.sep + _positive(x)\n"
              "__all__ = ['_libm']\n")
    assert unused_imports(source) == ["math"]
