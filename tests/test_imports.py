"""What the package imports and defines: no unused name, and no module it
does not need.

No linter is part of the toolchain, so the first four checks read the
syntax trees.  Every name an import binds must be used somewhere in the
module or be listed in its ``__all__`` as a re-export: an import left behind
when a helper moves to another module fails here.  Every private
module-level name (a ``_CONSTANT`` or a ``_helper``) must be read somewhere
in the package: a constant or helper left behind when the code that read it
goes fails here.  Every absolute import must name the standard library or
numpy, the one runtime dependency: the test extra installs mpmath and
hypothesis, so a stray import of either would otherwise pass.  No module
but ``functions.py`` calls ``isinstance`` with a built-in generator family:
what is proven about a family is a method of its class, so a dispatch on the
family elsewhere would split those facts again.  The last check runs CLI
commands in a fresh interpreter and checks that ``numpy.ma`` never loads.
"""

import ast
import json
import os
import subprocess
import sys
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


def unread_private_names(sources) -> list:
    """The private module-level names that ``sources`` define and never read, sorted."""
    defined, read = set(), set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
    return sorted(private - read)


def test_every_private_name_of_the_package_is_read():
    assert unread_private_names(p.read_text() for p in sorted(PACKAGE.glob("*.py"))) == []


def test_the_check_finds_a_private_name_left_behind():
    sources = ["_CAP = 4\n_LEFT = 2\n__all__ = []\ndef _helper():\n    return _CAP\n",
               "from . import a\nclass _Gone:\n    pass\nprint(a._helper())\n"]
    assert unread_private_names(sources) == ["_Gone", "_LEFT"]


def foreign_imports(source: str) -> list:
    """The top-level modules that ``source`` imports absolutely and that are
    neither in the standard library nor numpy, sorted."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.partition(".")[0])
    return sorted(modules - sys.stdlib_module_names - {"numpy"})


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_beyond_the_standard_library_and_numpy(path):
    assert foreign_imports(path.read_text()) == []


def test_the_check_finds_a_runtime_dependency_planted():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom numpy.linalg import norm\n"
              "from . import spaces\nfrom .functions import Power\n"
              "def f():\n    import mpmath\n    from scipy.special import erf\n")
    assert foreign_imports(source) == ["mpmath", "scipy"]


FAMILIES = {"Power", "ExpSquare", "ExpLinear", "ExpCompose", "TabulatedConvex"}


def family_dispatch(source: str) -> list:
    """The lines where ``source`` calls ``isinstance`` with a built-in
    generator family, named alone, in a tuple or as a module attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            named = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node.args[1]) if isinstance(n, (ast.Name, ast.Attribute))}
            if named & FAMILIES:
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "functions.py"}),
                         ids=lambda p: p.name)
def test_no_module_but_functions_dispatches_on_a_generator_family(path):
    assert family_dispatch(path.read_text()) == []


def test_the_check_finds_a_family_dispatch_planted():
    source = ("from . import functions\nfrom .functions import ExpSquare, Power\n"
              "def f(phi, x):\n"
              "    if isinstance(x, float) or isinstance(phi, OrliczFunction):\n"
              "        return 0\n"
              "    if isinstance(phi, (ExpSquare, functions.TabulatedConvex)):\n"
              "        return 1\n"
              "    return isinstance(phi, Power) or type(phi) is Power\n")
    assert family_dispatch(source) == [6, 8]


def test_cli_commands_never_load_numpy_ma(tmp_path):
    """numpy 2.4 imports ``numpy.ma`` on a plain ``np.unique(x)`` (not with
    ``return_inverse=True``), adding about 0.6 MB to every CLI process."""
    seq = tmp_path / "p.csv"
    seq.write_text("0,1.0,0\n3,0.5,0.25\n-7,0.125,0\n3000,0.5,0\n70000,0.25,0\n")
    space = ["--phi", "power:2", "--k", "1"]
    calls = [["norm", *space, "--in", str(seq)],
             ["modular", *space, "--in", str(seq), "--rho", "0.75"],
             ["classify", *space, "--in", str(seq)],
             ["classify", *space, "--env-c", "1", "--env-r", "0.5"],
             ["covering", "--phi", "power:2", "--kprime", "1", "--k", "0",
              "--kappa", "1", "--epsilon", "0.5", "--samples", "40"]]
    code = ("import json, sys\n"
            "from orliczseq.cli import run\n"
            "codes = [run(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps({'codes': codes, 'ma': 'numpy.ma' in sys.modules}))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent),
                                                      env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(calls)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0] * len(calls),
                                                        "ma": False}
