"""Static check: every module-level import in the package is used."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "denseil"


def unused_imports(source: str):
    """Names bound by the module's top-level imports that nothing reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_uses_every_import(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, "%s: unused imports %s" % (path.name, unused)


def test_the_check_finds_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom . import tensor as tn\n"
              "from .data import CHANNELS, SynthConfig\n\n"
              "def f():\n    return np.zeros(CHANNELS)\n")
    assert unused_imports(source) == [(1, "os"), (3, "tn"), (4, "SynthConfig")]
