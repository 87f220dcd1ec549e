"""Static checks: every module-level import in the package is used, every
module-level definition is named somewhere in the package or the
benchmark, only ``tensor.py`` imports thread machinery, and the model's
layers write no files."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "denseil"
BENCH = ROOT / "perfbench"
# criterion 1's reducer: the acceptance gradchecks sum every op's output
# with it, though no package code calls it
KEPT = {("tensor.py", "sum_all")}
# the worker thread's owner: it alone may import these (at any depth)
THREAD_MODULES = {"threading", "contextvars", "concurrent"}
# the model's layers compute; config, data, model and harness write the files
LAYERS = ("tensor", "imageops", "encoder", "partition", "posemb", "decoder",
          "losses", "metrics", "flops", "optim", "rng")
FILE_MODULES = {"csv", "json", ".checkpoint"}


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


def defined(tree):
    """Names bound by the module's top-level functions, classes and
    assignments, dunders (module metadata) aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name) and not n.id.startswith("__"):
                        yield n.id


def named(tree):
    """Every name the code reads: a variable, an attribute, an imported
    name, or a string (a patch point named to setattr)."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.split(".")[-1]
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def dead_definitions(sources, readers):
    """(module, name) of each top-level definition in ``sources`` that no
    module of ``sources`` or ``readers`` names; both map module to text."""
    trees = {path: ast.parse(text) for path, text in
             list(sources.items()) + list(readers.items())}
    read = {name for tree in trees.values() for name in named(tree)}
    return sorted((path, name) for path in sources
                  for name in defined(trees[path]) if name not in read)


def _texts(directory, prefix):
    return {prefix + p.name: p.read_text(encoding="utf-8")
            for p in sorted(directory.glob("*.py"))}


def test_every_definition_is_named_somewhere():
    dead = set(dead_definitions(_texts(SRC, ""),
                                _texts(BENCH, "perfbench/"))) - KEPT
    assert not dead, "definitions nothing names: %s" % sorted(dead)


def test_the_check_finds_a_dead_definition():
    sources = {"a.py": ("LIMIT = 3\nUNUSED = 4\n\nclass Box:\n    pass\n\n"
                        "def helper():\n    return LIMIT\n\n"
                        "def orphan():\n    return Box()\n"),
               "b.py": "from .a import helper\n"}
    readers = {"bench.py": "import a\na.setattr(a, 'orphan', None)\n"}
    assert dead_definitions(sources, readers) == [("a.py", "UNUSED")]
    assert dead_definitions(sources, {}) == [("a.py", "UNUSED"),
                                             ("a.py", "orphan")]


def imported_packages(source: str):
    """The top-level package of every absolute import, at any depth."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_tensor_imports_thread_machinery(path):
    found = THREAD_MODULES & set(imported_packages(path.read_text(encoding="utf-8")))
    want = THREAD_MODULES if path.name == "tensor.py" else set()
    assert found == want, "%s imports %s" % (path.name, sorted(found))


def test_the_check_finds_a_thread_import_at_any_depth():
    source = ("import os\nfrom . import tensor\nfrom .threading import x\n\n"
              "def f():\n    from concurrent.futures import wait\n"
              "    import contextvars, threading as t\n")
    assert sorted(imported_packages(source)) == [
        "concurrent", "contextvars", "os", "threading"]


def relative_imports(source: str):
    """Each package module a relative import names, dot first, at any
    depth: ``from .a.b import c`` gives ".a", ``from . import a`` ".a"."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = ([node.module] if node.module
                     else [alias.name for alias in node.names])
            yield from ("." + name.split(".")[0] for name in names)


@pytest.mark.parametrize("name", LAYERS)
def test_model_layers_import_no_file_writers(name):
    source = (SRC / (name + ".py")).read_text(encoding="utf-8")
    found = FILE_MODULES & (set(imported_packages(source))
                            | set(relative_imports(source)))
    assert not found, "%s.py imports %s" % (name, sorted(found))


def test_the_check_finds_a_relative_import_at_any_depth():
    source = ("from . import tensor as tn, checkpoint\nfrom .data import x\n\n"
              "def f():\n    from .checkpoint.io import replacing\n")
    assert sorted(relative_imports(source)) == [
        ".checkpoint", ".checkpoint", ".data", ".tensor"]
