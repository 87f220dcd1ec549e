"""Every exception class the package defines belongs to one exit-code
family, so ``cli.main`` turns it into a one-line message and its code."""

import importlib
import inspect
import pathlib

import pytest

from denseil import cli

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "denseil"
FAMILIES = {ValueError: 1, ArithmeticError: 2, OSError: 3}
EXEMPT = {
    # internal misuse of the autodiff engine: a bug, so it keeps its traceback
    "denseil.tensor.GraphError",
    # argparse's errors, which main catches before it runs any command
    "denseil.cli.UsageError",
}


def defined_exceptions():
    """'module.Class' -> class for every exception class defined in src."""
    found = {}
    for path in sorted(SRC.glob("[!_]*.py")):
        module = importlib.import_module("denseil." + path.stem)
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                found["%s.%s" % (module.__name__, name)] = obj
    return found


def test_the_scan_finds_the_known_classes():
    found = defined_exceptions()
    assert EXEMPT <= set(found)
    assert {"denseil.checkpoint.CheckpointError", "denseil.config.ConfigError",
            "denseil.harness.TrainingDiverged"} <= set(found)


@pytest.mark.parametrize("qualname",
                         sorted(set(defined_exceptions()) - EXEMPT))
def test_exception_maps_to_one_exit_code(qualname, monkeypatch, capsys):
    cls = defined_exceptions()[qualname]
    families = [code for base, code in FAMILIES.items()
                if issubclass(cls, base)]
    assert len(families) == 1, "%s is in families %s" % (qualname, families)

    def command(args):
        raise cls("what went wrong")

    monkeypatch.setitem(cli._COMMANDS, "flops", command)
    assert cli.main(["flops", "--config", "unused.json"]) == families[0]
    err = capsys.readouterr().err
    assert err.startswith("denseil: ") and err.endswith("what went wrong\n")
    assert err.count("\n") == 1
