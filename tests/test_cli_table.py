"""The command line as ``cli._COMMANDS`` defines it: its help text, its
required options and README's list of subcommands."""

import contextlib
import io
import os
import re

import pytest

from denseil import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _help(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as done:
        cli.main(argv)
    assert done.value.code == 0
    return "$ denseil %s\n%s" % (" ".join(argv), out.getvalue())


def test_help_text_matches_the_golden_copy(monkeypatch):
    # argparse wraps help to the terminal width, read from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    pages = [_help(["--help"])]
    pages += [_help([name, "--help"]) for name in cli._COMMANDS]
    with open(os.path.join(ROOT, "tests", "golden", "cli_help.txt"),
              encoding="utf-8") as f:
        assert "\n".join(pages) == f.read()


@pytest.mark.parametrize("name, missing", [
    (name, option) for name, (_, _, options) in cli._COMMANDS.items()
    for option in options])
def test_a_missing_required_option_exits_1_naming_it(name, missing, capsys):
    argv = [name]
    for option in cli._COMMANDS[name][2]:
        if option != missing:
            argv += [option, "unused"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("denseil: error: the following arguments are "
                            "required: %s\n" % missing)


def test_readme_subcommands_table_names_every_command():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        text = f.read()
    section = text.split("\n### Subcommands\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([\w-]+)` \|", section, flags=re.MULTILINE)
    assert rows == list(cli._COMMANDS)
