"""The README's examples run as documented: each `energynet` line of the CLI
block exits with the code its comment names (0 where it names none), and
the library tour executes."""

import re
import shlex
from pathlib import Path

import pytest

from energynet.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text()


def _block(heading, lang):
    return re.search(rf"^## {heading}\n.*?^```{lang}\n(.*?)^```", README, re.M | re.S).group(1)


CLI_LINES = [line for line in _block("CLI", "sh").splitlines() if line.startswith("energynet ")]


def test_readme_blocks_found():
    assert len(CLI_LINES) >= 5
    assert "import energynet" in _block("Library tour", "python")


@pytest.mark.parametrize("line", CLI_LINES, ids=[line.split()[1] for line in CLI_LINES])
def test_cli_example_exit_code(capsys, line):
    command, _, comment = line.partition("#")
    named = re.search(r"\bexit (\d)\b", comment)
    code = main(shlex.split(command)[1:])
    out, err = capsys.readouterr()
    assert code == (int(named.group(1)) if named else 0), err
    assert out


def test_library_tour_runs():
    exec(_block("Library tour", "python"), {})
