"""Every third-party module that the tests and scripts import is declared in
pyproject.toml, in `[project] dependencies` or in the `test` extra, so that
`pip install -e '.[test]'` can collect the whole suite."""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).parents[1]
SOURCES = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")])
LOCAL = {"energynet"} | {path.stem for path in SOURCES}  # conftest, oracle, test_randwalk, ...


def imported_modules(source):
    """The top-level names of the absolute imports in source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def declared_distributions():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    specs = project["dependencies"] + project["optional-dependencies"]["test"]
    return {re.match(r"[A-Za-z0-9._-]+", spec).group().lower().replace("-", "_") for spec in specs}


def test_the_scan_sees_each_kind_of_import():
    source = "import a.b, c\nfrom d.e import f\nfrom . import g\n\ndef h():\n    import i\n"
    assert imported_modules(source) == {"a", "c", "d", "i"}


def test_every_third_party_import_is_declared():
    third_party = {
        name: path.relative_to(ROOT).as_posix()
        for path in SOURCES
        for name in imported_modules(path.read_text())
        if name not in sys.stdlib_module_names and name not in LOCAL
    }
    assert {"numpy", "pytest"} <= third_party.keys()
    undeclared = {name: where for name, where in third_party.items()
                  if name not in declared_distributions()}
    assert undeclared == {}
