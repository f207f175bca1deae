"""Production computes, verification checks: the checks of the paper's
identities live in `energynet.checks`, which no production module imports,
and stay reachable as `energynet.<name>`."""

import ast
from pathlib import Path

import pytest

import energynet as en
from energynet import checks

SRC = Path(en.__file__).parent
MOVED = [
    "hermitian_defect",
    "rank_one_identities",
    "normalized_projections",
    "truncation_consistency",
    "bisect_bound",
    "reproducing_check",
    "lap_pairing_check",
]
L2_HELPERS = ["_iso", "_mult_matrix", "_ket", "_worst"]


def _modules():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _imports_checks(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "checks" or any(a.name == "checks" for a in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[-1] == "checks" for a in node.names):
                return True
    return False


def test_only_the_package_imports_checks():
    importers = [name for name, tree in _modules().items() if _imports_checks(tree)]
    assert importers == ["__init__"]


def test_the_guard_sees_each_import_form():
    for source in ("from .checks import bisect_bound", "from . import checks",
                   "import energynet.checks", "from energynet.checks import _iso"):
        assert _imports_checks(ast.parse(source)), source
    assert not _imports_checks(ast.parse("from .energy import delta"))


def test_checks_are_defined_only_in_checks():
    defined = {
        name: {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        for name, tree in _modules().items()
    }
    for name in MOVED + L2_HELPERS:
        assert [m for m, names in defined.items() if name in names] == ["checks"], name


@pytest.mark.parametrize("name", MOVED)
def test_checks_reachable_from_the_package(name):
    assert getattr(en, name) is getattr(checks, name)


def _tolerance_lines(tree):
    """The lines of tree that hold a float literal in [1e-15, 1e-6]."""
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 1e-15 <= node.value <= 1e-6}


def test_the_tolerance_scan_sees_each_line_once():
    source = "a = 1e-9 * max(1.0, b) + 1e-12\nc = 1e-16 + 1e-5 + 2.5e-7\nd = 1\n"
    assert _tolerance_lines(ast.parse(source)) == {1, 2}


def test_literal_tolerance_sites_of_production_code():
    # a ratchet on the 12 fixed tolerances of production code: a site that
    # goes lowers its count here, a new one must be added here on purpose
    sites = {name: len(_tolerance_lines(tree)) for name, tree in _modules().items()
             if name != "checks"}
    assert {name: n for name, n in sites.items() if n} == {
        "cli": 3, "energy": 2, "multop": 5, "numkernel": 2}
