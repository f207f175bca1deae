"""Golden outputs of a fixed CLI grid.

Every command of `grid()` runs in-process and is compared with the record
in data/cli_golden.json: exit code, stderr, JSON keys, strings, bools and
ints exactly, floats to 1e-12 relative (absolute below 1), so that another
BLAS build passes.  Non-JSON stdout is kept as text: CSV is compared cell by
cell, cells that parse as floats by the same rule and the rest exactly, and
pretty text exactly.  A change that should not move any output passes this
file unchanged.

    PYTHONPATH=src python tests/test_cli_golden.py           # SHA-256 of the raw outputs
    PYTHONPATH=src python tests/test_cli_golden.py --write   # rewrite the records

The SHA-256 covers every command's exit code, stdout and stderr byte for
byte, for comparing two trees exactly.  Rewrite the records only for an
intended change of output.
"""

import contextlib
import csv
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from energynet.cli import main

DATA = Path(__file__).parent / "data" / "cli_golden.json"
NETS = ["path:5", "binary_tree:4", "cycle:9", "integer_segment:60"]
MULTIPLIERS = ["kernel:3", "delta:2", "const:2.5", "const:1+2j"]


def grid():
    for net in NETS:
        g = ["--gen", net, "--format", "json"]
        yield ["kernel", *g, "--vertex", "3"]
        yield ["gram", *g, "--F", "1,3,4", "--sqrt"]
        for f in MULTIPLIERS:
            yield ["mult", *g, "--f", f, "--estimate", "--trace"]
            yield ["mult", *g, "--f", f, "--bound", "1.7"]
        yield ["walk", *g, "--vertex", "3", "--samples", "20000", "--seed", "5"]
        yield ["banach", *g, "--u", "kernel:3", "--u2", "delta:2"]
    for net in NETS[:2]:
        for fmt in ("csv", "pretty"):
            g = ["--gen", net, "--format", fmt]
            yield ["kernel", *g, "--vertex", "3"]
            yield ["gram", *g, "--F", "1,3,4", "--sqrt"]
            yield ["mult", *g, "--f", "kernel:3", "--estimate", "--trace"]
            yield ["walk", *g, "--vertex", "3", "--samples", "20000", "--seed", "5"]
            yield ["banach", *g, "--u", "kernel:3", "--u2", "delta:2"]
    # errors: exit 2 with one line on stderr
    g = ["--gen", NETS[0], "--format", "json"]
    yield ["gram", *g, "--F", "1,1"]
    yield ["mult", *g, "--f", "kernel:3", "--bound", "-1"]
    yield ["kernel", *g, "--vertex", "99"]
    yield ["mult", *g, "--f", "const:1e200", "--estimate"]


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def record(argv):
    """run(argv) as a record: JSON stdout parsed, any other stdout as text."""
    code, out, err = run(argv)
    if argv[argv.index("--format") + 1] == "json":
        out = json.loads(out) if out else None
    return {"argv": argv, "code": code, "stdout": out, "stderr": err}


def _float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def assert_same_csv(got, want):
    """CSV text cell by cell: cells that parse as floats to 1e-12 relative
    (absolute below 1), the rest exactly."""
    got, want = (list(csv.reader(io.StringIO(t))) for t in (got, want))
    assert [len(r) for r in got] == [len(r) for r in want], "csv: row shapes differ"
    for k, (grow, wrow) in enumerate(zip(got, want)):
        for j, (g, w) in enumerate(zip(grow, wrow)):
            if g != w:  # equal text passes, nan and inf included
                assert _float(w) is not None, f"csv[{k}][{j}]: {g!r} != {w!r}"
                assert_same(_float(g), _float(w), f"csv[{k}][{j}]")


def assert_same(got, want, where="doc"):
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), f"{where}: keys differ"
        for k in want:
            assert_same(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for k, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{k}]")
    else:  # str, bool, int, None: exact, type included
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


GOLDEN = json.loads(DATA.read_text())


def test_grid_matches_records():
    assert [r["argv"] for r in GOLDEN] == list(grid())


@pytest.mark.parametrize("want", GOLDEN, ids=[" ".join(r["argv"]) for r in GOLDEN])
def test_cli_output_matches_record(want):
    got = record(want["argv"])
    assert got["code"] == want["code"]
    assert got["stderr"] == want["stderr"]
    if want["argv"][want["argv"].index("--format") + 1] == "csv":
        assert_same_csv(got["stdout"], want["stdout"])
    else:
        assert_same(got["stdout"], want["stdout"], "stdout")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        DATA.write_text(json.dumps([record(a) for a in grid()], indent=1) + "\n")
    else:
        digest = hashlib.sha256()
        for argv in grid():
            digest.update(json.dumps(run(argv)).encode())
        print(digest.hexdigest())
