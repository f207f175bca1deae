import os
import subprocess
import sys
from pathlib import Path

import energynet as en

SCRIPTS = Path(__file__).parents[1] / "scripts"


def run_script(name, *argv):
    env = dict(os.environ, PYTHONPATH=str(Path(en.__file__).parents[1]))
    done = subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_norm_growth_runs():
    lines = run_script("norm_growth.py", "--f", "kernel:3", "--sizes", "10,20", "--step", "5")
    for n, size_lines in ((10, 2), (20, 4)):
        head = lines.index(f"integer_segment({n}), f = kernel:3")
        assert lines[head + 1].startswith("  sufficiency upper bound: ")
        trace = lines[head + 2 : head + 2 + size_lines]
        assert [ln.split()[2] for ln in trace] == [str(k) for k in range(5, n + 1, 5)]
        assert all("rho_F = " in ln for ln in trace)
    assert not any("+-" in ln for ln in lines)


def test_walk_coverage_runs():
    lines = run_script("walk_coverage.py", "--gen", "path:4", "--vertex", "2",
                       "--seeds", "3", "--samples", "2000")
    assert lines[0].startswith("path:4, x = 2: exact P = ")
    assert [ln.split()[:2] for ln in lines[1:4]] == [["seed", f"{s}:"] for s in range(3)]
    assert lines[-1].startswith("coverage: ") and lines[-1].endswith("/3 within 3 standard errors")
