import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _line_of(path, text):
    """'src/energynet/<name>:<line>' of the one source line that is text, stripped."""
    lines = [k for k, ln in enumerate(path.read_text().splitlines(), 1) if ln.strip() == text]
    assert len(lines) == 1, (path, text)
    return f"src/energynet/{path.name}:{lines[0]}"


def test_untested_lines_on_one_test_file(tmp_path):
    test = tmp_path / "test_one.py"
    test.write_text("import energynet as en\n\n\ndef test_path():\n"
                    "    assert en.generate('path', 3).n == 3\n")
    lines = run_script("untested_lines.py", "-q", "-p", "no:cacheprovider", str(test))
    listed = {ln.split(" ", 1)[0] for ln in lines if ln.startswith("src/energynet/")}
    package = Path(en.__file__).parent
    network, numkernel = package / "network.py", package / "numkernel.py"
    # the generator's path branch ran, its size check did not
    path_edges = "edges = [(k, k + 1, w(k, k + 1)) for k in range(size - 1)]"
    assert _line_of(network, path_edges) not in listed
    assert _line_of(network, 'raise InvalidSize("path needs at least 2 vertices")') in listed
    # a function docstring carries no bytecode: never listed, though the body is
    doc = '"""Upper-triangular U with A = U^H U, zeros below its diagonal: the one'
    assert _line_of(numkernel, doc) not in listed
    assert _line_of(numkernel, "return stored(scipy.linalg.cholesky(A))") in listed
    assert any(ln.startswith("1 passed") for ln in lines)


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_summary():
    bench_pairs = load_bench_pairs()
    base = [0.30, 0.32, 0.29, 0.31, 0.30]
    change = [0.24, 0.25, 0.30, 0.23, 0.24]
    pairs = [({"t": b, "r": 1 / b, "m": b}, {"t": c, "r": 1 / b, "m": 1.2 * b})
             for b, c in zip(base, change)]
    lower, higher, worse, loose, spread = bench_pairs.summary(pairs, [
        {"name": "t", "better": "lower", "bound": 0.25},
        {"name": "r", "better": "higher", "bound": 0.25},
        {"name": "m", "better": "lower", "bound": 0.1},
        {"name": "m", "better": "lower", "bound": 0.25},
        {"name": "m", "better": "lower", "bound": 0.01},
    ])
    assert lower["base"] == pytest.approx((0.30, 0.30, 0.31))
    assert lower["change"] == pytest.approx((0.24, 0.24, 0.25))
    # the third pair is a loss; the medians differ by 0.06, the base IQR is 0.01
    assert (lower["wins"], lower["pairs"], lower["beyond_iqr"]) == (4, 5, True)
    # equal values are ties, which count for neither side
    assert (higher["wins"], higher["beyond_iqr"]) == (0, False)
    assert (lower["verdict"], higher["verdict"]) == ("ok", "ok")
    # a 20 % loss of the median: worse beyond a 10 % bound, within a 25 % one
    assert (worse["verdict"], loose["verdict"]) == ("worse", "ok")
    # a 1 % bound is below the base IQR, 0.01 / 0.30, and change runs lose
    assert spread["verdict"] == "unresolved"
    # a change that beats every base run is resolved, however wide the base
    (clear,) = bench_pairs.summary([(c, b) for b, c in pairs],
                                   [{"name": "m", "better": "lower", "bound": 0.01}])
    assert clear["verdict"] == "ok"
    assert bench_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_bench_pairs_writes_one_entry_per_workload(tmp_path, monkeypatch, capsys):
    bench_pairs = load_bench_pairs()
    if not (bench_pairs.ROOT / ".git").exists():
        pytest.skip("bench_pairs extracts its base from a git checkout")
    names = [m["name"] for m in json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())[
        "end_to_end"]]
    runs, trees = [], set()

    def fake_run(tree, workload, seed, seconds):
        change = tree.name == "change"
        runs.append((workload, seed, "change" if change else "base"))
        trees.add(tree)
        assert (tree / "perfbench" / "run.py").is_file()
        if change:
            # a copy of the working tree, not the checkout itself
            script = Path("scripts", "bench_pairs.py")
            assert (tree / script).read_bytes() == (bench_pairs.ROOT / script).read_bytes()
        return {n: 1.0 if change else 2.0 for n in names}, 0, {"nproc": 2, "seed": seed}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = tmp_path / "bench.json"
    argv = ["--base", "HEAD", "--workload", "a", "--workload", "b", "--pairs", "2",
            "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    # both sides run in sibling temporary copies, removed afterwards
    assert len(trees) == 2 and len({t.parent for t in trees}) == 1
    assert bench_pairs.ROOT not in trees and not any(t.exists() for t in trees)
    # odd pairs run the base first, even pairs the change
    assert runs[:4] == [("a", 1, "base"), ("a", 1, "change"), ("a", 2, "change"),
                        ("a", 2, "base")]
    doc = json.loads(out.read_text())
    assert list(doc["workloads"]) == ["a", "b"]
    entry = doc["workloads"]["b"]
    assert entry["machine"] == {"nproc": 2, "seed": 2}
    assert entry["failed"] == {"base": 0, "change": 0}
    assert entry["runs"][0]["base"]["op_p50_s"] == 2.0
    assert [r["name"] for r in entry["summary"]] == names
    assert "b, base HEAD against the working tree" in capsys.readouterr().out


def test_settable_values_on_a_fixed_snippet(tmp_path):
    snippet = tmp_path / "snippet.py"
    snippet.write_text(
        "from dataclasses import dataclass, field\n"
        "\n"
        "def f(a, b=1, *args, c, d=None, **kw):\n"
        "    return lambda x, y=2: x\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    p: int\n"
        "    q: int = 3\n"
        "    r: list = field(default_factory=list)\n"
        "    s: object = field(repr=False)\n"
        "\n"
        "class B:\n"
        "    t: int = 4\n"
        "    def g(self, u=5):\n"
        "        pass\n"
    )
    lines = run_script("settable_values.py", str(snippet))
    assert [ln.split(" ", 1)[1] for ln in lines[:-1]] == [
        "f.b = 1", "f.d = None", "<lambda>.y = 2", "A.q = 3", "A.r = field(default_factory=list)",
        "g.u = 5",
    ]
    assert [ln.split(" ", 1)[0].rsplit(":", 1)[1] for ln in lines[:-1]] == [
        "3", "3", "4", "9", "10", "15"]
    assert lines[-1] == "total: 6"


def test_settable_values_of_the_package():
    lines = run_script("settable_values.py")
    assert all(ln.startswith("src/energynet/") for ln in lines[:-1])
    # a ratchet: a new default must be added here on purpose
    assert lines[-1] == f"total: {len(lines) - 1}" == "total: 13"
