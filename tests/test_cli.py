import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import energynet as en
from energynet.cli import main

SCHEMA = json.loads(
    (Path(en.__file__).parent / "schemas" / "cli_output.schema.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc


def test_kernel_command(capsys):
    code, doc = run_json(capsys, "kernel", "--gen", "path:3", "--vertex", "2")
    assert code == 0
    assert doc["values"]["0"] == 0.0
    assert doc["values"]["1"] == pytest.approx(1.0)
    assert doc["values"]["2"] == pytest.approx(2.0)
    assert doc["R"] == pytest.approx(2.0)
    assert doc["sup_norm"] == pytest.approx(2.0)
    assert doc["bound_ok"] is True


def test_kernel_at_origin(capsys):
    code, doc = run_json(capsys, "kernel", "--gen", "path:3", "--vertex", "0")
    assert code == 0
    assert all(v == 0.0 for v in doc["values"].values())


def test_gram_command(capsys):
    code, doc = run_json(capsys, "gram", "--gen", "path:3", "--F", "1,2", "--sqrt")
    assert code == 0
    assert np.allclose(doc["V"], [[1.0, 1.0], [1.0, 2.0]])
    root = np.array(doc["sqrt"])
    assert np.abs(root @ root - np.array(doc["V"])).max() <= 1e-9
    assert doc["sqrt_residual"] <= 1e-9


def test_mult_estimate(capsys):
    code, doc = run_json(
        capsys, "mult", "--gen", "path:3", "--f", "delta:1", "--estimate", "--trace"
    )
    assert code == 0
    assert doc["best_lower"] == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert doc["upper"] == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert doc["verdict"].startswith("certified<=")
    assert [n for n, _ in doc["lower_trace"]] == [1, 2]


def test_mult_bound_pass_and_fail(capsys):
    code, doc = run_json(
        capsys, "mult", "--gen", "path:3", "--f", "delta:1", "--bound", "1.5"
    )
    assert code == 0
    assert doc["verdict"].startswith("PASS")
    code, doc = run_json(
        capsys, "mult", "--gen", "path:3", "--f", "delta:1", "--bound", "1.0"
    )
    assert code == 1
    assert doc["verdict"].startswith("FAIL")


def test_mult_exhaust_sizes(capsys):
    code, doc = run_json(
        capsys,
        "mult",
        "--gen",
        "integer_segment:8",
        "--f",
        "kernel:2",
        "--estimate",
        "--trace",
        "--exhaust",
        "2,4,8",
    )
    assert code == 0
    sizes = [n for n, _ in doc["lower_trace"]]
    assert sizes == [2, 4, 8]
    rhos = [r for _, r in doc["lower_trace"]]
    assert rhos == sorted(rhos)


def test_walk_command(capsys):
    code, doc = run_json(
        capsys, "walk", "--gen", "path:3", "--vertex", "1", "--samples", "2000", "--seed", "5"
    )
    assert code == 0
    assert doc["exact"] == pytest.approx(0.5)
    assert doc["identity_residual"] <= 1e-9
    assert abs(doc["mc_estimate"] - 0.5) <= 5 * doc["mc_stderr"]


def test_banach_command(capsys):
    code, doc = run_json(capsys, "banach", "--gen", "path:3", "--u", "kernel:1")
    assert code == 0
    assert doc["banach_norm"] == pytest.approx(2.0)
    code, doc = run_json(
        capsys, "banach", "--gen", "path:3", "--u", "kernel:1", "--u2", "kernel:2"
    )
    assert code == 0
    assert doc["product_energy_sq"] == pytest.approx(2.0)
    assert doc["pass"] is True


def test_json_determinism(capsys):
    argv = ["walk", "--gen", "cycle:6", "--vertex", "2", "--samples", "3000", "--seed", "9"]
    _, out1 = run(capsys, *argv, "--format", "json")
    _, out2 = run(capsys, *argv, "--format", "json")
    assert out1 == out2


def test_network_file_roundtrip(tmp_path, capsys):
    net = en.generate("binary_tree", 2)
    path = tmp_path / "tree.json"
    en.save_network(net, path)
    code, doc = run_json(capsys, "kernel", "--net", str(path), "--vertex", "3")
    assert code == 0
    assert doc["R"] == pytest.approx(en.effective_resistance(net, 3))


def test_multiplier_file(tmp_path, capsys):
    spec = tmp_path / "f.json"
    spec.write_text(json.dumps({"f": {"1": 1.0}}))
    code, doc = run_json(
        capsys, "mult", "--gen", "path:3", "--f", f"file:{spec}", "--estimate"
    )
    assert code == 0
    assert doc["best_lower"] == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_error_exit_code(capsys):
    assert main(["kernel", "--gen", "path:3", "--vertex", "99"]) == 2
    assert main(["kernel", "--vertex", "1"]) == 2
    assert main(["gram", "--gen", "path:3", "--F", "0,1"]) == 2
    assert main(["kernel", "--gen", "nosuch:3", "--vertex", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["gram", "--gen", "path:3", "--F", "1,1"],
        ["mult", "--gen", "path:3", "--f", "delta:1", "--bound", "-1"],
        ["walk", "--gen", "path:3", "--vertex", "1", "--samples", "0"],
        ["kernel", "--gen", "path:abc", "--vertex", "1"],
        ["mult", "--gen", "path:3", "--f", "delta:1", "--exhaust", "a,b"],
        ["mult", "--gen", "path:3", "--f", "delta:1", "--exhaust", "2,,3"],
        ["mult", "--gen", "path:3", "--f", "const:abc"],
        ["mult", "--gen", "path:3", "--f", "const:nan"],
        ["mult", "--gen", "path:3", "--f", "file:/missing"],
        ["banach", "--gen", "path:3", "--u", "const:x"],
        ["mult", "--gen", "path:3", "--f", "delta:1", "--bound", "nan"],
        ["mult", "--gen", "path:3", "--f", "delta:1", "--bound", "inf"],
    ],
)
def test_invalid_input_exits_2(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(en.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "energynet.cli", *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
    assert "Traceback" not in done.stderr


def test_csv_format(capsys):
    code, out = run(capsys, "gram", "--gen", "path:3", "--F", "1,2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,1,2"
    assert len(lines) == 3


def test_pretty_format(capsys):
    code, out = run(capsys, "kernel", "--gen", "path:3", "--vertex", "1")
    assert code == 0
    assert "R: 1" in out
