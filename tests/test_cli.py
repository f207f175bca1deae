import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import energynet as en
from energynet.cli import main

from conftest import random_network

SCHEMA = json.loads(
    (Path(en.__file__).parent / "schemas" / "cli_output.schema.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _main_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the token itself
            code = exc.code
    return code, err.getvalue()


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


def test_kernel_bound_ok_at_documented_scale():
    # sup|v_x| exceeds R(x) here by rounding alone (about 1e-10)
    env = dict(os.environ, PYTHONPATH=str(Path(en.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "energynet.cli", "kernel", "--gen", "integer_segment:2000",
         "--vertex", "1000", "--format", "json"],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    jsonschema.validate(doc, SCHEMA)
    assert doc["bound_ok"] is True
    assert doc["R"] == pytest.approx(1000.0, rel=1e-9)
    assert doc["sup_norm"] == pytest.approx(doc["R"], rel=1e-9)


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


def test_walk_golden(capsys):
    # recorded with the earlier sampler (one global searchsorted): every
    # sampler must map the same Philox draws to the same neighbours
    code, doc = run_json(
        capsys, "walk", "--gen", "binary_tree:8", "--vertex", "300", "--samples", "100000",
        "--seed", "42",
    )
    assert code == 0
    assert doc["mc_estimate"] == 0.12441 and doc["cap_hits"] == 0


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
    assert main(["kernel", "--gen", "path:3", "--net", "a.json", "--vertex", "1"]) == 2
    assert capsys.readouterr().err.endswith("error: use exactly one of --gen and --net\n")


_OVERFLOW_CSV = str(Path(__file__).parent / "data" / "kernel_overflow.csv")
_INVALID = [
    ["gram", "--gen", "path:3", "--F", "1,1"],
    ["mult", "--gen", "path:3", "--f", "delta:1", "--bound", "-1"],
    ["walk", "--gen", "path:3", "--vertex", "1", "--samples", "0"],
    ["kernel", "--gen", "path:abc", "--vertex", "1"],
    ["kernel", "--gen", "path", "--vertex", "1"],
    ["mult", "--gen", "path:3", "--f", "delta:1", "--exhaust", "a,b"],
    ["mult", "--gen", "path:3", "--f", "delta:1", "--exhaust", "2,,3"],
    # X has 2 vertices: a size past it is refused
    ["mult", "--gen", "path:3", "--f", "delta:1", "--exhaust", "3"],
    ["mult", "--gen", "path:3", "--f", "const:abc"],
    ["mult", "--gen", "path:3", "--f", "const:nan"],
    ["mult", "--gen", "path:3", "--f", "file:/missing"],
    ["banach", "--gen", "path:3", "--u", "const:x"],
    ["mult", "--gen", "path:3", "--f", "delta:1", "--bound", "nan"],
    ["mult", "--gen", "path:3", "--f", "delta:1", "--bound", "inf"],
    # finite bounds whose certificate matrix b^2 V overflows
    ["mult", "--gen", "path:3", "--f", "delta:1", "--bound", "1e154"],
    ["mult", "--gen", "path:3", "--f", "delta:1", "--bound", "1e200"],
    # multipliers whose |f|^2 V overflows: the trace runs on f scaled into
    # range, and the certificate matrix reports the overflow
    ["mult", "--gen", "path:3", "--f", "const:1e200", "--estimate"],
    ["mult", "--gen", "path:3", "--f", "const:1e160", "--bound", "1"],
    # a finite f whose modulus |f| itself overflows
    ["mult", "--gen", "path:3", "--f", "const:1.5e308+1.5e308j", "--estimate"],
    # conductances of 1e-308 pass the loader, but R(2) = 2e308 overflows:
    # the kernel refuses it on every path (gram's 1,2 is a prefix of X)
    *([cmd, "--net", _OVERFLOW_CSV, "--origin", "0", *rest] for cmd, *rest in [
        ["kernel", "--vertex", "2"],
        ["gram", "--F", "1,2"],
        ["gram", "--F", "2,1"],
        ["mult", "--f", "delta:1"],
        ["walk", "--vertex", "2", "--samples", "10"],
        ["banach", "--u", "kernel:2"],
    ]),
]


@pytest.mark.parametrize("argv", _INVALID)
def test_invalid_input_exits_2(argv):
    code, err = _main_code(argv)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err


def test_overflowing_estimate_names_the_estimate():
    # no bound was given: the message is about the estimate, not a bound b
    argv = ["mult", "--gen", "path:3", "--f", "const:1.5e308+1.5e308j", "--estimate"]
    assert _main_code(argv) == (2, "error: the norm estimate overflows: best lower bound inf\n")


@pytest.mark.parametrize(
    "values, u2, message",
    [
        # the vector's own energy overflows, with or without a second vector
        ({"1": 1e200, "2": -1e200}, False, "has no finite energy: inf"),
        ({"1": 1e200, "2": -1e200}, True, "has no finite energy: inf"),
        # each energy is finite (5e300), the product's is not
        ({"1": 1e150, "2": -1e150}, True, "the product energy inf or its bound inf is not finite"),
    ],
)
def test_banach_overflow_exits_2(tmp_path, values, u2, message):
    spec = tmp_path / "F.json"
    spec.write_text(json.dumps({"values": values}))
    argv = ["banach", "--gen", "path:3", "--u", f"file:{spec}"]
    argv += ["--u2", f"file:{spec}"] if u2 else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would escape main
        code, err = _main_code(argv)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in err, err


@pytest.mark.parametrize(
    "spec, argv, verdict",
    [
        # |f| = sqrt(2) 1e-310: a complex f divided by its subnormal scale as
        # one complex division overflowed, and the NaN trace certified 0
        ("const:1e-310-1e-310j", ["--exhaust", "1"], "certified<=1.41421356237e-310"),
        # the same NaN ended in an eigensolver traceback
        ("const:1e-310j", ["--bound", "1"], "PASS<=1"),
        ("const:1e-310", ["--bound", "1"], "PASS<=1"),
    ],
)
def test_subnormal_multiplier(capsys, spec, argv, verdict):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would escape main
        code, doc = run_json(capsys, "mult", "--gen", "path:3", "--f", spec, *argv)
    assert code == 0 and doc["verdict"] == verdict
    assert doc["best_lower"] <= abs(complex(spec[6:])) * (1 + 1e-12)


def test_invalid_input_exits_2_as_module():
    # the same contract through `python -m energynet.cli`, for one case
    env = dict(os.environ, PYTHONPATH=str(Path(en.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "energynet.cli", *_INVALID[0]],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
    assert "Traceback" not in done.stderr


def test_estimate_and_bound_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mult", "--gen", "path:3", "--f", "delta:1", "--estimate", "--bound", "1"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_closed_stdout_exits_2():
    env = dict(os.environ, PYTHONPATH=str(Path(en.__file__).parents[1]))
    read, write = os.pipe()
    os.close(read)  # the reader is gone before anything is written
    try:
        done = subprocess.run(
            [sys.executable, "-m", "energynet.cli", "kernel", "--gen", "path:3", "--vertex", "1"],
            env=env, stdout=write, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write)
    assert done.returncode == 2
    assert done.stderr.splitlines() == ["error: output stream closed early"]


def test_reader_closing_early_exits_2():
    # the reader takes one line of a 1.4 MB table and leaves: the write that
    # fills the pipe fails mid-output, not at the final flush
    env = dict(os.environ, PYTHONPATH=str(Path(en.__file__).parents[1]))
    F = ",".join(map(str, range(1, 501)))
    argv = ["gram", "--gen", "integer_segment:500", "--F", F, "--format", "csv"]
    with subprocess.Popen([sys.executable, "-m", "energynet.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline().startswith("x,1,2,3,")
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 2
    assert err.splitlines() == ["error: output stream closed early"]


def test_closed_stdout_exits_2_in_process(monkeypatch, capsys):
    # the same in this process, on a pipe of its own: main points the pipe's
    # descriptor at devnull, so closing the stream afterwards flushes nowhere
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as stream:
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(["kernel", "--gen", "path:3", "--vertex", "1"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: output stream closed early"]


def test_internal_error_exits_3(monkeypatch, capsys):
    solve = scipy.linalg.solve_triangular

    def perturbed(a, b, trans=0, **kwargs):
        sol = solve(a, b, trans=trans, **kwargs)
        if trans == "T":  # the back substitution W^T K = Y of the kernel solve
            sol[:, 1] += 1e-6
        return sol

    monkeypatch.setattr(scipy.linalg, "solve_triangular", perturbed)
    assert main(["gram", "--gen", "integer_segment:12", "--F", "3,7,9"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: Gram entry (3,7)") and len(err.splitlines()) == 1


def test_pass_below_lower_bound_exits_3(capsys):
    # one level F = X: its certificate at b = 5.9485 judged lambda_min = -1.2e-3
    # psd, below the trace's own best lower bound 5.9485852
    argv = ["mult", "--gen", "integer_segment:800", "--f", "kernel:5", "--bound", "5.9485",
            "--exhaust", "800", "--format", "json"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: psd certificates pass at b = 5.9485")
    assert len(err.splitlines()) == 1


def test_contradictory_certificates_exit_3(capsys):
    # the certificates at b = 5.94858 fail on |F| = 8..64 and pass on
    # |F| = 128..800, though each inner S_F is a leading block of the outer ones
    argv = ["mult", "--gen", "integer_segment:800", "--f", "kernel:5", "--bound", "5.94858",
            "--format", "json"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: psd certificates at b = 5.94858 fail on |F| = 8")
    assert len(err.splitlines()) == 1


def test_wrong_pass_at_n2000_never_passes(capsys):
    # b = 5.948 lies below the norm 5.9485852; at n = 2000 the one-level
    # certificate's tolerance (2.1e-2) exceeds |lambda_min| = 8.1e-3
    argv = ["mult", "--gen", "integer_segment:2000", "--f", "kernel:5", "--bound", "5.948",
            "--exhaust", "2000"]
    assert main(argv) != 0
    assert "PASS" not in capsys.readouterr().out


def test_out_of_memory_exits_2(monkeypatch, capsys):
    def too_large(self):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)")

    monkeypatch.setattr(en.Network, "laplacian_matrix", too_large)
    assert main(["kernel", "--gen", "path:5", "--vertex", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: out of memory: Unable to allocate 74.5 GiB for an array "
                                "with shape (100000, 100000)"]


_MISSING = "/nonexistent-energynet-dir/missing.json"
# each template has one slot; filled with its valid value (the network's own
# size for gen_size) the command exits 0 or 1
_TEMPLATES = [
    ("kernel --gen {net} --vertex {vertex}", "vertex"),
    ("gram --gen {net} --F {vertices} --sqrt", "vertices"),
    ("mult --gen {net} --f const:{number} --estimate", "number"),
    ("mult --gen {net} --f delta:1 --bound {number}", "number"),
    ("mult --gen {net} --f kernel:{vertex} --estimate --exhaust 1", "vertex"),
    ("mult --gen {net} --f {spec} --estimate", "spec"),
    ("mult --gen {net} --f delta:1 --estimate --exhaust {sizes}", "sizes"),
    ("walk --gen {net} --vertex {vertex} --samples 50", "vertex"),
    ("walk --gen {net} --vertex 1 --samples {count}", "count"),
    ("walk --gen {net} --vertex 1 --samples 50 --seed {seed}", "seed"),
    ("banach --gen {net} --u {spec} --u2 kernel:1", "spec"),
    ("banach --gen {net} --u kernel:1 --u2 {spec}", "spec"),
    ("banach --gen {net} --u kernel:1 --u2 delta:{vertex}", "vertex"),
    ("kernel --gen {family}:{gen_size} --vertex 1", "gen_size"),
    ("kernel --net {file} --vertex 1", "file"),
    ("kernel --net {csv_file} --origin 0 --vertex 1", "csv_file"),
]
_VALID = {
    "vertex": "1", "vertices": "1", "number": "2.5", "spec": "kernel:1", "sizes": "1",
    "count": "50", "seed": "3",
}
_BAD = {
    "vertex": ["abc", "nan", "inf", "", "99", "-1", "1,1", "file:" + _MISSING],
    "vertices": ["abc", "nan", "", "1,1", "1,99", "1,,2", ","],
    "number": ["abc", "nan", "inf", "-inf", "NaN", "", "1,1", "1e999"],
    "spec": ["abc", "nan", "", "99", "delta:", "kernel:99", "const:inf", "file:" + _MISSING],
    "sizes": ["abc", "nan", "inf", "", "1,,2", "0", "99"],
    "count": ["abc", "nan", "inf", "", "1.5", "0", "-5"],
    "seed": ["abc", "nan", "inf", "", "1.5", "-1"],
    "gen_size": ["abc", "nan", "inf", "", "1.5", "0", "-1"],
    "file": [_MISSING, "/", sys.executable],
    "csv_file": [_MISSING[:-4] + "csv"],
}
_NETS = st.sampled_from(["path", "cycle", "integer_segment", "binary_tree"]).flatmap(
    lambda family: st.tuples(
        st.just(family),
        st.integers(*{"path": (2, 10), "cycle": (3, 10), "integer_segment": (2, 9),
                      "binary_tree": (1, 2)}[family]),
    )
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_TEMPLATES), _NETS, st.data())
def test_malformed_argv_exits_2(template, net, data):
    text, slot = template
    family, size = net
    bad = data.draw(st.sampled_from(_BAD[slot]))
    fill = {"net": f"{family}:{size}", "family": family, "gen_size": size, **_VALID}

    def argv(**slots):
        return [part.format(**{**fill, **slots}) for part in text.split(" ")]

    if slot in ("file", "csv_file"):  # no valid value: each bad one must fail to read
        code, err = _main_code(argv(**{slot: bad}))
        assert code == 2 and err.startswith("error: cannot read network file"), err
        return
    assert _main_code(argv())[0] in (0, 1)
    code, err = _main_code(argv(**{slot: bad}))
    assert code == 2, (argv(**{slot: bad}), err)
    assert "Traceback" not in err


def test_csv_format(capsys):
    code, out = run(capsys, "gram", "--gen", "path:3", "--F", "1,2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,1,2"
    assert len(lines) == 3
    for line in lines[1:]:
        assert [float(cell) for cell in line.split(",")]  # plain numbers, not numpy reprs


def test_csv_format_prints_the_root_after_v(capsys):
    argv = ["gram", "--gen", "path:4", "--F", "1,3", "--sqrt"]
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,1,3" and lines[3] == "sqrt,1,3" and len(lines) == 6
    doc = json.loads(run(capsys, *argv, "--format", "json")[1])
    for head, table, key in ((0, lines[1:3], "V"), (3, lines[4:6], "sqrt")):
        assert [ln.split(",")[0] for ln in table] == ["1", "3"], lines[head]
        assert [[float(c) for c in ln.split(",")[1:]] for ln in table] == doc[key]


@pytest.mark.parametrize(
    "argv,first,row",
    [
        (["kernel", "--gen", "path:3", "--vertex", "0"], "vertex,value", "2,0.0"),
        (["walk", "--gen", "path:5", "--vertex", "2", "--samples", "100"], "key,value", "x,2"),
        (["banach", "--gen", "path:3", "--u", "kernel:1"], "key,value", "command,banach"),
        (
            ["banach", "--gen", "path:3", "--u", "kernel:1", "--u2", "kernel:2"],
            "key,value",
            "pass,True",
        ),
    ],
)
def test_csv_format_without_pretty_fallback(capsys, argv, first, row):
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == first and row in lines
    assert all(line.count(",") == 1 for line in lines)


def test_csv_format_quotes_vertex_ids(tmp_path, capsys):
    # ids holding the delimiter or the quote character are quoted, not split
    path = tmp_path / "ids.json"
    edges = [[0, "a,b", 1.0], ["a,b", 2, 2.0], [2, 'say "hi"', 1.0]]
    path.write_text(json.dumps({"origin": 0, "edges": edges}))
    for vertex in ("2", "a,b"):
        code, out = run(capsys, "kernel", "--net", str(path), "--vertex", vertex, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert all(len(row) == 2 for row in rows)
        assert [row[0] for row in rows] == ["vertex", "0", "a,b", "2", 'say "hi"']
        assert all(float(row[1]) >= 0 for row in rows[1:])


def test_non_finite_conductance_exits_2(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text('{"origin": 0, "edges": [[0, 1, 1e400], [1, 2, 1.0]]}')
    for argv in (["kernel", "--vertex", "2"], ["walk", "--vertex", "2", "--samples", "10"]):
        assert main([*argv, "--net", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: edge (0,1) has weight inf")
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("edges", ["5", "null"])
def test_edges_not_a_list_exits_2(tmp_path, capsys, edges):
    path = tmp_path / "edges.json"
    path.write_text(f'{{"origin": 0, "edges": {edges}}}')
    assert main(["kernel", "--net", str(path), "--vertex", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {path}: 'edges' must be a list\n"


@pytest.mark.parametrize(
    "edges,message",
    [
        # true would equal and hash like vertex 1
        ("[[true, 2, 1.0], [1, 2, 1.0], [0, 1, 1.0]]", "edges[0] vertex id True must be"),
        ("[[0, 1, true], [1, 2, 1.0]]", "weight True is not a number"),
    ],
    ids=["vertex", "weight"],
)
def test_json_boolean_in_network_exits_2(tmp_path, capsys, edges, message):
    path = tmp_path / "bool.json"
    path.write_text(f'{{"origin": 0, "edges": {edges}}}')
    assert main(["kernel", "--net", str(path), "--vertex", "2", "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("value", ["true", "[true, 0]"])
def test_json_boolean_multiplier_value_exits_2(tmp_path, capsys, value):
    spec = tmp_path / "f.json"
    spec.write_text(f'{{"f": {{"1": {value}}}}}')
    assert main(["mult", "--gen", "path:3", "--f", f"file:{spec}", "--estimate"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "is not a number" in err


def test_grounded_laplacian_not_positive_definite_exits_2(tmp_path, capsys):
    # 1 + 1e-17 rounds to 1: the grounded Laplacian is singular in floating point
    path = tmp_path / "tiny.json"
    path.write_text('{"origin": 0, "edges": [[0, 1, 1.0], [1, 2, 1e-17], [2, 3, 1.0]]}')
    assert main(["kernel", "--net", str(path), "--vertex", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1


def test_cli_import_loads_no_sparse():
    # scipy.sparse costs start-up time on every CLI call: import it only where it is used
    code = (
        "import sys, energynet.cli; "
        "print([m for m in sys.modules if m.startswith('scipy.sparse')])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(en.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_pretty_format(capsys):
    code, out = run(capsys, "kernel", "--gen", "path:3", "--vertex", "1")
    assert code == 0
    assert "R: 1" in out


def test_unknown_vertex_message_is_unquoted(capsys):
    assert main(["kernel", "--gen", "path:3", "--vertex", "7"]) == 2
    assert capsys.readouterr().err == "error: vertex 7 not in network\n"


def test_json_digit_string_ids_are_addressable(tmp_path, capsys):
    path = tmp_path / "digits.json"
    path.write_text('{"origin": "0", "edges": [["0", "1", 1.0], ["1", "2", 1.0]]}')
    code, doc = run_json(capsys, "kernel", "--net", str(path), "--vertex", "2")
    assert code == 0
    assert doc["R"] == pytest.approx(2.0)


@pytest.mark.parametrize("source", ["gen", "json"])
def test_origin_outside_csv_exits_2(tmp_path, capsys, source):
    path = tmp_path / "p3.json"
    en.save_network(en.generate("path", 3), path)
    net_args = ["--gen", "path:3"] if source == "gen" else ["--net", str(path)]
    assert main(["kernel", *net_args, "--origin", "2", "--vertex", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "origin" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "name,text,message",
    [
        ("empty.csv", "x,y,c\n0,1,1.0\n1,,1.0\n", "line 3 vertex id must not be empty"),
        ("blank.csv", "x,y,c\n0,1,1.0\n1, ,1.0\n", "line 3 vertex id must not be empty"),
        ("empty.json", '{"origin": 0, "edges": [[0, 1, 1.0], [1, "", 1.0]]}',
         "edges[1] vertex id must not be empty"),
        ("four.csv", "x,y,c\n0,1,1.0\n1,2,1.0,9\n", "line 3 must be [x, y, c]"),
        ("two.csv", "x,y,c\n0,1,1.0\n1,2\n", "line 3 must be [x, y, c]"),
        ("one.csv", "x,y,c\n0,1,1.0\n1\n", "line 3 must be [x, y, c]"),
    ],
    ids=["csv-empty-id", "csv-blank-id", "json-empty-id", "csv-four-fields", "csv-two-fields",
         "csv-one-field"],
)
def test_malformed_file_row_exits_2(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    origin = ["--origin", "0"] if name.endswith(".csv") else []
    assert main(["kernel", "--net", str(path), *origin, "--vertex", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1


_LABELS = st.one_of(
    st.integers(-10**6, 10**6),
    st.text("abcdefghijklmnopqrstuvwxyzXYZ", min_size=1, max_size=6),
)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.lists(_LABELS, min_size=6, unique=True))
def test_every_vertex_of_a_file_network_is_addressable(tmp_path_factory, n, seed, labels):
    # ints and non-numeric strings: save_network and CSV both load them back as they were
    base = random_network(n, seed)
    name = dict(zip(range(n), labels))
    net = en.build_network([(name[x], name[y], w) for x, y, w in base.edges], name[0])
    tmp = tmp_path_factory.mktemp("nets")
    json_path, csv_path = tmp / "net.json", tmp / "net.csv"
    en.save_network(net, json_path)
    with open(csv_path, "w", newline="") as fh:
        csv.writer(fh).writerows([("x", "y", "c"), *net.edges])
    assert en.load_network(json_path) == net == en.load_network(csv_path, origin=net.origin)
    for source in (["--net", str(json_path)], ["--net", str(csv_path), f"--origin={net.origin}"]):
        for v in net.vertices:
            code, err = _main_code(["kernel", *source, f"--vertex={v}"])
            assert code == 0, (source, v, err)
