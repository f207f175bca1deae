"""Smoke test of the benchmark itself, at toy sizes (about a minute).

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced at toy size
(integer_segment:20, binary_tree:3 with 1e3 samples, ...) and asserts that
each run prints every metric BENCHMARK.json names, with its unit, that no op
failed, and that the tracer counts the n(n+1)/2 Gram cross-checks of a cold
`full_gram`.  Last, it checks that the benchmark refuses to run, exiting
non-zero without a result, where the energynet sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TOY_SEGMENT_X = 20  # |X| of the toy mult_estimate network, integer_segment:20


def bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_run(workload, trace, want):
    done = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5",
                 "--trace", str(trace), "--toy")
    assert done.returncode == 0, f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}"
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(next(ln for ln in lines if ln.startswith("record "))[len("record "):])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{workload} trace {trace}: metrics differ: {set(got) ^ set(want)}"
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"], record
    assert record["fail_ratio"] == 0, record["failures"]
    assert {"nproc", "cpu", "blas", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "python",
            "numpy", "scipy", "commit", "seed"} <= set(record["machine"])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace == 0:
        assert all(v > 0 for v in values.values()), values
    elif workload == "mult_estimate":
        n = TOY_SEGMENT_X
        assert values["energy.energy_form.calls"] == n * (n + 1) / 2, values
        assert values["numkernel.gen_eig_max.work_k3"] > 0, values
    elif workload == "walk_mc":
        assert values["randwalk.escape_prob_mc.s"] > 0 and values["randwalk.cap_hits"] == 0
    print(f"ok  {workload:14} trace {trace}  {result['attempted']} ops checked")


def check_refuses_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = bench(bare, "--workload", "walk_mc", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
        assert done.returncode != 0 and not done.stdout.strip(), done
    finally:
        shutil.rmtree(bare)
    print("ok  refuses to run without the energynet sources")


def main():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads  # all of them, also those BENCHMARK.json leaves out

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_run(name, trace, want[trace])
    check_refuses_without_sources()
    print("smoke ok")


if __name__ == "__main__":
    main()
