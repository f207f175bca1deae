"""Compare the benchmark of a base revision with the working tree, in pairs.

Checks REV out into a temporary git worktree and runs
`perfbench/run.py --workload W --seed i --seconds S` there and in the
working tree, for i = 1 ... N.  Odd pairs run the base first, even pairs
the working tree first, so that drift of the machine falls on both sides
alike.  It prints each pair's end-to-end metrics (the `end_to_end` list of
BENCHMARK.json), then per metric each side's median and quartiles, the
pairs the change wins (strictly better, in the metric's direction) and
whether the medians differ by more than the base's interquartile range.
The worktree is removed afterwards, also when a run fails.

Usage:
    python scripts/bench_pairs.py --base HEAD --workload mult_estimate --pairs 10 --seconds 36
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values):
    """(q1, median, q3) of values, by the inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summary(pairs, metrics):
    """One row per metric of metrics ({"name", "better"} dicts) over pairs,
    a list of (base, change) dicts of metric values: the name, each side's
    (q1, median, q3), the change's wins and whether the medians differ by
    more than the base's interquartile range."""
    rows = []
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        qb, qc = quartiles(base), quartiles(change)
        rows.append({
            "name": name,
            "better": metric["better"],
            "base": qb,
            "change": qc,
            "wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
            "pairs": len(pairs),
            "beyond_iqr": abs(qc[1] - qb[1]) > qb[2] - qb[0],
        })
    return rows


def run_bench(tree, workload, seed, seconds):
    """(metric values, failed ops) of one perfbench run in the checkout tree."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode:
        raise SystemExit(f"perfbench/run.py failed in {tree}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, result["failed"]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="the git revision to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=36)
    args = p.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    names = [m["name"] for m in metrics]

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    base_tree = tmp / "base"
    subprocess.run(["git", "worktree", "add", "--detach", str(base_tree), args.base],
                   cwd=ROOT, check=True, capture_output=True)
    pairs, failed = [], [0, 0]
    try:
        for i in range(1, args.pairs + 1):
            sides = [(0, base_tree), (1, ROOT)]
            got = {}
            for side, tree in sides if i % 2 else sides[::-1]:
                got[side], f = run_bench(tree, args.workload, i, args.seconds)
                failed[side] += f
            pairs.append((got[0], got[1]))
            first = "base" if i % 2 else "change"
            print(f"pair {i} ({first} first): "
                  + "  ".join(f"{n} {got[0][n]:.4g} -> {got[1][n]:.4g}" for n in names),
                  flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(base_tree)],
                       cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"{args.workload}, base {args.base} against the working tree, "
          f"{args.pairs} pairs of {args.seconds:g} s; failed ops: base {failed[0]}, "
          f"change {failed[1]}")
    print(f"{'metric':14} {'better':6}  {'base median [q1, q3]':30}  "
          f"{'change median [q1, q3]':30}  {'wins':>6}  beyond base IQR")
    for r in summary(pairs, metrics):
        base, change = (f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (r["base"], r["change"]))
        print(f"{r['name']:14} {r['better']:6}  {base:30}  {change:30}  "
              f"{r['wins']:>3}/{r['pairs']:<2}  {'yes' if r['beyond_iqr'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
