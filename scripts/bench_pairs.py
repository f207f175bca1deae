"""Compare the benchmark of a base revision with the working tree, in pairs.

Extracts REV with `git archive` into a temporary directory, copies the
working tree's files that git lists (tracked, or untracked and not ignored)
that exist into a sibling directory, and runs `perfbench/run.py --workload W
--seed i --seconds S` in both, for i = 1 ... N: both sides start from fresh
copies, with no bytecode caches or build outputs of earlier runs.  Odd
pairs run the base first, even pairs the working tree first, so that drift
of the machine falls on both sides alike.  It prints each pair's
end-to-end metrics (the `end_to_end` list of BENCHMARK.json), then per
metric each side's median and quartiles, the pairs the change wins
(strictly better, in the metric's direction), whether the medians differ by
more than the base's interquartile range, and the no-regression verdict
from the metric's `bound` (see `summary`).
`--workload` may be given more than once.  With `--out PATH` the pairs,
the summary rows and the machine record of perfbench/run.py go to PATH as
JSON, one entry per workload.  The temporary directory is removed
afterwards, also when a run fails.

Usage:
    python scripts/bench_pairs.py --base HEAD --workload mult_estimate --pairs 10 --seconds 36
    python scripts/bench_pairs.py --base HEAD --workload mult_estimate --workload walk_mc \
        --out BENCH_<sha>.json
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
    """One row per metric of metrics ({"name", "better", "bound"} dicts) over
    pairs, a list of (base, change) dicts of metric values: the name, each
    side's (q1, median, q3), the change's wins, whether the medians differ by
    more than the base's interquartile range, and a verdict against the
    allowed loss bound * |base median|: "unresolved" if the base's
    interquartile range exceeds it and not every change run beats every base
    run, else "worse" if the change median is worse than the base median by
    more than it, else "ok"."""
    rows = []
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        qb, qc = quartiles(base), quartiles(change)
        allowed = metric["bound"] * abs(qb[1])
        if qb[2] - qb[0] > allowed and min(sign * c for c in change) <= max(
                sign * b for b in base):
            verdict = "unresolved"
        else:
            verdict = "worse" if sign * (qb[1] - qc[1]) > allowed else "ok"
        rows.append({
            "name": name,
            "better": metric["better"],
            "base": qb,
            "change": qc,
            "wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
            "pairs": len(pairs),
            "beyond_iqr": abs(qc[1] - qb[1]) > qb[2] - qb[0],
            "verdict": verdict,
        })
    return rows


def run_bench(tree, workload, seed, seconds):
    """(metric values, failed ops, machine record) of one perfbench run in
    the checkout tree."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode:
        raise SystemExit(f"perfbench/run.py failed in {tree}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    record = json.loads(next(ln for ln in lines if ln.startswith("record "))[len("record "):])
    return ({k: v["value"] for k, v in result["metrics"].items()}, result["failed"],
            record["machine"])


def git(*argv):
    return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def copy_working_tree(dest):
    """Copy the files of the working tree that git lists, tracked or
    untracked and not ignored, and that exist, into dest."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        src = ROOT / name
        if name and (src.is_file() or src.is_symlink()):
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name, follow_symlinks=False)


def compare(base_tree, change_tree, workload, pairs, seconds, names):
    """Run the pairs of one workload; returns (pairs, failed ops per side,
    the working tree's machine record)."""
    got_pairs, failed, machine = [], [0, 0], None
    for i in range(1, pairs + 1):
        sides = [(0, base_tree), (1, change_tree)]
        got = {}
        for side, tree in sides if i % 2 else sides[::-1]:
            got[side], f, facts = run_bench(tree, workload, i, seconds)
            failed[side] += f
            machine = facts if side else machine
        got_pairs.append((got[0], got[1]))
        first = "base" if i % 2 else "change"
        print(f"pair {i} ({first} first): "
              + "  ".join(f"{n} {got[0][n]:.4g} -> {got[1][n]:.4g}" for n in names),
              flush=True)
    return got_pairs, failed, machine


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="the git revision to compare against")
    p.add_argument("--workload", required=True, action="append")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--out", help="write the pairs, summary and machine record here as JSON")
    args = p.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    names = [m["name"] for m in metrics]
    base_sha = git("rev-parse", args.base)
    doc = {"base": base_sha, "change": {"head": git("rev-parse", "HEAD"),
                                         "uncommitted": bool(git("status", "--porcelain"))},
           "pairs": args.pairs, "seconds": args.seconds, "workloads": {}}

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    base_tree, change_tree = tmp / "base", tmp / "change"
    base_tree.mkdir()
    try:
        archive = subprocess.run(["git", "archive", base_sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive, check=True)
        copy_working_tree(change_tree)
        for workload in args.workload:
            pairs, failed, machine = compare(base_tree, change_tree, workload, args.pairs,
                                             args.seconds, names)
            rows = summary(pairs, metrics)
            doc["workloads"][workload] = {
                "failed": {"base": failed[0], "change": failed[1]},
                "summary": rows,
                "runs": [{"base": b, "change": c} for b, c in pairs],
                "machine": machine,
            }
            print_summary(args, workload, failed, rows)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def print_summary(args, workload, failed, rows):
    print(f"{workload}, base {args.base} against the working tree, "
          f"{args.pairs} pairs of {args.seconds:g} s; failed ops: base {failed[0]}, "
          f"change {failed[1]}")
    print(f"{'metric':14} {'better':6}  {'base median [q1, q3]':30}  "
          f"{'change median [q1, q3]':30}  {'wins':>6}  {'beyond base IQR':15}  verdict")
    for r in rows:
        base, change = (f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (r["base"], r["change"]))
        print(f"{r['name']:14} {r['better']:6}  {base:30}  {change:30}  "
              f"{r['wins']:>3}/{r['pairs']:<2}  {'yes' if r['beyond_iqr'] else 'no':15}  "
              f"{r['verdict']}")


if __name__ == "__main__":
    sys.exit(main())
