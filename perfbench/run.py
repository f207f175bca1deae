"""energynet benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload mult_estimate --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
./src, nothing needs installing.  Load model: one closed-loop client in
this process (the next op starts when the previous one returns), no threads
of its own; BLAS keeps its default thread count (nproc).

A run:
1. sets itself up (imports energynet, draws the first inputs from the seed);
   `setup_s` is the median of five fresh subprocesses doing the same, timed
   from spawn until they report ready;
2. runs one untimed warm-up session at toy size, then keeps every
   per-network cache cold: each session builds its own network, as every
   CLI invocation does;
3. runs sessions back to back until --seconds have passed (the last one
   may overrun), timing every op and checking every output against a
   closed-form reference;
4. times the workload's representative CLI command in real
   `python -m energynet.cli` subprocesses (`cli_p50_s`).

With --trace 1 the layers are wrapped from outside (tracer.py), the CLI
command runs in-process instead, and the per-layer metrics are reported.

Prints a table with sample counts, a `record` line with machine facts, and
as its last line the JSON result.  Records and span files go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
CLI_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="toy sizes, for the smoke test")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(args):
    """Everything between process start and the first request."""
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed, toy=args.toy)
    wl.session(0)
    return workloads, wl


def probe_setup(args):
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"] + (["--toy"] if args.toy else [])
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return elapsed


def machine_facts(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "seed": seed,
    }


def tail(values):
    """Latency at the highest whole percentile with at least 10 samples
    beyond it (nearest rank), and its label.  Below 20 samples that
    percentile would lie under the median, so the maximum is reported
    instead, labelled as such."""
    s = sorted(values)
    n = len(s)
    if n < 20:
        return s[-1], f"p100 (maximum: only {n} samples)"
    p = math.floor(100 * (n - 10) / n)
    return s[math.ceil(p * n / 100) - 1], f"p{p}"


def warm_blas():
    """Start OpenBLAS's thread pool.  Toy-size ops stay below its threading
    threshold, and on a 2-vCPU box the first threaded call (a 1000x1000
    Cholesky) takes about 0.5 s instead of 20 ms; without this the first
    full-size op of every run pays that."""
    import numpy as np

    a = np.eye(1000) * 2 - np.eye(1000, k=1) - np.eye(1000, k=-1)
    np.linalg.cholesky(a)


class Run:
    def __init__(self, wl, tracer=None):
        self.wl, self.tracer = wl, tracer
        self.latencies, self.cold, self.kinds = [], [], {}  # kinds: op kind -> latencies
        self.cli_times = []
        self.attempted = self.failed = 0
        self.failures = []

    def judge(self, kind, check, result, exc):
        self.attempted += 1
        why = f"raised {type(exc).__name__}: {exc}" if exc is not None else check(result)
        if why is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{kind}: {why}")

    def session(self, ops, timed=True):
        ctx = {}
        for j, op in enumerate(ops):
            if self.tracer is not None:
                self.tracer.op_id = len(self.latencies) if timed else -1
            result = exc = None
            t0 = time.perf_counter()
            try:
                result = op.run(ctx)
            except Exception as e:  # an op that raises is a failed op
                exc = e
            dt = time.perf_counter() - t0
            if timed:
                self.latencies.append(dt)
                self.kinds.setdefault(op.kind, []).append(dt)
                if j == 0:
                    self.cold.append(dt)
            self.judge(op.kind, op.check, result, exc)

    def loop(self, seconds):
        t0 = time.perf_counter()
        i = 0
        while time.perf_counter() - t0 < seconds:
            self.session(self.wl.session(i))
            i += 1
        return i, time.perf_counter() - t0

    def cli_phase(self, call_cli):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        for argv, check in self.wl.cli_commands():
            result = exc = None
            t0 = time.perf_counter()
            try:
                if self.tracer is not None:  # in-process, so the tracer sees cli.main
                    self.tracer.op_id = -1
                    result = call_cli(argv)
                else:
                    done = subprocess.run([sys.executable, "-m", "energynet.cli", *argv],
                                          cwd=ROOT, env=env, capture_output=True, text=True,
                                          timeout=CLI_TIMEOUT_S)
                    result = (done.returncode, done.stdout, done.stderr)
            except Exception as e:  # a timeout or a crash is a failed op
                exc = e
            self.cli_times.append(time.perf_counter() - t0)
            self.judge("cli." + argv[0], check, result, exc)


def per_layer(tracer, loop_summary, counters, n_ops, traced_s):
    everything = tracer.summary(loop_only=False)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def get(name):
        return loop_summary.get(name, zero)

    def per_op(name, field):
        return get(name)[field] / n_ops

    m = {}
    for name in ("network.generate", "network.laplacian", "energy.energy_form",
                 "energy.full_gram", "energy.gram_matrix", "energy.energy_kernel",
                 "energy.effective_resistance", "numkernel.gen_eig_max",
                 "numkernel.psd_check", "numkernel.spd_solve", "numkernel.sqrtm_psd",
                 "multop.analyze", "multop.restricted_norm", "multop.certify_bound",
                 "multop.sufficiency_bound", "randwalk.escape_prob_mc",
                 "randwalk.escape_prob_exact"):
        m[f"{name}.s"] = (per_op(name, "s"), "s/op")
    for name in ("network.laplacian", "energy.energy_form", "energy.gram_matrix",
                 "energy.energy_kernel", "numkernel.gen_eig_max", "numkernel.psd_check",
                 "multop.restricted_norm", "multop.s_matrix"):
        m[f"{name}.calls"] = (per_op(name, "calls"), "1/op")
    for name in ("numkernel.gen_eig_max", "numkernel.psd_check"):
        m[f"{name}.work_k3"] = (counters.get(f"{name}.work_k3", 0) / n_ops, "k3/op")
    kcalls = get("energy.energy_kernel")["calls"]
    m["energy.energy_kernel.hit_ratio"] = (
        counters.get("energy.energy_kernel.hits", 0) / kcalls if kcalls else 0.0, "ratio")
    mc_s = get("randwalk.escape_prob_mc")["s"]
    m["randwalk.samples_per_s"] = (counters.get("randwalk.samples", 0) / mc_s if mc_s else 0.0,
                                   "1/s")
    m["randwalk.cap_hits"] = (counters.get("randwalk.cap_hits", 0), "count")
    m["trace.ops_per_s"] = (n_ops / traced_s, "1/s")
    m = {k: (v, u, n_ops) for k, (v, u) in m.items()}
    # the cli layer's own time (parsing and output) per cli.main call, CLI phase included
    main_calls = everything.get("cli.main", zero)["calls"]
    cli_self = sum(v["self_s"] for k, v in everything.items() if k.startswith("cli."))
    m["cli.main.self_s"] = (cli_self / main_calls if main_calls else 0.0, "s/call", main_calls)
    return m


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "energynet" / "__init__.py").is_file():
        print(f"error: no energynet sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workloads, wl = setup(args)
    if args.probe:
        print("ready", flush=True)
        return 0

    facts = machine_facts(args.seed)
    setup_times = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]

    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
    run = Run(wl, tracer)
    run.session(workloads.WORKLOADS[args.workload](args.seed, toy=True).session(0), timed=False)
    warm_blas()
    warmup_failed = run.failed
    if tracer is not None:
        tracer.install()
    sessions, loop_wall = run.loop(args.seconds)
    n_ops = len(run.latencies)
    timed_s = sum(run.latencies)
    if tracer is not None:
        loop_summary, counters = tracer.summary(), dict(tracer.counters)
    run.cli_phase(workloads.call_cli)

    if tracer is None:
        op_tail, tail_label = tail(run.latencies)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
            "op_p50_s": (statistics.median(run.latencies), "s", n_ops),
            "op_tail_s": (op_tail, "s", n_ops),
            "ops_per_s": (n_ops / timed_s, "1/s", n_ops),
            "cold_op_p50_s": (statistics.median(run.cold), "s", len(run.cold)),
            "cli_p50_s": (statistics.median(run.cli_times), "s", len(run.cli_times)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        }
        notes = {"op_tail_s": tail_label, "cold_op_p50_s": "first op of each session",
                 "ops_per_s": f"{n_ops} ops / {timed_s:.3f} timed s"}
    else:
        tracer.uninstall()
        metrics = per_layer(tracer, loop_summary, counters, n_ops, timed_s)
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans_file)
        notes = {k: "computed from argument shapes" for k in metrics if k.endswith("work_k3")}
        notes["trace.ops_per_s"] = "traced; compare with ops_per_s of an untraced run"

    fail_ratio = run.failed / run.attempted
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  sessions {sessions}  ops {n_ops}  loop wall {loop_wall:.2f} s")
    by_kind = {k: {"ops": len(v), "p50_s": statistics.median(v)} for k, v in sorted(run.kinds.items())}
    print("op kinds: " + ", ".join(f"{k} {v['ops']} x {v['p50_s']:.4g} s" for k, v in by_kind.items()))
    print(f"{'metric':34} {'value':>14} {'unit':8} {'samples':>7}  note")
    for name, (value, unit, count) in metrics.items():
        print(f"{name:34} {value:14.6g} {unit:8} {count:7d}  {notes.get(name, '')}")
    print(f"{'fail_ratio':34} {fail_ratio:14.6g} {'ratio':8} {run.attempted:7d}  "
          f"{run.failed} failed of {run.attempted} attempted "
          f"(warm-up failures: {warmup_failed})")
    for why in run.failures:
        print(f"FAILED {why}")
    if tracer is not None:
        print("spans: nothing waits (single-threaded), so no wait times are reported")
        print(f"{'span (timed ops)':34} {'calls/op':>12} {'s/op':>10} {'self s/op':>10} "
              f"{'share':>6}")
        mean_op = timed_s / n_ops
        for name, v in sorted(loop_summary.items(), key=lambda kv: -kv[1]["s"])[:25]:
            print(f"{name:34} {v['calls'] / n_ops:12.1f} {v['s'] / n_ops:10.4f} "
                  f"{v['self_s'] / n_ops:10.4f} {v['s'] / n_ops / mean_op:6.1%}")
        print(f"spans written to {spans_file.relative_to(ROOT)} ({len(tracer.start)} spans)")

    record = {
        "workload": args.workload, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "machine": facts,
        "sessions": sessions, "ops": n_ops, "op_kinds": by_kind,
        "metrics": {k: {"value": v, "unit": u, "samples": c, "note": notes.get(k, "")}
                    for k, (v, u, c) in metrics.items()},
        "attempted": run.attempted, "failed": run.failed, "fail_ratio": fail_ratio,
        "failures": run.failures,
    }
    OUT.mkdir(exist_ok=True)
    toy = "-toy" if args.toy else ""
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}{toy}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
