"""The three workloads: inputs drawn from the seed, the ops, and the
reference check on every op.

The traffic is modelled, not observed: energynet has no usage logs.  The
shapes come from the README's CLI examples and the scale the ROADMAP
documents.  Every input is a pure function of (workload, seed, index), so a
seed reproduces a run's inputs exactly; the program receives only those
inputs.

A workload is a sequence of sessions, each a list of ops that share one
context dict.  `mult_estimate` and `walk_mc` ops are in-process CLI calls,
which build a fresh network every time, so each session is one cold op.
An `fset_sessions` session builds one network and keeps it for all of its
queries, the way a library user would.

Library functions are always looked up through their module at call time
(`energy.gram_matrix(...)`), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from energynet import cli, energy, multop, network

import reference as ref


@dataclass
class Op:
    kind: str
    run: Callable[[dict], object]
    check: Callable[[object], "str | None"]  # failure message, or None


def call_cli(argv):
    """energynet.cli.main in-process, stdout/stderr captured: (rc, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _cli_doc(res, expected_rc):
    rc, out, err = res
    if rc != expected_rc:
        return None, f"exit code {rc}, expected {expected_rc}: {err.strip()[-200:]}"
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


class Workload:
    name = ""
    why = ""

    def __init__(self, seed, toy=False):
        self.seed = seed
        self.cfg = self.TOY if toy else self.FULL

    def rng(self, *key):
        return random.Random(":".join(map(str, (self.name, self.seed, *key))))

    def session(self, i):
        raise NotImplementedError

    def cli_commands(self):
        """[(argv, check)] for the CLI-subprocess samples of cli_p50_s."""
        raise NotImplementedError


# ---------------------------------------------------------------------------

class MultEstimate(Workload):
    name = "mult_estimate"
    why = ("norm analysis (energynet mult) on integer_segment:800, cold network per op: "
           "full_gram and its n^2/2 cross-check, gen_eig_max, psd_check")
    FULL = {"size": 800, "cli_size": 200, "cli_count": 5}
    TOY = {"size": 20, "cli_size": 20, "cli_count": 1}
    KINDS = ("kernel", "delta", "const")

    def _draw(self, rng, i, size):
        # kinds rotate, so that every run of three ops covers all three
        kind = self.KINDS[i % 3]
        if kind == "kernel":
            spec = "kernel:5"
        elif kind == "delta":
            spec = f"delta:{rng.randint(1, size - 1)}"
        else:
            spec = f"const:{rng.choice((-1, 1)) * round(rng.uniform(0.5, 5.0), 6)!r}"
        mode = rng.choice(("estimate", "below", "above"))
        return spec, mode

    def _op(self, size, spec, mode):
        family = "integer_segment"
        norm = ref.norm(family, size, spec)
        argv = ["mult", "--gen", f"{family}:{size}", "--f", spec, "--trace", "--format", "json"]
        argv += ["--estimate"] if mode == "estimate" else [
            "--bound", repr(norm * (0.99 if mode == "below" else 1.01))]
        expected_rc, verdict = {"estimate": (0, "certified"), "below": (1, "FAIL"),
                                "above": (0, "PASS")}[mode]

        def check(res):
            doc, why = _cli_doc(res, expected_rc)
            if doc is None:
                return why
            if not doc["verdict"].startswith(verdict):
                return f"verdict {doc['verdict']!r}, expected {verdict}"
            tol = ref.KERNEL5_TOL if spec == "kernel:5" else 1e-9
            if not _close(doc["best_lower"], norm, tol):
                return f"best_lower {doc['best_lower']!r}, reference norm {norm!r}"
            suff = ref.sufficiency_bound(family, size, spec)
            if not _close(doc["upper"], suff, 1e-9):
                return f"upper {doc['upper']!r}, reference sufficiency bound {suff!r}"
            upper = ref.upper_reference(family, size, spec)
            xs = ref.vertices_x(family, size)
            f = np.abs(ref.multiplier_values(family, size, spec, xs))
            for k, rho in doc["lower_trace"]:
                if rho < f[:k].max() * (1 - 1e-9) - 1e-12 or rho > upper * (1 + 1e-9) + 1e-12:
                    return f"rho_F={rho!r} at |F|={k} outside [{f[:k].max()!r}, {upper!r}]"
            return None

        return Op(f"mult.{spec.partition(':')[0]}.{mode}", lambda ctx: call_cli(argv), check), argv

    def session(self, i):
        size = self.cfg["size"]
        return [self._op(size, *self._draw(self.rng(i), i, size))[0]]

    def cli_commands(self):
        size = self.cfg["cli_size"]
        cmds = []
        for j in range(self.cfg["cli_count"]):
            spec, _ = self._draw(self.rng("cli", j), j, size)
            op, argv = self._op(size, spec, "estimate")
            cmds.append((argv, op.check))
        return cmds


# ---------------------------------------------------------------------------

class WalkMC(Workload):
    name = "walk_mc"
    why = ("Monte Carlo escape walks (energynet walk, 1e5 samples) on binary_tree:8: "
           "randwalk only, bypasses the Gram and eigen code")
    FULL = {"depth": 8, "samples": 100_000, "cli_count": 1}
    TOY = {"depth": 3, "samples": 1000, "cli_count": 1}

    def _op(self, rng):
        # Start vertices are leaves: every op then does the same work in
        # distribution, so a few ops per run give comparable medians (the
        # cost of an excursion depends strongly on the start depth).
        d, samples = self.cfg["depth"], self.cfg["samples"]
        leaf = rng.randint(2**d - 1, 2 ** (d + 1) - 2)
        argv = ["walk", "--gen", f"binary_tree:{d}", "--vertex", str(leaf),
                "--samples", str(samples), "--seed", str(rng.randrange(2**31)),
                "--format", "json"]
        exact = 1.0 / ref.point_mass_norm("binary_tree", d, leaf) ** 2  # c R P = 1

        def check(res):
            doc, why = _cli_doc(res, 0)
            if doc is None:
                return why
            if doc["cap_hits"] != 0 or doc["samples"] != samples:
                return f"cap_hits {doc['cap_hits']}, samples {doc['samples']}"
            if doc["identity_residual"] > 1e-9:
                return f"identity residual {doc['identity_residual']!r}"
            if not _close(doc["exact"], exact, 1e-9):
                return f"exact {doc['exact']!r}, reference {exact!r}"
            # statistical: holds for any random stream, not one fixed number
            if abs(doc["mc_estimate"] - exact) > 5 * doc["mc_stderr"]:
                return f"MC {doc['mc_estimate']!r} +- {doc['mc_stderr']!r} vs {exact!r}"
            return None

        return Op("walk", lambda ctx: call_cli(argv), check), argv

    def session(self, i):
        return [self._op(self.rng(i))[0]]

    def cli_commands(self):
        cmds = []
        for j in range(self.cfg["cli_count"]):
            op, argv = self._op(self.rng("cli", j))
            cmds.append((argv, op.check))
        return cmds


# ---------------------------------------------------------------------------

class FsetSessions(Workload):
    name = "fset_sessions"
    why = ("library sessions of F-local queries on one network each: a cold 100-vertex "
           "Gram, warm kernel reuse, and one restricted_norm that pays full_gram")
    # Every session has the same mix of queries; the seed picks their order,
    # the vertices and the multiplier.  Warm Grams reuse vertices queried
    # before, so their cost is set by their size; kernel builds come from the
    # cold Gram, the kernel queries at new vertices and full_gram.  A fixed
    # mix keeps medians comparable across seeds when a run holds only two or
    # three sessions.  Half the warm Grams share one size, so the median op
    # is one of them, not a microsecond cache lookup or a size boundary.
    FULL = {"families": (("integer_segment", 1000), ("binary_tree", 9), ("cycle", 1000)),
            "f0": 100, "grams": (10, 25) + (50,) * 10 + (75, 100),
            "sqrt": (25, 75, 100), "kernel_hits": 2, "kernel_builds": 1, "point_mass": 2,
            "rn": 20, "cli": ("integer_segment", 1000), "cli_count": 5}
    TOY = {"families": (("integer_segment", 60), ("binary_tree", 4), ("cycle", 60)),
           "f0": 12, "grams": (3, 5, 8, 8, 8, 12), "sqrt": (5, 12),
           "kernel_hits": 2, "kernel_builds": 1, "point_mass": 2, "rn": 5,
           "cli": ("integer_segment", 60), "cli_count": 1}

    def session(self, i):
        cfg = self.cfg
        rng = self.rng(i)
        # families rotate, so runs of equal length see the same family mix
        family, size = cfg["families"][i % 3]
        xs = [int(x) for x in ref.vertices_x(family, size)]
        F0 = rng.sample(xs, cfg["f0"])
        seen, unseen = list(F0), sorted(set(xs) - set(F0))
        rng.shuffle(unseen)

        def cold(ctx):
            ctx["net"] = network.generate(family, size)
            return energy.gram_matrix(ctx["net"], F0)

        plan = ([("gram", k, k in cfg["sqrt"]) for k in cfg["grams"]]
                + [("kernel", True)] * cfg["kernel_hits"]
                + [("kernel", False)] * cfg["kernel_builds"]
                + [("point_mass",)] * cfg["point_mass"] + [("restricted_norm",)])
        rng.shuffle(plan)
        ops = [Op("gram.cold", cold, self._gram_check(family, size, F0, False))]
        for q in plan:
            if q[0] == "gram":
                _, k, sqrt = q
                F = rng.sample(seen, k)
                ops.append(Op("gram.warm", self._gram_run(F, sqrt),
                              self._gram_check(family, size, F, sqrt)))
            elif q[0] == "kernel":
                if q[1]:
                    x = rng.choice(seen)
                else:
                    x = unseen.pop()
                    seen.append(x)
                ops.append(self._kernel(family, size, x))
            elif q[0] == "point_mass":
                ops.append(self._point_mass(family, size, rng.choice(seen)))
            else:
                F = rng.sample(seen, rng.randint(1, cfg["rn"]))
                spec = f"delta:{rng.choice(F)}" if rng.random() < 0.5 else \
                    f"kernel:{rng.choice(seen)}"
                ops.append(self._restricted_norm(family, size, F, spec))
        return ops

    @staticmethod
    def _gram_run(F, sqrt):
        def run(ctx):
            gm = energy.gram_matrix(ctx["net"], F)
            return gm, (gm.sqrt() if sqrt else None)
        return run

    @staticmethod
    def _gram_check(family, size, F, sqrt):
        def check(res):
            gm, root = res if isinstance(res, tuple) else (res, None)
            want = ref.gram(family, size, F)
            scale = max(1.0, float(np.abs(want).max()))
            if tuple(gm.F) != tuple(F):
                return "Gram rows are not in the order of F"
            err = float(np.abs(gm.V.a - want).max())
            if err > 1e-9 * scale:
                return f"Gram max error {err:.3e} on {family}:{size}"
            if sqrt:
                a = root.a
                resid = float(np.abs(a @ a - want).max())
                if resid > 1e-8 * scale or float(np.abs(a - a.T).max()) > 1e-8 * scale:
                    return f"sqrt residual {resid:.3e}"
            return None
        return check

    @staticmethod
    def _kernel(family, size, x):
        def run(ctx):
            net = ctx["net"]
            return net, energy.energy_kernel(net, x), energy.effective_resistance(net, x)

        def check(res):
            net, v, r = res
            want = ref.kernel(family, size, x, np.array(net.vertices))
            err = float(np.abs(v.values - want).max())
            if err > 1e-9 * max(1.0, float(want.max())):
                return f"kernel v_{x} max error {err:.3e}"
            if not _close(r, ref.resistance(family, size, x), 1e-9):
                return f"R({x}) = {r!r}"
            return None
        return Op("kernel", run, check)

    @staticmethod
    def _point_mass(family, size, x):
        want = ref.point_mass_norm(family, size, x)

        def check(res):
            return None if _close(res, want, 1e-9) else f"point-mass norm {res!r} vs {want!r}"
        return Op("point_mass_norm", lambda ctx: multop.point_mass_norm(ctx["net"], x), check)

    @staticmethod
    def _restricted_norm(family, size, F, spec):
        kind, _, arg = spec.partition(":")

        def run(ctx):
            net = ctx["net"]
            m = (multop.Multiplier.delta(net, int(arg)) if kind == "delta"
                 else multop.Multiplier.from_kernel(net, int(arg)))
            return multop.restricted_norm(m, F)

        lo = float(np.abs(ref.multiplier_values(family, size, spec, F)).max())
        hi = ref.upper_reference(family, size, spec)
        want = ref.restricted_norm(family, size, spec, F)

        def check(rho):
            if rho < lo * (1 - 1e-9) - 1e-12 or rho > hi * (1 + 1e-9) + 1e-12:
                return f"rho_F={rho!r} for {spec}, |F|={len(F)} outside [{lo!r}, {hi!r}]"
            if not _close(rho, want, 1e-7):
                return f"rho_F={rho!r} for {spec}, |F|={len(F)}; reference pencil gives {want!r}"
            return None
        return Op("restricted_norm", run, check)

    def cli_commands(self):
        family, size = self.cfg["cli"]
        xs = [int(x) for x in ref.vertices_x(family, size)]
        cmds = []
        for j in range(self.cfg["cli_count"]):
            F = self.rng("cli", j).sample(xs, self.cfg["f0"])
            argv = ["gram", "--gen", f"{family}:{size}", "--F", ",".join(map(str, F)),
                    "--format", "json"]
            cmds.append((argv, self._cli_gram_check(family, size, F)))
        return cmds

    @staticmethod
    def _cli_gram_check(family, size, F):
        def check(res):
            doc, why = _cli_doc(res, 0)
            if doc is None:
                return why
            if doc["F"] != [str(x) for x in F]:
                return "Gram rows are not in the order of F"
            want = ref.gram(family, size, F)
            err = float(np.abs(np.array(doc["V"]) - want).max())
            return None if err <= 1e-9 * max(1.0, float(want.max())) else f"Gram error {err:.3e}"
        return check


WORKLOADS = {w.name: w for w in (MultEstimate, FsetSessions, WalkMC)}
