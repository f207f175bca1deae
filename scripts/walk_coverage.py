"""Seed-coverage study for the Monte Carlo escape-probability estimator.

For each seed, runs an independent excursion batch and reports how many
estimates land within 3 standard errors of the exact linear-algebra value,
plus the identity residual c(x) R(x) P[x -> o] - 1.

Usage:
    python scripts/walk_coverage.py --gen path:5 --vertex 2 --seeds 20 --samples 100000
"""

import argparse

import energynet as en
from energynet.cli import _build_net
from energynet.network import _parse_vertex
from energynet.randwalk import escape_prob_exact, escape_prob_mc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gen", default="path:5", help="generator spec, e.g. path:5")
    ap.add_argument("--vertex", default="2")
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--samples", type=int, default=100_000)
    args = ap.parse_args()

    net = _build_net(args)
    x = _parse_vertex(args.vertex)

    exact = escape_prob_exact(net, x)
    identity = en.total_conductance(net, x) * en.effective_resistance(net, x) * exact
    print(f"{args.gen}, x = {x}: exact P = {exact:.9g}, c R P - 1 = {identity - 1:.2e}")

    covered = 0
    for seed in range(args.seeds):
        est = escape_prob_mc(net, x, samples=args.samples, seed=seed)
        z = (est.mc_estimate - exact) / est.mc_stderr if est.mc_stderr else 0.0
        inside = abs(z) <= 3
        covered += inside
        print(f"  seed {seed:3d}: estimate {est.mc_estimate:.6f}  z = {z:+.2f}"
              f"  {'ok' if inside else 'OUTSIDE 3 sigma'}")
    print(f"coverage: {covered}/{args.seeds} within 3 standard errors")


if __name__ == "__main__":
    main()
