"""Trace the restricted multiplication-operator norm along nested prefixes.

For a multiplier f on an integer segment, prints rho_F over F = {1..m} as m
grows, for several segment lengths.  Useful for seeing whether the norm of
M_f saturates (bounded multiplier) or keeps climbing.

Usage:
    python scripts/norm_growth.py --f kernel:5 --sizes 40,80,160 --step 5
"""

import argparse

import energynet as en
from energynet.cli import _parse_multiplier
from energynet.multop import restricted_norm, sufficiency_bound


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--f", default="kernel:5", help="kernel:<v> | delta:<v> | const:<c>")
    ap.add_argument("--sizes", default="40,80,160", help="segment lengths, comma-separated")
    ap.add_argument("--step", type=int, default=5, help="prefix-size stride in the trace")
    args = ap.parse_args()

    for n in (int(t) for t in args.sizes.split(",")):
        seg = en.generate("integer_segment", n)
        m = _parse_multiplier(seg, args.f)
        print(f"\ninteger_segment({n}), f = {args.f}")
        print(f"  sufficiency upper bound: {sufficiency_bound(m):.9g}")
        prev = None
        for k in list(range(args.step, n, args.step)) + [n]:
            rho = restricted_norm(m, tuple(range(1, k + 1)))
            delta = "" if prev is None else f"  ({rho - prev:+.3e})"
            print(f"  m = {k:4d}   rho_F = {rho:.12g}{delta}")
            prev = rho


if __name__ == "__main__":
    main()
