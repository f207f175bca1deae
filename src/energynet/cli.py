"""Command-line interface.

Subcommands: kernel, gram, mult, walk, banach.  Networks come either from a
generator spec (--gen path:3) or a file (--net graph.json / graph.csv with
--origin).  Exit codes: 0 pass, 1 certified failure, 2 error, 3 internal
error (an invariant check failed).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import energy, multop, network, randwalk
from .errors import EnergyNetError, InvalidInput, InvariantViolation
from .network import _parse_vertex
from .numkernel import matmul


def _build_net(args):
    gen, path, origin = (getattr(args, k, None) for k in ("gen", "net", "origin"))
    if gen and path:
        raise EnergyNetError("use exactly one of --gen and --net")
    if gen:
        if origin is not None:
            raise InvalidInput("--origin is for CSV networks; a generated network has origin 0")
        family, _, size = gen.partition(":")
        if not size:
            raise EnergyNetError(f"generator spec {gen!r} needs a size, e.g. path:3")
        try:
            size = int(size)
        except ValueError:
            raise InvalidInput(f"generator size {size!r} is not an integer") from None
        return network.generate(family, size)
    if path:
        try:
            return network.load_network(path, origin=origin)
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidInput(f"cannot read network file {path!r}: {exc}") from None
    raise EnergyNetError("a network source is required: --gen or --net")


def _number(tok):
    """A finite number from a command-line token, JSON number or [re, im]."""
    parts = tok if isinstance(tok, list) else [tok]
    try:
        if any(isinstance(t, bool) for t in parts):  # JSON true is not the number 1
            raise TypeError
        z = complex(*parts)
    except (TypeError, ValueError):
        raise InvalidInput(f"{tok!r} is not a number") from None
    if not np.isfinite(z):
        raise InvalidInput(f"{tok!r} is not a finite number")
    return z


def _parse_multiplier(net, spec, file_key="f"):
    """Multiplier of delta:<v> | kernel:<v> | const:<c> | file:<path>; a file
    maps vertices to numbers or [re, im] pairs under file_key."""
    kind, _, arg = spec.partition(":")
    if kind == "delta":
        return multop.Multiplier.delta(net, _parse_vertex(arg))
    if kind == "kernel":
        return multop.Multiplier.from_kernel(net, _parse_vertex(arg))
    if kind == "const":
        return multop.Multiplier.constant(net, _number(arg))
    if kind == "file":
        try:
            with open(arg) as fh:
                items = json.load(fh)[file_key].items()
        except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
            raise InvalidInput(f"cannot read {file_key!r} from {arg!r}: {exc}") from None
        return multop.Multiplier.from_dict(net, {_parse_vertex(k): _number(v) for k, v in items})
    raise EnergyNetError(f"unknown spec {spec!r}")


def _parse_vector(net, spec):
    """The grounded vector of a multiplier spec; its energy must be finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        u = energy.ground(net, _parse_multiplier(net, spec, "values").f)
    if not np.isfinite(u.energy):
        raise InvalidInput(f"vector {spec!r} has no finite energy: {u.energy!r}")
    return u


def _parse_exhaustion(net, spec):
    xs = net.x_vertices
    if spec is None or spec == "all":
        return multop.default_exhaustion(net)
    try:
        sizes = sorted({int(tok) for tok in spec.split(",")})
    except ValueError:
        raise InvalidInput(f"exhaustion sizes {spec!r} are not integers") from None
    if any(s < 1 or s > len(xs) for s in sizes):
        raise EnergyNetError(f"exhaustion sizes must lie in 1..{len(xs)}")
    return [tuple(xs[:s]) for s in sizes]


def _emit(doc, fmt, csv_rows=None):
    """Print doc as JSON, pretty text or CSV.  CSV is the command's table
    (csv_rows), or else key,value rows of the document's scalar entries."""
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True))
    elif fmt == "csv":
        if csv_rows is None:
            csv_rows = [("key", "value")] + [
                (k, v) for k, v in doc.items() if not isinstance(v, (dict, list))
            ]
        csv.writer(sys.stdout, lineterminator="\n").writerows(csv_rows)
    else:
        _pretty(doc)
    sys.stdout.flush()  # a closed pipe raises here, inside main, not at interpreter exit


def _fmt6(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, list) and all(isinstance(c, (int, float)) for c in v):
        return "[" + ", ".join(_fmt6(float(c)) for c in v) + "]"
    return str(v)


def _pretty(doc, indent=0):
    pad = " " * indent
    for key, val in doc.items():
        if isinstance(val, dict):
            print(f"{pad}{key}:")
            _pretty(val, indent + 2)
        elif isinstance(val, list) and val and isinstance(val[0], (list, dict)):
            print(f"{pad}{key}:")
            for item in val:
                if isinstance(item, dict):
                    _pretty(item, indent + 2)
                else:
                    print(f"{pad}  {_fmt6(item)}")
        else:
            print(f"{pad}{key}: {_fmt6(val) if not isinstance(val, bool) else val}")


def cmd_kernel(args):
    net = _build_net(args)
    x = _parse_vertex(args.vertex)
    vx = energy.energy_kernel(net, x)
    doc = {"command": "kernel", "vertex": x}
    rows = [("vertex", "value")] + [(v, vx[v]) for v in net.vertices]
    if net.index(x) == net.origin_index:
        doc.update({"note": "v_o is the zero class", "values": {str(v): 0.0 for v in net.vertices}})
        _emit(doc, args.format, csv_rows=rows)
        return 0
    r = float(vx[x])  # R(x) = v_x(x)
    s = energy.sup_norm(vx)
    doc.update(
        {
            "values": {str(v): float(vx[v]) for v in net.vertices},
            "R": r,
            "sup_norm": s,
            # sup|v_x| <= R(x) holds exactly; allow rounding relative to R
            "bound_ok": bool(s <= r * (1 + 1e-9)),
        }
    )
    _emit(doc, args.format, csv_rows=rows)
    return 0 if doc["bound_ok"] else 1


def cmd_gram(args):
    net = _build_net(args)
    F = [_parse_vertex(t) for t in args.F.split(",")]
    gm = energy.gram_matrix(net, F)
    doc = {"command": "gram", "F": [str(v) for v in gm.F], "V": gm.V.tolist()}
    rows = [["x", *doc["F"]]] + [[x, *row] for x, row in zip(doc["F"], doc["V"])]
    if args.sqrt:
        root = gm.sqrt()
        doc["sqrt"] = root.tolist()
        doc["sqrt_residual"] = float(np.abs(matmul(root, root) - gm.V).max())
        rows += [["sqrt", *doc["F"]]] + [[x, *row] for x, row in zip(doc["F"], doc["sqrt"])]
    _emit(doc, args.format, csv_rows=rows)
    return 0


def cmd_mult(args):
    net = _build_net(args)
    m = _parse_multiplier(net, args.f)
    exhaustion = _parse_exhaustion(net, args.exhaust)
    report = multop.analyze(m, exhaustion, bound=args.bound)
    doc = report.to_json_dict()
    doc["command"] = "mult"
    if not args.trace:
        doc["lower_trace"] = doc["lower_trace"][-1:]
    rows = [("F_size", "rho")] + [(n, r) for n, r in doc["lower_trace"]]
    _emit(doc, args.format, csv_rows=rows)
    return 1 if doc["verdict"].startswith("FAIL") else 0


def cmd_walk(args):
    net = _build_net(args)
    x = _parse_vertex(args.vertex)
    if not 0 <= args.seed < 2**128:
        raise InvalidInput(f"--seed {args.seed} is outside [0, 2**128)")
    est = randwalk.escape_prob_mc(net, x, args.samples, args.seed)
    identity = (
        network.total_conductance(net, x) * energy.effective_resistance(net, x) * est.exact
    )
    doc = est.to_json_dict()
    doc["command"] = "walk"
    doc["x"] = str(doc["x"])
    doc["identity_residual"] = abs(identity - 1.0)
    _emit(doc, args.format)
    return 0 if doc["identity_residual"] <= 1e-9 else 1


def cmd_banach(args):
    net = _build_net(args)
    doc = {"command": "banach"}
    if args.u2 is not None:
        u1 = _parse_vector(net, args.u)
        u2 = _parse_vector(net, args.u2)
        prod, est = energy.pointwise_product(u1, u2)
        doc.update(
            {
                "product_energy_sq": est.product_energy_sq,
                "bound": est.bound,
                "slack": est.slack,
                "pass": bool(est.slack >= -1e-9),
                "banach_norm": energy.banach_norm(prod),
            }
        )
        _emit(doc, args.format)
        return 0
    u = _parse_vector(net, args.u)
    doc.update(
        {
            "sup_norm": energy.sup_norm(u),
            "energy_norm": float(np.sqrt(u.energy)),
            "banach_norm": energy.banach_norm(u),
        }
    )
    _emit(doc, args.format)
    return 0


def _add_net_args(p):
    p.add_argument("--gen", help="generator spec, e.g. path:3, integer_segment:8")
    p.add_argument("--net", help="network file (JSON, or CSV with --origin)")
    p.add_argument("--origin", help="origin vertex for CSV input")
    p.add_argument("--format", choices=["json", "csv", "pretty"], default="pretty")


def build_parser():
    parser = argparse.ArgumentParser(prog="energynet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="energy-kernel element and resistance at a vertex")
    _add_net_args(p)
    p.add_argument("--vertex", required=True)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("gram", help="kernel Gram matrix over a vertex list")
    _add_net_args(p)
    p.add_argument("--F", required=True, help="comma-separated vertex list")
    p.add_argument("--sqrt", action="store_true", help="also emit the psd square root")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("mult", help="multiplication-operator norm analysis")
    _add_net_args(p)
    p.add_argument("--f", required=True, help="delta:<v> | kernel:<v> | const:<c> | file:<p>")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--bound", type=float, help="certify at this bound")
    mode.add_argument("--estimate", action="store_true", help="estimate the norm (the default)")
    p.add_argument("--trace", action="store_true", help="emit the full lower trace")
    p.add_argument("--exhaust", help="comma-separated prefix sizes, or 'all'")
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("walk", help="escape probability, exact and Monte Carlo")
    _add_net_args(p)
    p.add_argument("--vertex", required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("banach", help="algebra norms and the product estimate")
    _add_net_args(p)
    p.add_argument("--u", required=True, help="kernel:<v> | delta:<v> | const:<c> | file:<p>")
    p.add_argument("--u2", help="second vector: report the product estimate")
    p.set_defaults(func=cmd_banach)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader left early; devnull spares the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output stream closed early", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except EnergyNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a dense matrix too large for this machine
        print(f"error: out of memory: {exc or 'allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
