"""Closed-form references for every output the benchmark checks.

All generated networks have unit conductances and origin 0:

- integer_segment:n   vertices 0..n,        V(x, y) = min(x, y)
- cycle:n             vertices 0..n-1,      V(x, y) = min(x, y) (n - max(x, y)) / n
- binary_tree:d       heap-ordered, 2^(d+1) - 1 vertices,
                      V(x, y) = depth(lca(x, y))

R(x) = V(x, x), and the point-mass norm is ||M_delta_x|| = sqrt(c(x) R(x)).
These are computed here from the vertex ids alone, never through energynet.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# ||M_f|| for f = v_5 on integer_segment:n, for every n >= 20: the Dirac-basis
# pencil (D L D, L) gives the same value at n = 20, 40, 160, 640 and 2560.
KERNEL5_SEGMENT_NORM = 5.94858521
KERNEL5_TOL = 1e-8  # the constant carries eight decimals


def vertices_x(family, size):
    """Vertex ids of X = G \\ {o}, in vertex order."""
    last = {"integer_segment": size, "cycle": size - 1, "binary_tree": 2 ** (size + 1) - 2}
    return np.arange(1, last[family] + 1)


def tree_depth(v):
    return np.frexp(np.asarray(v) + 1)[1] - 1


def _tree_lca_depth(x, y):
    x, y = (a.copy() for a in np.broadcast_arrays(x, y))
    while True:
        ne = x != y
        if not ne.any():
            return tree_depth(x)
        # in heap order the larger of two distinct ids is never shallower
        up_x, up_y = ne & (x > y), ne & (y > x)
        x = np.where(up_x, (x - 1) // 2, x)
        y = np.where(up_y, (y - 1) // 2, y)


def kernel(family, size, x, y):
    """V(x, y) = v_x(y) for broadcastable vertex arrays."""
    x, y = np.asarray(x), np.asarray(y)
    if family == "integer_segment":
        return np.minimum(x, y).astype(float)
    if family == "cycle":
        return np.minimum(x, y) * (size - np.maximum(x, y)) / size
    if family == "binary_tree":
        return _tree_lca_depth(x, y).astype(float)
    raise ValueError(family)


def gram(family, size, F):
    F = np.asarray(F)
    return kernel(family, size, F[:, None], F[None, :])


def conductance(family, size, x):
    x = np.asarray(x)
    if family == "integer_segment":
        return np.where(x == size, 1.0, 2.0)
    if family == "cycle":
        return np.full(x.shape, 2.0)
    if family == "binary_tree":
        d = tree_depth(x)
        return np.where(d == 0, 2.0, np.where(d == size, 1.0, 3.0))
    raise ValueError(family)


def resistance(family, size, x):
    return kernel(family, size, x, x)


def point_mass_norm(family, size, x):
    return float(np.sqrt(conductance(family, size, x) * resistance(family, size, x)))


def multiplier_values(family, size, spec, xs):
    """f on the vertex array xs for a CLI multiplier spec."""
    kind, _, arg = spec.partition(":")
    xs = np.asarray(xs)
    if kind == "kernel":
        return kernel(family, size, int(arg), xs)
    if kind == "delta":
        return (xs == int(arg)).astype(float)
    if kind == "const":
        return np.full(xs.shape, float(arg))
    raise ValueError(spec)


def sufficiency_bound(family, size, spec):
    """sum over X of |f(x)| sqrt(c(x) R(x)), an upper bound for ||M_f||."""
    xs = vertices_x(family, size)
    f = multiplier_values(family, size, spec, xs)
    c, r = conductance(family, size, xs), resistance(family, size, xs)
    return float(np.sum(np.abs(f) * np.sqrt(c * r)))


def norm(family, size, spec):
    """Closed-form ||M_f|| where one is known (segment kernel:5, delta, const)."""
    kind, _, arg = spec.partition(":")
    if kind == "kernel" and family == "integer_segment" and int(arg) == 5:
        return KERNEL5_SEGMENT_NORM
    if kind == "delta":
        return point_mass_norm(family, size, int(arg))
    if kind == "const":
        return abs(float(arg))
    return None


def upper_reference(family, size, spec):
    """The bound every restricted norm must respect: the point-mass norm for
    delta:x, the sufficiency bound otherwise."""
    if spec.startswith("delta:"):
        return norm(family, size, spec)
    return sufficiency_bound(family, size, spec)


def restricted_norm(family, size, spec, F):
    """rho_F: square root of the top eigenvalue of the pencil (D V D*, V) on
    the closed-form Gram matrix of F (real multipliers only)."""
    V = gram(family, size, F)
    f = multiplier_values(family, size, spec, F)
    lam = scipy.linalg.eigh(np.outer(f, f) * V, V, eigvals_only=True)[-1]
    return float(np.sqrt(max(lam, 0.0)))
