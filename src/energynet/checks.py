"""Checks of the paper's identities, which no CLI command runs: the
reproducing and Laplacian pairings, the Hermitian defect, the rank-one forms
M_x = |delta_x><v_x|, the normalized projections, truncation consistency and
bisect_bound.  No production module imports this one.

The operator checks work in l2 coordinates: a grounded u is written as
W^T u|X, with L_X = W W^T the network's grounded factor, an isometry under
which energy adjoints are conjugate transposes (dense, O(n^3)).  Kernel columns have rows on X."""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .energy import (
    _gram_and_columns,
    delta,
    effective_resistance,
    energy_form,
    energy_kernel,
    ground,
    kernel_columns,
)
from .errors import InsufficientEnclosure, InvalidInput, NetworkMismatch
from .multop import _nested_levels, _nested_order, _require_in_X, apply
from .network import laplacian_apply, total_conductance


def reproducing_check(net, x, u):
    """|<v_x, u> - u(x)| for the grounded representative of u."""
    vx = energy_kernel(net, x)
    return float(abs(energy_form(vx, u) - u.values[net.index(x)]))


def lap_pairing_check(net, x, u):
    """|<delta_x, u> - (laplacian u)(x)|."""
    dx = delta(net, x)
    lap = laplacian_apply(net, u)
    return float(abs(energy_form(dx, u) - lap.values[net.index(x)]))


def hermitian_defect(m, u, v):
    """<M u, v> - <u, M v>; zero for all pairs iff f is constant real."""
    return energy_form(apply(m, u), v) - energy_form(u, apply(m, v))


def _iso(net, rows):
    """W^T u|X for L_X = W W^T: an isometry of the energy space onto l2, for
    the values u|X of one grounded function or one per column, rows on X."""
    return net.grounded_factor.T @ rows


def _mult_matrix(net, f):
    """M_f in l2 coordinates, W^T diag(f|X) W^{-T}; its energy adjoint is
    the conjugate transpose."""
    W = net.grounded_factor
    Winv_t = scipy.linalg.solve_triangular(W, np.eye(net.n - 1), trans="T")
    return (W.T * f[net.x_index]) @ Winv_t


def _ket(a, b):
    """|a><b| for l2 coordinate vectors a, b."""
    return np.outer(a, np.conj(b))


def _worst(D, Y):
    """max over the columns y of Y of ||D y|| / (1 + ||y||)."""
    return float(np.max(np.linalg.norm(D @ Y, axis=0) / (1.0 + np.linalg.norm(Y, axis=0))))


def rank_one_identities(net, x, y):
    """Check M_x = |delta_x><v_x| and the product relations
    M_x* M_y = <d_x, d_y> |v_x><v_y| and M_x M_y* = <v_x, v_y> |d_x><d_y|
    on the kernel basis.  Returns the maximum relative energy-norm
    discrepancy."""
    _require_in_X(net, x, y)
    K = kernel_columns(net, net.x_index)
    cols = K[:, net.x_position([net.index(x), net.index(y)])]
    vx, vy = (ground(net, c) for c in np.insert(cols, net.origin_index, 0.0, axis=0).T)
    deltax, deltay = delta(net, x), delta(net, y)
    Y = _iso(net, K)
    kvx, kvy, kdx, kdy = (_iso(net, u.values[net.x_index]) for u in (vx, vy, deltax, deltay))

    Mx, My = _mult_matrix(net, deltax.values), _mult_matrix(net, deltay.values)
    dd = energy_form(deltax, deltay)
    vv = energy_form(vx, vy)
    pairs = [
        (Mx, _ket(kdx, kvx)),
        (Mx.conj().T, _ket(kvx, kdx)),
        (Mx.conj().T @ My, dd * _ket(kvx, kvy)),
        (Mx @ My.conj().T, vv * _ket(kdx, kdy)),
    ]
    return max(_worst(lhs - rhs, Y) for lhs, rhs in pairs)


def normalized_projections(net, x, y):
    """Verify the unit rank-one projections U_x = |u_x><u_x| (kernel
    direction) and D_x = |d_x><d_x| (Dirac direction): idempotence, the
    escape-probability scalings against M_x* M_x and M_x M_x*, and the four
    displayed product rules.  Returns the max operator-norm residual."""
    _require_in_X(net, x, y)
    K = kernel_columns(net, [net.index(x), net.index(y)])
    vx, vy = (ground(net, c) for c in np.insert(K, net.origin_index, 0.0, axis=0).T)
    dxv, dyv = delta(net, x), delta(net, y)
    ux, uy, dx, dy = (u * (1.0 / np.sqrt(u.energy)) for u in (vx, vy, dxv, dyv))
    kux, kuy, kdx, kdy = (_iso(net, u.values[net.x_index]) for u in (ux, uy, dx, dy))

    Ux, Uy = _ket(kux, kux), _ket(kuy, kuy)
    Dx, Dy = _ket(kdx, kdx), _ket(kdy, kdy)
    Mx = _mult_matrix(net, dxv.values)

    rx, ry = effective_resistance(net, x), effective_resistance(net, y)
    cx, cy = total_conductance(net, x), total_conductance(net, y)
    p_esc = 1.0 / (cx * rx)
    residuals = [
        Ux @ Ux - Ux,
        Dx @ Dx - Dx,
        Ux - p_esc * (Mx.conj().T @ Mx),
        Dx - p_esc * (Mx @ Mx.conj().T),
        Ux @ Uy - (energy_form(vx, vy) / np.sqrt(rx * ry)) * _ket(kux, kuy),
        Ux @ Dy - energy_form(ux, dy) * _ket(kux, kdy),
        Dx @ Uy - energy_form(dx, uy) * _ket(kdx, kuy),
        Dx @ Dy - (energy_form(dxv, dyv) / np.sqrt(cx * cy)) * _ket(kdx, kdy),
    ]
    return max(float(np.linalg.norm(r, 2)) for r in residuals)


def truncation_consistency(m, F_n, F_m, samples=None):
    """Verify P_n M_f P_n = P_n M_{f|F_m} P_n on sampled vectors (the kernel
    basis by default), where P_n projects onto span{v_x : x in F_n}.  F_m
    must contain F_n and enclose the neighbors of supp(f) inside F_n."""
    net = m.net
    if samples is not None:
        samples = list(samples)
        if any(u.net is not net for u in samples):
            raise NetworkMismatch("multiplier and samples live on different networks")
    (F_n, F_m), order = _nested_order(net, [F_n, F_m])
    gram, K = _gram_and_columns(net, order)  # one solve; F_n's columns lead
    k = len(F_n)
    outer = set(net.index(z) for z in F_m) | {net.origin_index}
    for z in F_n:
        zi = net.index(z)
        if m.f[zi] != 0 and not set(net.indices[net.indptr[zi] : net.indptr[zi + 1]]) <= outer:
            raise InsufficientEnclosure(
                f"neighbors of {z!r} are not contained in F_m; enlarge the outer set"
            )

    # V_{F_n}^{-1} = W_k W_k^T on the leading block of the Gram factor, so
    # C = W_k, upper triangular with C^T V_{F_n} C = I, is Gram-Schmidt in
    # the V metric
    Q = _iso(net, K[:, :k]) @ gram.W[:k, :k]  # orthonormal columns
    P = Q @ Q.conj().T

    chi = np.zeros(net.n)
    chi[[net.index(z) for z in F_m]] = 1.0
    D = P @ (_mult_matrix(net, m.f) - _mult_matrix(net, m.f * chi)) @ P
    if samples is None:
        Y = _iso(net, kernel_columns(net, net.x_index))
    else:
        Y = _iso(net, np.column_stack([u.values[net.x_index] for u in samples]))
    return _worst(D, Y)


def bisect_bound(m, exhaustion=None, hi=None, tol=1e-8):
    """Smallest b (to absolute tolerance) at which certify_bound passes on
    the exhaustion, bisected on [0, hi]; hi defaults to sufficiency_bound."""
    certify, _, sufficiency = _nested_levels(m, exhaustion)

    def certified(b):
        return all(v.is_psd for v in certify(b))

    if hi is None:
        hi = sufficiency()
    lo = 0.0
    if certified(lo):
        return lo
    if not certified(hi):
        raise InvalidInput(f"upper bracket {hi} is not certified; widen it")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if certified(mid):
            hi = mid
        else:
            lo = mid
    return hi
