"""A 60-digit reference for the grounded kernel, on mpmath.

L_X is the grounded Laplacian, the block of the Laplacian on X = G \\ {o}.
Its inverse is the kernel Gram matrix V_X, so R(x) = (L_X^{-1})_xx is the
effective resistance and P[x -> o] = 1 / (c(x) R(x)) the escape probability,
with c(x) = (L_X)_xx.  Each conductance enters as the exact binary value of
its float, so the only error is that of the 60-digit arithmetic.
"""

import mpmath

DPS = 60


def grounded_laplacian(net):
    """L_X at DPS digits, rows and columns in the order of net.x_index."""
    pos = {i: k for k, i in enumerate(net.x_index.tolist())}
    with mpmath.workdps(DPS):
        L = mpmath.zeros(len(pos))
        for i, j, w in zip(net.edge_i.tolist(), net.edge_j.tolist(), net.edge_w.tolist()):
            for a, b in ((i, j), (j, i)):
                if a in pos:
                    L[pos[a], pos[a]] += w
                    if b in pos:
                        L[pos[a], pos[b]] -= w
    return L


def kernel_gram(net):
    """V_X = L_X^{-1} at DPS digits, rows and columns in the order of net.x_index."""
    with mpmath.workdps(DPS):
        return grounded_laplacian(net) ** -1


def resistances_and_escapes(net):
    """({x: R(x)}, {x: P[x -> o]}) over X, at DPS digits."""
    L = grounded_laplacian(net)
    V = kernel_gram(net)
    with mpmath.workdps(DPS):
        R = {x: V[k, k] for k, x in enumerate(net.x_vertices)}
        P = {x: 1 / (L[k, k] * R[x]) for k, x in enumerate(net.x_vertices)}
    return R, P


def rel_err(value, exact):
    """|value - exact| / |exact| as a float, for a float value."""
    with mpmath.workdps(DPS):
        return float(abs(mpmath.mpf(value) - exact) / abs(exact))


def restricted_norm(net, F, values):
    """rho_F = ||M_f* restricted to span{v_x : x in F}|| at DPS digits, for
    f taking the given values on F: sigma_max(C D* C^{-1}), with
    V_F = C^T C the kernel Gram matrix over F and D = diag(values)."""
    V = kernel_gram(net)
    pos = {i: k for k, i in enumerate(net.x_index.tolist())}
    rows = [pos[net.index(x)] for x in F]
    with mpmath.workdps(DPS):
        C = mpmath.cholesky(mpmath.matrix([[V[i, j] for j in rows] for i in rows])).T
        T = C * mpmath.diag([mpmath.conj(mpmath.mpmathify(v)) for v in values]) * C**-1
        return max(mpmath.svd(T, compute_uv=False))
