"""A 60-digit reference for the grounded kernel, on mpmath.

L_X is the grounded Laplacian, the block of the Laplacian on X = G \\ {o}.
Its inverse is the kernel Gram matrix V_X, so R(x) = (L_X^{-1})_xx is the
effective resistance and P[x -> o] = 1 / (c(x) R(x)) the escape probability,
with c(x) = (L_X)_xx.  Each conductance enters as the exact binary value of
its float, so the only error is that of the 60-digit arithmetic.
"""

import mpmath
import numpy as np

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


def tree_kernel(net):
    """The kernel of a tree network in closed form: v_x(y) = r(x ^ y), where
    x ^ y is the last vertex shared by the paths from o to x and to y, and
    r(z) is the sum of 1/c_e over the path from o to z.

    Returns (r, depth, column) by dense index: r and depth (edges from o) as
    arrays, and column(i), the values of v_x over all vertices for the x of
    dense index i.  r is a sum of positive terms, so its relative error is
    at most depth * eps.  The parent array and r come from one pass over the
    edges, which must each join a vertex already reached from o to a new
    one, as the generators and random_network(..., extra_edges=0) list them.
    """
    o = net.origin_index
    parent, depth, r = [-1] * net.n, [0] * net.n, [0.0] * net.n
    reached, order = {o}, [o]
    for i, j, w in zip(net.edge_i.tolist(), net.edge_j.tolist(), net.edge_w.tolist()):
        if j in reached:
            i, j = j, i
        if i not in reached or j in reached:
            raise ValueError(f"edge ({i}, {j}) does not join a reached vertex to a new one")
        reached.add(j)
        order.append(j)
        parent[j], depth[j], r[j] = i, depth[i] + 1, r[i] + 1.0 / w
    if len(reached) != net.n:
        raise ValueError("the edges do not span the network")

    def column(i):
        on_path = set()
        while i != -1:
            on_path.add(i)
            i = parent[i]
        v = [0.0] * net.n
        for z in order[1:]:  # parents before children
            v[z] = r[z] if z in on_path else v[parent[z]]
        return np.array(v)

    return np.array(r), np.array(depth), column
