"""The Dirichlet energy form, the reproducing kernel family, effective
resistance, Gram matrices, projections onto Dirac spans, and the norms of
the bounded-function algebra.

Every finite-energy class is stored by its grounded representative (value 0
at the origin), an EnergyVector: the network's one function type,
VertexFunction, plus the cached energy.  Equal classes are compared by their
values (`np.array_equal`), not by `==`, which is identity.

Cost model: each network holds one factor of its grounded Laplacian,
L_X = W W^T with W upper triangular and rows X in the order of
Network.x_index (Network.grounded_factor, built on first use).  Every kernel
query over F is one routine (_kernel): Y = W^{-1} E_F, the Gram matrix
V_F = Y^T Y by one symmetric rank-|F| product, exactly symmetric, and the
kernel columns K = W^{-T} Y, rows on X.  Over a prefix F of X (its first k
vertices, as every exhaustion of the CLI is) Y is W[:k, :k]^{-1} over zeros.
V_F holds its inverse's factor, V_F^{-1} = W_F W_F^T: W[:k, :k] over a
prefix, else from V_F's Cholesky factor.  V_F is cross-checked by the
reproducing identity: against the pairings <v_x, v_y>, symmetric updates of
one |F| x |F| buffer over panels of edges, and off a prefix against K's
rows at F too.  R(x) alone is V_xx, one forward solve (_kernel_diagonal).
Nothing else is cached, no kernel vector per vertex.
Memory: besides W, a Gram matrix over F = X holds V (which is K) and one
more |F| x |F| work array at a time, written in place: Y, then the
cross-check's pairings, on every network.  dsyrk writes V = Y^T Y into V's
own buffer, and its other triangle is mirrored a row panel at a time
(numkernel.PANEL rows).  The cross-check builds the edge differences D one
panel of PANEL edges at a time and adds each panel's D^T D into the
pairings (dsyrk, beta = 1), so no array grows with |E|, and it compares the
pairings with V a row panel at a time, so no whole-matrix numpy expression
makes a temporary.  R(x) makes no n x n array.
The Dirac Gram matrix over F is the Laplacian block on F
(Network.laplacian_block), and a projection onto the Dirac span over F is
one solve against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dtrtri

from .errors import (
    InvalidInput,
    InvariantViolation,
    NetworkMismatch,
    OriginInF,
    UnknownVertex,
)
from .network import VertexFunction, laplacian_apply, require_values
from .numkernel import PANEL, cholesky, matmul, spd_solve, sqrtm_psd, stored


@dataclass(frozen=True, eq=False)
class EnergyVector(VertexFunction):
    """Grounded representative of a finite-energy class, with cached energy."""

    energy: float

    def __add__(self, other):
        _same_net(self, other)
        return ground(self.net, self.values + other.values)

    def __sub__(self, other):
        _same_net(self, other)
        return ground(self.net, self.values - other.values)

    def __mul__(self, scalar):
        return ground(self.net, self.values * scalar)

    __rmul__ = __mul__


def _same_net(u, v):
    if u.net is not v.net:
        raise NetworkMismatch("operands live on different networks")


def _edge_energy(net, uvals, vvals):
    """Sum over edges of c conj(du) dv."""
    du = np.conj(uvals[net.edge_i] - uvals[net.edge_j])
    dv = vvals[net.edge_i] - vvals[net.edge_j]
    return np.sum(net.edge_w * du * dv)


def ground(net, values):
    """Build an EnergyVector: subtract the origin value, compute the energy."""
    vals = np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)
    vals = stored(vals - require_values(net, vals)[net.origin_index])
    energy = float(np.real(_edge_energy(net, vals, vals)))
    return EnergyVector(net, vals, energy)


def zero_vector(net):
    return ground(net, np.zeros(net.n))


def delta(net, x):
    """Dirac mass at x as a grounded energy vector (energy = c(x) for x != o)."""
    vals = np.zeros(net.n)
    vals[net.index(x)] = 1.0
    return ground(net, vals)


def energy_form(u, v):
    """Dirichlet inner product <u, v> = sum over edges of c (u(x)-u(y))~ (v(x)-v(y))."""
    _same_net(u, v)
    out = _edge_energy(u.net, u.values, v.values)
    return complex(out)


def kernel_columns(net, idx):
    """Grounded kernel vectors v_x for the dense indices idx (origin excluded)
    as the columns of an (n-1) x len(idx) array, rows on X (_kernel)."""
    return _kernel(net, idx)[1]


def _kernel(net, idx):
    """(V, K, W_F) for the dense indices idx, origin excluded: V = Y^T Y,
    exactly symmetric, and K = W^{-T} Y, for Y = W^{-1} E_idx; InvalidInput
    on overflow.  Over a prefix of X, Y is W[:k, :k]^{-1} over zeros, V is K's
    first k rows (all of K when F = X) over the block solve W22^T K2 = -W12^T V,
    and W_F = W[:k, :k] (a view), V^{-1} = W_F W_F^T; else W_F is None."""
    W = net.grounded_factor
    n, k = net.n - 1, len(idx)
    prefix = np.array_equal(idx, net.x_index[:k])
    if prefix:
        # a copy: dtrtri's overwrite_c writes even into a read-only view (a 1 x 1
        # W[:1, :1] is contiguous); info is 0, W's diagonal being positive
        Y, _ = dtrtri(np.array(W[:k, :k], order="F"), overwrite_c=1)
        K = np.empty((n, k))
        V = K[:k]
    else:
        Y = _unit_solve(net, idx)
        V = np.empty((k, k))
    # Y^T Y into V's own buffer: dsyrk's upper triangle of the F-ordered V^T
    # is V's lower one, which is then mirrored
    dsyrk(1.0, Y, beta=0.0, c=V.T, trans=1, overwrite_c=1)
    _mirror_lower(V)
    if not prefix:
        _finite(V)
        K = scipy.linalg.solve_triangular(W, Y, trans="T", check_finite=False, overwrite_b=True)
        return stored(V), _finite(K), None
    if k < n:
        del Y
        rhs = matmul(W[:k, k:].T, V)
        np.subtract(0.0, rhs, out=rhs)  # not a unary minus, which makes -0.0
        K[k:] = scipy.linalg.solve_triangular(
            W[k:, k:], rhs, trans="T", check_finite=False, overwrite_b=True
        )
        V = V.copy()  # a kept Gram matrix then holds k x k, not all of K
    return stored(V), _finite(K), W[:k, :k]


def _mirror_lower(V):
    """Copy the square V's lower triangle onto its upper one, in place, a row
    panel at a time: the only temporaries are a panel's source and mask."""
    k = len(V)
    for r in range(0, k, PANEL):
        rows = V[r : r + PANEL, r:]  # entry (i, j) is V[r + i, r + j]
        above = np.arange(k - r) > np.arange(len(rows))[:, None]
        np.copyto(rows, V[r:, r : r + PANEL].T, where=above)


def _unit_solve(net, idx):
    """Y = W^{-1} E_idx, F-ordered: a second solve with Y runs in place."""
    Y = np.zeros((net.n - 1, len(idx)), order="F")
    Y[net.x_position(idx), np.arange(len(idx))] = 1.0
    return scipy.linalg.solve_triangular(net.grounded_factor, Y, check_finite=False, overwrite_b=True)


def _kernel_diagonal(net, idx):
    """R(x) = V_xx for the dense indices idx: Y's squared column norms."""
    Y = _unit_solve(net, idx)
    with np.errstate(over="ignore"):
        return _finite(np.square(Y, out=Y).sum(axis=0))


def _finite(K):
    """K, or InvalidInput if a kernel value overflowed (ill-scaled conductances)."""
    if not np.isfinite(K).all():
        raise InvalidInput("the energy kernel overflows: a kernel value is not finite")
    return K


def energy_kernel(net, x):
    """The reproducing element v_x: solves the dipole equation
    laplacian(v_x) = delta_x - delta_o with v_x(o) = 0.

    Returns the zero vector for x = o.
    """
    xi = net.index(x)
    if xi == net.origin_index:
        return zero_vector(net)
    return ground(net, np.insert(kernel_columns(net, [xi])[:, 0], net.origin_index, 0.0))


def effective_resistance(net, x):
    """R(x) = v_x(x) = E(v_x): voltage drop for a unit current from x to o,
    read as V_xx = ||W^{-1} e_x||^2 (_kernel_diagonal), one forward solve."""
    xi = net.index(x)
    if xi == net.origin_index:
        raise UnknownVertex("effective resistance to the origin itself is undefined")
    return float(_kernel_diagonal(net, [xi])[0])


@dataclass(frozen=True)
class GramMatrix:
    """V_F with V_xy = <v_x, v_y>, over an ordered vertex subset F of X, and
    the upper triangular W with V^{-1} = W W^T: over a prefix of X the
    leading block of the network's factor (that array itself over all of X),
    else the inverse of V's Cholesky factor.  Both are read-only arrays, and V
    is exactly symmetric by construction, as is sqrt()'s root."""

    F: tuple
    V: np.ndarray
    W: np.ndarray

    def sqrt(self):
        return sqrtm_psd(self.V)


def gram_matrix(net, F):
    """Gram matrix of the energy kernel over F (_kernel), cross-checked
    against the reproducing identity <v_x, v_y> = v_y(x) entrywise."""
    return _gram_and_columns(net, F)[0]


def _gram_and_columns(net, F):
    """gram_matrix(net, F) and its kernel columns, rows on X."""
    F, idx = _distinct(net, F)
    if net.origin_index in idx:
        raise OriginInF("the origin cannot appear in F")
    V, K, W = _kernel(net, idx)  # off a prefix V is not K's rows at F: check those too
    bad = _first_mismatch(net, K, V, None if W is not None else K[net.x_position(idx)])
    if bad:
        i, j, what, value = bad
        raise InvariantViolation(
            f"Gram entry ({F[i]!r},{F[j]!r}): {what} {float(value)!r} "
            f"disagrees with the Gram value {float(V[i, j])!r}"
        )
    if W is None:
        # factored here, so positive definiteness is an invariant of the type
        W, _ = dtrtri(cholesky(V))  # info 0: the factor's diagonal is positive
    return GramMatrix(F, V, stored(np.ascontiguousarray(W))), K


def _distinct(net, F):
    """(F as a tuple, its dense indices) for a nonempty F of distinct vertices."""
    F = tuple(F)
    if not F or len(set(F)) != len(F):
        raise InvalidInput("F must be a nonempty list of distinct vertices")
    return F, [net.index(x) for x in F]


def _first_mismatch(net, K, V, values):
    """The first (i, j, what, a_ij) in row-major order, i <= j, where a_ij is
    NaN or differs from V_ij by more than 1e-9 max(1, |a_ij|), for a the
    energy pairings <v_i, v_j> of the real kernel columns K ("inner
    product"), then for a = values unless None ("kernel value"); None if
    none does.  The pairings are D^T D, D the conductance-scaled edge
    differences of K, summed over panels of PANEL edges by rank-PANEL updates
    (BLAS syrk) of one k x k buffer, filling its upper triangle only; a is
    compared with V a row panel at a time."""
    # edge ends on X; v(o) = 0 and D^T D ignores signs: an origin edge is its X end's row
    i, j, o = net.edge_i, net.edge_j, net.origin_index
    a, b = net.x_position(np.where(i == o, j, i)), net.x_position(np.where(j == o, i, j))
    scale = np.sqrt(net.edge_w)
    form = np.zeros((K.shape[1],) * 2, order="F")
    for r in range(0, len(a), PANEL):
        ap, bp = a[r : r + PANEL], b[r : r + PANEL]
        D = K[ap]
        D -= K[bp]
        D[ap == bp] = K[ap[ap == bp]]
        D *= scale[r : r + PANEL, None]
        dsyrk(1.0, D.T, beta=1.0, c=form, overwrite_c=1)  # D.T is Fortran-ordered: no copy
    for what, a in (("inner product", form), ("kernel value", values)):
        if a is None:
            continue
        for r in range(0, len(V), PANEL):
            # the panel's entries on and above the diagonal: (i, j) is (r + i, r + j)
            ap = a[r : r + PANEL, r:]
            err = ap - V[r : r + PANEL, r:]
            np.abs(err, out=err)
            tol = np.abs(ap)
            np.maximum(tol, 1.0, out=tol)
            tol *= 1e-9
            bad = np.argwhere(np.triu(~(err <= tol)))
            if bad.size:
                i, j = bad[0] + r
                return i, j, what, a[i, j]
    return None


def delta_gram(net, F):
    """Matrix of <delta_x, delta_y>: the principal Laplacian submatrix on F."""
    return net.laplacian_block([net.index(x) for x in F])


def fin_projection(net, u, F):
    """Energy-orthogonal projection of u onto span{delta_x : x in F}.

    With F = all vertices the Dirac span is (n-1)-dimensional (delta_o is a
    combination of the others modulo constants), so the origin is dropped.
    """
    idx = _distinct(net, F)[1]
    if len(idx) == net.n:
        idx.remove(net.origin_index)
    coeffs = spd_solve(net.laplacian_block(idx), laplacian_apply(net, u).values[idx])
    vals = np.zeros(net.n, dtype=coeffs.dtype)
    vals[idx] = coeffs
    return ground(net, vals)


def sup_norm(u):
    """Grounded sup norm: sup_x |u(x) - u(o)|."""
    return float(np.abs(u.values).max())


def banach_norm(u):
    """||u||_A = sup norm + energy norm."""
    return sup_norm(u) + float(np.sqrt(u.energy))


@dataclass(frozen=True)
class ProductEstimate:
    product_energy_sq: float
    bound: float

    @property
    def slack(self):
        return self.bound - self.product_energy_sq


def pointwise_product(u1, u2):
    """Grounded pointwise product with the product-energy estimate

        ||u1 u2||_E^2 <= ||u2^2||_inf ||u1||_E^2
                         + 2 ||u1||_inf ||u2||_inf |<u1,u2>|
                         + ||u1^2||_inf ||u2||_E^2.
    """
    _same_net(u1, u2)
    with np.errstate(over="ignore", invalid="ignore"):
        prod = ground(u1.net, u1.values * u2.values)
        s1, s2 = sup_norm(u1), sup_norm(u2)
        bound = (
            s2 * s2 * u1.energy
            + 2 * s1 * s2 * abs(energy_form(u1, u2))
            + s1 * s1 * u2.energy
        )
    est = ProductEstimate(prod.energy, float(bound))
    if not (np.isfinite(est.product_energy_sq) and np.isfinite(est.bound)):
        raise InvalidInput(
            f"the product energy {est.product_energy_sq!r} or its bound {est.bound!r} "
            "is not finite"
        )
    if est.product_energy_sq > est.bound + 1e-9:
        raise InvariantViolation(
            f"product energy {est.product_energy_sq} exceeds its bound {est.bound}"
        )
    return prod, est
