"""Multiplication operators on the energy space: pointwise action, adjoints,
restricted norms and psd boundedness certificates over a nested exhaustion
F_1 c ... c F_m (one Gram matrix over F_m and its Cholesky factor for the
whole trace), closed-form point-mass norms, rank-one operator
identities, and truncation consistency checks.

Where matrices are needed, a grounded u is written in l2 coordinates as
R u|X, with L_X = R^T R the network's grounded Cholesky factor: an isometry,
under which energy adjoints are conjugate transposes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dtrmv

from .energy import (
    _gram_and_columns,
    delta,
    effective_resistance,
    energy_form,
    energy_kernel,
    gram_matrix,
    ground,
    kernel_columns,
)
from .errors import (
    InsufficientEnclosure,
    InvalidInput,
    InvariantViolation,
    NetworkMismatch,
    UnknownVertex,
)
from .network import VertexFunction, total_conductance
from .numkernel import SymMatrix, _by_parts, cho_solve, matmul, psd_check, stored, top_eigpair


class Multiplier(VertexFunction):
    """Pointwise multiplier f; the value at the origin is recorded but
    irrelevant after re-grounding."""

    @property
    def f(self):
        return self.values

    @classmethod
    def constant(cls, net, c):
        return cls(net, stored(np.full(net.n, c, dtype=complex)))

    @classmethod
    def from_kernel(cls, net, x):
        """f = v_x as a function (the unbounded-growth example)."""
        return cls(net, energy_kernel(net, x).values)


def _require_in_X(net, *xs):
    if net.origin_index in [net.index(x) for x in xs]:
        raise UnknownVertex("x must lie in X = G \\ {o}")


def apply(m, u):
    """(M_f u)(x) = f(x) u(x), re-grounded."""
    if m.net is not u.net:
        raise NetworkMismatch("multiplier and vector live on different networks")
    return ground(m.net, m.f * u.values)


def adjoint_on_kernel(m, x):
    """M* v_x = conj(f(x)) v_x: the adjoint scales kernel elements by the
    scalar conj(f(x)), not the function conj(f)."""
    _require_in_X(m.net, x)
    return complex(np.conj(m[x])) * energy_kernel(m.net, x)


def hermitian_defect(m, u, v):
    """<M u, v> - <u, M v>; zero for all pairs iff f is constant real."""
    return energy_form(apply(m, u), v) - energy_form(u, apply(m, v))


def _nested_order(net, exhaustion):
    """Checked levels of a nested exhaustion (default_exhaustion if None), F_m in level order."""
    exhaustion = [tuple(F) for F in (default_exhaustion(net) if exhaustion is None else exhaustion)]
    if not exhaustion or not all(F and len(set(F)) == len(F) for F in exhaustion):
        raise InvalidInput("each set F must be a nonempty list of distinct vertices")
    for prev, cur in zip(exhaustion, exhaustion[1:]):
        if not set(prev) <= set(cur):
            raise InvalidInput("exhaustion sets must be nested")
    return exhaustion, tuple(dict.fromkeys(x for F in exhaustion for x in F))


def _nested_levels(m, exhaustion=None):
    """Check a nested exhaustion F_1 c ... c F_m and build V over F_m once,
    ordered level by level (F_1, then F_2 \\ F_1, ...) so that every level is
    a leading block.  Returns (certify, trace, sufficiency).  certify(b) forms
    S = s_matrix(m, b, F_m) once and yields psd_check's verdict on each
    level's leading block, a view of S, failing ones with their witness in
    F's order.  trace() returns (F, rho_F) per level, rho_F = sigma_max(T_k)
    for T = U D* U^{-1}, where V = U^T U is the Gram matrix's Cholesky
    factor and D = diag(f): T is upper triangular and the pencil
    (P_F o V_F, V_F) on a leading k x k block is T_k^H T_k.  T is never
    formed: each level applies T_k^H T_k to vectors through a copy of the
    leading block U_k.  It runs once and then releases U.
    sufficiency() is sufficiency_bound(m), with R(x) = V_xx read on F_m."""
    exhaustion, order = _nested_order(m.net, exhaustion)
    gram = gram_matrix(m.net, order)
    V = gram.V.a
    fv = np.array([m[x] for x in order])
    pos = {x: i for i, x in enumerate(order)}

    def certify(b):
        S = _s(b, fv, V)
        for F in exhaustion:
            # a principal block of a Hermitian matrix is Hermitian: no re-check
            v = psd_check(SymMatrix(S.a[: len(F), : len(F)], S.defect))
            yield v if v.is_psd else replace(v, witness=stored(v.witness[[pos[x] for x in F]]))

    def sufficiency():
        R = np.full(m.net.n, np.nan)
        R[[m.net.index(x) for x in order]] = np.diagonal(V)
        return _sufficiency_bound(m, R)

    def trace():
        nonlocal gram
        U, gram = gram.U, None
        # the trace of g = f / s, with s the power of two at or just below
        # max(|Re f|, |Im f|) over F_m (an exact division, and finite where
        # |f| would overflow): |g| < 2 sqrt(2) keeps T_k^H T_k in range for
        # any finite f, and rho_F(f) = s rho_F(g)
        amax = np.maximum(np.abs(fv.real), np.abs(fv.imag)).max()
        s = float(np.ldexp(1.0, np.frexp(amax)[1] - 1)) if amax else 1.0
        g = fv / s
        out = []
        for F in exhaustion:
            k = len(F)
            Uk, gk = np.asfortranarray(U[:k, :k]), g[:k]
            solve = _by_parts(lambda y: scipy.linalg.solve_triangular(Uk, y, check_finite=False))
            solve_t = _by_parts(
                lambda y: scipy.linalg.solve_triangular(Uk, y, trans="T", check_finite=False)
            )
            mul = _by_parts(lambda y: dtrmv(Uk, y))
            mul_t = _by_parts(lambda y: dtrmv(Uk, y, trans=1))
            # the top eigenpair of T_k^H T_k, from T_k = U_k D_k* U_k^{-1} and
            # T_k^H = U_k^{-T} D_k U_k^T applied to vectors: T_k is never formed
            lam, q = top_eigpair(lambda x: solve_t(gk * mul_t(mul(np.conj(gk) * solve(x)))), k)
            xi = solve(q)
            xi /= np.linalg.norm(xi)
            Vk, d = np.asfortranarray(V[:k, :k]), np.diagonal(V)[:k]
            resid = np.linalg.norm(gk * matmul(Vk, np.conj(gk) * xi) - lam * matmul(Vk, xi))
            # diagonal entries of psd matrices bound their spectral norms below
            scale = np.max(np.abs(gk) ** 2 * d) + abs(lam) * d.max()
            if resid > 1e-8 * max(scale, 1e-300):
                raise InvariantViolation(
                    f"pencil residual {resid:.3e} exceeds tolerance at |F| = {k}"
                )
            out.append((F, s * float(np.sqrt(max(lam, 0.0)))))
        return out

    return certify, trace, sufficiency


def _s(b, fv, V):
    """S = (b^2 - f(x) conj(f(y))) V_xy, in the order of fv and V."""
    if not (b >= 0 and np.isfinite(b)):
        raise InvalidInput(f"b must be finite and nonnegative: {float(b)!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        S = (b * b - np.outer(fv, np.conj(fv))) * V
    if not np.isfinite(S).all():
        raise InvalidInput(
            f"the certificate matrix (b^2 - f f*) V overflows at the finite b = {float(b)!r}"
        )
    return SymMatrix.from_array(S, tol=1e-9)


def s_matrix(m, b, F):
    """Entries (b^2 - f(x) conj(f(y))) <v_x, v_y>; psd over every finite F
    iff ||M_f|| <= b.  Equals b^2 V_F - D_F V_F D_F* with D_F = diag(f|F)."""
    F = tuple(F)
    return _s(b, np.array([m[x] for x in F]), gram_matrix(m.net, F).V.a)


def certify_bound(m, b, exhaustion):
    """analyze's psd certificates of s_f at b, without its guards: all-psd
    certifies ||M_f|| <= b on the truncations; a failure carries a rigorous
    witness for ||M_f|| > b, in F's own order."""
    return list(_nested_levels(m, exhaustion)[0](b))


def restricted_norm(m, F):
    """Norm of M* restricted to span{v_x : x in F}: the square root of the
    largest eigenvalue of the pencil (D_F V_F D_F*, V_F)."""
    ((_, rho),) = _nested_levels(m, [F])[1]()
    return rho


def point_mass_norm(net, x):
    """||M_{delta_x}|| = sqrt(c(x) R(x)) = ||delta_x|| ||v_x||."""
    _require_in_X(net, x)
    return float(np.sqrt(total_conductance(net, x) * effective_resistance(net, x)))


def sufficiency_bound(m):
    """sum_x |f(x)| sqrt(c(x) R(x)): an upper bound for ||M_f||."""
    return _sufficiency_bound(m, np.full(m.net.n, np.nan))


def _sufficiency_bound(m, R):
    """sufficiency_bound(m), with R(x) read from R (by dense index) where it
    is not NaN and solved for the rest of supp f in one kernel solve."""
    net = m.net
    supp = net.x_index[m.f[net.x_index] != 0]
    R = R[supp]
    rest = supp[np.isnan(R)]
    if rest.size:
        R[np.isnan(R)] = np.diagonal(kernel_columns(net, rest)[rest])
    return float(np.sum(np.abs(m.f[supp]) * np.sqrt(net.conductance[supp] * R)))


# ---------------------------------------------------------------------------
# matrix representations in the l2 coordinates of the grounded factor

def _iso(net, vals):
    """R u|X for L_X = R^T R: an isometry of the energy space onto l2, for
    one grounded function or one per column of an n x k array."""
    return net.grounded_factor @ vals[net.x_index]


def _mult_matrix(net, f):
    """M_f in l2 coordinates, R diag(f|X) R^{-1}; its energy adjoint is the
    conjugate transpose."""
    R = net.grounded_factor
    # L_X^{-1} R^T = R^{-1}
    return (R * f[net.x_index]) @ cho_solve(R, R.T)


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
    # column of z: its dense index, less one past the origin
    vx, vy = (ground(net, K[:, i - (i > net.origin_index)]) for i in map(net.index, (x, y)))
    deltax, deltay = delta(net, x), delta(net, y)
    Y = _iso(net, K)
    kvx, kvy, kdx, kdy = (_iso(net, u.values) for u in (vx, vy, deltax, deltay))

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
    vx, vy = ground(net, K[:, 0]), ground(net, K[:, 1])
    dxv, dyv = delta(net, x), delta(net, y)
    ux, uy, dx, dy = (u * (1.0 / np.sqrt(u.energy)) for u in (vx, vy, dxv, dyv))
    kux, kuy, kdx, kdy = (_iso(net, u.values) for u in (ux, uy, dx, dy))

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

    # V_{F_n} = U_k^T U_k on the leading block of the Gram factor, so
    # C = U_k^{-1} satisfies C^T V_{F_n} C = I: Gram-Schmidt in the V metric
    C = scipy.linalg.solve_triangular(gram.U[:k, :k], np.eye(k), check_finite=False)
    Q = _iso(net, K[:, :k]) @ C  # orthonormal columns
    P = Q @ Q.conj().T

    chi = np.zeros(net.n)
    chi[[net.index(z) for z in F_m]] = 1.0
    D = P @ (_mult_matrix(net, m.f) - _mult_matrix(net, m.f * chi)) @ P
    if samples is None:
        Y = _iso(net, kernel_columns(net, net.x_index))
    else:
        Y = _iso(net, np.column_stack([u.values for u in samples]))
    return _worst(D, Y)


# ---------------------------------------------------------------------------
# report assembly

@dataclass
class MultiplierReport:
    # (F, max of rho_F' over the levels F' up to F): the exact trace is
    # nondecreasing, so the running max only absorbs rounding
    lower_bounds: list
    best_lower: float
    upper_bound: float
    psd_certificates: list  # (b, PsdVerdict) pairs
    verdict: str

    def to_json_dict(self):
        return {
            "lower_trace": [[len(F), rho] for F, rho in self.lower_bounds],
            "best_lower": self.best_lower,
            "upper": self.upper_bound,
            "certs": [
                {"b": b, "psd": v.is_psd, "lambda_min": v.min_eigenvalue}
                for b, v in self.psd_certificates
            ],
            "verdict": self.verdict,
        }


def default_exhaustion(net):
    """Nested prefixes of X in canonical order, doubling in size."""
    xs = net.x_vertices
    sizes = []
    k = 1
    while k < len(xs):
        sizes.append(k)
        k *= 2
    sizes.append(len(xs))
    return [tuple(xs[:s]) for s in sizes]


def analyze(m, exhaustion=None, bound=None):
    """Assemble a MultiplierReport: per-F restricted-norm trace, the
    sufficiency upper bound, and psd certificates at the requested bound
    (or at the best lower bound when estimating), failing ones with
    witnesses.  InvariantViolation if they contradict: all pass below the
    best lower bound, or an outer level passes after an inner one fails."""
    certify, trace, sufficiency = _nested_levels(m, exhaustion)
    lower, best_lower = [], 0.0
    for F, rho in trace():
        if rho < best_lower - 1e-7 * max(1.0, best_lower):
            raise InvariantViolation(
                f"restricted norm decreased along the exhaustion: {best_lower} -> {rho}"
            )
        best_lower = max(best_lower, rho)
        lower.append((F, best_lower))
    if bound is None and not np.isfinite(best_lower):
        raise InvalidInput(f"the norm estimate overflows: best lower bound {best_lower!r}")
    upper = sufficiency()
    if best_lower > upper + 1e-7 * max(1.0, upper):
        raise InvariantViolation(
            f"lower bound {best_lower} exceeds sufficiency bound {upper}"
        )
    b = best_lower * (1 + 1e-9) + 1e-12 if bound is None else bound
    certs = [(b, v) for v in certify(b)]
    psd = [v.is_psd for _, v in certs]
    if psd != sorted(psd, reverse=True):
        i = psd.index(False)
        raise InvariantViolation(
            f"psd certificates at b = {b!r} fail on |F| = {len(lower[i][0])} but pass "
            f"on the larger |F| = {len(lower[psd.index(True, i)][0])}"
        )
    ok = all(psd)
    if ok and best_lower > b * (1 + 1e-9):
        raise InvariantViolation(
            f"psd certificates pass at b = {b!r}, below the lower bound {best_lower!r}"
        )
    if bound is not None:
        verdict = f"PASS<={bound:.12g}" if ok else f"FAIL>{bound:.12g}"
    else:
        verdict = f"certified<={best_lower:.12g}" if ok else "inconclusive"
    return MultiplierReport(lower, best_lower, upper, certs, verdict)


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
