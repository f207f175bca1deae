"""Multiplication operators on the energy space: pointwise action, adjoints,
restricted norms and psd boundedness certificates over a nested exhaustion
F_1 c ... c F_m (one Gram matrix over F_m and its triangular factor for
the whole trace), closed-form point-mass norms and the sufficiency bound.  The
checks of the operator identities live in `energynet.checks`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import dtrmv

from .energy import _kernel_diagonal, effective_resistance, energy_kernel, gram_matrix, ground
from .errors import InvalidInput, InvariantViolation, NetworkMismatch, UnknownVertex
from .network import VertexFunction, total_conductance
from .numkernel import (
    _by_parts,
    _real_if_exact,
    matmul,
    psd_check,
    stored,
    top_eigpair,
)


class Multiplier(VertexFunction):
    """Pointwise multiplier f; the value at the origin is recorded but
    irrelevant after re-grounding."""

    @property
    def f(self):
        return self.values

    @classmethod
    def constant(cls, net, c):
        return cls(net, np.full(net.n, c, dtype=complex))

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


def _nested_order(net, exhaustion):
    """Checked levels of a nested exhaustion (default_exhaustion if None), F_m in level order."""
    exhaustion = [tuple(F) for F in (default_exhaustion(net) if exhaustion is None else exhaustion)]
    if not exhaustion or not all(F and len(set(F)) == len(F) for F in exhaustion):
        raise InvalidInput("each set F must be a nonempty list of distinct vertices")
    for prev, cur in zip(exhaustion, exhaustion[1:]):
        if not set(prev) <= set(cur):
            raise InvalidInput("exhaustion sets must be nested")
    return exhaustion, tuple(dict.fromkeys(x for F in exhaustion for x in F))


def _nested_levels(m, exhaustion):
    """Check a nested exhaustion F_1 c ... c F_m and build V over F_m once,
    ordered level by level (F_1, then F_2 \\ F_1, ...) so that every level is
    a leading block.  Returns (certify, trace, sufficiency).  certify(b)
    yields psd_check's verdict on each level's S_F = _s(b, f_k, V_k) over
    the leading k x k block: the entries of s_matrix(m, b, F) in V's order,
    built in a buffer of its own that psd_check solves in place; failing
    verdicts carry their witness in F's order.  trace() returns (F, rho_F)
    per level, rho_F = sigma_max(T_k) for T = W^{-1} D* W, where
    V^{-1} = W W^T is the Gram matrix's factor and D = diag(f): T is upper
    triangular and the pencil (P_F o V_F, V_F) on a leading k x k block is
    T_k^H T_k = W_k^T D_k V_k D_k* W_k.  T is never formed: each level
    applies that product to vectors by two triangular products with the
    leading block W_k and one product with V_k.  sufficiency() is sufficiency_bound(m), with R(x) = V_xx read on F_m."""
    exhaustion, order = _nested_order(m.net, exhaustion)
    gram = gram_matrix(m.net, order)
    V, W = gram.V, gram.W
    fv = np.array([m[x] for x in order])
    pos = {x: i for i, x in enumerate(order)}

    def certify(b):
        for F in exhaustion:
            k = len(F)
            # no name keeps S_F: it is freed before the next level's is built
            v = psd_check(_s(b, fv[:k], V[:k, :k]))
            yield v if v.is_psd else replace(v, witness=stored(v.witness[[pos[x] for x in F]]))

    def sufficiency():
        R = np.full(m.net.n, np.nan)
        R[[m.net.index(x) for x in order]] = np.diagonal(V)
        return _sufficiency_bound(m, R)

    def trace():
        # the trace of g = f / s, with s the power of two at or just below
        # max(|Re f|, |Im f|) over F_m (an exact division, and finite where
        # |f| would overflow): |g| < 2 sqrt(2) keeps T_k^H T_k in range for
        # any finite f, and rho_F(f) = s rho_F(g)
        amax = np.maximum(np.abs(fv.real), np.abs(fv.imag)).max()
        s = float(np.ldexp(1.0, np.frexp(amax)[1] - 1)) if amax else 1.0
        g = _by_parts(lambda y: y / s)(fv)  # numpy's complex / s overflows for a subnormal s
        out = []
        for F in exhaustion:
            k = len(F)
            # W_k^T as an F-ordered lower triangular array, and V_k: views,
            # not copies, of C-ordered W and V when k = |F_m|
            Wt, Vk, gk = np.ascontiguousarray(W[:k, :k]).T, np.ascontiguousarray(V[:k, :k]), g[:k]
            mul = _by_parts(lambda y: dtrmv(Wt, y, lower=1, trans=1))
            mul_t = _by_parts(lambda y: dtrmv(Wt, y, lower=1))
            # the top eigenpair of T_k^H T_k = W_k^T D_k V_k D_k* W_k, from
            # T_k = W_k^{-1} D_k* W_k, applied to vectors: T_k is never formed
            lam, q = top_eigpair(lambda x: mul_t(gk * matmul(Vk, np.conj(gk) * mul(x))), k)
            xi = mul(q)
            xi /= np.linalg.norm(xi)
            d = np.diagonal(V)[:k]
            resid = np.linalg.norm(gk * matmul(Vk, np.conj(gk) * xi) - lam * matmul(Vk, xi))
            # diagonal entries of psd matrices bound their spectral norms below
            scale = np.max(np.abs(gk) ** 2 * d) + abs(lam) * d.max()
            if not resid <= 1e-8 * max(scale, 1e-300):  # NaN fails too
                raise InvariantViolation(
                    f"pencil residual {resid:.3e} exceeds tolerance at |F| = {k}"
                )
            out.append((F, s * float(np.sqrt(max(lam, 0.0)))))
        return out

    return certify, trace, sufficiency


def _s(b, fv, V):
    """S = (b^2 - f(x) conj(f(y))) V_xy, in the order of fv, as a writable
    array, real where its imaginary part is 0; f f* by parts, so exactly
    Hermitian.  S is one buffer: the outer product, then b^2 minus it and the
    product with V in place."""
    if not (b >= 0 and np.isfinite(b)):
        raise InvalidInput(f"b must be finite and nonnegative: {float(b)!r}")
    # S is float or complex before it is written in place: an integer f f* cannot hold b^2 - f f*
    fv = np.asarray(fv, dtype=np.result_type(fv, V))
    with np.errstate(over="ignore", invalid="ignore"):
        S = _by_parts(lambda y: np.outer(y, np.conj(fv)))(fv)
        np.subtract(b * b, S, out=S)
        S *= V
    if not np.isfinite(S).all():
        raise InvalidInput(
            f"the certificate matrix (b^2 - f f*) V overflows at the finite b = {float(b)!r}"
        )
    return _real_if_exact(S)


def s_matrix(m, b, F):
    """Entries (b^2 - f(x) conj(f(y))) <v_x, v_y>; psd over every finite F
    iff ||M_f|| <= b.  Equals b^2 V_F - D_F V_F D_F* with D_F = diag(f|F)."""
    F = tuple(F)
    return stored(_s(b, np.array([m[x] for x in F]), gram_matrix(m.net, F).V))


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
    is not NaN and from one triangular solve for the rest of supp f."""
    net = m.net
    supp = net.x_index[m.f[net.x_index] != 0]
    R = R[supp]
    rest = supp[np.isnan(R)]
    if rest.size:
        R[np.isnan(R)] = _kernel_diagonal(net, rest)
    return float(np.sum(np.abs(m.f[supp]) * np.sqrt(net.conductance[supp] * R)))


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


