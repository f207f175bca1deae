"""Multiplication operators on the energy space: pointwise action, adjoints,
psd boundedness certificates, restricted norms over finite vertex sets,
closed-form point-mass norms, rank-one operator identities, and truncation
consistency checks.

Operators on a finite network are represented, where matrices are needed,
in the Dirac coordinate basis over X = G \\ {o}: a grounded u is exactly
sum_x u(x) delta_x, so coefficient vectors are just values on X and the
energy Gram matrix in that basis is the grounded Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import (
    delta_gram,
    effective_resistance,
    energy_form,
    energy_kernel,
    gram_matrix,
    ground,
    kernel_columns,
    x_indices,
)
from .errors import InsufficientEnclosure, InvalidInput, NetworkMismatch, UnknownVertex
from .network import total_conductance
from .numkernel import SymMatrix, gen_eig_max, gram_schmidt_V, psd_check


@dataclass(frozen=True)
class Multiplier:
    """Pointwise multiplier f; the value at the origin is recorded but
    irrelevant after re-grounding."""

    net: Network
    f: np.ndarray

    def __getitem__(self, x):
        return self.f[self.net.index(x)]

    @classmethod
    def from_dict(cls, net, mapping):
        vals = np.zeros(net.n, dtype=complex)
        for x, v in mapping.items():
            vals[net.index(x)] = v
        if not np.any(vals.imag):
            vals = vals.real
        vals.setflags(write=False)
        return cls(net, vals)

    @classmethod
    def delta(cls, net, x):
        return cls.from_dict(net, {x: 1.0})

    @classmethod
    def constant(cls, net, c):
        vals = np.full(net.n, c, dtype=complex)
        if not np.any(vals.imag):
            vals = vals.real
        vals.setflags(write=False)
        return cls(net, vals)

    @classmethod
    def from_kernel(cls, net, x):
        """f = v_x as a function (the unbounded-growth example)."""
        vals = energy_kernel(net, x).values.copy()
        vals.setflags(write=False)
        return cls(net, vals)


def apply(m, u):
    """(M_f u)(x) = f(x) u(x), re-grounded."""
    if m.net is not u.net:
        raise NetworkMismatch("multiplier and vector live on different networks")
    return ground(m.net, m.f * u.values)


def adjoint_on_kernel(m, x):
    """M* v_x = conj(f(x)) v_x: the adjoint scales kernel elements by the
    scalar conj(f(x)), not the function conj(f)."""
    net = m.net
    if net.index(x) == net.origin_index:
        raise UnknownVertex("x must lie in X = G \\ {o}")
    return complex(np.conj(m[x])) * energy_kernel(net, x)


def hermitian_defect(m, u, v):
    """<M u, v> - <u, M v>; zero for all pairs iff f is constant real."""
    return energy_form(apply(m, u), v) - energy_form(u, apply(m, v))


def s_matrix(m, b, F):
    """Entries (b^2 - f(x) conj(f(y))) <v_x, v_y>; psd over every finite F
    iff ||M_f|| <= b.  Equals b^2 V_F - D_F V_F D_F* with D_F = diag(f|F)."""
    if b < 0:
        raise InvalidInput("b must be nonnegative")
    F = tuple(F)
    V = gram_matrix(m.net, F).V.a
    fv = np.array([m[x] for x in F])
    S = (b**2 - np.outer(fv, np.conj(fv))) * V
    return SymMatrix.from_array(S, tol=1e-9)


def certify_bound(m, b, exhaustion):
    """psd-check s_f over a nested exhaustion.  All-psd is the
    finite-truncation certificate for ||M_f|| <= b; any failure carries a
    rigorous witness vector for ||M_f|| > b."""
    exhaustion = [tuple(F) for F in exhaustion]
    for prev, cur in zip(exhaustion, exhaustion[1:]):
        if not set(prev) <= set(cur):
            raise ValueError("exhaustion sets must be nested")
    return [psd_check(s_matrix(m, b, F)) for F in exhaustion]


def restricted_norm(m, F):
    """Norm of M* restricted to span{v_x : x in F}: the square root of the
    largest eigenvalue of the pencil (D_F V_F D_F*, V_F)."""
    F = tuple(F)
    V = gram_matrix(m.net, F).V.a
    fv = np.array([m[x] for x in F])
    A = np.outer(fv, np.conj(fv)) * V
    lam, _ = gen_eig_max(SymMatrix.from_array(A, tol=1e-9), SymMatrix.from_array(V, tol=1e-9))
    return float(np.sqrt(max(lam, 0.0)))


def point_mass_norm(net, x):
    """||M_{delta_x}|| = sqrt(c(x) R(x)) = ||delta_x|| ||v_x||."""
    if net.index(x) == net.origin_index:
        raise UnknownVertex("x must lie in X = G \\ {o}")
    return float(np.sqrt(total_conductance(net, x) * effective_resistance(net, x)))


def sufficiency_bound(m):
    """sum_x |f(x)| sqrt(c(x) R(x)): an upper bound for ||M_f||."""
    net = m.net
    supp = [i for i in x_indices(net) if m.f[i]]
    R = np.diagonal(kernel_columns(net, supp)[supp])
    return float(np.sum(np.abs(m.f[supp]) * np.sqrt(net.conductance[supp] * R)))


# ---------------------------------------------------------------------------
# matrix representations over the Dirac coordinate basis on X

def _coeff(u):
    return u.values[x_indices(u.net)]


def _from_coeff(net, coeff):
    vals = np.zeros(net.n, dtype=coeff.dtype)
    vals[x_indices(net)] = coeff
    return ground(net, vals)


def _dirac_gram(net):
    """Energy Gram matrix of the Dirac basis on X: the grounded Laplacian."""
    return delta_gram(net, [net.vertices[i] for i in x_indices(net)]).a


def _ketbra(net, a, b, L):
    """Coefficient matrix of |a><b|: u maps to <b, u> a."""
    return np.outer(_coeff(a), L @ np.conj(_coeff(b)))


def _adjoint(A, L):
    """Energy-space adjoint of the coefficient matrix A: L^{-1} A* L."""
    return np.linalg.solve(L, A.conj().T @ L)


def _energy_norm(net, coeff, L):
    return float(np.sqrt(max(np.real(np.conj(coeff) @ (L @ coeff)), 0.0)))


def _default_samples(net):
    return [energy_kernel(net, net.vertices[i]) for i in x_indices(net)]


def rank_one_identities(net, x, y, sample_u=None):
    """Check M_x = |delta_x><v_x| and the product relations
    M_x* M_y = <d_x, d_y> |v_x><v_y| and M_x M_y* = <v_x, v_y> |d_x><d_y|
    against a numerically computed adjoint, on sampled vectors and the
    kernel basis.  Returns the maximum relative energy-norm discrepancy."""
    L = _dirac_gram(net)
    samples = _default_samples(net) + list(sample_u or [])
    dx, dy = Multiplier.delta(net, x), Multiplier.delta(net, y)
    vx, vy = energy_kernel(net, x), energy_kernel(net, y)
    deltax = _from_coeff(net, np.eye(net.n - 1)[_x_pos(net, x)])
    deltay = _from_coeff(net, np.eye(net.n - 1)[_x_pos(net, y)])

    Mx = np.diag(dx.f[x_indices(net)])
    My = np.diag(dy.f[x_indices(net)])
    Mx_star = _adjoint(Mx, L)
    My_star = _adjoint(My, L)

    dd = complex(energy_form(deltax, deltay))
    vv = complex(energy_form(vx, vy))
    pairs = [
        (Mx, _ketbra(net, deltax, vx, L)),
        (Mx_star, _ketbra(net, vx, deltax, L)),
        (Mx_star @ My, dd * _ketbra(net, vx, vy, L)),
        (Mx @ My_star, vv * _ketbra(net, deltax, deltay, L)),
    ]
    worst = 0.0
    for lhs, rhs in pairs:
        diff = lhs - rhs
        for u in samples:
            c = _coeff(u)
            r = _energy_norm(net, diff @ c, L) / (1.0 + _energy_norm(net, c, L))
            worst = max(worst, r)
    return worst


def _x_pos(net, x):
    return x_indices(net).index(net.index(x))


def _op_energy_norm(A, L_half, L_half_inv):
    return float(np.linalg.norm(L_half @ A @ L_half_inv, 2))


def normalized_projections(net, x, y):
    """Verify the unit rank-one projections U_x = |u_x><u_x| (kernel
    direction) and D_x = |d_x><d_x| (Dirac direction): idempotence, the
    escape-probability scalings against M_x* M_x and M_x M_x*, and the four
    displayed product rules.  Returns the max operator-norm residual."""
    L = _dirac_gram(net)
    w, q = np.linalg.eigh(L)
    L_half = (q * np.sqrt(w)) @ q.T
    L_half_inv = (q / np.sqrt(w)) @ q.T

    def unit(vec):
        return vec * (1.0 / np.sqrt(vec.energy))

    vx, vy = energy_kernel(net, x), energy_kernel(net, y)
    dxv = _from_coeff(net, np.eye(net.n - 1, dtype=float)[_x_pos(net, x)])
    dyv = _from_coeff(net, np.eye(net.n - 1, dtype=float)[_x_pos(net, y)])
    ux, uy = unit(vx), unit(vy)
    dx, dy = unit(dxv), unit(dyv)

    Ux = _ketbra(net, ux, ux, L)
    Uy = _ketbra(net, uy, uy, L)
    Dx = _ketbra(net, dx, dx, L)
    Dy = _ketbra(net, dy, dy, L)

    Mx = np.diag(Multiplier.delta(net, x).f[x_indices(net)])
    Mx_star = _adjoint(Mx, L)
    p_esc = 1.0 / (total_conductance(net, x) * effective_resistance(net, x))

    rx, ry = effective_resistance(net, x), effective_resistance(net, y)
    cx, cy = total_conductance(net, x), total_conductance(net, y)
    residuals = [
        Ux @ Ux - Ux,
        Dx @ Dx - Dx,
        Ux - p_esc * (Mx_star @ Mx),
        Dx - p_esc * (Mx @ Mx_star),
        Ux @ Uy - (complex(energy_form(vx, vy)) / np.sqrt(rx * ry)) * _ketbra(net, ux, uy, L),
        Ux @ Dy - complex(energy_form(ux, dy)) * _ketbra(net, ux, dy, L),
        Dx @ Uy - complex(energy_form(dx, uy)) * _ketbra(net, dx, uy, L),
        Dx @ Dy
        - (complex(energy_form(dxv, dyv)) / np.sqrt(cx * cy)) * _ketbra(net, dx, dy, L),
    ]
    return max(_op_energy_norm(r, L_half, L_half_inv) for r in residuals)


def truncation_consistency(m, F_n, F_m, samples=None):
    """Verify P_n M_f P_n = P_n M_{f|F_m} P_n on sampled vectors, where P_n
    projects onto span{v_x : x in F_n}.  F_m must contain F_n and enclose
    the neighbors of supp(f) inside F_n."""
    net = m.net
    F_n, F_m = tuple(F_n), tuple(F_m)
    if not set(F_n) <= set(F_m):
        raise ValueError("F_n must be contained in F_m")
    outer = set(net.index(z) for z in F_m) | {net.origin_index}
    for z in F_n:
        zi = net.index(z)
        if m.f[zi] != 0 and not set(net.neighbor_idx[zi]) <= outer:
            raise InsufficientEnclosure(
                f"neighbors of {z!r} are not contained in F_m; enlarge the outer set"
            )

    L = _dirac_gram(net)
    C = gram_schmidt_V(gram_matrix(net, F_n).V)
    K = kernel_columns(net, [net.index(z) for z in F_n])[x_indices(net)]
    B = K @ C  # orthonormal basis coefficients
    P = B @ (B.conj().T @ L)

    chi = np.zeros(net.n)
    chi[[net.index(z) for z in F_m]] = 1.0
    fm = Multiplier(net, m.f * chi)

    samples = list(samples) if samples is not None else _default_samples(net)
    worst = 0.0
    for u in samples:
        c = _coeff(u)
        pu = _from_coeff(net, P @ c)
        lhs = P @ _coeff(apply(m, pu))
        rhs = P @ _coeff(apply(fm, pu))
        r = _energy_norm(net, lhs - rhs, L) / (1.0 + _energy_norm(net, c, L))
        worst = max(worst, r)
    return worst


# ---------------------------------------------------------------------------
# report assembly

@dataclass
class MultiplierReport:
    lower_bounds: list  # (F, rho_F) pairs
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
    xs = [net.vertices[i] for i in x_indices(net)]
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
    (or at the best lower bound when estimating)."""
    net = m.net
    if exhaustion is None:
        exhaustion = default_exhaustion(net)
    exhaustion = [tuple(F) for F in exhaustion]
    lower = []
    prev = 0.0
    for F in exhaustion:
        rho = restricted_norm(m, F)
        if rho < prev - 1e-7 * max(1.0, prev):
            raise ArithmeticError(
                f"restricted norm decreased along the exhaustion: {prev} -> {rho}"
            )
        lower.append((F, rho))
        prev = max(prev, rho)
    best_lower = max(r for _, r in lower)
    upper = sufficiency_bound(m)
    if best_lower > upper + 1e-7 * max(1.0, upper):
        raise ArithmeticError(
            f"lower bound {best_lower} exceeds sufficiency bound {upper}"
        )
    if bound is not None:
        certs = list(zip([bound] * len(exhaustion), certify_bound(m, bound, exhaustion)))
        ok = all(v.is_psd for _, v in certs)
        verdict = f"PASS<={bound:.12g}" if ok else f"FAIL>{bound:.12g}"
    else:
        b = best_lower * (1 + 1e-9) + 1e-12
        certs = list(zip([b] * len(exhaustion), certify_bound(m, b, exhaustion)))
        ok = all(v.is_psd for _, v in certs)
        verdict = f"certified<={best_lower:.12g}" if ok else "inconclusive"
    return MultiplierReport(lower, best_lower, upper, certs, verdict)


def bisect_bound(m, exhaustion=None, lo=0.0, hi=None, tol=1e-8):
    """Smallest b (to absolute tolerance) at which certify_bound passes on
    the exhaustion.  Defaults bracket [0, sufficiency_bound]."""
    if exhaustion is None:
        exhaustion = default_exhaustion(m.net)

    def certified(b):
        return all(v.is_psd for v in certify_bound(m, b, exhaustion))

    if hi is None:
        hi = sufficiency_bound(m)
    if certified(lo):
        return lo
    if not certified(hi):
        raise ArithmeticError(f"upper bracket {hi} is not certified; widen it")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if certified(mid):
            hi = mid
        else:
            lo = mid
    return hi
