"""Dense Hermitian numerics: SPD solves, eigendecompositions, the top
eigenpair of a psd operator, psd certification and matrix square roots.

An SPD solve is `cholesky` and then `cho_solve`: one factorization and one
substitution.

Everything here is a pure function on small dense matrices (target scale
n <= ~2000).  Two rules hold package-wide: every kept array goes through
`stored` (read-only, and contiguous float64 where its imaginary part is 0),
and a complex vector meets every matrix by parts (`_by_parts`: two calls, no
complex copy of a real matrix).  Each question takes one eigensolver call:
`psd_check` a subset eigensolve for the smallest eigenpair, `sqrtm_psd` a
full eigenbasis, and `top_eigpair` a Krylov iteration on a matrix-vector
product.  Matrix arguments are plain arrays that the package builds itself,
each Hermitian by construction; no public name of the package takes a matrix
from outside, so nothing here checks one.

Memory: the `mult` path holds the network's factor W, the Gram matrix V and
one more n x n work array at a time (the kernel's Y, the cross-check's
pairings, or one level's S_F), each written in place, on every network: the
cross-check's edge differences are built one panel of PANEL edges at a time.
Each level's S_F is built in its own buffer, and psd_check solves a real one
there with no copy; a complex S_F takes two arrays, itself and the copy
that LAPACK solves.  No whole-matrix numpy expression makes a temporary:
what needs one (a mirrored triangle, a comparison, a row norm) runs over row
panels of PANEL rows.

One BLAS: every dense matrix product (`matmul`, `gemv` in `top_eigpair`) and
eigensolver here runs through `scipy.linalg`, its BLAS and LAPACK.  numpy and
scipy each load their own OpenBLAS build, and each build keeps its own
worker threads.  A numpy product leaves numpy's worker spinning for a while
after it returns, and scipy's next threaded call then shares the cores with
it: on a 2-vCPU box, one numpy 800 x 800 matrix-vector product just before a
`mult` run's certificates raised their time from 0.080 to 0.148 s, and a
scipy one left it at 0.072 s.  Vector calls (`np.vdot`, `np.linalg.norm`)
stay on numpy: OpenBLAS runs level-1 routines single-threaded at these
lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConvergenceFailure, NotPositiveDefinite, NotPsd

PANEL = 64  # rows per panel: a panel's temporaries hold PANEL x n entries


def stored(a):
    """A freshly made array a as the package keeps it: _real_if_exact(a),
    read-only."""
    a = _real_if_exact(a)
    a.setflags(write=False)
    return a


def _real_if_exact(a):
    """a, or a contiguous float64 copy of it if a is complex with zero
    imaginary part."""
    return a.real.copy() if np.iscomplexobj(a) and not np.any(a.imag) else a


@dataclass(frozen=True)
class PsdVerdict:
    is_psd: bool
    min_eigenvalue: float
    tol: float
    witness: np.ndarray | None = field(repr=False, compare=False)


def _fix_sign(v):
    # the first nonzero entry of a nonzero v made positive, for reproducible witnesses
    first = v[np.flatnonzero(v)[0]]
    return stored(v * (np.conj(first) / abs(first)))


def cholesky(A):
    """Upper-triangular U with A = U^H U, zeros below its diagonal: the one
    Cholesky factorization of the package; read-only."""
    try:
        return stored(scipy.linalg.cholesky(A))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None


def _by_parts(op):
    """A linear map op, applied to a complex vector as two calls on its real
    and imaginary parts: no complex copy of a real matrix."""
    return lambda y: op(y.real) + 1j * op(y.imag) if np.iscomplexobj(y) else op(y)


def _f_ordered(a):
    """(b, t): an F-ordered array b and a BLAS trans flag t with op_t(b) = a,
    the transposed view when a is C-ordered, so that f2py copies nothing."""
    if a.flags.f_contiguous:
        return a, 0
    if a.flags.c_contiguous:
        return a.T, 1
    return np.asfortranarray(a), 0


def matmul(a, b):
    """a @ b for a 2-D a and a 1-D or 2-D b, by scipy's BLAS (gemv or gemm):
    the one OpenBLAS of the module docstring.  A complex b meets a by parts."""
    A, ta = _f_ordered(a)

    def op(y):
        if y.ndim == 1:
            return scipy.linalg.get_blas_funcs("gemv", (A, y))(1.0, A, y, trans=ta)
        B, tb = _f_ordered(y)
        return scipy.linalg.get_blas_funcs("gemm", (A, B))(1.0, A, B, trans_a=ta, trans_b=tb)

    return _by_parts(op)(b)


def cho_solve(U, rhs):
    """Solve U^H U x = rhs for the array U that `cholesky` returns, a
    complex rhs by parts."""
    return _by_parts(lambda y: scipy.linalg.cho_solve((U, False), y))(rhs)


def default_psd_tol(A):
    """1e-9 max(1, ||A||_inf), the row sums of |A| taken a row panel at a time."""
    norm_inf = max((np.abs(A[r : r + PANEL]).sum(axis=1).max() for r in range(0, len(A), PANEL)),
                   default=0.0)
    return 1e-9 * max(1.0, norm_inf)


def psd_check(A):
    """Certify positive semidefiniteness: psd iff lambda_min >= -tol, with
    tol = default_psd_tol(A).

    lambda_min and its eigenvector come from one subset eigensolve.  A real,
    writable A is LAPACK's workspace and is overwritten, with no copy: its
    Fortran-ordered transpose is A itself, A being exactly symmetric.  A
    complex A is solved in its conjugate copy, and a read-only A (every kept
    array) in a copy, so neither is written.  Only a failing verdict carries
    that eigenvector, as its witness: unit length, sign fixed by its first
    nonzero component.  A passing one keeps none.
    """
    tol = float(default_psd_tol(A))  # read before the eigensolve overwrites A
    # a real array's conj() is itself; f2py's overwrite_a writes through the
    # read-only flag, so a read-only A is copied
    a = A.conj().T
    if not a.flags.writeable:
        a = a.copy(order="K")
    try:
        w, q = scipy.linalg.eigh(a, subset_by_index=[0, 0], overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from None
    ok = bool(w[0] >= -tol)
    return PsdVerdict(ok, float(w[0]), tol, None if ok else _fix_sign(q[:, 0]))


def top_eigpair(matvec, n):
    """Largest eigenvalue and a unit eigenvector of the Hermitian psd
    operator x -> matvec(x) on n-vectors.

    Lanczos with full reorthogonalization (each new vector is projected off
    the basis twice) and Rayleigh-Ritz on the tridiagonal projection.  It
    stops when the top Ritz pair's residual |beta_j y_j| is at most
    1e-14 * theta, or when the basis spans all n dimensions.  An invariant
    subspace (beta_j = 0) makes that residual zero, so the iteration stops
    there too.  The start vector is the first n normals of one fixed Philox
    stream: orthogonal to the top eigenvector with probability zero, and the
    same for every call, so results are reproducible in any call order.  A
    coordinate or a caller-supplied (say, the previous level's) start can be
    exactly orthogonal to it, and then the iteration converges to a lower
    eigenvalue.
    """
    q = np.random.Generator(np.random.Philox(key=0)).standard_normal(n)
    q /= np.linalg.norm(q)
    w = matvec(q)
    basis = np.empty((min(n, 32), n), dtype=w.dtype)
    gemv = scipy.linalg.get_blas_funcs("gemv", (basis,))
    adjoint = 2 if np.iscomplexobj(basis) else 1
    alpha, beta = [], []
    for j in range(n):
        if j == basis.shape[0]:
            basis = np.concatenate((basis, np.empty_like(basis[: n - j])))
        basis[j] = q
        alpha.append(float(np.real(np.vdot(q, w))))
        # the basis rows are the columns of the F-ordered view QT: no copy
        QT = basis[: j + 1].T
        for _ in range(2):
            w = w - gemv(1.0, QT, gemv(1.0, QT, w, trans=adjoint))
        b = float(np.linalg.norm(w))
        theta, y = scipy.linalg.eigh_tridiagonal(
            alpha, beta, select="i", select_range=(j, j), check_finite=False
        )
        theta, y = float(theta[0]), y[:, 0]
        if abs(b * y[-1]) <= 1e-14 * abs(theta) or j + 1 == n:
            return theta, gemv(1.0, QT, y)
        beta.append(b)
        q = w / b
        w = matvec(q)


def sqrtm_psd(A):
    """Unique psd square root via eigendecomposition, exactly Hermitian.

    Negative eigenvalues within the psd tolerance are clamped to zero.
    """
    tol = default_psd_tol(A)
    try:
        w, q = scipy.linalg.eigh(A, driver="evd")
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from None
    if not w[0] >= -tol:
        raise NotPsd(f"lambda_min = {w[0]:.3e} < -{tol:.3e}")
    root = matmul(q * np.sqrt(np.clip(w, 0.0, None)), q.conj().T)
    return stored(root / 2 + root.conj().T / 2)  # halves first: cannot overflow
