import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import energynet as en
from energynet import multop
from energynet.errors import ConvergenceFailure, NotPositiveDefinite, NotPsd
from energynet.numkernel import (
    cho_solve,
    cholesky,
    default_psd_tol,
    matmul,
    psd_check,
    sqrtm_psd,
    top_eigpair,
)


def sym(arr):
    return np.array(arr, dtype=float)


def random_psd(rng, n, allow_singular=True):
    """A random psd matrix, exactly symmetric like every matrix of the package."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(0.0 if allow_singular else 0.1, 5.0, n)
    if allow_singular and n > 1:
        eigs[rng.integers(0, n)] = 0.0
    a = q @ np.diag(eigs) @ q.T
    return a / 2 + a.T / 2


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("dtypes", [(float, float), (float, complex), (complex, float),
                                    (complex, complex)])
@pytest.mark.parametrize("cols", [None, 3])
def test_matmul_matches_numpy(layout, dtypes, cols):
    rng = np.random.default_rng(5)

    def draw(shape, dtype):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if dtype is complex else x

    a = draw((7, 10), dtypes[0])
    a = {"C": a[:, :5], "F": np.asfortranarray(a[:, :5]), "strided": a[:, ::2]}[layout]
    if layout == "C":
        a = np.ascontiguousarray(a)
    b = draw(5 if cols is None else (5, cols), dtypes[1])
    got = matmul(a, b)
    assert got.shape == (a @ b).shape and np.iscomplexobj(got) == np.iscomplexobj(a @ b)
    assert np.allclose(got, a @ b, rtol=1e-14, atol=1e-14)
    if cols:
        assert np.allclose(matmul(a, np.asfortranarray(b)), a @ b, rtol=1e-14, atol=1e-14)


def test_cholesky_solve_identity():
    b = np.array([3.0, -1.0])
    assert np.allclose(cho_solve(cholesky(sym(np.eye(2))), b), b)


def test_cholesky_solve_hand_value():
    x = cho_solve(cholesky(sym([[2, -1], [-1, 2]])), np.array([1.0, 0.0]))
    assert np.allclose(x, [2 / 3, 1 / 3], atol=1e-12)


def test_cholesky_solve_singular_rejected():
    with pytest.raises(NotPositiveDefinite):
        cho_solve(cholesky(sym([[1, 1], [1, 1]])), np.array([1.0, 0.0]))


def test_cholesky_solve_complex_rhs():
    x = cho_solve(cholesky(sym([[2, -1], [-1, 2]])), np.array([1.0 + 1j, 0.0]))
    assert np.allclose(x, np.array([2 / 3, 1 / 3]) * (1 + 1j))


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_cholesky_upper_with_zero_lower_triangle(n):
    rng = np.random.default_rng(n)
    A = sym(random_psd(rng, n, allow_singular=False))
    U = cholesky(A)
    assert np.all(np.tril(U, -1) == 0.0)
    np.testing.assert_allclose(U.T @ U, A, rtol=0, atol=1e-12 * np.abs(A).max())


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky(sym([[1, 2], [2, 1]]))


def test_cho_solve_complex_rhs_against_real_factor():
    rng = np.random.default_rng(4)
    A = sym(random_psd(rng, 6, allow_singular=False))
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x = cho_solve(cholesky(A), b)
    assert np.iscomplexobj(x)
    np.testing.assert_allclose(x, np.linalg.solve(A.astype(complex), b), rtol=1e-12)


def test_cho_solve_against_a_complex_factor():
    # the factor of a complex Hermitian positive definite matrix, by parts
    rng = np.random.default_rng(7)
    G = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    A = G @ G.conj().T + 9 * np.eye(9)
    U = cholesky(A)
    assert np.iscomplexobj(U)
    for b in (rng.standard_normal(9), rng.standard_normal(9) + 1j * rng.standard_normal(9),
              rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))):
        want = np.linalg.solve(A, b)
        x = cho_solve(U, b)
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)


KINDS = {
    "real": lambda v: v,
    "complex": lambda v: v + 1j * v[::-1],
    "zero-imag": lambda v: v.astype(complex),
    "integer": lambda v: np.rint(4 * v).astype(int),
}


def _kept_arrays(kind):
    """(name, array) for each array that a constructor keeps, from inputs of one kind."""
    from energynet.multop import Multiplier, certify_bound
    from energynet.network import VertexFunction, laplacian_apply

    net = en.generate("binary_tree", 2)
    v = KINDS[kind](np.linspace(0.5, 2.0, net.n))
    H = np.outer(v, np.conj(v))
    X = net.x_vertices
    yield "from_dict", VertexFunction.from_dict(net, dict(zip(net.vertices, v.tolist()))).values
    yield "ones", VertexFunction.ones(net).values
    yield "constant", Multiplier.constant(net, v.tolist()[1]).f
    yield "ground", en.ground(net, v).values
    yield "laplacian_apply", laplacian_apply(net, VertexFunction(net, v)).values
    yield "laplacian_block", net.laplacian_block(net.x_index)
    yield "delta_gram", en.delta_gram(net, X)
    yield "grounded_factor", net.grounded_factor
    yield "GramMatrix.W, prefix", en.gram_matrix(net, X[:3]).W
    yield "GramMatrix.W, general", en.gram_matrix(net, X[::-1]).W
    yield "GramMatrix.V, prefix", en.gram_matrix(net, X[:3]).V
    yield "GramMatrix.V, general", en.gram_matrix(net, X[::-1]).V
    yield "GramMatrix.sqrt()", en.gram_matrix(net, X[::-1]).sqrt()
    yield "s_matrix", en.s_matrix(Multiplier(net, v), 1.0, X[::-1])
    eye = np.eye(net.n, dtype=int)
    yield "cholesky", cholesky(H + net.n * eye)
    yield "psd_check witness", psd_check(eye - H).witness
    (cert,) = certify_bound(Multiplier(net, v), 0.0, [X])
    yield "certify witness", cert.witness


# the package's matrices: plain arrays, Hermitian by construction and never checked
HERMITIAN = ("laplacian_block", "delta_gram", "GramMatrix.V, prefix", "GramMatrix.V, general",
             "GramMatrix.sqrt()", "s_matrix")


@pytest.mark.parametrize("kind", KINDS)
def test_kept_arrays_are_read_only_contiguous_and_real_when_they_can_be(kind):
    for name, a in _kept_arrays(kind):
        assert not a.flags.writeable, name
        assert a.flags.c_contiguous or a.flags.f_contiguous, name
        if not np.any(np.imag(a)):
            assert a.dtype == np.float64, (name, a.dtype)


@pytest.mark.parametrize("name", HERMITIAN)
def test_package_matrices_are_exactly_hermitian(name):
    for kind in KINDS:
        a = dict(_kept_arrays(kind))[name]
        assert np.array_equal(a, a.conj().T), (name, kind)


def test_psd_check_cases():
    assert psd_check(sym([[1, 2], [2, 4]])).is_psd
    bad = psd_check(sym([[0.96, 1.96], [1.96, 3.92]]))
    assert not bad.is_psd
    neg = psd_check(sym(-np.eye(3)))
    assert not neg.is_psd and neg.min_eigenvalue == pytest.approx(-1.0)


def test_psd_check_leaves_read_only_arguments_unchanged(monkeypatch):
    """A read-only argument, as every kept array is, is copied before LAPACK
    overwrites it, and its verdict is a writable copy's bit for bit; the
    certificates leave the network's factor and the Gram matrix as they were."""
    rng = np.random.default_rng(7)
    g = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    for a in (g.real + g.real.T, g.real @ g.real.T, g + g.conj().T, g @ g.conj().T,
              -np.eye(3), np.eye(3) - 2j * np.eye(3, k=1) + 2j * np.eye(3, k=-1)):
        kept = a.copy()
        kept.setflags(write=False)
        got, want = psd_check(kept), psd_check(a.copy())
        assert np.array_equal(kept, a)
        assert (got.is_psd, got.min_eigenvalue, got.tol) == (
            want.is_psd, want.min_eigenvalue, want.tol)
        assert (got.witness is None) == want.is_psd
        assert want.is_psd or np.array_equal(got.witness, want.witness)

    net = en.generate("integer_segment", 40)
    grams = []
    gram_matrix = multop.gram_matrix

    def kept_gram(*args):
        gram = gram_matrix(*args)
        grams.append((gram, gram.V.copy()))
        return gram

    monkeypatch.setattr(multop, "gram_matrix", kept_gram)
    factor = net.grounded_factor.copy()
    for f in (en.Multiplier.from_kernel(net, 7).f, np.exp(0.3j * np.arange(net.n))):
        m = en.Multiplier(net, f)
        rho = en.analyze(m).best_lower
        en.certify_bound(m, 0.5 * rho, None)
        en.bisect_bound(m, tol=1e-3)
    assert len(grams) == 6
    assert np.array_equal(net.grounded_factor, factor)
    assert all(np.array_equal(gram.V, V) for gram, V in grams)


def test_psd_witness_reproduces_verdict():
    v = psd_check(sym([[0.96, 1.96], [1.96, 3.92]]))
    quad = v.witness @ np.array([[0.96, 1.96], [1.96, 3.92]]) @ v.witness
    assert quad == pytest.approx(v.min_eigenvalue, rel=1e-9)
    assert quad < -v.tol


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 16))
def test_psd_check_matches_brute_force(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2
    verdict = psd_check(sym(a))
    tol = default_psd_tol(sym(a))
    xi = rng.standard_normal((1000, n))
    quads = np.einsum("ki,ij,kj->k", xi, a, xi)
    if verdict.is_psd:
        # necessary direction of the quadratic-form definition
        assert quads.min() >= -tol * (np.linalg.norm(xi, axis=1).max() ** 2)


def test_psd_check_witness_only_on_failure(monkeypatch):
    # one subset eigensolve gives lambda_min and its eigenvector: no full basis
    solves = []
    eigh = scipy.linalg.eigh
    monkeypatch.setattr(
        scipy.linalg, "eigh", lambda a, **kw: solves.append(kw["subset_by_index"]) or eigh(a, **kw)
    )
    # a passing verdict holds no vector or matrix
    ok = psd_check(sym(np.eye(40) + 0.5))
    assert ok.is_psd and ok.witness is None
    assert not any(isinstance(v, np.ndarray) for v in vars(ok).values())
    # a failing one carries a unit eigenvector of lambda_min, its first nonzero
    # entry real and positive
    rng = np.random.default_rng(11)
    g = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    for a in ([[0.96, 1.96], [1.96, 3.92]], -np.eye(3), g.real + g.real.T, g + g.conj().T):
        A = np.asarray(a)
        v = psd_check(A.copy())
        assert not v.is_psd
        xi = v.witness
        assert np.iscomplexobj(xi) == np.iscomplexobj(A)
        assert np.linalg.norm(xi) == pytest.approx(1.0, rel=1e-12)
        quad = np.real(np.conj(xi) @ A @ xi)
        assert quad == pytest.approx(v.min_eigenvalue, rel=1e-9)
        assert v.min_eigenvalue == pytest.approx(np.linalg.eigvalsh(A)[0], rel=1e-9)
        first = xi[np.flatnonzero(xi)[0]]
        assert first.real > 0 and abs(first.imag) <= 1e-15 * abs(first)
    assert solves == [[0, 0]] * 5


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 40), st.booleans())
def test_top_eigpair_matches_eigh(seed, n, complex_):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_ else 0)
    a = g @ g.conj().T
    lam, x = top_eigpair(lambda v: a @ v, n)
    w = np.linalg.eigvalsh(a)
    assert lam == pytest.approx(w[-1], rel=1e-12)
    assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.norm(a @ x - lam * x) <= 1e-10 * w[-1]


@pytest.mark.parametrize("c2", [6.25, 0.5625, 5.0])
def test_top_eigpair_identity_stops_at_once(c2):
    # |c|^2 I (const:c for c = 2.5, -0.75, 1+2j): every vector is an
    # eigenvector, so one product suffices
    calls = []
    lam, x = top_eigpair(lambda v: calls.append(1) or c2 * v, 50)
    assert lam == pytest.approx(c2, rel=1e-15) and calls == [1]
    assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-15)


def test_top_eigpair_degenerate_operators():
    u = np.arange(1.0, 9.0)
    lam, x = top_eigpair(lambda v: u * (u @ v), 8)  # rank one
    assert lam == pytest.approx(u @ u, rel=1e-14)
    assert abs(x @ u) == pytest.approx(np.linalg.norm(u), rel=1e-14)
    assert top_eigpair(lambda v: 0.0 * v, 8)[0] == 0.0
    lam, x = top_eigpair(lambda v: 3.0 * v, 1)  # k = 1
    assert lam == pytest.approx(3.0) and abs(x[0]) == pytest.approx(1.0)


def test_top_eigpair_grows_its_basis_past_32_rows():
    # an evenly spread spectrum: the top Ritz pair settles after 105 products
    d = np.linspace(0.0, 1.0, 200)
    calls = []
    lam, x = top_eigpair(lambda v: calls.append(1) or d * v, 200)
    assert len(calls) > 32
    assert lam == pytest.approx(1.0, rel=1e-14) and abs(x[-1]) == pytest.approx(1.0, rel=1e-12)


def test_top_eigpair_reproducible():
    a = random_psd(np.random.default_rng(1), 30)
    first = top_eigpair(lambda v: a @ v, 30)
    again = top_eigpair(lambda v: a @ v, 30)
    assert first[0] == again[0] and np.array_equal(first[1], again[1])


def test_sqrtm_psd_diagonal():
    b = sqrtm_psd(sym(np.diag([4.0, 9.0])))
    assert np.allclose(b, np.diag([2.0, 3.0]))
    assert np.allclose(sqrtm_psd(sym(np.eye(3))), np.eye(3))


def test_sqrtm_psd_values():
    # the eigenvalues (3 -+ sqrt 5) / 2 of [[1, 1], [1, 2]] are the squares of
    # (sqrt 5 -+ 1) / 2
    a = sym([[1, 1], [1, 2]])
    root = sqrtm_psd(a)
    assert np.allclose(np.linalg.eigvalsh(root), [(np.sqrt(5) - 1) / 2, (np.sqrt(5) + 1) / 2])
    assert np.allclose(root @ root, a, atol=1e-12)


def test_sqrtm_psd_rejects_indefinite():
    with pytest.raises(NotPsd):
        sqrtm_psd(sym([[1, 0], [0, -1]]))
    # eigenvalues -1 and 1
    with pytest.raises(NotPsd, match=r"lambda_min = -1\.000e\+00"):
        sqrtm_psd(sym([[0, 1], [1, 0]]))


def test_sqrtm_psd_decomposes_once(monkeypatch):
    calls = []
    eigh = scipy.linalg.eigh
    monkeypatch.setattr(scipy.linalg, "eigh", lambda *a, **kw: calls.append(1) or eigh(*a, **kw))
    en.gram_matrix(en.generate("integer_segment", 8), [1, 2, 3]).sqrt()
    assert len(calls) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 64))
def test_sqrtm_psd_roundtrip(seed, n):
    rng = np.random.default_rng(seed)
    a = random_psd(rng, n)
    b = sqrtm_psd(sym(a))
    assert psd_check(b).is_psd
    assert np.abs(b @ b - a).max() <= 1e-8 * max(1.0, np.abs(a).max())


@pytest.mark.parametrize("complex_input", [False, True])
def test_sqrtm_psd_root_is_exactly_hermitian(complex_input):
    # the root is its product's Hermitian part, exact term for term, with no
    # defect checked against a tolerance
    rng = np.random.default_rng(4)
    g = rng.standard_normal((12, 12))
    if complex_input:
        g = g + 1j * rng.standard_normal((12, 12))
    a = g @ g.conj().T
    root = sqrtm_psd(a / 2 + a.conj().T / 2)
    assert np.iscomplexobj(root) == complex_input
    assert np.array_equal(root, root.conj().T)
    assert np.abs(root @ root - a).max() <= 1e-10 * np.abs(a).max()


def test_eigensolver_failure_is_convergence_failure(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(scipy.linalg, "eigh", fail)
    for solve in (sqrtm_psd, psd_check):
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            solve(sym(np.eye(2)))

