import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import energynet as en
from energynet.energy import ground, zero_vector
from energynet.errors import (
    InvalidInput,
    InvariantViolation,
    NetworkMismatch,
    OriginInF,
    UnknownVertex,
)
from energynet.numkernel import PANEL

from conftest import random_energy_vector, random_network, x_vertices


def test_constants_have_zero_energy(p3):
    assert ground(p3, np.ones(3)).energy == 0.0


def test_energy_hand_value(p3):
    u = ground(p3, np.array([0.0, 1.0, 2.0]))
    assert u.energy == pytest.approx(2.0)


def test_dirac_energy_is_conductance(test_net):
    for x in test_net.vertices:
        d = en.delta(test_net, x)
        if x == test_net.origin:
            # grounding shifts the representative but not the energy
            assert d.energy == pytest.approx(en.total_conductance(test_net, x))
        else:
            assert d.energy == pytest.approx(en.total_conductance(test_net, x))


def test_energy_form_conjugate_symmetric(test_net):
    rng = np.random.default_rng(1)
    u = random_energy_vector(test_net, rng, complex_=True)
    v = random_energy_vector(test_net, rng, complex_=True)
    assert en.energy_form(u, v) == pytest.approx(np.conj(en.energy_form(v, u)))


def test_energy_form_network_mismatch(p3):
    other = en.generate("path", 3)
    with pytest.raises(NetworkMismatch):
        en.energy_form(zero_vector(p3), zero_vector(other))


def test_energy_kernel_hand_values(p3):
    assert np.allclose(en.energy_kernel(p3, 1).values, [0, 1, 1])
    assert np.allclose(en.energy_kernel(p3, 2).values, [0, 1, 2])
    assert np.abs(en.energy_kernel(p3, 0).values).max() == 0.0


def test_energy_kernel_dipole_equation(test_net):
    for x in x_vertices(test_net):
        vx = en.energy_kernel(test_net, x)
        lap = en.laplacian_apply(test_net, vx).values
        expected = np.zeros(test_net.n)
        expected[test_net.index(x)] = 1.0
        expected[test_net.origin_index] = -1.0
        assert np.abs(lap - expected).max() <= 1e-9


def test_energy_kernel_real_positive(test_net):
    for x in x_vertices(test_net):
        vx = en.energy_kernel(test_net, x)
        assert not np.iscomplexobj(vx.values)
        assert np.all(vx.values >= 0)
        assert vx[x] > 0


def test_energy_vectors_are_vertex_functions(test_net):
    rng = np.random.default_rng(4)
    x = x_vertices(test_net)[-1]
    u, vx = random_energy_vector(test_net, rng), en.energy_kernel(test_net, x)
    L = test_net.laplacian_matrix()
    made = [vx, en.ground(test_net, rng.standard_normal(test_net.n)), en.delta(test_net, x),
            u + vx, u - vx, 2.5 * u, u * -0.5]
    for w in made:
        assert isinstance(w, en.VertexFunction)
        assert not w.values.flags.writeable
        assert w.values[test_net.origin_index] == 0.0
        assert w.energy == pytest.approx(float(w.values @ L @ w.values), rel=1e-9, abs=1e-12)
    # complex values with zero imaginary part are stored real
    assert en.ground(test_net, u.values + 0j).values.dtype == np.float64
    assert [f.name for f in dataclasses.fields(en.EnergyVector)] == ["net", "values", "energy"]


def test_effective_resistance(p3):
    assert en.effective_resistance(p3, 1) == pytest.approx(1.0)
    assert en.effective_resistance(p3, 2) == pytest.approx(2.0)
    seg = en.generate("integer_segment", 6)
    for k in range(1, 6):
        assert en.effective_resistance(seg, k) == pytest.approx(k)
    with pytest.raises(UnknownVertex, match="to the origin itself is undefined"):
        en.effective_resistance(seg, 0)


def test_effective_resistance_is_one_forward_solve():
    """R(x) = ||W^{-1} e_x||^2 makes no (n - 1)^2 array, not even at X's
    first vertex, where a kernel vector's block solve copies W[1:, 1:]."""
    net = en.generate("integer_segment", 1000)
    net.grounded_factor
    x = net.x_vertices[0]
    tracemalloc.start()
    try:
        R = en.effective_resistance(net, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert R == pytest.approx(1.0, rel=1e-12)
    assert peak < 2**20, peak


def test_effective_resistance_consistency(test_net):
    for x in x_vertices(test_net):
        vx = en.energy_kernel(test_net, x)
        r = en.effective_resistance(test_net, x)
        assert abs(vx[x] - vx.energy) <= 1e-9 * r


def test_gram_matrix_hand_values(p3):
    gm = en.gram_matrix(p3, [1, 2])
    assert np.allclose(gm.V, [[1, 1], [1, 2]])
    single = en.gram_matrix(p3, [2])
    assert single.V[0, 0] == pytest.approx(en.effective_resistance(p3, 2))


def test_gram_matrix_segment_min():
    seg = en.generate("integer_segment", 8)
    gm = en.gram_matrix(seg, [1, 2, 3])
    assert np.allclose(gm.V, [[1, 1, 1], [1, 2, 2], [1, 2, 3]], atol=1e-9)


def test_gram_factor_is_upper_and_inverts_V(test_net):
    """V^{-1} = W W^T with W upper triangular, so W^T V W = I; over X, W is
    the network's factor itself, not a copy."""
    gm = en.gram_matrix(test_net, x_vertices(test_net))
    assert np.all(np.tril(gm.W, -1) == 0.0)
    assert np.abs(gm.W.T @ gm.V @ gm.W - np.eye(len(gm.F))).max() <= 1e-12
    assert np.shares_memory(gm.W, test_net.grounded_factor)


def test_network_keeps_no_dense_laplacian():
    seg = en.generate("integer_segment", 40)
    en.analyze(en.Multiplier.from_kernel(seg, 5))
    square = [k for k, v in vars(seg).items() if getattr(v, "shape", None) == (seg.n, seg.n)]
    assert square == []


def test_gram_matrix_rejects_origin(p3):
    with pytest.raises(OriginInF):
        en.gram_matrix(p3, [0, 1])
    with pytest.raises(UnknownVertex):
        en.gram_matrix(p3, [1, 42])


def test_gram_reproducing_consistency(test_net):
    gm = en.gram_matrix(test_net, x_vertices(test_net))
    for i, x in enumerate(gm.F):
        vx = en.energy_kernel(test_net, x)
        for j, y in enumerate(gm.F):
            assert abs(gm.V[i, j] - vx[y]) <= 1e-9


def _perturbed_back_substitution(monkeypatch, by, which="T"):
    """Patch scipy.linalg.solve_triangular so that every transposed solve,
    the back substitution W^T K = Y of a kernel solve and the prefix path's
    block solve, returns its column 1 moved by `by`; with which=0, every
    forward solve W Y = E_F instead."""
    solve = scipy.linalg.solve_triangular

    def perturbed(a, b, trans=0, **kwargs):
        sol = solve(a, b, trans=trans, **kwargs)
        if trans == which:
            sol[:, 1] += by
        return sol

    monkeypatch.setattr(scipy.linalg, "solve_triangular", perturbed)


def test_gram_cross_check_catches_bad_solve(monkeypatch):
    net = en.generate("integer_segment", 12)
    en.gram_matrix(net, [3, 7, 9])
    _perturbed_back_substitution(monkeypatch, 1e-6)
    with pytest.raises(ArithmeticError, match=r"Gram entry \(3,7\)"):
        en.gram_matrix(net, [3, 7, 9])


def test_gram_cross_check_sees_a_bad_solve_at_first_order(monkeypatch):
    # off a prefix, V = Y^T Y does not read the back substitution, so an
    # error d = 5e-9 on X in the column v_7 moves the pairing <v_3, v_7 + d>
    # by d(3) = 5e-9 and not the Gram value V_37 = 3: above the tolerance
    # 3e-9 there.  Were V read from K, it would carry the error too, and only
    # the second-order d-terms of the pairings would show
    net = en.generate("integer_segment", 12)
    _perturbed_back_substitution(monkeypatch, 5e-9)
    with pytest.raises(ArithmeticError, match=r"Gram entry \(3,7\)"):
        en.gram_matrix(net, [3, 7, 9])


def test_gram_cross_check_catches_bad_forward_solve(monkeypatch):
    # off a prefix V = Y^T Y and K = W^{-T} Y share the forward solve's
    # error D, so the pairings K^T L_X K = Y^T Y agree with V whatever D is;
    # K's rows at F, Y^T (Y + D), differ from V by D^T Y and show it
    net = en.generate("integer_segment", 12)
    _perturbed_back_substitution(monkeypatch, 1e-6, which=0)
    with pytest.raises(InvariantViolation, match=r"Gram entry \(7,7\): kernel value"):
        en.gram_matrix(net, [3, 7, 9])


def test_gram_cross_check_catches_bad_block_solve(monkeypatch):
    # the prefix path reads V from the factor and the kernel columns beyond F
    # from its block solve.  An error d there, off F, moves the pairings only
    # at second order (<v_x, d> = d(x) = 0 for x in F), so it is 1e-3 here:
    # <v_2, v_2> moves by 1e-6, on the edge (3, 4)
    net = en.generate("integer_segment", 12)
    en.gram_matrix(net, [1, 2, 3])
    _perturbed_back_substitution(monkeypatch, 1e-3)
    with pytest.raises(ArithmeticError, match=r"Gram entry \(2,2\)"):
        en.gram_matrix(net, [1, 2, 3])


def test_gram_cross_check_catches_bad_prefix_inverse(monkeypatch):
    # F = X, the default exhaustion's outer set: no kernel solve at all, so a
    # wrong W[:k, :k]^{-1} shows only in the pairings of the columns built from it
    net = en.generate("integer_segment", 12)
    xs = x_vertices(net)
    en.gram_matrix(net, xs)
    dtrtri = en.energy.dtrtri

    def perturbed(c, **kwargs):
        inv, info = dtrtri(c, **kwargs)
        inv[0, 1] += 1e-6
        return inv, info

    monkeypatch.setattr(en.energy, "dtrtri", perturbed)
    with pytest.raises(ArithmeticError, match=r"Gram entry \(1,2\)"):
        en.gram_matrix(net, xs)


@pytest.mark.parametrize("origin", [0, 100, 200])
def test_gram_over_x_is_the_kernel_columns(origin):
    """Kernel columns have their rows on X, so over F = X the Gram matrix is
    the kernel block itself, wherever the origin sits: no second n x n array."""
    net = en.build_network([(k, k + 1, 1.0) for k in range(200)], origin=origin)
    gram, K = en.energy._gram_and_columns(net, net.x_vertices)
    assert K.shape == (200, 200) and np.shares_memory(K, gram.V)
    assert np.array_equal(K, gram.V)


@pytest.mark.parametrize("origin", [0, 100, 200])
def test_short_prefix_gram_holds_no_kernel_columns(origin):
    """Over a prefix shorter than X, V is K's first rows in a k x k array of
    its own: a kept Gram matrix does not hold the (n-1) x k columns."""
    net = en.build_network([(k, k + 1, 1.0) for k in range(200)], origin=origin)
    gram, K = en.energy._gram_and_columns(net, net.x_vertices[:50])
    assert K.shape == (200, 50) and gram.V.base is None
    assert np.array_equal(K[:50], gram.V)


def test_gram_cross_check_fails_on_nan():
    # a NaN pairing is a mismatch, not a pass: NaN > tol is False
    net = en.generate("path", 4)
    gram, K = en.energy._gram_and_columns(net, net.x_vertices)
    V = np.array(gram.V)
    assert en.energy._first_mismatch(net, K, V, None) is None
    assert en.energy._first_mismatch(net, K, V, V.copy()) is None
    values = V.copy()
    values[1, 2] = np.nan
    assert en.energy._first_mismatch(net, K, V, values)[:3] == (1, 2, "kernel value")
    V[1, 2] = np.nan
    assert en.energy._first_mismatch(net, K, V, None)[:3] == (1, 2, "inner product")

    # over three row panels: the comparison runs a panel at a time
    P = PANEL
    net = en.generate("integer_segment", 2 * P + 3)
    gram, K = en.energy._gram_and_columns(net, net.x_vertices)
    V = np.array(gram.V)
    below = np.tril_indices(len(V), -1)
    # the pairings' lower triangle is syrk's zeros: it, and V's and the kernel
    # values' lower triangles, are never compared
    values = V.copy()
    values[below] = np.nan
    V[below] += 1.0
    assert en.energy._first_mismatch(net, K, V, values) is None
    # two mismatches in adjacent panels: the row-major first, not the
    # column-major one at (P, P + 1)
    V[P - 1, 2 * P + 2] += 1.0
    V[P, P + 1] += 1.0
    assert en.energy._first_mismatch(net, K, V, None)[:3] == (P - 1, 2 * P + 2, "inner product")
    values = np.array(gram.V)
    values[P - 1, 2 * P + 2] = values[P, P + 1] = 0.0
    assert en.energy._first_mismatch(net, K, gram.V, values)[:3] == (
        P - 1, 2 * P + 2, "kernel value")
    # a NaN in the last panel, on the diagonal
    V = np.array(gram.V)
    V[2 * P + 1, 2 * P + 1] = np.nan
    assert en.energy._first_mismatch(net, K, V, None)[:3] == (2 * P + 1, 2 * P + 1, "inner product")


@pytest.mark.parametrize("prefix", [True, False], ids=["prefix", "other"])
@pytest.mark.parametrize("k", [1, PANEL - 1, PANEL, PANEL + 1, 2 * PANEL + 3])
def test_kernel_gram_is_syrk_upper_triangle_mirrored(k, prefix):
    """_kernel writes Y^T Y into V's buffer and mirrors it by row panels: V
    equals, bit for bit, syrk's upper triangle plus its transpose with syrk's
    diagonal, for sizes around the panel height, on a prefix of X and off it."""
    net = en.generate("integer_segment", 2 * PANEL + 10)
    W = net.grounded_factor
    if prefix:
        idx = net.x_index[:k]
        Y = scipy.linalg.lapack.dtrtri(np.array(W[:k, :k], order="F"))[0]
    else:
        idx = net.x_index[np.random.default_rng(k).permutation(len(W))[:k]]
        assert not np.array_equal(idx, net.x_index[:k])
        Y = en.energy._unit_solve(net, idx)
    upper = scipy.linalg.blas.dsyrk(1.0, Y, trans=1)
    expected = upper + upper.T
    np.fill_diagonal(expected, np.diagonal(upper))
    assert np.array_equal(en.energy._kernel(net, idx)[0], expected)


@st.composite
def gram_networks(draw):
    """A random network (n <= 14, conductances uniform or log-uniform over
    10^(+-1)) or a generated one, with its origin anywhere in the vertex
    order, so that a prefix of X may straddle it."""
    if draw(st.booleans()):
        decades = draw(st.sampled_from([None, 1]))
        net = random_network(draw(st.integers(2, 14)), draw(st.integers(0, 10**6)),
                             decades=decades)
    else:
        family, sizes = draw(st.sampled_from([
            ("path", (2, 60)), ("cycle", (3, 60)), ("integer_segment", (2, 60)),
            ("binary_tree", (1, 5)),
        ]))
        net = en.generate(family, draw(st.integers(*sizes)))
    return en.build_network(net.edges, origin=draw(st.sampled_from(net.vertices)))


@settings(max_examples=60, deadline=None)
@given(gram_networks(), st.data())
def test_prefix_gram_equals_the_general_path(net, data):
    """V = Y^T Y over every F: a prefix of X, whose W is the leading block of
    the network's factor bit for bit, the same set in another order, and an
    arbitrary subset of X.  On each, V equals its transpose bit for bit
    (defect 0) and the block on F of the Gram matrix over X, and W is upper
    triangular with W^T V W = I."""
    X = net.x_vertices
    full = en.gram_matrix(net, X).V
    k = data.draw(st.integers(1, len(X)))
    perm = data.draw(st.permutations(range(k)))
    if k > 1 and perm == sorted(perm):
        perm = perm[::-1]  # a prefix in its own order would take the same path
    subset = data.draw(st.lists(st.integers(0, len(X) - 1), min_size=1, unique=True))
    assert np.array_equal(en.gram_matrix(net, X[:k]).W, net.grounded_factor[:k, :k])
    for pos in (list(range(k)), perm, subset):
        gram = en.gram_matrix(net, [X[p] for p in pos])
        V, W = gram.V, gram.W
        assert np.array_equal(V, V.T)
        assert np.abs(V - full[np.ix_(pos, pos)]).max() <= 1e-12 * np.abs(V).max()
        assert np.array_equal(W, np.triu(W))
        assert np.abs(W.T @ V @ W - np.eye(len(pos))).max() <= 1e-12
        # R(x) = V_xx from the forward solve alone, as the sufficiency bound reads it
        R = en.energy._kernel_diagonal(net, [net.index(X[p]) for p in pos])
        assert np.abs(R - np.diagonal(V)).max() <= 1e-12 * np.abs(V).max()


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 14), st.integers(0, 10**6), st.data())
def test_gram_subset_and_sufficiency_match_full(n, seed, data):
    net = random_network(n, seed=seed)
    xs = x_vertices(net)
    F = data.draw(st.permutations(xs))[: data.draw(st.integers(1, len(xs)))]
    full = en.gram_matrix(net, xs).V
    pos = [xs.index(x) for x in F]
    np.testing.assert_allclose(en.gram_matrix(net, F).V, full[np.ix_(pos, pos)],
                               rtol=0, atol=1e-12)

    f = np.random.default_rng(seed).normal(size=net.n)
    f[::3] = 0.0
    m = en.Multiplier(net, f)
    expected = sum(abs(f[net.index(x)]) * en.point_mass_norm(net, x) for x in xs)
    assert en.sufficiency_bound(m) == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_delta_gram(p3):
    dg = en.delta_gram(p3, [1, 2])
    assert np.allclose(dg, [[2, -1], [-1, 1]])
    assert en.delta_gram(p3, [2])[0, 0] == pytest.approx(1.0)
    seg = en.generate("integer_segment", 4)
    assert en.delta_gram(seg, [1, 3])[0, 1] == 0.0  # non-adjacent pair


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_reproducing_identity_random(seed):
    net = random_network(8, seed=seed % 100)
    rng = np.random.default_rng(seed)
    u = random_energy_vector(net, rng, complex_=bool(seed % 2))
    for x in net.vertices:
        resid = en.reproducing_check(net, x, u)
        assert resid <= 1e-9 * (1 + np.sqrt(u.energy))


def test_lap_pairing(test_net):
    rng = np.random.default_rng(2)
    ones = ground(test_net, np.ones(test_net.n))
    for x in test_net.vertices:
        assert en.lap_pairing_check(test_net, x, ones) <= 1e-12
    for _ in range(20):
        u = random_energy_vector(test_net, rng)
        for x in test_net.vertices:
            assert en.lap_pairing_check(test_net, x, u) <= 1e-10 * (1 + np.sqrt(u.energy))


def test_kernel_lap_pairing(p3):
    # <delta_x, v_y> = delta_y(x) - delta_o(x)
    for x in p3.vertices:
        for y in [1, 2]:
            vy = en.energy_kernel(p3, y)
            lhs = en.energy_form(en.delta(p3, x), vy)
            rhs = (1.0 if x == y else 0.0) - (1.0 if x == p3.origin else 0.0)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_fin_projection_hand_values(p3):
    v2 = en.energy_kernel(p3, 2)
    p = en.fin_projection(p3, v2, [1])
    assert np.abs(p.values).max() <= 1e-12
    v1 = en.energy_kernel(p3, 1)
    p = en.fin_projection(p3, v1, [1])
    assert np.allclose(p.values, 0.5 * en.delta(p3, 1).values)


def test_fin_projection_idempotent_and_orthogonal(test_net):
    rng = np.random.default_rng(3)
    F = x_vertices(test_net)[:3]
    u = random_energy_vector(test_net, rng)
    pu = en.fin_projection(test_net, u, F)
    ppu = en.fin_projection(test_net, pu, F)
    assert np.abs(pu.values - ppu.values).max() <= 1e-9
    resid = u - pu
    for x in F:
        assert abs(en.energy_form(en.delta(test_net, x), resid)) <= 1e-9


def test_fin_projection_full_set_is_identity(test_net):
    # finite networks carry no harmonic part: projecting onto all Diracs
    # (origin dropped) recovers u
    rng = np.random.default_rng(4)
    for _ in range(5):
        u = random_energy_vector(test_net, rng)
        pu = en.fin_projection(test_net, u, list(test_net.vertices))
        assert np.abs(pu.values - u.values).max() <= 1e-9


@pytest.mark.parametrize("F", [[2, 3, 2], [0, 1, 2, 3, 3], []])
def test_fin_projection_rejects_empty_or_repeated_F(F):
    # a repeat made the Dirac Gram matrix singular, and yet it was factored;
    # an empty F failed inside BLAS
    net = en.generate("path", 4)
    u = ground(net, np.arange(4.0))
    with pytest.raises(InvalidInput, match="F must be a nonempty list of distinct vertices"):
        en.fin_projection(net, u, F)
    # the projection onto span{delta_2, delta_3}
    np.testing.assert_allclose(en.fin_projection(net, u, [2, 3]).values, [0, 0, 1, 2], atol=1e-12)


def test_edge_sum_agrees_with_laplacian_pairing(test_net):
    # E(u, u) vs <u, laplacian u> pointwise sum on a finite network
    rng = np.random.default_rng(5)
    u = random_energy_vector(test_net, rng)
    lap = en.laplacian_apply(test_net, u).values
    assert u.energy == pytest.approx(float(np.real(np.conj(u.values) @ lap)), rel=1e-9)


def test_sup_and_banach_norms(p3):
    v1 = en.energy_kernel(p3, 1)
    assert en.sup_norm(v1) == pytest.approx(1.0)
    assert en.banach_norm(v1) == pytest.approx(2.0)
    assert en.banach_norm(ground(p3, np.ones(3))) == 0.0


def test_kernel_sup_bounded_by_resistance(test_net):
    for x in x_vertices(test_net):
        vx = en.energy_kernel(test_net, x)
        assert en.sup_norm(vx) <= en.effective_resistance(test_net, x) + 1e-12


def test_pointwise_product_hand_value(p3):
    v1, v2 = en.energy_kernel(p3, 1), en.energy_kernel(p3, 2)
    prod, est = en.pointwise_product(v1, v2)
    assert np.allclose(prod.values, [0, 1, 2])
    assert est.product_energy_sq == pytest.approx(2.0)
    assert est.slack >= -1e-9
    zero, _ = en.pointwise_product(v1, zero_vector(p3))
    assert np.abs(zero.values).max() == 0.0


def test_pointwise_product_estimate_random(test_net):
    rng = np.random.default_rng(6)
    for _ in range(30):
        u1 = random_energy_vector(test_net, rng, complex_=True)
        u2 = random_energy_vector(test_net, rng, complex_=True)
        _, est = en.pointwise_product(u1, u2)
        assert est.slack >= -1e-9


def test_pointwise_product_bound_check(monkeypatch, p3):
    # a bound that reads zero sup norms drops below the product energy
    v1, v2 = en.energy_kernel(p3, 1), en.energy_kernel(p3, 2)
    monkeypatch.setattr(en.energy, "sup_norm", lambda u: 0.0)
    with pytest.raises(InvariantViolation, match="exceeds its bound"):
        en.pointwise_product(v1, v2)


def test_pointwise_product_refuses_an_overflowing_product(p3):
    # each factor has finite energy (5e300); the product's energy and bound do not
    u = en.ground(p3, np.array([0.0, 1e150, -1e150]))
    assert np.isfinite(u.energy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no RuntimeWarning on the way
        with pytest.raises(InvalidInput, match="product energy inf or its bound inf"):
            en.pointwise_product(u, u)
