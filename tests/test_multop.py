import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import energynet as en
from energynet import checks, multop, numkernel
from energynet.checks import (
    bisect_bound,
    hermitian_defect,
    normalized_projections,
    rank_one_identities,
    truncation_consistency,
)
from energynet.cli import main
from energynet.errors import (
    InsufficientEnclosure,
    InvalidInput,
    InvariantViolation,
    NetworkMismatch,
    OriginInF,
    UnknownVertex,
)
from energynet.multop import (
    Multiplier,
    adjoint_on_kernel,
    analyze,
    apply,
    certify_bound,
    default_exhaustion,
    point_mass_norm,
    restricted_norm,
    s_matrix,
    sufficiency_bound,
)

from conftest import random_energy_vector, random_network, x_vertices


def test_apply_regrounds(p3):
    m = Multiplier.from_kernel(p3, 2)  # f = (0, 1, 2)
    u = en.energy_kernel(p3, 1)  # (0, 1, 1)
    out = apply(m, u)
    assert np.allclose(out.values, [0, 1, 2])
    shifted = en.ground(p3, np.array([5.0, 6.0, 6.0]))  # same class as u
    assert np.allclose(apply(m, shifted).values, out.values)
    with pytest.raises(NetworkMismatch):
        apply(m, en.energy_kernel(en.generate("path", 3), 1))


def test_adjoint_on_kernel(p3):
    m = Multiplier.from_dict(p3, {1: 2.0 + 1.0j, 2: -3.0})
    ax = adjoint_on_kernel(m, 1)
    assert np.allclose(ax.values, (2.0 - 1.0j) * en.energy_kernel(p3, 1).values)
    with pytest.raises(UnknownVertex):
        adjoint_on_kernel(m, 0)


def test_adjoint_pairing(test_net):
    # <M_f u, v_x> = <u, conj(f(x)) v_x> for random u
    rng = np.random.default_rng(7)
    fvals = rng.normal(size=test_net.n) + 1j * rng.normal(size=test_net.n)
    m = Multiplier(test_net, fvals)
    u = random_energy_vector(test_net, rng, complex_=True)
    for x in x_vertices(test_net):
        lhs = en.energy_form(apply(m, u), en.energy_kernel(test_net, x))
        rhs = en.energy_form(u, adjoint_on_kernel(m, x))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_hermitian_defect(p3):
    v1, v2 = en.energy_kernel(p3, 1), en.energy_kernel(p3, 2)
    m = Multiplier.from_kernel(p3, 2)
    assert complex(hermitian_defect(m, v1, v2)) == pytest.approx(1.0)
    const = Multiplier.constant(p3, 3.5)
    assert abs(hermitian_defect(const, v1, v2)) <= 1e-12
    imag = Multiplier.constant(p3, 1j)
    assert abs(hermitian_defect(imag, v1, v2)) > 0.1


def test_s_matrix_hand_values(p3):
    m = Multiplier.delta(p3, 1)
    S = s_matrix(m, np.sqrt(2.0), [1, 2])
    assert np.allclose(S, [[1, 2], [2, 4]])
    assert numkernel.psd_check(S).is_psd
    S_low = s_matrix(m, 1.4, [1, 2])
    assert np.allclose(S_low, [[0.96, 1.96], [1.96, 3.92]])
    verdict = numkernel.psd_check(S_low)
    assert not verdict.is_psd
    # the witness vector certifies the failure
    xi = verdict.witness
    assert np.real(np.conj(xi) @ S_low @ xi) < 0


def test_s_matrix_rejects_bad_input(p3):
    m = Multiplier.delta(p3, 1)
    for b in (-1.0, np.nan, np.inf, 1e155, 1e200):
        with pytest.raises(InvalidInput):
            s_matrix(m, b, [1])
        with pytest.raises(InvalidInput):
            certify_bound(m, b, [(1,), (1, 2)])
        with pytest.raises(InvalidInput):
            analyze(m, bound=b)
    with pytest.raises(OriginInF):
        s_matrix(m, 1.0, [0, 1])


def test_certify_bound_nesting(p3):
    m = Multiplier.delta(p3, 1)
    with pytest.raises(ValueError):
        certify_bound(m, 2.0, [(1, 2), (1,)])
    # the nesting check runs before any eigensolve (the trace would decrease)
    with pytest.raises(ValueError, match="nested"):
        analyze(m, [(1, 2), (1,)])
    verdicts = certify_bound(m, 2.0, [(1,), (1, 2)])
    assert all(v.is_psd for v in verdicts)


def test_non_nested_exhaustion_is_invalid_input(p3):
    m = Multiplier.delta(p3, 1)
    runs = [
        lambda: analyze(m, [(1, 2), (2,)]),
        lambda: analyze(m, [(1,), (2,)], bound=2.0),
        lambda: certify_bound(m, 2.0, [(2,), (1,)]),
        lambda: bisect_bound(m, [(1, 2), (1,)]),
        lambda: truncation_consistency(m, [1, 2], [2]),
    ]
    for run in runs:
        with pytest.raises(InvalidInput, match="exhaustion sets must be nested"):
            run()


@pytest.mark.parametrize("exhaustion", [[(1, 1), (1, 2)], [(), (1,)], []])
def test_exhaustion_levels_validated(p3, exhaustion):
    m = Multiplier.delta(p3, 1)
    with pytest.raises(InvalidInput):
        analyze(m, exhaustion)
    with pytest.raises(InvalidInput):
        certify_bound(m, 2.0, exhaustion)
    with pytest.raises(InvalidInput):
        bisect_bound(m, exhaustion)


def test_one_gram_per_exhaustion(monkeypatch):
    net = en.generate("integer_segment", 12)
    m = Multiplier.from_kernel(net, 3)
    exhaustion = default_exhaustion(net)
    calls = []
    gram_matrix = multop.gram_matrix
    monkeypatch.setattr(
        multop, "gram_matrix", lambda net, F: calls.append(tuple(F)) or gram_matrix(net, F)
    )
    for run in (
        lambda: analyze(m),
        lambda: analyze(m, exhaustion, bound=5.0),
        lambda: certify_bound(m, 5.0, exhaustion),
        lambda: bisect_bound(m),
    ):
        calls.clear()
        run()
        assert calls == [exhaustion[-1]]


def _shuffled_nested_case(seed):
    """Complex f on a random network and a nested exhaustion whose levels,
    outer set included, are each in shuffled order; the rng is returned for
    further draws."""
    rng = np.random.default_rng(seed)
    net = random_network(9, seed=seed % 50)
    fvals = rng.normal(size=net.n) + 1j * rng.normal(size=net.n)
    m = Multiplier(net, fvals)
    xs = x_vertices(net)
    joined = [xs[i] for i in rng.permutation(len(xs))]  # order of entry
    sizes = sorted(set(rng.integers(1, len(xs) + 1, size=3)) | {len(xs)})
    exhaustion = [tuple(joined[i] for i in rng.permutation(s)) for s in sizes]
    exhaustion[-1] = tuple(xs[i] for i in rng.permutation(len(xs)))
    return m, exhaustion, rng


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_nested_levels_match_per_level(seed):
    """On a nested exhaustion whose outer set is shuffled, so each level is a
    principal (not leading) block of the outer Gram, analyze and
    certify_bound agree with the one-set functions level by level."""
    m, exhaustion, rng = _shuffled_nested_case(seed)

    def close(a, b):
        return a == pytest.approx(b, rel=1e-12, abs=1e-12)

    rep = analyze(m, exhaustion)
    b = rep.psd_certificates[0][0]
    for (F, rho), (_, v) in zip(rep.lower_bounds, rep.psd_certificates):
        assert close(rho, restricted_norm(m, F))
        one = numkernel.psd_check(s_matrix(m, b, F))
        assert v.is_psd == one.is_psd and close(v.min_eigenvalue, one.min_eigenvalue)
    b = rep.best_lower * rng.uniform(0.5, 1.5)
    for F, v in zip(exhaustion, certify_bound(m, b, exhaustion)):
        one = numkernel.psd_check(s_matrix(m, b, F))
        assert v.is_psd == one.is_psd and close(v.min_eigenvalue, one.min_eigenvalue)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 14), st.integers(0, 10**6), st.data())
def test_s_matrix_is_exactly_hermitian(n, seed, data):
    """S is Hermitian bit for bit with no symmetrization, for complex f, over
    a prefix of X and over any other set, with the origin anywhere."""
    net = random_network(n, seed)
    net = en.build_network(net.edges, origin=data.draw(st.sampled_from(net.vertices)))
    rng = np.random.default_rng(seed)
    m = Multiplier(net, rng.standard_normal(net.n) + 1j * rng.standard_normal(net.n))
    X = net.x_vertices
    k = data.draw(st.integers(1, len(X)))
    for F in (X[:k], data.draw(st.permutations(X))[:k]):
        S = s_matrix(m, rng.uniform(0.0, 3.0), F)
        assert np.array_equal(S, S.conj().T)


def test_one_s_per_level_and_one_gram_per_analysis(monkeypatch):
    """Each bound builds one S_F per level it certifies, of that level's size,
    and each analysis one Gram matrix over the outer set, however many levels
    the exhaustion has."""
    net = en.generate("integer_segment", 12)
    m = Multiplier.from_kernel(net, 3)
    xs = x_vertices(net)
    sizes, grams = [], []
    s, gram_matrix = multop._s, multop.gram_matrix
    monkeypatch.setattr(multop, "_s", lambda b, fv, V: sizes.append(len(fv)) or s(b, fv, V))
    monkeypatch.setattr(multop, "gram_matrix", lambda *a: grams.append(1) or gram_matrix(*a))
    rho = restricted_norm(m, xs)
    for levels in (2, 6):
        exhaustion = [tuple(xs[:k]) for k in np.linspace(1, len(xs), levels, dtype=int)]
        for run in (
            lambda: analyze(m, exhaustion),
            lambda: certify_bound(m, 0.5 * rho, exhaustion),
            lambda: certify_bound(m, 2 * rho, exhaustion),
        ):
            sizes.clear()
            grams.clear()
            run()
            assert sizes == [len(F) for F in exhaustion] and grams == [1]
        sizes.clear()
        grams.clear()
        bisect_bound(m, exhaustion, tol=1e-3)
        # each probe starts at F_1 and stops at its first failing level
        probes = sizes.count(len(exhaustion[0]))
        assert set(sizes) == {len(F) for F in exhaustion} and grams == [1]
        assert len(sizes) < probes * len(exhaustion)


def test_witnesses_from_one_subset_eigensolve(monkeypatch):
    """analyze, bisect_bound and certify_bound read their verdicts from one
    subset eigensolve per level and probe, and no full eigendecomposition:
    every failing certificate carries its witness, a negative direction of
    S_F, and analyze's witnesses are certify_bound's."""
    net = en.generate("integer_segment", 40)
    m = Multiplier.from_kernel(net, 5)
    exhaustion = default_exhaustion(net)
    b = 0.99 * restricted_norm(m, exhaustion[-1])
    solves, probes = [], []
    eigh, s = scipy.linalg.eigh, multop._s
    monkeypatch.setattr(
        scipy.linalg, "eigh", lambda a, **kw: solves.append(kw["subset_by_index"]) or eigh(a, **kw)
    )
    monkeypatch.setattr(multop, "_s", lambda *args: probes.append(1) or s(*args))
    report = analyze(m, exhaustion, bound=b)
    assert report.verdict.startswith("FAIL")
    assert solves == [[0, 0]] * len(exhaustion) and len(probes) == len(exhaustion)
    verdicts = certify_bound(m, b, exhaustion)
    assert solves == [[0, 0]] * 2 * len(exhaustion) and len(probes) == 2 * len(exhaustion)
    failing = [(F, v) for F, v in zip(exhaustion, verdicts) if not v.is_psd]
    assert 0 < len(failing) < len(verdicts)
    for (F, v), (_, w) in zip(zip(exhaustion, verdicts), report.psd_certificates):
        assert (w.is_psd, w.min_eigenvalue) == (v.is_psd, v.min_eigenvalue)
        assert (v.witness is None) == v.is_psd and (w.witness is None) == w.is_psd
        if not v.is_psd:
            assert np.array_equal(w.witness, v.witness)
            assert np.real(np.conj(v.witness) @ s_matrix(m, b, F) @ v.witness) < 0
    solves.clear()
    probes.clear()
    bisect_bound(m, exhaustion, tol=1e-3)
    # one S_F and one subset eigensolve per level that a probe reaches
    assert set(map(tuple, solves)) == {(0, 0)} and len(probes) == len(solves)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_failing_witness_in_level_order(seed):
    """Below the norm, every failing level's witness is a negative direction of
    S_F with its entries in F's own (shuffled) order."""
    m, exhaustion, rng = _shuffled_nested_case(seed)
    b = restricted_norm(m, exhaustion[-1]) * rng.uniform(0.3, 0.9)
    verdicts = certify_bound(m, b, exhaustion)
    assert not verdicts[-1].is_psd
    for F, v in zip(exhaustion, verdicts):
        if not v.is_psd:
            xi = v.witness
            assert np.real(np.conj(xi) @ s_matrix(m, b, F) @ xi) < 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 12), st.sampled_from([-1.0, 1.0]), st.booleans())
def test_analyze_certificates_never_contradict(seed, j, sign, complex_):
    """At b = rho (1 +- 10^-j), at the edge of the certificates' resolution,
    analyze either raises InvariantViolation or reports what a psd matrix
    allows: no level passes after an inner level failed, and no PASS below
    the trace's own lower bound."""
    rng = np.random.default_rng(seed)
    net = random_network(int(rng.integers(2, 30)), seed=seed)
    m = Multiplier(net, rng.normal(size=net.n) + (1j * rng.normal(size=net.n) if complex_ else 0))
    b = restricted_norm(m, x_vertices(net)) * (1 + sign * 10.0**-j)
    try:
        rep = analyze(m, bound=b)
    except InvariantViolation:
        return
    psd = [v.is_psd for _, v in rep.psd_certificates]
    assert psd == sorted(psd, reverse=True)
    assert not (rep.verdict.startswith("PASS") and b < rep.best_lower * (1 - 1e-9))


_PREFIX_F = {
    "real": lambda net, v: v,
    "generic phase": lambda net, v: v * np.exp(0.5j * np.arange(net.n)),
    # real on the first 9 vertices, so on the levels of 1, 2, 4 and 8 vertices
    "mixed phase": lambda net, v: v * np.where(np.arange(net.n) < 9, 1, 1j),
}


@pytest.mark.parametrize("family, size, x, f", [
    ("integer_segment", 40, 7, "real"), ("binary_tree", 5, 9, "real"),
    ("integer_segment", 40, 7, "generic phase"), ("integer_segment", 40, 7, "mixed phase"),
])
def test_prefix_certificates_equal_one_set(family, size, x, f):
    """On prefix levels, each level's S_F holds the very entries of the
    one-set S_F, real where they can be, so the verdicts agree bit for bit,
    also on a level where a mixed-phase f is real."""
    net = en.generate(family, size)
    m = Multiplier(net, _PREFIX_F[f](net, en.energy_kernel(net, x).values))
    exhaustion = default_exhaustion(net)
    rho = restricted_norm(m, exhaustion[-1])
    for b in (0.7 * rho, 1.1 * rho):
        for F, v in zip(exhaustion, certify_bound(m, b, exhaustion)):
            one = numkernel.psd_check(s_matrix(m, b, F))
            assert (v.is_psd, v.min_eigenvalue, v.tol) == (one.is_psd, one.min_eigenvalue, one.tol)
            assert v.is_psd or np.array_equal(v.witness, one.witness)


def test_restricted_norm_hand_value(p3):
    m = Multiplier.delta(p3, 1)
    assert restricted_norm(m, [1, 2]) == pytest.approx(np.sqrt(2.0), abs=1e-10)
    # on the singleton {1} the operator acts as f(1) = 1
    assert restricted_norm(m, [1]) == pytest.approx(1.0, abs=1e-12)


def test_restricted_norm_monotone(test_net):
    rng = np.random.default_rng(8)
    m = Multiplier(test_net, rng.normal(size=test_net.n))
    xs = x_vertices(test_net)
    prev = 0.0
    for k in range(1, len(xs) + 1):
        rho = restricted_norm(m, xs[:k])
        assert rho >= prev - 1e-9 * max(1.0, prev)
        prev = max(prev, rho)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_restricted_norm_matches_random_rayleigh(seed):
    """On random networks with complex f and levels that are not prefixes of
    the outer set's order, every rho_F (from analyze's trace and from
    restricted_norm) bounds 10^4 random Rayleigh quotients of the pencil
    (P_F o V_F, V_F) and equals its top generalized eigenvalue."""
    rng = np.random.default_rng(seed)
    net = random_network(8, seed=seed % 50)
    m = Multiplier(net, rng.normal(size=net.n) + 1j * rng.normal(size=net.n))
    xs = x_vertices(net)
    joined = [xs[i] for i in rng.permutation(len(xs))]
    sizes = sorted(set(rng.integers(1, len(xs) + 1, size=3)) | {len(xs)})
    exhaustion = [tuple(joined[i] for i in rng.permutation(s)) for s in sizes]
    for (F, traced), F_again in zip(analyze(m, exhaustion).lower_bounds, exhaustion):
        assert F == F_again
        V = en.gram_matrix(net, F).V
        fv = np.array([m[x] for x in F])
        A = np.outer(fv, np.conj(fv)) * V
        lam = scipy.linalg.eigh(A, V, eigvals_only=True)[-1]
        xi = rng.standard_normal((10**4, len(F))) + 1j * rng.standard_normal((10**4, len(F)))
        num = np.real(np.einsum("ki,ij,kj->k", xi.conj(), A, xi))
        den = np.real(np.einsum("ki,ij,kj->k", xi.conj(), V, xi))
        for rho in (traced, restricted_norm(m, F)):
            assert (num / den).max() <= rho**2 * (1 + 1e-9) + 1e-12
            assert rho**2 == pytest.approx(lam, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("c", [2.5, -0.75, 1 + 2j])
def test_const_trace_is_modulus(c):
    # T = conj(c) I: a fully clustered spectrum at every level
    net = en.generate("integer_segment", 40)
    xs = x_vertices(net)
    rep = analyze(Multiplier.constant(net, c), [tuple(xs[:k]) for k in range(1, len(xs) + 1)])
    assert len(rep.lower_bounds) == len(xs)
    for _, rho in rep.lower_bounds:
        assert rho == pytest.approx(abs(c), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(-150, 150), st.sampled_from([1, -1, 1j]))
def test_trace_is_scale_free(seed, j, unit):
    """rho_F(c f) = |c| rho_F(f) for c = unit * 10^j, |j| <= 150: the trace
    runs on f scaled into range, so |c f|^2 V never overflows or underflows."""
    rng = np.random.default_rng(seed)
    net = random_network(int(rng.integers(3, 12)), seed=seed % 50)
    f = rng.normal(size=net.n) + 1j * rng.normal(size=net.n) * rng.integers(0, 2)
    c = unit * 10.0**j
    xs = x_vertices(net)
    F = [xs[i] for i in rng.permutation(len(xs))[: rng.integers(1, len(xs) + 1)]]
    rho = restricted_norm(Multiplier(net, f), F)
    assert restricted_norm(Multiplier(net, c * f), F) == pytest.approx(abs(c) * rho, rel=1e-13)


@pytest.mark.parametrize("f", ["kernel", "complex"])
def test_trace_makes_no_solve_and_only_vector_products(monkeypatch, f):
    # T_k^H T_k = W_k^T D_k V_k D_k* W_k is applied through the Gram matrix's
    # factor and V, never formed: the trace makes no triangular solve, and
    # every triangular (dtrmv) and dense (matmul) product it makes takes a
    # 1-D vector
    net = en.generate("integer_segment", 40)
    m = Multiplier.from_kernel(net, 5)
    if f == "complex":
        m = Multiplier(net, m.f * (1 - 2j))
    _, trace, _ = multop._nested_levels(m, None)
    calls = []

    def spy(name, op):
        def recorded(a, b, *args, **kwargs):
            calls.append((name, np.shape(b)))
            return op(a, b, *args, **kwargs)
        return recorded

    for module, name in [(scipy.linalg, "solve_triangular"), (multop, "dtrmv"),
                         (multop, "matmul")]:
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    rho = max(r for _, r in trace())
    assert rho == pytest.approx(5.94858521 * (1 if f == "kernel" else np.sqrt(5)), rel=1e-8)
    assert {name for name, _ in calls} == {"dtrmv", "matmul"}
    assert all(len(shape) == 1 for _, shape in calls)


_CEILING_F = {
    "kernel:5": lambda net: Multiplier.from_kernel(net, 5),
    "delta:100": lambda net: Multiplier.delta(net, 100),
    "complex": lambda net: Multiplier(net, Multiplier.from_kernel(net, 5).f
                                      * np.exp(0.5j * np.arange(net.n))),
}


def _analyze_peak(m, bound):
    """analyze(m, bound)'s traced peak in (n - 1) x (n - 1) arrays of doubles,
    the network's factor built first."""
    m.net.grounded_factor
    tracemalloc.start()
    try:
        analyze(m, bound=bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * (m.net.n - 1) ** 2)


@pytest.mark.parametrize("bound", [None, 1.0], ids=["estimate", "bound"])
@pytest.mark.parametrize("f", sorted(_CEILING_F))
def test_analyze_memory_ceiling(f, bound):
    """Past the network's factor, analyze holds at most V and one n x n work
    array: the kernel's Y, the cross-check's pairings (its edge differences
    are one panel of edges), or one level's S_F, solved in its own buffer.
    A real f peaks at 2.61 arrays, in the Gram phase, and must stay under
    2.75 (3.16 with the edge differences whole).  A complex S_F and its copy
    take two arrays each: a complex f peaks at 5.29 arrays and must stay
    under 5.5, below one more real n x n temporary."""
    arrays = _analyze_peak(_CEILING_F[f](en.generate("integer_segment", 400)), bound)
    assert arrays <= (5.5 if f == "complex" else 2.75), arrays


@pytest.mark.parametrize("bound", [None, 1.0], ids=["estimate", "bound"])
def test_certificate_memory_ceiling(bound):
    """The certificates hold V and one level's S_F at a time, solved in its
    own buffer: with V built before them, their traced peak on real f reads
    2.20 arrays and must stay under 2.3 (2.51 with one S over the outer set
    and a copy of each inner level's block)."""
    net = en.generate("integer_segment", 400)
    m = Multiplier.from_kernel(net, 5)
    net.grounded_factor
    tracemalloc.start()
    try:
        certify, trace, _ = multop._nested_levels(m, None)
        b = max(rho for _, rho in trace()) * (1 + 1e-9) if bound is None else bound
        tracemalloc.reset_peak()
        verdicts = list(certify(b))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(v.is_psd for v in verdicts) == (bound is None)
    arrays = peak / (8 * (net.n - 1) ** 2)
    assert arrays <= 2.3, arrays


@pytest.mark.parametrize("extra_edges", [400, 800, 1203, 1603])
def test_analyze_memory_ceiling_many_edges(extra_edges):
    """The ceiling does not grow with |E|: the cross-check builds its edge
    differences one panel of edges at a time.  On 401 vertices with
    |E| = 400 + extra_edges, 800 to 2003, the peak reads 2.59-2.70 arrays
    (4.02-7.04 with the |E| x |F| differences whole)."""
    net = random_network(401, 3, extra_edges=extra_edges)
    assert len(net.edge_w) == 400 + extra_edges
    arrays = _analyze_peak(Multiplier.from_kernel(net, 5), None)
    assert arrays <= 2.75, arrays


def test_s_matrix_names_bad_b_or_overflow(p3):
    m = Multiplier.delta(p3, 1)
    for b in (-1.0, np.nan, np.inf):
        with pytest.raises(InvalidInput, match="b must be finite and nonnegative"):
            s_matrix(m, b, [1])
    # b^2 V overflows at a finite b, and so does f f* V at b = 1
    with pytest.raises(InvalidInput, match=r"overflows at the finite b = 1e\+154"):
        s_matrix(m, 1e154, [1, 2])
    with pytest.raises(InvalidInput, match="overflows at the finite b = 1.0"):
        s_matrix(Multiplier.constant(p3, 1e160), 1.0, [1, 2])


def test_pencil_residual_check(monkeypatch, capsys):
    top_eigpair = multop.top_eigpair

    def perturbed(*args, **kwargs):
        lam, q = top_eigpair(*args, **kwargs)
        q = q.copy()
        q[0] += 1e-3
        return lam, q

    monkeypatch.setattr(multop, "top_eigpair", perturbed)
    net = en.generate("integer_segment", 12)
    with pytest.raises(InvariantViolation, match="pencil residual"):
        restricted_norm(Multiplier.from_kernel(net, 3), x_vertices(net))
    argv = ["mult", "--gen", "integer_segment:12", "--f", "kernel:3", "--estimate"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error: pencil residual")


def _decreasing_trace(certify, trace, sufficiency):
    # the levels' norms in reverse: the trace of kernel:3 increases strictly
    def reversed_trace():
        levels = trace()
        return [(F, rho) for (F, _), (_, rho) in zip(levels, levels[::-1])]

    return certify, reversed_trace, sufficiency


def _low_sufficiency(certify, trace, sufficiency):
    return certify, trace, lambda: 0.0


@pytest.mark.parametrize(
    "spoil, message",
    [(_decreasing_trace, "restricted norm decreased along the exhaustion"),
     (_low_sufficiency, "exceeds sufficiency bound")],
)
def test_analyze_guards(monkeypatch, capsys, spoil, message):
    nested_levels = multop._nested_levels
    monkeypatch.setattr(multop, "_nested_levels", lambda *args: spoil(*nested_levels(*args)))
    net = en.generate("integer_segment", 12)
    with pytest.raises(InvariantViolation, match=message):
        analyze(Multiplier.from_kernel(net, 3))
    assert main(["mult", "--gen", "integer_segment:12", "--f", "kernel:3", "--estimate"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error: ") and message in err


def _pencil_rho(m, F):
    """sqrt of the top eigenvalue of the pencil (P_F o V_F, V_F), from a
    dense generalized eigensolve."""
    V = en.gram_matrix(m.net, F).V
    fv = np.array([m[x] for x in F])
    lam = scipy.linalg.eigh(np.outer(fv, np.conj(fv)) * V, V, eigvals_only=True)[-1]
    return float(np.sqrt(max(lam, 0.0)))


def _trap_orthogonal_start():
    # f as test_norm_invariants_random draws it at seed 14755: the unit vector
    # at the largest diagonal entry of T^H T is orthogonal to its top
    # eigenvector, so a Krylov run started there returns 2.297, not 2.865
    net = random_network(7, seed=5)
    rng = np.random.default_rng(14755)
    fvals = rng.normal(size=net.n) + 1j * rng.normal(size=net.n)
    fvals[net.origin_index] = 0.0
    return Multiplier(net, fvals), [tuple(x_vertices(net))]


def _trap_warm_start():
    # test_nested_levels_match_per_level at seed 368396: started from the
    # previous level's vector, the residual test stops on an exact lower
    # eigenpair (2.42 where the norm is 3.585)
    return _shuffled_nested_case(368396)[:2]


def _rank_one(family, size, x):
    # f = delta_x vanishes on every level before x joins: T_k is 0, then rank one
    net = en.generate(family, size)
    return Multiplier.delta(net, x), default_exhaustion(net)


def _small_levels():
    net = random_network(6, seed=4)
    rng = np.random.default_rng(4)
    m = Multiplier(net, rng.normal(size=net.n) + 1j * rng.normal(size=net.n))
    xs = x_vertices(net)
    return m, [tuple(xs[:1]), tuple(xs[:2])]


@pytest.mark.parametrize(
    "case",
    [
        _trap_orthogonal_start,
        _trap_warm_start,
        lambda: _rank_one("integer_segment", 40, 21),
        lambda: _rank_one("integer_segment", 40, 40),
        lambda: _rank_one("binary_tree", 5, 17),
        lambda: _rank_one("binary_tree", 5, 62),
        _small_levels,
    ],
    ids=["orthogonal-start", "warm-start", "segment-21", "segment-40", "tree-17", "tree-62",
         "k=1,2"],
)
def test_trace_matches_dense_pencil(case):
    m, exhaustion = case()
    rep = analyze(m, exhaustion)
    assert rep.verdict.startswith("certified")
    best = 0.0
    for F, (F_rep, traced) in zip(exhaustion, rep.lower_bounds):
        assert F_rep == F
        rho = _pencil_rho(m, F)
        best = max(best, rho)
        assert traced == pytest.approx(best, rel=1e-10, abs=1e-12)
        assert restricted_norm(m, F) == pytest.approx(rho, rel=1e-10, abs=1e-12)


def test_trace_bit_identical_in_any_order():
    net = random_network(30, seed=7)
    rng = np.random.default_rng(7)
    m = Multiplier(net, rng.normal(size=net.n) + 1j * rng.normal(size=net.n))
    xs = x_vertices(net)
    A, B = xs[:11], xs[::-1]
    first = [restricted_norm(m, A), restricted_norm(m, B), analyze(m).to_json_dict()]
    again = [restricted_norm(m, A), restricted_norm(m, B), analyze(m).to_json_dict()]
    swapped = [analyze(m).to_json_dict(), restricted_norm(m, B), restricted_norm(m, A)]
    assert first == again == [swapped[2], swapped[1], swapped[0]]


def test_analyze_upper_reads_gram_diagonal(monkeypatch):
    net = en.generate("integer_segment", 40)
    m = Multiplier.constant(net, 2.0)
    calls = []

    def spy(name, query):
        def counted(net, idx):
            calls.append((name, list(idx)))
            return query(net, idx)

        return counted

    monkeypatch.setattr(en.energy, "_kernel", spy("kernel", en.energy._kernel))
    monkeypatch.setattr(multop, "_kernel_diagonal", spy("diagonal", en.energy._kernel_diagonal))
    # the default exhaustion's F_m = X: R(x) = V_xx from its Gram matrix, no second query
    rep = analyze(m)
    assert calls == [("kernel", list(range(1, 41)))]
    assert rep.upper_bound == pytest.approx(sufficiency_bound(m), rel=1e-12)
    # support outside F_m: its R(x) comes from one forward solve for just
    # those vertices, with no kernel columns
    calls.clear()
    rep = analyze(m, [(1, 2), (1, 2, 3)])
    assert calls == [("kernel", [1, 2, 3]), ("diagonal", list(range(4, 41)))]
    assert rep.upper_bound == pytest.approx(sufficiency_bound(m), rel=1e-12)
    # a set that is not a prefix takes the same one query
    calls.clear()
    rep = analyze(m, [(2, 1), (2, 1, 3)])
    assert calls == [("kernel", [2, 1, 3]), ("diagonal", list(range(4, 41)))]
    assert rep.upper_bound == pytest.approx(sufficiency_bound(m), rel=1e-12)


def test_default_samples_one_solve(monkeypatch):
    seg = en.generate("integer_segment", 8)
    m = Multiplier.from_kernel(seg, 3)
    calls = []
    kernel = en.energy._kernel

    def counted(net, idx):
        calls.append(list(idx))
        return kernel(net, idx)

    monkeypatch.setattr(en.energy, "_kernel", counted)
    # one query for the Gram matrix over F_m, one for the default samples
    assert truncation_consistency(m, [1, 2, 3], [1, 2, 3, 4]) <= 1e-9
    assert calls == [[1, 2, 3, 4], list(range(1, 9))]
    calls.clear()
    assert truncation_consistency(m, [3, 2, 1], [3, 2, 1, 4]) <= 1e-9
    assert calls == [[3, 2, 1, 4], list(range(1, 9))]
    calls.clear()
    assert rank_one_identities(seg, 2, 3) <= 1e-9
    assert calls == [list(range(1, 9))]


_TRACE_NETS = [
    ("integer_segment", 8),
    ("integer_segment", 40),
    ("integer_segment", 200),
    ("path", 30),
    ("binary_tree", 5),
    ("cycle", 20),
]
_TRACE_MULTIPLIERS = {
    "kernel:5": lambda net: Multiplier.from_kernel(net, 5),
    "delta:3": lambda net: Multiplier.delta(net, 3),
    "const:2.5": lambda net: Multiplier.constant(net, 2.5),
}


@pytest.mark.parametrize("step", [1, 2, 3, 5, 7, "doubling"])
@pytest.mark.parametrize("spec", sorted(_TRACE_MULTIPLIERS))
@pytest.mark.parametrize("family,size", _TRACE_NETS)
def test_reported_trace_nondecreasing(family, size, spec, step):
    net = en.generate(family, size)
    xs = x_vertices(net)
    if step == "doubling":
        exhaustion = default_exhaustion(net)
    else:
        exhaustion = [tuple(xs[:k]) for k in list(range(1, len(xs), step)) + [len(xs)]]
    rhos = [rho for _, rho in analyze(_TRACE_MULTIPLIERS[spec](net), exhaustion).lower_bounds]
    assert rhos == sorted(rhos)


def test_multiplier_is_vertex_function(p3):
    m = Multiplier.delta(p3, 1)
    assert isinstance(m, en.VertexFunction) and m[1] == 1.0 and m.f is m.values
    for made in (m, Multiplier.from_dict(p3, {2: 1j}), Multiplier.constant(p3, 2.0)):
        assert not made.f.flags.writeable
    # the constructor keeps a read-only copy: a later write to the caller's
    # array changes neither the values nor the norm
    fvals = np.array([0.0, 1.0, 2.0, 3.0])
    m = Multiplier(en.generate("path", 4), fvals)
    norm = restricted_norm(m, [1, 2, 3])
    assert norm == pytest.approx(3.5204, abs=1e-4)
    fvals[3] = 30.0
    assert m[3] == 3.0 and not m.f.flags.writeable and fvals.flags.writeable
    assert restricted_norm(m, [1, 2, 3]) == norm


def test_from_kernel_takes_kernel_values(test_net):
    x = x_vertices(test_net)[-1]
    f = Multiplier.from_kernel(test_net, x).f
    assert f.dtype == np.float64 and f.flags.c_contiguous and not f.flags.writeable
    np.testing.assert_array_equal(f, en.energy_kernel(test_net, x).values)


def t_matrix(m, F):
    """The literal V_F^{1/2} conj(D_F) V_F^{-1/2}, whose l2 operator norm
    equals restricted_norm; an independent cross-check."""
    root = numkernel.sqrtm_psd(en.gram_matrix(m.net, F).V)
    fv = np.conj(np.array([m[x] for x in F]))
    return root @ np.diag(fv) @ np.linalg.inv(root)


def test_t_matrix_cross_check(test_net):
    rng = np.random.default_rng(9)
    m = Multiplier(test_net, rng.normal(size=test_net.n) + 1j * rng.normal(size=test_net.n))
    xs = x_vertices(test_net)
    for F in (xs[:2], xs):
        T = t_matrix(m, F)
        assert np.linalg.norm(T, 2) == pytest.approx(restricted_norm(m, F), abs=1e-7)


def test_point_mass_norm(p3):
    assert point_mass_norm(p3, 1) == pytest.approx(np.sqrt(2.0))
    assert point_mass_norm(p3, 2) == pytest.approx(np.sqrt(2.0))
    with pytest.raises(UnknownVertex):
        point_mass_norm(p3, 0)


def test_point_mass_norm_matches_restriction(test_net):
    # the full restricted norm of M_{delta_x} equals sqrt(c(x) R(x))
    for x in x_vertices(test_net)[:4]:
        m = Multiplier.delta(test_net, x)
        rho = restricted_norm(m, x_vertices(test_net))
        assert rho == pytest.approx(point_mass_norm(test_net, x), abs=1e-9)


def test_sufficiency_bound(p3):
    m = Multiplier.delta(p3, 1)
    assert sufficiency_bound(m) == pytest.approx(np.sqrt(2.0))
    m2 = Multiplier.from_dict(p3, {1: 1.0, 2: 1.0})
    assert sufficiency_bound(m2) == pytest.approx(2 * np.sqrt(2.0))


def test_sufficiency_dominates_restricted(test_net):
    rng = np.random.default_rng(10)
    m = Multiplier(test_net, rng.normal(size=test_net.n))
    fvals = m.f.copy()
    fvals[test_net.origin_index] = 0.0
    m = Multiplier(test_net, fvals)
    rho = restricted_norm(m, x_vertices(test_net))
    assert rho <= sufficiency_bound(m) + 1e-9


def test_rank_one_identities(test_net):
    xs = x_vertices(test_net)
    resid = rank_one_identities(test_net, xs[0], xs[-1])
    assert resid <= 1e-9


def test_solves_use_the_one_factor_routine(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("solve outside numkernel.cholesky / cho_solve")

    monkeypatch.setattr(np.linalg, "solve", forbidden)
    monkeypatch.setattr(scipy.linalg, "cho_factor", forbidden)
    net = en.generate("binary_tree", 3)
    assert analyze(Multiplier.from_kernel(net, 4)).verdict.startswith("certified<=")
    assert rank_one_identities(net, 3, 9) <= 1e-9


@pytest.mark.parametrize("n", [40, 160])
@pytest.mark.parametrize("k", [5, 8, 20, 40])
def test_segment_prefix_norm_is_full_norm_of_shorter_segment(n, k):
    # the tail k+1..n of integer_segment:n hangs off F = {1..k} at one vertex, a
    # dangling branch: V_F and f = v_5 on F are those of integer_segment:k
    seg, short = en.generate("integer_segment", n), en.generate("integer_segment", k)
    rho = restricted_norm(Multiplier.from_kernel(seg, 5), range(1, k + 1))
    full = restricted_norm(Multiplier.from_kernel(short, 5), x_vertices(short))
    assert rho == pytest.approx(full, rel=1e-12, abs=0)
    assert rho == pytest.approx(5.948585209979, rel=1e-11)


def test_rank_one_checks_reject_origin(p3):
    for check in (rank_one_identities, normalized_projections):
        for x, y in ((0, 1), (1, 0)):
            with pytest.raises(UnknownVertex):
                check(p3, x, y)


def test_normalized_projections(test_net):
    xs = x_vertices(test_net)
    resid = normalized_projections(test_net, xs[0], xs[-1])
    assert resid <= 1e-9


def test_normalized_projections_resistance_once(monkeypatch):
    calls = []
    resistance = checks.effective_resistance
    monkeypatch.setattr(
        checks, "effective_resistance", lambda net, x: calls.append(x) or resistance(net, x)
    )
    assert normalized_projections(en.generate("path", 5), 1, 3) <= 1e-9
    assert calls == [1, 3]


def test_truncation_consistency(p3):
    m = Multiplier.delta(p3, 1)
    assert truncation_consistency(m, [1], [1, 2]) <= 1e-10
    assert truncation_consistency(m, [1, 2], [1, 2]) <= 1e-10


def test_truncation_consistency_solves_once(monkeypatch):
    seg = en.generate("integer_segment", 8)
    m = Multiplier.from_kernel(seg, 3)
    samples = [random_energy_vector(seg, np.random.default_rng(k)) for k in range(3)]
    calls = []
    kernel = en.energy._kernel

    def counted(net, idx):
        calls.append(list(idx))
        return kernel(net, idx)

    monkeypatch.setattr(en.energy, "_kernel", counted)
    # given samples, the Gram matrix over F_m is the only kernel query
    assert truncation_consistency(m, [3, 2, 1], [3, 2, 1, 4], samples) <= 1e-9
    assert calls == [[3, 2, 1, 4]]
    calls.clear()
    assert truncation_consistency(m, [1, 2, 3], [1, 2, 3, 4], samples) <= 1e-9
    assert calls == [[1, 2, 3, 4]]


def gram_schmidt_V(V):
    """Reference: upper-triangular C with C* V C = I, from a fresh Cholesky
    factor of V (Gram-Schmidt in the V metric)."""
    lower = scipy.linalg.cholesky(V, lower=True)
    return scipy.linalg.solve_triangular(lower, np.eye(len(V)), lower=True).conj().T


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 24), st.integers(0, 10**6), st.data())
def test_truncation_basis_matches_gram_schmidt(n, seed, data):
    net = random_network(n, seed, extra_edges=n // 2)
    xs = x_vertices(net)
    F_n = data.draw(st.lists(st.sampled_from(xs), min_size=1, max_size=len(xs), unique=True))
    # F_m encloses the neighbours of F_n, plus a random extra set
    near = {net.vertices[j] for z in F_n
            for j in net.indices[net.indptr[net.index(z)]:net.indptr[net.index(z) + 1]]}
    extra = data.draw(st.lists(st.sampled_from(xs), unique=True))
    F_m = list(dict.fromkeys(F_n + [x for x in xs if x in near or x in extra]))
    rng = np.random.default_rng(seed)
    m = Multiplier(net, rng.standard_normal(net.n) * (rng.random(net.n) < 0.7))

    callers, bases = [], []
    solve_triangular, iso = scipy.linalg.solve_triangular, checks._iso

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return solve_triangular(*args, **kwargs)

    class Coordinates(np.ndarray):
        # l2 coordinates that record what they are multiplied by: the basis C
        def __matmul__(self, other):
            bases.append(other)
            return np.asarray(self) @ other

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.linalg, "solve_triangular", spy)
        mp.setattr(checks, "_iso", lambda net, vals: iso(net, vals).view(Coordinates))
        resid = truncation_consistency(m, F_n, F_m)
    # every triangular solve is one against the network's factor: the kernel
    # query (both solves, or a prefix's block solve) and the l2
    # multiplication matrices; the basis C itself takes none
    assert set(callers) <= {"_kernel", "_unit_solve", "_mult_matrix"}
    # the Gram matrix over F_m with F_n leading, as truncation_consistency orders it
    gram = en.gram_matrix(net, F_m)
    V = gram.V
    k = len(F_n)
    # C is the leading block of the Gram factor
    (C,) = bases
    assert np.array_equal(C, gram.W[:k, :k])
    want = gram_schmidt_V(V[:k, :k])
    assert np.abs(C - want).max() <= 1e-12 * np.abs(want).max()
    assert resid <= 1e-9


def test_truncation_insufficient_enclosure():
    seg = en.generate("integer_segment", 6)
    m = Multiplier.delta(seg, 2)
    with pytest.raises(InsufficientEnclosure):
        truncation_consistency(m, [1, 2], [1, 2])  # neighbour 3 missing
    assert truncation_consistency(m, [1, 2], [1, 2, 3]) <= 1e-9


def test_truncation_requires_containment(p3):
    m = Multiplier.delta(p3, 1)
    with pytest.raises(ValueError):
        truncation_consistency(m, [1, 2], [1])


def test_truncation_rejects_samples_from_another_network():
    m = Multiplier.delta(en.generate("integer_segment", 8), 3)
    # path:9 has as many vertices as integer_segment:8, path:5 fewer
    for other in (en.generate("path", 9), en.generate("path", 5)):
        with pytest.raises(NetworkMismatch):
            truncation_consistency(m, [1, 2], [1, 2, 3, 4], [en.energy_kernel(other, 2)])


@pytest.mark.parametrize("check", ["rank_one", "projections", "truncation"])
def test_checks_factor_once_and_skip_eigh(monkeypatch, check):
    net = en.generate("integer_segment", 8)
    m = Multiplier.delta(net, 3)  # built without a solve
    calls = []
    laplacian = en.Network.laplacian_matrix

    def counted(self):
        calls.append("laplacian")
        return laplacian(self)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense eigendecomposition in a verification check")

    monkeypatch.setattr(en.Network, "laplacian_matrix", counted)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(scipy.linalg, "eigh", forbidden)
    run = {
        "rank_one": lambda: rank_one_identities(net, 2, 5),
        "projections": lambda: normalized_projections(net, 2, 5),
        "truncation": lambda: truncation_consistency(m, [1, 2, 3], [1, 2, 3, 4]),
    }[check]
    assert run() <= 1e-9
    assert calls == ["laplacian"]


def test_one_network_factors_once(monkeypatch):
    # the grounded factor is the network's: kernel, Gram, norm analysis and
    # the rank-one checks all read the one factor built on first use
    net = random_network(12, seed=8, decades=3)
    calls = []
    laplacian = en.Network.laplacian_matrix

    def counted(self):
        calls.append("laplacian")
        return laplacian(self)

    monkeypatch.setattr(en.Network, "laplacian_matrix", counted)
    xs = x_vertices(net)
    en.energy_kernel(net, xs[0])
    en.gram_matrix(net, xs[1:4])
    analyze(Multiplier.from_kernel(net, xs[2]))
    assert rank_one_identities(net, xs[0], xs[-1]) <= 1e-9
    assert calls == ["laplacian"]
    assert net.grounded_factor is net.grounded_factor


def test_checks_see_a_perturbed_kernel_solve(monkeypatch):
    # a check that only compared its own construction would stay at rounding level
    net = random_network(10, 3)
    xs = x_vertices(net)
    x, y = xs[0], xs[-1]
    assert rank_one_identities(net, x, y) <= 1e-12
    assert normalized_projections(net, x, y) <= 1e-12
    kernel_columns = en.energy.kernel_columns
    row = net.x_position(net.index(xs[-2]))  # K has its rows on X

    def perturbed(net, idx):
        K = kernel_columns(net, idx)
        K[row, 0] += 1e-6
        return K

    monkeypatch.setattr(checks, "kernel_columns", perturbed)
    monkeypatch.setattr(en.energy, "kernel_columns", perturbed)
    assert rank_one_identities(net, x, y) > 1e-7
    assert normalized_projections(net, x, y) > 1e-7


def test_gram_cross_check_sees_a_perturbed_kernel_solve(monkeypatch, capsys):
    # v_a perturbed by 1e-6 at b shifts <v_a, v_b> by 1e-6 but leaves the
    # Gram value V_ab = (Y^T Y)_ab alone: the cross-check names the pair (a, b)
    kernel = en.energy._kernel

    def perturbed(net, idx):
        V, K, W = kernel(net, idx)
        if len(idx) > 1:
            K[net.x_position(idx[1]), 0] += 1e-6  # K has its rows on X
        return V, K, W

    monkeypatch.setattr(en.energy, "_kernel", perturbed)
    net = random_network(10, 3)
    a, b, c = x_vertices(net)[2:5]
    with pytest.raises(InvariantViolation, match=rf"Gram entry \({a!r},{b!r}\)"):
        en.gram_matrix(net, [a, b, c])
    # mult's outer set F = X is a prefix: V = U^T U from U = W^{-1}, and K is
    # V itself.  U_01 perturbed by 1e-6 moves V's row and column 1 by
    # 1e-6 U_0., and the pairings of the columns built from V by twice that
    dtrtri = en.energy.dtrtri

    def perturbed_inverse(c, **kwargs):
        inv, info = dtrtri(c, **kwargs)
        if len(inv) > 1:
            inv[0, 1] += 1e-6
        return inv, info

    monkeypatch.setattr(en.energy, "dtrtri", perturbed_inverse)
    for argv, pair in [
        (["gram", "--gen", "integer_segment:12", "--F", "3,7,9"], "(3,7)"),
        (["mult", "--gen", "integer_segment:12", "--f", "delta:3", "--estimate"], "(1,2)"),
    ]:
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"internal error: Gram entry {pair}") and len(err.splitlines()) == 1
        assert "np.float64" not in err


def test_default_exhaustion(test_net):
    ex = default_exhaustion(test_net)
    xs = x_vertices(test_net)
    assert ex[-1] == tuple(xs)
    for a, b in zip(ex, ex[1:]):
        assert set(a) < set(b)


def test_analyze_pass_fail(p3):
    m = Multiplier.delta(p3, 1)
    rep = analyze(m, bound=1.5)
    assert rep.verdict.startswith("PASS")
    rep = analyze(m, bound=1.0)
    assert rep.verdict.startswith("FAIL")
    assert rep.best_lower == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert rep.upper_bound == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_analyze_estimate_and_json(p3):
    m = Multiplier.delta(p3, 1)
    rep = analyze(m)
    assert rep.verdict.startswith("certified<=")
    doc = rep.to_json_dict()
    assert doc["best_lower"] == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert doc["lower_trace"][-1][0] == 2
    assert all(c["psd"] for c in doc["certs"])


def test_bisect_bound(p3):
    m = Multiplier.delta(p3, 1)
    b = bisect_bound(m, tol=1e-8)
    assert b == pytest.approx(np.sqrt(2.0), abs=1e-7)
    assert bisect_bound(Multiplier.constant(p3, 0.0)) == 0.0  # certified at b = 0


def test_bisect_bound_uncertified_bracket(p3):
    m = Multiplier.delta(p3, 1)
    with pytest.raises(InvalidInput, match="not certified"):
        bisect_bound(m, hi=0.5)


def test_bisect_bound_matches_analyze(test_net):
    rng = np.random.default_rng(11)
    fvals = rng.normal(size=test_net.n)
    fvals[test_net.origin_index] = 0.0
    m = Multiplier(test_net, fvals)
    rep = analyze(m)
    b = bisect_bound(m, tol=1e-7)
    assert b == pytest.approx(rep.best_lower, abs=1e-5)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_norm_invariants_random(seed):
    net = random_network(7, seed=seed % 50)
    rng = np.random.default_rng(seed)
    fvals = rng.normal(size=net.n) + 1j * rng.normal(size=net.n)
    fvals[net.origin_index] = 0.0
    m = Multiplier(net, fvals)
    xs = [net.vertices[i] for i in range(net.n) if i != net.origin_index]
    rho = restricted_norm(m, xs)

    # dichotomy at the full set: psd just above rho, not psd just below
    hi = rho * (1 + 1e-6) + 1e-9
    assert numkernel.psd_check(s_matrix(m, hi, xs)).is_psd
    if rho > 1e-6:
        lo = rho * (1 - 1e-3)
        assert not numkernel.psd_check(s_matrix(m, lo, xs)).is_psd

    # domination: ||M_f u||_E <= rho ||u||_E on the kernel span image
    u = random_energy_vector(net, rng, complex_=True)
    # adjoint action on an arbitrary kernel combination
    coeffs = rng.normal(size=len(xs))
    w = en.zero_vector(net)
    for c, x in zip(coeffs, xs):
        w = w + c * adjoint_on_kernel(m, x)
    base = en.zero_vector(net)
    for c, x in zip(coeffs, xs):
        base = base + c * en.energy_kernel(net, x)
    assert np.sqrt(w.energy) <= rho * np.sqrt(base.energy) + 1e-8 * (1 + rho)

    # scaling covariance
    m2 = Multiplier(net, 2.0 * m.f)
    assert restricted_norm(m2, xs) == pytest.approx(2 * rho, rel=1e-8, abs=1e-10)
