import numpy as np
import pytest

import energynet as en
from energynet.errors import CapHit, UnknownVertex
from energynet.numkernel import cho_solve, cholesky
from energynet.randwalk import _walk_step, escape_prob_exact, escape_prob_mc, transition_prob

from conftest import random_network, x_vertices


def _reference_walk(net, x, samples, seed, max_steps):
    """The per-state stepping loop that the flat table replaced, on the same
    Philox stream: (escapes, returns, capped)."""
    xi, oi = net.index(x), net.origin_index
    rows = [slice(a, b) for a, b in zip(net.indptr[:-1], net.indptr[1:])]
    cum = [np.cumsum(net.weights[r]) / net.weights[r].sum() for r in rows]
    rng = np.random.Generator(np.random.Philox(key=seed))
    cur = np.full(samples, xi, dtype=np.intp)
    escapes = returns = 0
    for _ in range(max_steps):
        if not cur.size:
            break
        u = rng.random(cur.size)
        nxt = np.empty_like(cur)
        for s in np.unique(cur):
            mask = cur == s
            pos = np.searchsorted(cum[s], u[mask], side="right")
            nxt[mask] = net.indices[rows[s]][np.minimum(pos, len(cum[s]) - 1)]
        escapes += int(np.sum(nxt == oi))
        returns += int(np.sum(nxt == xi))
        cur = nxt[(nxt != oi) & (nxt != xi)]
    return escapes, returns, int(cur.size)


def _skewed_network():
    # weights spread over three decades; degree-1 leaves and a degree-10 hub
    net = random_network(30, seed=4, extra_edges=20, wlo=0.01, whi=10.0)
    degrees = np.diff(net.indptr)
    assert min(degrees) == 1 and max(degrees) >= 10
    return net


def _hub(leaves=600, seed=9, decades=3.0):
    # one vertex joined to many leaves, weights log-uniform over 2 * decades;
    # the origin is the heaviest leaf, so excursions pass the hub often
    w = 10.0 ** np.random.default_rng(seed).uniform(-decades, decades, leaves)
    return en.build_network([("h", k, float(c)) for k, c in enumerate(w)], origin=int(w.argmax()))


def _spread_network(n=200, seed=11):
    # extra edges favour low ids, so degrees take many distinct values;
    # weights log-uniform over twelve decades
    rng = np.random.default_rng(seed)
    pairs = {(int(rng.integers(0, k)), k) for k in range(1, n)}
    for _ in range(4 * n):
        a, b = int(n * rng.random() ** 3), int(rng.integers(0, n))
        if a != b and (b, a) not in pairs:
            pairs.add((a, b))
    w = 10.0 ** rng.uniform(-6.0, 6.0, len(pairs))
    net = en.build_network([(a, b, float(c)) for (a, b), c in zip(sorted(pairs), w)], origin=0)
    assert np.unique(np.diff(net.indptr)).size >= 20
    return net


def test_transition_prob(p3):
    assert transition_prob(p3, 0, 1) == pytest.approx(1.0)
    assert transition_prob(p3, 1, 0) == pytest.approx(0.5)
    assert transition_prob(p3, 1, 2) == pytest.approx(0.5)
    assert transition_prob(p3, 0, 2) == 0.0


def test_transition_rows_stochastic(test_net):
    for x in test_net.vertices:
        total = sum(transition_prob(test_net, x, y) for y in test_net.vertices)
        assert total == pytest.approx(1.0)


def test_escape_prob_exact_hand_values(p3):
    assert escape_prob_exact(p3, 1) == pytest.approx(0.5)
    assert escape_prob_exact(p3, 2) == pytest.approx(0.5)
    two = en.build_network([("a", "b", 3.0)], origin="a")
    assert escape_prob_exact(two, "b") == pytest.approx(1.0)
    with pytest.raises(UnknownVertex):
        escape_prob_exact(p3, 0)


def test_escape_prob_segment():
    seg = en.generate("integer_segment", 5)
    # gambler's ruin from k with absorption at 0 and reflection nowhere:
    # P[k -> 0 before returning to k] = p(k, k-1) / k for interior k
    for k in range(1, 6):
        expected = 1.0 / (en.total_conductance(seg, k) * k)
        assert escape_prob_exact(seg, k) == pytest.approx(expected)


def _dense_escape(net, x):
    """P[x -> o] from the dense interior solve L_II h_I = -L_Io on
    I = G \\ {o, x}, with h(o) = 1 and h(x) = 0."""
    xi, oi = net.index(x), net.origin_index
    interior = [i for i in range(net.n) if i not in (oi, xi)]
    h = np.zeros(net.n)
    h[oi] = 1.0
    if interior:
        L = net.laplacian_matrix()
        h[interior] = cho_solve(cholesky(L[np.ix_(interior, interior)]), -L[interior, oi])
    row = slice(net.indptr[xi], net.indptr[xi + 1])
    return float(np.dot(net.weights[row] / net.conductance[xi], h[net.indices[row]]))


@pytest.mark.parametrize(
    "make",
    [
        *(lambda s=s: random_network(2 + s % 23, seed=s, extra_edges=s % 9, decades=6)
          for s in range(16)),
        lambda: _hub(leaves=250, seed=3, decades=6.0),
        lambda: en.build_network([(0, 1, 1e-4), (1, 2, 1e4), (2, 3, 1e-4)], origin=0),
        lambda: en.build_network([("a", "b", 3.0)], origin="a"),
    ],
    ids=[*(f"spread{s}" for s in range(16)), "hub250", "path_1e-4_1e4_1e-4", "two_vertices"],
)
def test_escape_prob_exact_is_the_dense_interior_solve(make):
    # h = delta_o minus its projection onto the interior Dirac span solves
    # L_II h_I = -L_Io with the same factor, sign for sign: the same bits
    net = make()
    for x in x_vertices(net):
        assert escape_prob_exact(net, x) == _dense_escape(net, x)


@pytest.mark.parametrize(
    "make",
    [
        *(lambda s=s: random_network(12, s, decades=6) for s in range(4)),
        lambda: en.build_network([(0, 1, 1e-4), (1, 2, 1e4), (2, 3, 1e-4)], origin=0),
    ],
    ids=[*(f"spread{s}" for s in range(4)), "path_1e-4_1e4_1e-4"],
)
def test_dirichlet_solve_is_one_factorization_and_one_substitution(make, monkeypatch):
    # no residual product and no second substitution, whatever the spread
    from energynet import energy, numkernel

    net = make()
    calls = {"cholesky": 0, "cho_solve": 0, "matmul": 0}

    def spy(name):
        real = getattr(numkernel, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    for name in calls:
        counted = spy(name)
        for module in (energy, numkernel):
            monkeypatch.setattr(module, name, counted, raising=False)
    for x in x_vertices(net):
        calls.update(dict.fromkeys(calls, 0))
        escape_prob_exact(net, x)
        assert calls == {"cholesky": 1, "cho_solve": 1, "matmul": 0}, x


def test_walk_operator_identity(test_net):
    # c(x) R(x) P[x -> o] = 1 for every x in X
    for x in x_vertices(test_net):
        prod = (
            en.total_conductance(test_net, x)
            * en.effective_resistance(test_net, x)
            * escape_prob_exact(test_net, x)
        )
        assert prod == pytest.approx(1.0, abs=1e-10)


def test_point_mass_norm_bridge(test_net):
    from energynet.multop import point_mass_norm

    for x in x_vertices(test_net):
        assert point_mass_norm(test_net, x) == pytest.approx(
            escape_prob_exact(test_net, x) ** -0.5, abs=1e-10
        )


def test_walk_step_shares_match_transition_probs():
    net = _skewed_network()
    step = _walk_step(net)
    m = 10**4
    u = (np.arange(m) + 0.5) / m
    for i, x in enumerate(net.vertices):
        share = np.bincount(step(np.full(m, i, dtype=np.intp), u), minlength=net.n) / m
        expected = [transition_prob(net, x, y) for y in net.vertices]
        np.testing.assert_allclose(share, expected, rtol=0, atol=2e-4)


def test_walk_step_endpoints():
    net = _skewed_network()
    step = _walk_step(net)
    rows = np.arange(net.n)
    first = net.indices[net.indptr[:-1]]
    last = net.indices[net.indptr[1:] - 1]
    np.testing.assert_array_equal(step(rows, np.zeros(net.n)), first)
    np.testing.assert_array_equal(step(rows, np.full(net.n, np.nextafter(1.0, 0.0))), last)


@pytest.mark.parametrize(
    "make", [_skewed_network, _hub, _spread_network, lambda: en.generate("binary_tree", 4)]
)
def test_walk_step_is_row_inverse_cdf(make):
    """On every row, step picks the first slot whose normalized cumulative
    weight exceeds u, at u = 0, at each cumulative entry and one ulp either
    side of it, at the largest double below 1, and at each guide bucket's
    edge k / deg and the double below it."""
    net = make()
    step = _walk_step(net)
    for i in range(net.n):
        w = net.weights[net.indptr[i] : net.indptr[i + 1]]
        cum = np.append(np.cumsum(w[:-1]) / w.sum(), 1.0)
        edges = np.arange(w.size) / w.size
        u = np.concatenate(
            ([0.0, np.nextafter(1.0, 0.0)], cum, np.nextafter(cum, -1.0), np.nextafter(cum, 2.0),
             edges, np.nextafter(edges, -1.0))
        )
        u = u[(u >= 0.0) & (u < 1.0)]
        expected = net.indices[net.indptr[i] + np.searchsorted(cum, u, side="right")]
        np.testing.assert_array_equal(step(np.full(u.size, i, dtype=np.intp), u), expected)


def test_mc_matches_reference_loop_on_hub():
    net = _hub()
    assert np.diff(net.indptr).max() >= 500
    escapes, returns, capped = _reference_walk(net, 3, 2000, 6, 10**9)
    est = escape_prob_mc(net, 3, samples=2000, seed=6)
    assert (est.cap_hits, capped) == (0, 0)
    assert est.mc_estimate == escapes / (escapes + returns)


def test_mc_matches_reference_loop():
    cases = [
        (en.generate("binary_tree", 4), 30, 3),
        (en.generate("cycle", 7), 3, 5),
        (random_network(12, seed=2), 5, 8),
        (_skewed_network(), 17, 1),
    ]
    for net, x, seed in cases:
        escapes, returns, capped = _reference_walk(net, x, 4000, seed, 10**9)
        est = escape_prob_mc(net, x, samples=4000, seed=seed)
        assert (est.cap_hits, capped) == (0, 0)
        assert est.mc_estimate == escapes / (escapes + returns)


def test_mc_matches_exact(p3):
    est = escape_prob_mc(p3, 1, samples=20000, seed=42)
    assert est.exact == pytest.approx(0.5)
    assert abs(est.mc_estimate - est.exact) <= 4 * est.mc_stderr
    assert est.cap_hits == 0


def test_mc_seed_determinism(p3):
    a = escape_prob_mc(p3, 1, samples=5000, seed=7)
    b = escape_prob_mc(p3, 1, samples=5000, seed=7)
    assert a == b
    c = escape_prob_mc(p3, 1, samples=5000, seed=8)
    assert c.mc_estimate != a.mc_estimate


def test_mc_trivial_network():
    two = en.build_network([("o", "x", 1.0)], origin="o")
    est = escape_prob_mc(two, "x", samples=100, seed=0)
    assert est.mc_estimate == 1.0
    assert est.mc_stderr == 0.0
    with pytest.raises(UnknownVertex, match="from the origin is undefined"):
        escape_prob_mc(two, "o", samples=100, seed=0)


def test_mc_cap_hit():
    seg = en.generate("integer_segment", 30)
    with pytest.raises(CapHit) as info:
        escape_prob_mc(seg, 15, samples=2000, seed=1, max_steps=3)
    est = info.value.estimate
    assert est.cap_hits > 0
    assert est.samples == 2000
    # the partial estimate over decided excursions is still carried
    assert 0.0 <= est.mc_estimate <= 1.0 or np.isnan(est.mc_estimate)
    escapes, returns, _ = _reference_walk(seg, 15, 2000, 1, 3)
    decided = escapes + returns
    assert est.cap_hits + decided == est.samples


def test_mc_on_random_net():
    from conftest import random_network

    net = random_network(8, seed=3, extra_edges=4)
    xs = [net.vertices[i] for i in range(net.n) if i != net.origin_index]
    x = xs[0]
    est = escape_prob_mc(net, x, samples=30000, seed=11)
    assert abs(est.mc_estimate - est.exact) <= 4 * max(est.mc_stderr, 1e-4)


def test_walk_estimate_json(p3):
    est = escape_prob_mc(p3, 1, samples=100, seed=0)
    doc = est.to_json_dict()
    assert doc["x"] == 1
    assert doc["samples"] == 100
    assert doc["seed"] == 0
    assert list(doc) == ["x", "exact", "mc_estimate", "mc_stderr", "samples", "seed", "cap_hits"]
