import numpy as np
import pytest

import energynet as en


def random_network(n, seed, extra_edges=None, wlo=0.5, whi=2.0, decades=None):
    """Connected random weighted graph: random spanning tree plus extras.
    Weights are uniform on [wlo, whi], or log-uniform over 10^(+-decades)."""
    rng = np.random.default_rng(seed)

    def weight():
        if decades is None:
            return float(rng.uniform(wlo, whi))
        return float(10.0 ** rng.uniform(-decades, decades))

    edges = []
    pairs = set()
    for k in range(1, n):
        j = int(rng.integers(0, k))
        edges.append((j, k, weight()))
        pairs.add(frozenset((j, k)))
    extra_edges = n if extra_edges is None else extra_edges
    attempts = 0
    while len(edges) < (n - 1) + extra_edges and attempts < 50 * (extra_edges + 1):
        attempts += 1
        a, b = (int(v) for v in rng.integers(0, n, 2))
        if a == b or frozenset((a, b)) in pairs:
            continue
        pairs.add(frozenset((a, b)))
        edges.append((a, b, weight()))
    return en.build_network(edges, origin=0)


def random_energy_vector(net, rng, complex_=False):
    vals = rng.standard_normal(net.n)
    if complex_:
        vals = vals + 1j * rng.standard_normal(net.n)
    return en.ground(net, vals)


@pytest.fixture
def p3():
    return en.generate("path", 3)


@pytest.fixture(params=["path5", "tree3", "cycle6", "random10"])
def test_net(request):
    return {
        "path5": lambda: en.generate("path", 5),
        "tree3": lambda: en.generate("binary_tree", 3),
        "cycle6": lambda: en.generate("cycle", 6),
        "random10": lambda: random_network(10, seed=3),
    }[request.param]()


def x_vertices(net):
    return [net.vertices[i] for i in range(net.n) if i != net.origin_index]
