"""The kernel of unit-conductance trees against its closed form,
v_x(y) = r(x ^ y) (oracle.tree_kernel), at sizes the 60-digit oracle cannot
reach.  The network's factor eliminates X in reverse vertex order, which on
these trees takes every child before its parent, and then each pivot of a
unit-conductance tree is exactly 1: the computed kernel is exact.  The
properties allow 4 depth eps relative all the same."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import energynet as en
from energynet.multop import Multiplier, restricted_norm

from conftest import random_network
import oracle

EPS = np.finfo(float).eps

# the networks, and the range of their sizes (binary_tree's is its depth):
# n stays below about 2000, where the dense grounded factor takes 32 MB
TREES = {
    "path": lambda size, seed: en.generate("path", size),
    "integer_segment": lambda size, seed: en.generate("integer_segment", size),
    "binary_tree": lambda size, seed: en.generate("binary_tree", size),
    "random_tree": lambda size, seed: random_network(size, seed, extra_edges=0, wlo=1.0, whi=1.0),
}
SIZES = {"path": (2, 2000), "integer_segment": (2, 2000), "binary_tree": (1, 10),
         "random_tree": (2, 2000)}


@st.composite
def unit_trees(draw):
    family = draw(st.sampled_from(sorted(TREES)))
    size = draw(st.integers(*SIZES[family]))
    return TREES[family](size, draw(st.integers(0, 10**6)))


def assert_matches_closed_form(net, F_idx, r, depth, column):
    F = [net.vertices[i] for i in F_idx]
    V = en.gram_matrix(net, F).V
    exact = np.column_stack([column(i) for i in F_idx])[F_idx]
    d = np.maximum.outer(depth[F_idx], depth[F_idx])
    # an exact zero (x ^ y = o) stays 0
    assert np.array_equal(V == 0, exact == 0)
    assert np.all(np.abs(V - exact) <= 4 * d * EPS * exact)


def check_tree(net, k, rng):
    """R(x) at 8 random x, and V over the prefix of X and a random F of size
    k: a prefix reads V from the network's factor, a random F solves for it."""
    r, depth, column = oracle.tree_kernel(net)
    X = net.x_index
    assert_matches_closed_form(net, X[:k], r, depth, column)
    assert_matches_closed_form(net, rng.choice(X, size=k, replace=False), r, depth, column)
    for i in rng.choice(X, size=min(len(X), 8), replace=False):
        R = en.effective_resistance(net, net.vertices[i])
        assert abs(R - r[i]) <= 4 * depth[i] * EPS * r[i]


@settings(max_examples=12, deadline=None)
@given(unit_trees(), st.data())
def test_unit_tree_kernel_matches_the_closed_form(net, data):
    k = data.draw(st.integers(1, min(net.n - 1, 64)))
    check_tree(net, k, np.random.default_rng(data.draw(st.integers(0, 10**6))))


@pytest.mark.parametrize("family", sorted(TREES))
def test_largest_unit_trees_match_the_closed_form(family):
    check_tree(TREES[family](SIZES[family][1], 0), 64, np.random.default_rng(0))


@pytest.mark.parametrize("family", sorted(TREES))
def test_point_mass_trace_matches_the_closed_form(family):
    """On a unit-conductance tree ||M_{delta_x}|| = sqrt(c(x) r(x)), and the
    restricted norm reaches it once F holds x and its neighbours in X, for
    then (V_F^{-1})_xx = (W_k W_k^T)_xx = c(x).  Over the shortest such prefix
    of X, at the two deepest x whose prefix has at most 512 vertices (which
    keeps the four networks near 1 s)."""
    net = TREES[family](SIZES[family][1], 0)
    r, depth, _ = oracle.tree_kernel(net)
    X = net.x_index
    pos = np.full(net.n, -1)
    pos[X] = np.arange(len(X))
    # k(x), the length of that prefix: 1 + the last position of x and its neighbours
    k = 1 + np.maximum(pos, np.maximum.reduceat(pos[net.indices], net.indptr[:-1]))
    near = X[k[X] <= 512]
    for i in near[np.argsort(-depth[near], kind="stable")[:2]]:
        x = net.vertices[i]
        rho = restricted_norm(Multiplier.delta(net, x), net.x_vertices[: k[i]])
        exact = np.sqrt(net.conductance[i] * r[i])
        assert abs(rho - exact) <= 4 * depth[i] * EPS * exact


def test_tree_kernel_closed_form_by_hand():
    # the origin 0 with the chain 0 - 1 - 2 (conductances 2 and 4) and the leaf 3 at 1
    net = en.build_network([(0, 1, 2.0), (1, 2, 4.0), (1, 3, 1.0)], origin=0)
    r, depth, column = oracle.tree_kernel(net)
    np.testing.assert_array_equal(r, [0.0, 0.5, 0.75, 1.5])
    np.testing.assert_array_equal(depth, [0, 1, 2, 2])
    np.testing.assert_array_equal(column(2), [0.0, 0.5, 0.75, 0.5])
    np.testing.assert_array_equal(column(3), [0.0, 0.5, 0.5, 1.5])
