import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import energynet as en
from energynet.errors import (
    AsymmetricInput,
    Disconnected,
    InvalidInput,
    InvalidSize,
    NonPositiveConductance,
    OriginMissing,
    ParseError,
    SelfLoop,
    UnknownVertex,
)
from energynet.multop import Multiplier
from energynet.network import VertexFunction, _parse_vertex

from test_randwalk import _skewed_network


def test_build_p3():
    net = en.build_network([(0, 1, 1), (1, 2, 1)], origin=0)
    assert net.vertices == (0, 1, 2)
    assert en.total_conductance(net, 1) == 2
    assert en.total_conductance(net, 0) == 1


def test_build_triangle_symmetric():
    net = en.build_network([(0, 1, 1), (1, 2, 1), (2, 0, 1)], origin=0)
    assert all(en.total_conductance(net, x) == 2 for x in net.vertices)


def test_duplicate_edge_merged_and_conflicting_rejected():
    net = en.build_network([(0, 1, 2.0), (1, 0, 2.0), (1, 2, 1.0)], origin=0)
    assert len(net.edges) == 2
    with pytest.raises(AsymmetricInput):
        en.build_network([(0, 1, 2), (1, 2, 2), (0, 1, 3)], origin=0)


@pytest.mark.parametrize(
    "edges,origin,err",
    [
        ([(0, 1, -1)], 0, NonPositiveConductance),
        ([(0, 1, 0.0)], 0, NonPositiveConductance),
        ([(0, 0, 1)], 0, SelfLoop),
        ([(0, 1, 1), (2, 3, 1)], 0, Disconnected),
        ([(0, 1, 1)], 5, OriginMissing),
        ([(0, 1, float("inf"))], 0, NonPositiveConductance),
        ([(0, 1, float("nan"))], 0, NonPositiveConductance),
        ([], 0, InvalidSize),
    ],
)
def test_build_errors(edges, origin, err):
    with pytest.raises(err):
        en.build_network(edges, origin=origin)


def test_disconnected_names_unreachable_vertices():
    edges = [(0, 1, 1), (2, 3, 1), (1, 4, 1), (5, 3, 1)]
    with pytest.raises(Disconnected, match=r"^vertices \[2, 3, 5\] unreachable from 0$"):
        en.build_network(edges, origin=0)


def _check_csr(net):
    rows = [slice(a, b) for a, b in zip(net.indptr[:-1], net.indptr[1:])]
    entries = {
        (i, j): w for i, r in enumerate(rows) for j, w in zip(net.indices[r], net.weights[r])
    }
    assert len(entries) == net.indptr[-1] == 2 * len(net.edges)
    assert all(entries[j, i] == w for (i, j), w in entries.items())
    # reference: the per-edge loops the CSR arrays replaced; each row lists its
    # neighbours in edge order, and the Laplacian is filled one edge at a time
    expected = [[] for _ in range(net.n)]
    L = np.zeros((net.n, net.n))
    for i, j, w in zip(net.edge_i, net.edge_j, net.edge_w):
        expected[i].append((j, w))
        expected[j].append((i, w))
        L[i, j] -= w
        L[j, i] -= w
        L[i, i] += w
        L[j, j] += w
    assert [list(zip(net.indices[r], net.weights[r])) for r in rows] == expected
    np.testing.assert_array_equal(net.laplacian_matrix(), L)
    np.testing.assert_array_equal(net.conductance, np.diag(L))


def test_csr_adjacency(test_net):
    _check_csr(test_net)


def test_csr_adjacency_skewed_weights():
    _check_csr(_skewed_network())


def test_real_values_are_contiguous_float64(p3):
    for vf in (Multiplier.constant(p3, 2.5), VertexFunction.from_dict(p3, {1: 2 + 0j})):
        vals = vf.values
        assert vals.dtype == np.float64 and vals.flags.c_contiguous
        assert not vals.flags.writeable
        assert vals.base is None or vals.base.dtype == np.float64
    assert Multiplier.from_dict(p3, {2: 1j}).f.dtype == np.complex128


@pytest.mark.parametrize("values", [np.ones(6), np.ones(3), [2.0], np.ones((5, 1)), 2.0])
def test_a_function_of_the_wrong_shape_is_refused(values):
    # one value per vertex, shape (n,): a longer array was analyzed on its
    # first n entries, and a shorter one failed later with a raw IndexError
    net = en.generate("path", 5)
    for build in (VertexFunction, Multiplier, en.ground):
        with pytest.raises(InvalidInput, match=r"expected 5 vertex values, got shape"):
            build(net, values)


def test_equal_networks_hash_equal():
    a, b = en.generate("path", 3), en.generate("path", 3)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    heavier = en.build_network([(0, 1, 1.0), (1, 2, 2.0)], origin=0)
    assert heavier != a and len({a, heavier}) == 2
    assert a.__eq__(a.vertices) is NotImplemented and a != a.vertices
    assert repr(heavier) == "Network(n=3, edges=2, origin=0)"


def test_vertex_functions_compare_by_identity(p3):
    for make in (lambda: VertexFunction.delta(p3, 1), lambda: en.delta(p3, 1),
                 lambda: Multiplier.delta(p3, 1)):
        u, v = make(), make()
        assert u == u and u != v and isinstance(hash(u), int) and len({u, u, v}) == 2
        np.testing.assert_array_equal(u.values, v.values)


def test_total_conductance_unknown_vertex(p3):
    with pytest.raises(UnknownVertex):
        en.total_conductance(p3, 99)


def test_laplacian_annihilates_constants(test_net):
    out = en.laplacian_apply(test_net, VertexFunction.ones(test_net))
    assert np.abs(out.values).max() <= 1e-12


def test_laplacian_apply_matches_dense_product(test_net):
    rng = np.random.default_rng(2)
    vals = rng.standard_normal(test_net.n) + 1j * rng.standard_normal(test_net.n)
    out = en.laplacian_apply(test_net, VertexFunction(test_net, vals)).values
    ref = test_net.laplacian_matrix() @ vals
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_laplacian_hand_values(p3):
    out = en.laplacian_apply(p3, VertexFunction(p3, np.array([0.0, 1.0, 1.0])))
    assert np.allclose(out.values, [-1.0, 1.0, 0.0])
    out = en.laplacian_apply(p3, VertexFunction(p3, np.array([0.0, 1.0, 2.0])))
    assert np.allclose(out.values, [-1.0, 0.0, 1.0])


def test_laplacian_row_sums_vanish(test_net):
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = VertexFunction(test_net, rng.standard_normal(test_net.n))
        total = en.laplacian_apply(test_net, u).values.sum()
        assert abs(total) <= 1e-12 * max(1.0, np.abs(u.values).max())


def test_laplacian_block(test_net):
    idx = [3, 0, 2]
    block = test_net.laplacian_block(idx)
    np.testing.assert_array_equal(block, test_net.laplacian_matrix()[np.ix_(idx, idx)])
    assert np.array_equal(block, block.T) and not block.flags.writeable


def test_x_index_is_x_in_vertex_order_and_read_only():
    # the origin in the middle of the vertex order
    net = en.build_network([("a", "o", 1.0), ("o", "b", 2.0), ("b", "c", 3.0)], origin="o")
    assert net.origin_index == 1
    np.testing.assert_array_equal(net.x_index, [0, 2, 3])
    assert net.x_index.dtype == np.intp and not net.x_index.flags.writeable
    with pytest.raises(ValueError):
        net.x_index[0] = 1
    block = net.laplacian_block(net.x_index)
    W = net.grounded_factor
    assert np.array_equal(W, np.triu(W))
    np.testing.assert_allclose(W @ W.T, block, atol=1e-14)


def test_x_vertices_are_the_ids_of_x_index():
    net = en.build_network([("a", "o", 1.0), ("o", "b", 2.0), ("b", "c", 3.0)], origin="o")
    assert net.x_vertices == ("a", "b", "c")
    for origin in range(4):
        net = en.build_network([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], origin=origin)
        assert net.x_vertices == tuple(net.vertices[i] for i in net.x_index.tolist())


def test_x_position_inverts_x_index():
    # the origin first, in the middle and last: the last is where an origin
    # index would point one past the end of X
    for origin in range(4):
        net = en.build_network([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], origin=origin)
        np.testing.assert_array_equal(net.x_position(net.x_index), np.arange(3))
        assert net.x_position(net.x_index).dtype == np.intp


def test_conductance_is_laplacian_diagonal(test_net):
    L = test_net.laplacian_matrix()
    for i, x in enumerate(test_net.vertices):
        assert en.total_conductance(test_net, x) == pytest.approx(L[i, i], rel=1e-12)


def test_generate_families():
    seg = en.generate("integer_segment", 3)
    assert seg.vertices == (0, 1, 2, 3) and len(seg.edges) == 3
    tree = en.generate("binary_tree", 2)
    assert tree.n == 7 and len(tree.edges) == 6
    cyc = en.generate("cycle", 4)
    assert len(cyc.edges) == 4
    with pytest.raises(InvalidSize):
        en.generate("path", 1)
    with pytest.raises(InvalidSize):
        en.generate("cycle", 2)
    with pytest.raises(InvalidSize):
        en.generate("unknown", 4)
    with pytest.raises(InvalidSize, match="binary_tree needs depth >= 1"):
        en.generate("binary_tree", 0)
    with pytest.raises(InvalidSize, match="integer_segment needs n >= 2"):
        en.generate("integer_segment", 1)


def test_generate_weight_callable():
    net = en.generate("path", 3, conductance=lambda x, y: x + y + 1)
    assert net.edge_dict()[frozenset((1, 2))] == 4


def test_save_load_roundtrip(tmp_path, p3):
    path = tmp_path / "net.json"
    en.save_network(p3, path)
    again = en.load_network(path)
    assert again == p3
    assert again.vertices == p3.vertices


@pytest.mark.parametrize("vertex", ["1", "01", " a", "a ", True, 1.5])
def test_save_rejects_an_id_that_would_not_load_back(tmp_path, vertex):
    net = en.build_network([(0, "b", 1.0), ("b", vertex, 1.0)], origin=0)
    with pytest.raises(ParseError, match="vertex id"):
        en.save_network(net, tmp_path / "net.json")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.integers(), st.text(max_size=4)), min_size=3, max_size=3, unique=True))
def test_save_load_roundtrip_holds_or_save_raises(tmp_path_factory, labels):
    a, b, c = labels
    net = en.build_network([(a, b, 1.0), (b, c, 2.0)], origin=a)
    path = tmp_path_factory.mktemp("nets") / "net.json"
    try:
        en.save_network(net, path)
    except ParseError:
        return
    assert en.load_network(path) == net
def test_load_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"origin": 0, "edges": [[0, 1, -2.0]]}))
    with pytest.raises(NonPositiveConductance):
        en.load_network(bad)
    noorigin = tmp_path / "noorigin.json"
    noorigin.write_text(json.dumps({"edges": [[0, 1, 1.0]]}))
    with pytest.raises(ParseError):
        en.load_network(noorigin)
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    with pytest.raises(ParseError):
        en.load_network(garbage)


def test_non_finite_conductance_rejected(tmp_path):
    js = tmp_path / "inf.json"
    js.write_text('{"origin": 0, "edges": [[0, 1, 1e400], [1, 2, 1.0]]}')
    with pytest.raises(NonPositiveConductance, match="must be finite and positive"):
        en.load_network(js)
    cs = tmp_path / "inf.csv"
    cs.write_text("x,y,c\n0,1,inf\n1,2,1.0\n")
    with pytest.raises(NonPositiveConductance, match="must be finite and positive"):
        en.load_network(cs, origin=0)
    with pytest.raises(NonPositiveConductance, match="must be finite and positive"):
        en.generate("path", 3, conductance=lambda x, y: float("inf"))


def test_load_csv(tmp_path):
    f = tmp_path / "net.csv"
    f.write_text("x,y,c\n0,1,1.0\n\n1,2,1.0\n\n")  # blank rows, a trailing one too, are skipped
    net = en.load_network(f, origin=0)
    assert net == en.generate("path", 3)
    with pytest.raises(ParseError):
        en.load_network(f)  # origin flag required for CSV
    f.write_text("0,1,1.0\n1,2,1.0\n")
    with pytest.raises(ParseError, match="expected CSV header 'x,y,c'"):
        en.load_network(f, origin=0)


@pytest.mark.parametrize(
    "token,vertex",
    [(" 7 ", 7), ("a ", "a"), (7, 7), (7.0, 7), ("-3", -3)],
)
def test_parse_vertex_accepts(token, vertex):
    assert _parse_vertex(token) == vertex and type(_parse_vertex(token)) is type(vertex)


@pytest.mark.parametrize("token", ["", "  ", True, None, [1], 1.5, float("nan")])
def test_parse_vertex_rejects(token):
    with pytest.raises(ParseError, match="vertex id"):
        _parse_vertex(token)


def test_json_and_csv_read_ids_alike(tmp_path):
    js = tmp_path / "net.json"
    js.write_text(json.dumps({"origin": "0", "edges": [["0", "1", 1.0], [" 1", "a", 2.0]]}))
    cs = tmp_path / "net.csv"
    cs.write_text("x,y,c\n0,1,1.0\n 1,a,2.0\n")
    net = en.load_network(js)
    assert net.vertices == (0, 1, "a") and net.origin == 0
    assert en.load_network(cs, origin="0") == net


def test_json_rejects_an_origin_argument(tmp_path, p3):
    path = tmp_path / "net.json"
    en.save_network(p3, path)
    with pytest.raises(ParseError, match="names its own origin"):
        en.load_network(path, origin=2)
