"""Resistance networks: validated weighted graphs, generators, and file I/O.

A network is a finite connected graph with symmetric positive conductances
and a distinguished origin vertex.  Vertices keep their insertion order and
all matrix-valued quantities downstream index vertices by that order.  The
network owns X = G \\ {o}, the index set of the reproducing kernel:
Network.x_index lists its dense indices, Network.x_vertices its ids and
Network.x_position inverts x_index, and no other module rebuilds any of them.

A function on the vertices is one type, VertexFunction: the network and its
values in vertex order.  Multipliers (multop.Multiplier) are its subclass
with no data of their own; finite-energy classes (energy.EnergyVector) add
only their energy.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
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
from .numkernel import cholesky, stored


class Network:
    """Immutable weighted graph with origin.

    Use :func:`build_network`, :func:`generate` or :func:`load_network` to
    construct one; the constructor itself assumes pre-validated input.
    The adjacency is stored once, as CSR arrays: the neighbours of vertex i
    are ``indices[indptr[i]:indptr[i + 1]]``, in edge order, with their
    conductances at the same positions of ``weights``.  ``x_index`` holds
    the dense indices of X = G \\ {o} in vertex order, read-only, and
    ``x_vertices`` the ids of X in the same order.
    """

    def __init__(self, vertices, origin, edges):
        # edges: (x, y, w) triples with vertex ids and float w, one per edge
        self.vertices = tuple(vertices)
        self.origin = origin
        self._index = index = {v: k for k, v in enumerate(self.vertices)}
        self.n = len(self.vertices)
        self.origin_index = o = index[origin]
        self.x_index = stored(np.delete(np.arange(self.n), o))
        self.x_vertices = self.vertices[:o] + self.vertices[o + 1 :]
        self.edges = tuple(edges)
        rec = np.fromiter(
            ((index[x], index[y], w) for x, y, w in self.edges),
            dtype=[("i", np.intp), ("j", np.intp), ("w", float)],
            count=len(self.edges),
        )
        self.edge_i, self.edge_j, self.edge_w = (np.ascontiguousarray(rec[c]) for c in "ijw")
        # CSR: both directions of each edge side by side, stably sorted by source
        src = np.column_stack((self.edge_i, self.edge_j)).ravel()
        rows = np.argsort(src, kind="stable")
        self.indptr = np.searchsorted(src[rows], np.arange(self.n + 1))
        self.indices = np.column_stack((self.edge_j, self.edge_i)).ravel()[rows]
        self.weights = np.repeat(self.edge_w, 2)[rows]
        self.conductance = np.bincount(src[rows], weights=self.weights, minlength=self.n)

    def index(self, x):
        try:
            return self._index[x]
        except KeyError:
            raise UnknownVertex(f"vertex {x!r} not in network") from None

    def laplacian_matrix(self):
        """Dense Laplacian, physics sign convention (nonnegative spectrum); not cached."""
        # edges are unique after build_network's merge, so no entry repeats
        L = np.zeros((self.n, self.n))
        L[self.edge_i, self.edge_j] = L[self.edge_j, self.edge_i] = -self.edge_w
        np.fill_diagonal(L, self.conductance)
        return L

    def x_position(self, idx):
        """The inverse of x_index: positions in X of dense indices idx, not the origin's."""
        return idx - (np.asarray(idx) > self.origin_index)

    def laplacian_block(self, idx):
        """The principal block of laplacian_matrix() on the dense indices idx,
        read-only; both triangles come from the same weights, so it is exactly
        symmetric."""
        return stored(self.laplacian_matrix()[np.ix_(idx, idx)])

    @cached_property
    def grounded_factor(self):
        """Upper triangular W with L_X = W W^T, the grounded Laplacian on
        X = G \\ {o}, rows and columns in x_index order: LAPACK's Cholesky of
        the block in reverse order, J L_X J = R^T R, read as W = J R^T J.
        For every prefix of X (its first k entries), W[:k, :k] W[:k, :k]^T is
        then the inverse of the kernel Gram matrix over that prefix.
        Built on first use, kept for the life of the network; read-only."""
        R = cholesky(self.laplacian_block(self.x_index[::-1]))
        # R is F-ordered, so J R^T J, C-ordered, is R's buffer read backwards
        return stored(np.ascontiguousarray(R.T[::-1, ::-1]))

    def edge_dict(self):
        return {frozenset((x, y)): w for x, y, w in self.edges}

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.origin == other.origin
            and self.edge_dict() == other.edge_dict()
        )

    def __hash__(self):
        # equal networks share vertices and origin; the edges only refine equality
        return hash((self.vertices, self.origin))

    def __repr__(self):
        return f"Network(n={self.n}, edges={len(self.edges)}, origin={self.origin!r})"


def require_values(net, values):
    """values, or InvalidInput unless it holds one value per vertex: shape (n,)."""
    if np.shape(values) != (net.n,):
        raise InvalidInput(f"expected {net.n} vertex values, got shape {np.shape(values)}")
    return values


@dataclass(frozen=True, eq=False)
class VertexFunction:
    """Scalar function on the vertices, stored in vertex order; `==` is identity."""

    net: Network
    values: np.ndarray

    def __post_init__(self):
        # a read-only copy: a later write to the caller's array changes nothing here
        object.__setattr__(self, "values", stored(require_values(self.net, np.array(self.values))))

    def __getitem__(self, x):
        return self.values[self.net.index(x)]

    @classmethod
    def from_dict(cls, net, mapping):
        """Values from {vertex: value}, 0 elsewhere; read-only."""
        vals = np.zeros(net.n, dtype=complex)
        for x, v in mapping.items():
            vals[net.index(x)] = v
        return cls(net, vals)

    @classmethod
    def delta(cls, net, x):
        return cls.from_dict(net, {x: 1.0})

    @classmethod
    def ones(cls, net):
        return cls(net, np.ones(net.n))


def build_network(edge_list, origin):
    """Validate an edge list and return a Network.

    Duplicate (x, y)/(y, x) entries with equal weight are merged; unequal
    weights on the same pair are rejected (pre-add parallel conductors).
    """
    if not edge_list:
        raise InvalidSize("edge list is empty")
    vertices = {}  # ordered by first appearance
    weights = {}
    for x, y, w in edge_list:
        if x == y:
            raise SelfLoop(f"self-loop at vertex {x!r}")
        fw = float(w)
        if not 0 < fw < np.inf:
            raise NonPositiveConductance(
                f"edge ({x!r},{y!r}) has weight {w!r}: must be finite and positive"
            )
        vertices[x] = vertices[y] = None  # a key keeps its first position
        # keyed by the first orientation seen; a reversed repeat finds it too
        first = weights.get((y, x)) or weights.setdefault((x, y), (x, y, fw))
        if fw != first[2]:
            raise AsymmetricInput(f"edge ({x!r},{y!r}) given weights {first[2]} and {w}")
    if origin not in vertices:
        raise OriginMissing(f"origin {origin!r} does not appear in the edge list")
    net = Network(vertices, origin, list(weights.values()))

    # connectivity by BFS over the CSR rows, read as lists (numpy scalar reads are slow)
    indptr, indices = net.indptr.tolist(), net.indices.tolist()
    reached, stack = {0}, [0]
    while stack:
        i = stack.pop()
        new = set(indices[indptr[i] : indptr[i + 1]]) - reached
        reached |= new
        stack.extend(new)
    if len(reached) != net.n:
        missing = [v for k, v in enumerate(net.vertices) if k not in reached]
        raise Disconnected(f"vertices {missing!r} unreachable from {net.vertices[0]!r}")
    return net


def total_conductance(net, x):
    """c(x) = sum of edge weights at x."""
    return float(net.conductance[net.index(x)])


def laplacian_apply(net, u):
    """Apply the graph Laplacian pointwise: (Lu)(x) = sum c_xy (u(x) - u(y)),
    from the CSR rows (every row is nonempty: a network is connected)."""
    v = u.values
    Lv = net.conductance * v - np.add.reduceat(net.weights * v[net.indices], net.indptr[:-1])
    return VertexFunction(net, Lv)


def generate(family, size, conductance=1.0):
    """Build a canonical network: path(n), cycle(n), integer_segment(n),
    binary_tree(depth).  Origin is vertex 0 (the root for trees).

    ``conductance`` is a constant weight or a callable (x, y) -> weight.
    """
    w = conductance if callable(conductance) else (lambda x, y: conductance)
    if family == "path":
        if size < 2:
            raise InvalidSize("path needs at least 2 vertices")
        edges = [(k, k + 1, w(k, k + 1)) for k in range(size - 1)]
    elif family == "cycle":
        if size < 3:
            raise InvalidSize("cycle needs at least 3 vertices")
        edges = [(k, (k + 1) % size, w(k, (k + 1) % size)) for k in range(size)]
    elif family == "integer_segment":
        if size < 2:
            raise InvalidSize("integer_segment needs n >= 2")
        edges = [(k, k + 1, w(k, k + 1)) for k in range(size)]
    elif family == "binary_tree":
        if size < 1:
            raise InvalidSize("binary_tree needs depth >= 1")
        # vertex c > 0 hangs from (c - 1) // 2; edges in order of the child
        edges = [((c - 1) // 2, c, w((c - 1) // 2, c)) for c in range(1, 2 ** (size + 1) - 1)]
    else:
        raise InvalidSize(f"unknown family {family!r}")
    return build_network(edges, origin=0)


def save_network(net, path):
    """Write net as JSON; an id that would not load back as itself raises ParseError."""
    for v in net.vertices:
        if _parse_vertex(v) != v:  # ' a' and '01' would load as 'a' and 1
            raise ParseError(f"vertex id {v!r} would load back as {_parse_vertex(v)!r}")
    doc = {"origin": net.origin, "edges": [[x, y, w] for x, y, w in net.edges]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _parse_vertex(token):
    """The one vertex-id rule: a stripped string, as an int where it parses; an integral number."""
    if isinstance(token, str):
        token = token.strip()
        if not token:
            raise ParseError("vertex id must not be empty")
        try:
            return int(token)
        except ValueError:
            return token
    # not bool: a JSON boolean equals and hashes like 0 or 1, but is not a vertex id
    if type(token) is int or isinstance(token, float) and token.is_integer():
        return int(token)
    raise ParseError(f"vertex id {token!r} must be a string or integer")


def _edge(where, row):
    """(x, y, c) from one edge row of a JSON or CSV network file."""
    if not (isinstance(row, list) and len(row) == 3):
        raise ParseError(f"{where} must be [x, y, c], got {row!r}")
    x, y, c = row
    try:
        if isinstance(c, bool):  # JSON true is not the weight 1
            raise TypeError
        weight = float(c)
    except (TypeError, ValueError):
        raise ParseError(f"{where} weight {c!r} is not a number") from None
    try:
        return _parse_vertex(x), _parse_vertex(y), weight
    except ParseError as exc:
        raise ParseError(f"{where} {exc}") from None


def _load_json(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    for key in ("origin", "edges"):
        if not isinstance(doc, dict) or key not in doc:
            raise ParseError(f"{path}: missing required key {key!r}")
    if not isinstance(doc["edges"], list):
        raise ParseError(f"{path}: 'edges' must be a list")
    edges = [_edge(f"{path}: edges[{k}]", e) for k, e in enumerate(doc["edges"])]
    return build_network(edges, origin=_parse_vertex(doc["origin"]))


def _load_csv(path, origin):
    if origin is None:
        raise ParseError(f"{path}: CSV networks need the origin passed explicitly")
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        if [f.strip() for f in next(rows, [])] != ["x", "y", "c"]:
            raise ParseError(f"{path}: expected CSV header 'x,y,c'")
        edges = [_edge(f"{path}: line {rows.line_num}", row) for row in rows if row]
    return build_network(edges, origin=_parse_vertex(origin))


def load_network(path, origin=None):
    """Load a network from JSON (canonical, names its origin) or CSV (header x,y,c + origin)."""
    if str(path).endswith(".csv"):
        return _load_csv(path, origin)
    if origin is not None:
        raise ParseError(f"{path}: a JSON network names its own origin")
    return _load_json(path)
