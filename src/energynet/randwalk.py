"""Conductance-weighted random walk: exact escape probabilities from the
energy projection onto a Dirac span, and seeded Monte Carlo estimation.

The headline identity tying the walk to the operator theory is
c(x) R(x) P[x -> o] = 1, checked in the tests for every vertex.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .energy import fin_projection
from .errors import CapHit, InvalidInput, UnknownVertex
from .network import VertexFunction


@dataclass(frozen=True)
class WalkEstimate:
    x: object
    exact: float
    mc_estimate: float
    mc_stderr: float
    samples: int
    seed: int
    cap_hits: int

    def to_json_dict(self):
        return asdict(self)


def transition_prob(net, x, y):
    """p(x, y) = c_xy / c(x); rows sum to one."""
    xi, yi = net.index(x), net.index(y)
    row = slice(net.indptr[xi], net.indptr[xi + 1])
    return float(net.weights[row][net.indices[row] == yi].sum() / net.conductance[xi])


def escape_prob_exact(net, x):
    """P[x -> o]: probability the walk from x hits o before returning to x.

    P = sum_y p(x, y) h(y) for the hitting function h: 1 at o, 0 at x and
    harmonic on I = G \\ {o, x}.  That is delta_o minus its energy projection
    onto span{delta_y : y in I}, one Dirichlet solve on the Laplacian block L_I.
    """
    xi = net.index(x)
    oi = net.origin_index
    if xi == oi:
        raise UnknownVertex("escape probability from the origin is undefined")
    d = VertexFunction.delta(net, net.origin)
    interior = [y for y in net.x_vertices if y != x]
    h = d.values - fin_projection(net, d, interior).values if interior else d.values
    row = slice(net.indptr[xi], net.indptr[xi + 1])
    return float(np.dot(net.weights[row] / net.conductance[xi], h[net.indices[row]]))


def _walk_step(net):
    """step(cur, u): the next vertices of walkers at rows cur for uniforms u in [0, 1).

    Exact inverse-CDF sampling, row by row: the next vertex is the first CSR
    slot of row cur whose normalized cumulative weight cum exceeds u (cum is
    cumsum(w[:-1]) / sum(w) with its last entry exactly 1, so some slot does).
    A guide table (Chen & Asau, 1974) gives a row of degree d the d + 1
    buckets j = floor(u * d).  Every u that bucket j receives is at least
    j / d - 2**-53, whatever the rounding of u * d, so the bucket's entry, a
    slot at or before the first one with cum > j / d - 2**-50, never passes
    the answer.  Forward passes over the walkers still short of it finish
    the search, in O(1) expected steps per walker.
    """
    deg = np.diff(net.indptr)
    rows = np.split(net.weights, net.indptr[1:-1])
    cum = np.concatenate([np.append(np.cumsum(w[:-1]) / w.sum(), 1.0) for w in rows])
    # row x's buckets start at first[x].  The search adds the row index to
    # both sides, which rounds them alike (monotonically), so side="left"
    # stops at or before the first slot with cum > t.
    first = net.indptr[:-1] + np.arange(net.n)
    row = np.repeat(np.arange(net.n), deg + 1)
    t = (np.arange(row.size) - first[row]) / deg[row] - 2.0**-50
    key = np.repeat(np.arange(net.n), deg) + cum
    # t < 0 may stop on the row before
    guide = np.maximum(np.searchsorted(key, row + t, side="left"), net.indptr[row])
    nbr = net.indices

    def step(cur, u):
        pos = guide[first[cur] + (u * deg[cur]).astype(np.intp)]
        ahead = np.flatnonzero(cum[pos] <= u)
        while ahead.size:
            pos[ahead] += 1
            ahead = ahead[cum[pos[ahead]] <= u[ahead]]
        return nbr[pos]

    return step


def escape_prob_mc(net, x, samples, seed, max_steps=10**9):
    """Monte Carlo excursion estimate of P[x -> o], reproducible per seed.

    Excursions exceeding max_steps raise CapHit carrying the partial
    estimate over the decided excursions.
    """
    if samples < 1:
        raise InvalidInput("samples must be >= 1")
    xi = net.index(x)
    oi = net.origin_index
    if xi == oi:
        raise UnknownVertex("escape probability from the origin is undefined")

    step = _walk_step(net)
    rng = np.random.Generator(np.random.Philox(key=seed))

    cur = np.full(samples, xi, dtype=np.intp)  # undecided walkers, in draw order
    alive = np.ones(net.n, dtype=bool)  # a step to o or back to x decides the walker
    alive[[oi, xi]] = False
    successes = 0
    steps = 0
    while cur.size:
        steps += 1
        if steps > max_steps:
            break
        cur = step(cur, rng.random(cur.size))
        successes += int(np.count_nonzero(cur == oi))
        cur = cur[alive[cur]]

    cap_hits = int(cur.size)
    decided = samples - cap_hits
    phat = successes / decided if decided else float("nan")
    stderr = float(np.sqrt(phat * (1 - phat) / decided)) if decided else float("nan")
    est = WalkEstimate(
        x=x,
        exact=escape_prob_exact(net, x),
        mc_estimate=float(phat),
        mc_stderr=stderr,
        samples=samples,
        seed=seed,
        cap_hits=cap_hits,
    )
    if cap_hits:
        raise CapHit(
            f"{cap_hits} of {samples} excursions hit the {max_steps}-step cap",
            estimate=est,
        )
    return est
