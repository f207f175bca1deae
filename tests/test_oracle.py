import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import energynet as en
from energynet.randwalk import escape_prob_exact

from conftest import random_network
import oracle
from oracle import rel_err, resistances_and_escapes


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10**6))
def test_resistance_and_escape_match_the_60_digit_oracle(n, seed):
    # conductances log-uniform over 10^(+-1); the worst seen is about 3 n eps
    net = random_network(n, seed, decades=1)
    R, P = resistances_and_escapes(net)
    tol = 64 * n * np.finfo(float).eps
    for x in R:
        assert rel_err(en.effective_resistance(net, x), R[x]) <= tol, x
        assert rel_err(escape_prob_exact(net, x), P[x]) <= tol, x


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10**6), st.booleans())
def test_restricted_norm_matches_the_60_digit_oracle(n, seed, complex_f):
    # normal f and a random nonempty F of X, conductances log-uniform over 10^(+-1);
    # the worst seen over 2000 draws is 2.4 n eps
    net = random_network(n, seed, decades=1)
    rng = np.random.default_rng(seed)
    X = [net.vertices[i] for i in net.x_index.tolist()]
    F = [X[i] for i in rng.permutation(len(X))[: rng.integers(1, len(X) + 1)]]
    values = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_f else 0.0)
    m = en.Multiplier(net, values)
    exact = oracle.restricted_norm(net, F, [m[x] for x in F])
    assert rel_err(en.restricted_norm(m, F), exact) <= 16 * n * np.finfo(float).eps


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10**6))
def test_gram_matrix_matches_the_60_digit_oracle(n, seed):
    # every entry of V over X within 64 n eps sqrt(V_xx V_yy), conductances
    # log-uniform over 10^(+-1); the worst of a 6000-draw sweep was 19.8 n eps.
    # An exact zero (x and y on different sides of o, a cut vertex) stays 0.
    net = random_network(n, seed, decades=1)
    exact = oracle.kernel_gram(net)
    V = en.gram_matrix(net, net.x_vertices).V
    tol = 64 * n * np.finfo(float).eps
    with mpmath.workdps(oracle.DPS):
        for i, j in np.ndindex(V.shape):
            if exact[i, j] == 0:
                assert V[i, j] == 0, (i, j)
            else:
                err = abs(mpmath.mpf(V[i, j]) - exact[i, j])
                assert err <= tol * mpmath.sqrt(exact[i, i] * exact[j, j]), (i, j)
