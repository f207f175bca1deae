import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import energynet as en
from energynet.randwalk import escape_prob_exact

from conftest import random_network
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
