"""Acceptance gate: ten criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import numpy as np
import pytest

import energynet as en
from energynet.checks import (
    bisect_bound,
    hermitian_defect,
    normalized_projections,
    rank_one_identities,
)
from energynet.multop import (
    Multiplier,
    certify_bound,
    point_mass_norm,
    restricted_norm,
    s_matrix,
)
from energynet.numkernel import psd_check, sqrtm_psd
from energynet.randwalk import escape_prob_exact, escape_prob_mc

from conftest import random_energy_vector, random_network, x_vertices


def _report(name, ok, detail, t0):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({time.perf_counter() - t0:.2f}s)"
    print(line)
    return ok


def _small_nets():
    nets = [en.generate("path", n) for n in (3, 5, 9)]
    nets.append(en.generate("binary_tree", 3))
    nets.append(random_network(12, seed=2024, extra_edges=6, wlo=0.5, whi=3.0))
    return nets


def test_01_segment_gram_golden():
    t0 = time.perf_counter()
    seg = en.generate("integer_segment", 12)
    F = list(range(1, 9))
    V = en.gram_matrix(seg, F).V
    expected = np.minimum.outer(F, F).astype(float)
    err = float(np.abs(V - expected).max())
    assert _report("criterion 1 (segment Gram = min(i,j))", err <= 1e-9, f"max err {err:.2e}", t0)


def test_02_point_mass_dichotomy():
    t0 = time.perf_counter()
    worst_gap = 0.0
    for net in _small_nets():
        xs = x_vertices(net)
        for x in xs:
            m = Multiplier.delta(net, x)
            target = point_mass_norm(net, x)
            rho = restricted_norm(m, xs)
            worst_gap = max(worst_gap, abs(rho - target))
            assert abs(rho - target) <= 1e-6
            hi = target + 1e-6
            assert all(v.is_psd for v in certify_bound(m, hi, [tuple(xs)]))
            lo = target * (1 - 1e-3)
            verdict = psd_check(s_matrix(m, lo, xs))
            assert not verdict.is_psd
            xi = verdict.witness
            assert np.real(np.conj(xi) @ s_matrix(m, lo, xs) @ xi) < 0
    assert _report(
        "criterion 2 (point-mass norm dichotomy)", True, f"max |rho - sqrt(cR)| {worst_gap:.2e}", t0
    )


def test_03_walk_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for net in _small_nets():
        for x in x_vertices(net):
            resid = abs(
                en.total_conductance(net, x)
                * en.effective_resistance(net, x)
                * escape_prob_exact(net, x)
                - 1.0
            )
            worst = max(worst, resid)
            assert resid <= 1e-9
    net = en.generate("path", 5)
    x = 2
    hits = 0
    for seed in range(20):
        est = escape_prob_mc(net, x, samples=10**5, seed=seed)
        if abs(est.mc_estimate - est.exact) <= 3 * est.mc_stderr:
            hits += 1
    assert hits >= 19
    assert _report(
        "criterion 3 (walk identity)", True, f"max residual {worst:.2e}, {hits}/20 seeds in 3 sigma", t0
    )


def test_04_segment_kernel_multiplier_growth():
    t0 = time.perf_counter()
    traces = {}
    for n in (40, 160):
        seg = en.generate("integer_segment", n)
        m = Multiplier.from_kernel(seg, 5)
        trace = [restricted_norm(m, tuple(range(1, k + 1))) for k in range(1, n + 1)]
        diffs = np.diff(trace)
        strictly_increasing = bool(np.all(diffs > 0))
        traces[n] = (trace[-1], strictly_increasing)
    growth = traces[160][0] / traces[40][0]
    ok = traces[40][1] and traces[160][1] and growth >= 1.5
    _report(
        "criterion 4 (kernel-multiplier norm growth)",
        ok,
        f"rho(40)={traces[40][0]:.9g}, rho(160)={traces[160][0]:.9g}, "
        f"ratio {growth:.6f}, strictly increasing: {traces[40][1]}/{traces[160][1]}",
        t0,
    )
    assert traces[40][1] and traces[160][1], "trace must be strictly increasing"
    assert growth >= 1.5, f"growth factor {growth:.6f} < 1.5"


def test_05_psd_norm_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        net = random_network(8, seed=trial)
        rng = np.random.default_rng(10_000 + trial)
        f = rng.normal(size=net.n) + 1j * rng.normal(size=net.n)
        f[net.origin_index] = 0.0
        m = Multiplier(net, f)
        xs = x_vertices(net)
        rho = restricted_norm(m, xs)
        b = bisect_bound(m, [tuple(xs)], tol=1e-8)
        worst = max(worst, abs(b - rho))
        assert abs(b - rho) <= 1e-6
    assert _report(
        "criterion 5 (psd/norm equivalence, 50 multipliers)", True, f"max |bisect - rho| {worst:.2e}", t0
    )


def test_06_rank_one_relations():
    t0 = time.perf_counter()
    worst = 0.0
    for net in (en.generate("path", 5), en.generate("binary_tree", 3)):
        xs = x_vertices(net)
        for x in xs:
            for y in xs:
                worst = max(worst, rank_one_identities(net, x, y))
                worst = max(worst, normalized_projections(net, x, y))
    assert worst <= 1e-8
    assert _report("criterion 6 (rank-one relations)", True, f"max residual {worst:.2e}", t0)


def test_07_reproducing_and_pairing():
    t0 = time.perf_counter()
    worst = 0.0
    for net in _small_nets():
        rng = np.random.default_rng(net.n * 31 + 7)
        for k in range(200):
            u = random_energy_vector(net, rng, complex_=bool(k % 2))
            scale = 1e-9 * (1 + np.sqrt(u.energy))
            for x in net.vertices:
                r1 = en.reproducing_check(net, x, u)
                r2 = en.lap_pairing_check(net, x, u)
                worst = max(worst, max(r1, r2) / scale)
                assert r1 <= scale and r2 <= scale
    assert _report(
        "criterion 7 (reproducing kernel + Laplacian pairing)", True,
        f"worst residual {worst:.3f} of allowance", t0,
    )


def test_08_sqrt_cross_check():
    t0 = time.perf_counter()
    V = np.array([[1.0, 1, 1], [1, 2, 2], [1, 2, 3]])
    root = sqrtm_psd(V)
    resid = float(np.abs(root @ root - V).max())
    assert resid <= 1e-8
    assert psd_check(root).is_psd
    assert _report("criterion 8 (3x3 Gram square root)", True, f"B@B residual {resid:.2e}", t0)


def test_09_banach_product_estimate():
    t0 = time.perf_counter()
    worst = 0.0
    for net in _small_nets():
        rng = np.random.default_rng(net.n * 17 + 3)
        for k in range(100):
            u1 = random_energy_vector(net, rng, complex_=bool(k % 2))
            u2 = random_energy_vector(net, rng, complex_=bool(k % 3))
            _, est = en.pointwise_product(u1, u2)
            worst = min(worst, est.slack)
            assert est.slack >= -1e-9
    assert _report(
        "criterion 9 (Banach-algebra product estimate)", True, f"min slack {worst:.2e}", t0
    )


def test_10_hermitian_dichotomy():
    t0 = time.perf_counter()
    for trial in range(20):
        net = random_network(9, seed=500 + trial)
        rng = np.random.default_rng(700 + trial)
        f = rng.normal(size=net.n)
        f[net.origin_index] = 0.0
        m = Multiplier(net, f)
        xs = x_vertices(net)
        kernels = [en.energy_kernel(net, x) for x in xs]
        best = max(
            abs(hermitian_defect(m, u, v)) for u in kernels for v in kernels
        )
        assert best > 1e-6
    net = random_network(9, seed=999)
    const = Multiplier.constant(net, 2.5)
    xs = x_vertices(net)
    kernels = [en.energy_kernel(net, x) for x in xs]
    worst = max(abs(hermitian_defect(const, u, v)) for u in kernels for v in kernels)
    assert worst <= 1e-10
    assert _report(
        "criterion 10 (Hermitian iff constant real)", True,
        f"const-multiplier max defect {worst:.2e}", t0,
    )
