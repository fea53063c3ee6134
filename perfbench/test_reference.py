"""Tests of the benchmark's reference computations.

Run with ``python3 -m pytest perfbench``.  The groups here are built from
permutations and residues in this file, not by ncfourier.
"""

import itertools
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402


def cyclic_tables(n):
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n, (-idx) % n


def symmetric_tables(k):
    """S_k with (st)(i) = s(t(i)); index 0 is the identity permutation."""
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    mul = np.empty((n, n), dtype=np.int64)
    inv = np.empty(n, dtype=np.int64)
    for i, s in enumerate(perms):
        inv[i] = index[tuple(sorted(range(k), key=lambda j: s[j]))]
        for j, t in enumerate(perms):
            mul[i, j] = index[tuple(s[t[x]] for x in range(k))]
    return mul, inv


def gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0, math.inf])
def test_fft_norm_matches_dense_svd(p):
    mul, inv = cyclic_tables(24)
    x = gaussian(np.random.default_rng(1), 24)
    assert ref.lp_norm_cyclic(x, p) == pytest.approx(ref.lp_norm_dense(mul, inv, x, p), rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0, math.inf])
def test_bracket_holds_on_a_nonabelian_group(p):
    mul, inv = symmetric_tables(4)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = gaussian(rng, 24)
        lo, hi = ref.lp_bracket(mul, inv, x, p)
        exact = ref.lp_norm_dense(mul, inv, x, p)
        assert lo * (1 - 1e-12) <= exact <= hi * (1 + 1e-12)
        if p in (2.0, 4.0):
            assert lo == pytest.approx(exact, rel=1e-12)


def test_convolution_is_the_regular_matrix_product():
    mul, inv = symmetric_tables(3)
    rng = np.random.default_rng(3)
    f, g = gaussian(rng, 6), gaussian(rng, 6)
    lhs = ref.regular_matrix(mul, inv, ref.convolve(mul, f, g))
    rhs = ref.regular_matrix(mul, inv, f) @ ref.regular_matrix(mul, inv, g)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_tensor_symbol_factors_into_a_convolution():
    mul, inv = symmetric_tables(3)
    rng = np.random.default_rng(4)
    a, b, x, y = (gaussian(rng, 6) for _ in range(4))
    out = ref.apply_bilinear(mul, np.outer(a, b), x, y)
    assert np.allclose(out, ref.convolve(mul, a * x, b * y), atol=1e-12)


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_upper_bound_dominates_sampled_ratios_and_sup(p):
    mul, inv = symmetric_tables(3)
    rng = np.random.default_rng(5)
    m = gaussian(rng, 6)
    bound = ref.norm_upper_bound(mul, inv, m, p)
    assert bound >= np.max(np.abs(m)) * (1 - 1e-12)
    for _ in range(200):
        x = gaussian(rng, 6)
        assert ref.norm_ratio(mul, inv, m, [x], (p,), p) <= bound * (1 + 1e-12)
    point = np.zeros(6, dtype=complex)
    point[int(np.argmax(np.abs(m)))] = 1.0
    assert ref.norm_ratio(mul, inv, m, [point], (p,), p) == pytest.approx(np.max(np.abs(m)))


def test_bilinear_upper_bound_dominates_sampled_ratios():
    mul, inv = cyclic_tables(6)
    rng = np.random.default_rng(6)
    m = gaussian(rng, 6, 6)
    bound = ref.norm_upper_bound(mul, inv, m, 2.0)
    for _ in range(100):
        xs = [gaussian(rng, 6), gaussian(rng, 6)]
        assert ref.norm_ratio(mul, inv, m, xs, (4.0, 4.0), 2.0) <= bound


def test_delta_fraction():
    mul, inv = cyclic_tables(12)
    assert ref.delta_fraction(mul, inv, [1, 5], [0, 3, 4]) == (3, 3)
    mul, inv = symmetric_tables(3)
    # conjugating a transposition by a 3-cycle moves it off the set {e, t}
    t = next(i for i in range(6) if i and inv[i] == i)
    c = next(i for i in range(6) if inv[i] != i)
    assert ref.delta_fraction(mul, inv, [c], [0, t]) == (1, 2)


def test_transference_bound_covers_the_compressed_pairing():
    L, k, alpha = 64, 3, 8
    rng = np.random.default_rng(7)
    m = gaussian(rng, L, L)
    x, y, z = (np.zeros(L, dtype=complex) for _ in range(3))
    for v in (x, y):
        v[np.arange(-k, k + 1) % L] = gaussian(rng, 2 * k + 1)
    z[:] = gaussian(rng, L)
    full, abs_sum = ref.transference_pairing(m, x, y, z)
    window = [s % L for s in range(-alpha, alpha + 1)]
    compressed = sum(
        m[(s - r) % L, (r - t) % L] * x[(s - r) % L] * y[(r - t) % L] * np.conj(z[(s - t) % L])
        for s in window for r in window for t in window
    ) / len(window)
    gap = abs(compressed - full)
    assert 0 < gap <= ref.transference_residual_bound(abs_sum, k, alpha)


def test_tube_volume_closed_form():
    assert ref.tube_volume(0.1, 0.5) == pytest.approx(0.028452, rel=2e-5)
    assert ref.tube_volume(0.05, 0.5) == pytest.approx(0.0074837, rel=2e-5)
    assert ref.tube_volume(0.025, 0.5) == pytest.approx(0.0019172, rel=2e-4)
    # against direct sampling of the tube in the original coordinates
    rng = np.random.default_rng(8)
    eps, R, n = 0.1, 0.5, 2_000_000
    box = np.array([R / math.sqrt(2.0), R, R])
    x = rng.uniform(-box, box, size=(n, 3))
    det = -x[:, 0] ** 2 - x[:, 1] * x[:, 2]
    inside = (2 * np.abs(det) < eps ** 2) & (2 * x[:, 0] ** 2 + x[:, 1] ** 2 + x[:, 2] ** 2 < R ** 2)
    frac = inside.mean()
    vol = np.prod(2 * box)
    stderr = vol * math.sqrt(frac * (1 - frac) / n)
    assert abs(vol * frac - ref.tube_volume(eps, R)) <= 5 * stderr


def test_sl2z_counts():
    norms = ref.sl2z_norms(2600)
    assert ref.sl2z_count(norms, 1.000001) == 4
    counts = [ref.sl2z_count(norms, rho) for rho in (100, 250, 500, 1000, 2500)]
    assert counts == [580, 1476, 3028, 5988, 14788]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_regular_nilpotent_orbit_dimension(n):
    e = np.diag(np.ones(n - 1), 1)
    ad = np.kron(e, np.eye(n)) - np.kron(np.eye(n), e.T)
    assert np.linalg.matrix_rank(ad) == ref.max_nilpotent_orbit_dim(n)
