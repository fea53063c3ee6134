"""The spectral layer: irreducible blocks against the dense regular matrix."""

import math

import numpy as np
import pytest

from ncfourier.groups import (
    STORED_ORDER,
    AlgebraElement,
    FiniteGroup,
    build_group,
    convolve,
    regular_matrix,
)
from ncfourier.nclp import lp_norm, lp_norm_gradient, lp_norms, matrix_lp_norm
from ncfourier.restriction import quotient_group

PS = (1.0, 1.5, 2.0, 3.0, 4.0, math.inf)


def _quotient():
    g = build_group("heisenberg:4")
    return quotient_group(g, g.subset(range(0, 4, 2)))[0]  # order 32, nonabelian


def _json_table():
    return FiniteGroup.from_json(build_group("product:dihedral:3,cyclic:2").to_json())


# every recipe: the FFT ones above STORED_ORDER, where they run as recipes,
# and below it, where their transform is stored as a matrix
GROUPS = {
    "cyclic:96": lambda: build_group("cyclic:96"),
    "cyclic:8": lambda: build_group("cyclic:8"),
    "dihedral:33": lambda: build_group("dihedral:33"),
    "dihedral:40": lambda: build_group("dihedral:40"),
    "dihedral:3": lambda: build_group("dihedral:3"),
    "dihedral:4": lambda: build_group("dihedral:4"),
    "heisenberg:2": lambda: build_group("heisenberg:2"),
    "heisenberg:3": lambda: build_group("heisenberg:3"),
    "heisenberg:4": lambda: build_group("heisenberg:4"),
    "nested-product": lambda: build_group("product:cyclic:3,product:heisenberg:2,cyclic:3"),
    "nonabelian-product": lambda: build_group("product:dihedral:5,heisenberg:2"),
    "small-product": lambda: build_group("product:dihedral:3,cyclic:2"),
    "quotient": _quotient,
    "from-json": _json_table,
    # several irreducibles of one dimension under one central character
    "from-json-dihedral:9": lambda: FiniteGroup.from_json(build_group("dihedral:9").to_json()),
    "from-json-product": lambda: FiniteGroup.from_json(
        build_group("product:dihedral:3,dihedral:3").to_json()),
}


def _random_coeffs(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("name", GROUPS)
def test_lp_norm_matches_dense(name):
    g = GROUPS[name]()
    f = AlgebraElement(g, _random_coeffs(g.order))
    mat = regular_matrix(f)
    for p in PS:
        dense = matrix_lp_norm(mat, p, trace_dim=g.order)
        assert lp_norm(f, p) == pytest.approx(dense, rel=1e-12, abs=0), p


def test_recipes_run_where_expected():
    assert type(build_group("cyclic:96").spectral()).__name__ == "_CyclicSpectral"
    assert type(build_group("dihedral:33").spectral()).__name__ == "_DihedralSpectral"
    nested = build_group("product:cyclic:3,product:heisenberg:2,cyclic:3")
    assert nested.order > STORED_ORDER
    assert type(nested.spectral()).__name__ == "_ProductSpectral"
    # the recipe comes from the constructor, never from the label
    table = FiniteGroup.from_json(build_group("cyclic:96").to_json())
    assert table.label == "cyclic:96" and table.spectral_recipe is None
    assert type(table.spectral()).__name__ == "_StoredSpectral"


@pytest.mark.parametrize("name", GROUPS)
def test_plancherel_dimensions_and_inversion(name):
    g = GROUPS[name]()
    spec = g.spectral()
    assert sum(k * d * d for k, d in zip(spec.counts, spec.dims)) == g.order
    f = _random_coeffs(g.order)
    blocks = spec.forward(f)
    assert [b.shape for b in blocks] == [(k, d, d) for k, d in zip(spec.counts, spec.dims)]
    assert np.allclose(spec.adjoint(blocks), g.order * f, rtol=0, atol=1e-12 * g.order)
    # leading batch axes are carried through both maps
    batch = np.stack([f, 2j * f, f.conj()]).reshape(3, 1, g.order)
    stacked = spec.forward(batch)
    for i, scale in enumerate([f, 2j * f, f.conj()]):
        for b, one in zip(stacked, spec.forward(scale)):
            assert np.allclose(b[i, 0], one, rtol=0, atol=1e-12 * g.order)
    assert np.allclose(spec.adjoint(stacked), g.order * batch, rtol=0, atol=1e-12 * g.order)


@pytest.mark.parametrize("name", GROUPS)
def test_forward_turns_convolution_into_block_products(name):
    # (f * g)^(pi) = f^(pi) g^(pi) holds only if every block is a representation
    g = GROUPS[name]()
    f, h = _random_coeffs(g.order, seed=1), _random_coeffs(g.order, seed=2)
    prod = g.spectral().forward(convolve(AlgebraElement(g, f), AlgebraElement(g, h)).coeffs)
    for lhs, bf, bh in zip(prod, g.spectral().forward(f), g.spectral().forward(h)):
        assert np.allclose(lhs, bf @ bh, rtol=0, atol=1e-10 * g.order)


@pytest.mark.parametrize("spec, dims", [
    ("dihedral:64", {1, 2}),
    ("heisenberg:3", {1, 3}),
    ("heisenberg:5", {1, 5}),
])
def test_block_dimensions(spec, dims):
    g = build_group(spec)
    s = g.spectral()
    assert set(s.dims) == dims
    assert sum(k * d * d for k, d in zip(s.counts, s.dims)) == g.order


@pytest.mark.parametrize("name", ["cyclic:96", "dihedral:4", "dihedral:33", "heisenberg:2",
                                  "heisenberg:3", "nested-product", "quotient", "from-json"])
def test_gradient_pullback_matches_dense(name):
    g = GROUPS[name]()
    f = AlgebraElement(g, _random_coeffs(g.order, seed=4))
    mat = regular_matrix(f)
    u, sigma, vh = np.linalg.svd(mat)
    for p in (1.5, 3.0, 4.0):
        gmat = (u * sigma ** (p - 1.0)) @ vh
        dense = np.zeros(g.order, dtype=complex)
        np.add.at(dense, g.mul[:, g.inv], gmat)
        value, grad = lp_norm_gradient(g, f.coeffs, p)
        assert value == pytest.approx(matrix_lp_norm(mat, p), rel=1e-12, abs=0)
        assert np.max(np.abs(grad - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("name", ["cyclic:96", "dihedral:4", "heisenberg:2", "nested-product",
                                  "quotient"])
def test_stacked_norms_match_row_by_row(name):
    g = GROUPS[name]()
    rows = np.array([_random_coeffs(g.order, seed=s) for s in range(5)]).reshape(5, 1, g.order)
    for p in PS:
        norms = lp_norms(g, rows, p)
        assert norms.shape == (5, 1)
        for f, value in zip(rows[:, 0], norms[:, 0]):
            assert value == pytest.approx(lp_norm(AlgebraElement(g, f), p), rel=1e-12, abs=0)
    for p in (1.5, 3.0):
        values, grads = lp_norm_gradient(g, rows, p)
        assert values.shape == (5, 1) and grads.shape == rows.shape
        for f, value, grad in zip(rows[:, 0], values[:, 0], grads[:, 0]):
            one_value, one_grad = lp_norm_gradient(g, f, p)
            assert value == pytest.approx(one_value, rel=1e-12, abs=0)
            assert np.max(np.abs(grad - one_grad)) <= 1e-12 * np.max(np.abs(one_grad))


def test_two_builds_give_bit_identical_blocks():
    makers = [lambda: build_group("heisenberg:4"), _quotient, _json_table,
              lambda: build_group("product:cyclic:3,product:heisenberg:2,cyclic:3")]
    for make in makers:
        a, b = make(), make()
        f = _random_coeffs(a.order, seed=9)
        for x, y in zip(a.spectral().forward(f), b.spectral().forward(f)):
            assert np.array_equal(x, y)


def test_spectral_is_cached_and_lazy():
    g = build_group("heisenberg:3")
    assert "_spectral" not in g.__dict__
    assert g.spectral() is g.spectral()


def test_lp_norm_rejects_small_exponent():
    g = build_group("cyclic:4")
    with pytest.raises(ValueError):
        lp_norm(g.delta_element(0), 0.5)
