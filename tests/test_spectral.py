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
from ncfourier.multipliers import OptimizerConfig, estimate_norm, symbol_from_spec
from ncfourier.nclp import (
    _factor,
    lp_norm,
    lp_norm_gradient,
    lp_norms,
    matrix_lp_norm,
)
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
        # the pull-back sums N copies of each coefficient of J_p(f), and the
        # norming element divides J_p(f) by ||f||_p^(p-1)
        want = dense / (g.order * value ** (p - 1.0))
        assert np.max(np.abs(grad - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["cyclic:96", "dihedral:4", "dihedral:33", "heisenberg:2",
                                  "heisenberg:3", "quotient"])
@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
def test_norming_element_has_unit_dual_norm(name, scale):
    # z = lp_norm_gradient(f, p)[1] has ||z||_p' = 1 and <f, z> = ||f||_p, read
    # against lp_norms; p = 1e6 + 1 is the dual side of the p = 1 smoothing,
    # where (sigma / top)^(p-1) underflows for every sigma but the top ones
    g = GROUPS[name]()
    rows = scale * np.array([_random_coeffs(g.order, seed=s) for s in range(3)])
    rows[1, 1:] *= 1e-3  # close to a point mass: near-equal top singular values
    for p in (1.0 + 1e-6, 1.5, 2.0, 3.0, 4.0, 1.0 / (1.0 - 1.0 / (1.0 + 1e-6))):
        dual = 1.0 / (1.0 - 1.0 / p)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            values, zs = lp_norm_gradient(g, rows, p)
        assert values == pytest.approx(lp_norms(g, rows, p), rel=1e-12, abs=0)
        assert lp_norms(g, zs, dual) == pytest.approx(np.ones(len(rows)), rel=1e-12, abs=0)
        pairing = np.einsum("ij,ij->i", rows, zs.conj())
        assert pairing.real == pytest.approx(values, rel=1e-12, abs=0)
        assert np.all(np.abs(pairing.imag) <= 1e-12 * values)
    values, zs = lp_norm_gradient(g, np.zeros((2, g.order)), 3.0)
    assert not values.any() and not zs.any()


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


# ---------------------------------------------------------------------------
# the closed-form 2x2 kernel against numpy.linalg.svd

VALUE_PS = (1.0, 1.0 + 1e-6, 1.5, 2.0, 3.0, 4.0, 8.0, math.inf)
GRADIENT_PS = (1.0 + 1e-6, 1.5, 3.0, 4.0)
# about 1e+-150; powers of two keep the rank-one blocks exactly singular
SCALES = (1.0, 2.0 ** 498, 2.0 ** -498)


def _unitaries(rng, n):
    z = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    return np.linalg.qr(z)[0]


def _with_singular_values(rng, s1, s2, n=8):
    u, v = _unitaries(rng, n), _unitaries(rng, n)
    return (u * np.array([s1, s2])) @ v.conj().swapaxes(-1, -2)


def _adversarial_blocks():
    """Named (k, 2, 2) stacks: generic, zero, exactly rank-one (small Gaussian
    integers, so det is exactly 0), unitary multiples, relative gaps
    (sigma_1 - sigma_2) / sigma_1 of 1e-4, 1e-8 and 1e-12, and
    sigma_2 / sigma_1 = 1e-6."""
    rng = np.random.default_rng(12)
    ints = rng.integers(-3, 4, size=(4, 6, 2)) + 1j * rng.integers(-3, 4, size=(4, 6, 2))
    rank_one = ints[0][..., :, None] * ints[1].conj()[..., None, :]
    rank_one[0] = [[0, 0], [0, 2 - 1j]]  # a single nonzero entry
    stacks = {
        "generic": rng.standard_normal((8, 2, 2)) + 1j * rng.standard_normal((8, 2, 2)),
        "real": rng.standard_normal((8, 2, 2)).astype(complex),
        "zero": np.zeros((3, 2, 2), dtype=complex),
        "rank-one": rank_one,
        "unitary-multiple": _unitaries(rng, 8) * np.array([1.0, 2.5, 1e-3, 7.0] * 2)[:, None, None],
        "diagonal-equal": np.array([np.eye(2), [[0, 1j], [1j, 0]], -3 * np.eye(2)], dtype=complex),
    }
    for gap in (1e-4, 1e-8, 1e-12):
        stacks[f"gap-{gap:g}"] = _with_singular_values(rng, 1.0, 1.0 - gap)
    stacks["graded"] = _with_singular_values(rng, 1.0, 1e-6)
    return stacks


BLOCKS = _adversarial_blocks()


def _schatten(sigma, p):
    """(sum sigma_i^p)^(1/p) over the last axis, scaled so 1e150 does not overflow."""
    top = sigma.max(axis=-1)
    ratio = np.divide(sigma, top[..., None], out=np.zeros(sigma.shape), where=top[..., None] > 0)
    if math.isinf(p):
        return top
    return top * (ratio ** p).sum(axis=-1) ** (1.0 / p)


def _svd_gradient(blocks, p):
    """U sigma^(p-1) V^H from LAPACK.  On an exactly singular block LAPACK
    returns rounding noise (~1e-16 sigma_1) for sigma_2, whose (p-1)-th power
    is not small near p = 1; such values count as 0, as in matrix_rank."""
    u, sigma, vh = np.linalg.svd(blocks)
    noise = sigma <= 4 * np.finfo(float).eps * sigma[..., :1]
    return (u * np.where(noise, 0.0, sigma)[..., None, :] ** (p - 1.0)) @ vh


def _assert_blockwise_close(got, want, rel):
    scale = np.abs(want).max(axis=(-2, -1))
    err = np.abs(got - want).max(axis=(-2, -1))
    assert np.all(err <= rel * scale), float(np.max(err / np.where(scale > 0, scale, 1.0)))


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", BLOCKS)
def test_closed_form_values_match_svd(name, scale):
    blocks = BLOCKS[name] * scale
    sigma, grad = _factor(blocks)
    assert grad is None
    reference = np.linalg.svd(blocks, compute_uv=False)
    assert sigma.shape == reference.shape
    assert np.all(sigma[..., 0] >= sigma[..., 1])
    for p in VALUE_PS:
        got, want = _schatten(sigma, p), _schatten(reference, p)
        assert np.all(np.abs(got - want) <= 1e-12 * want), (p, got, want)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", BLOCKS)
def test_closed_form_gradient_matches_svd(name, scale):
    blocks = BLOCKS[name] * scale
    # each block's gradient comes divided by its own sigma_1^(p-1), so the
    # reference factorizes the blocks divided by sigma_1 (zero blocks stay 0)
    top = np.linalg.svd(blocks, compute_uv=False)[..., :1, None]
    unit = blocks / np.where(top > 0, top, 1.0)
    for p in GRADIENT_PS:
        if name == "graded" and p < 2.0:
            # sigma_2^(p-1) is not small, so the gradient carries the second
            # singular vectors, whose condition number sigma_1 / sigma_2 = 1e6
            # lets any two backward-stable methods differ by ~1e-10
            continue
        grad = _factor(blocks, p)[1]
        assert grad.shape == blocks.shape
        _assert_blockwise_close(grad, _svd_gradient(unit, p), 1e-12)


def test_closed_form_keeps_the_batch_axes():
    blocks = BLOCKS["generic"].reshape(2, 4, 1, 2, 2)
    sigma, grad = _factor(blocks, 3.0)
    assert sigma.shape == (2, 4, 1, 2) and grad.shape == blocks.shape
    flat_sigma, flat_grad = _factor(BLOCKS["generic"], 3.0)
    assert np.array_equal(sigma.reshape(8, 2), flat_sigma)
    assert np.array_equal(grad.reshape(8, 2, 2), flat_grad)


@pytest.fixture
def svd_calls(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize("group, arity, ps, p", [
    ("dihedral:4", 1, (3.0,), 3.0),
    ("heisenberg:2", 1, (1.5,), 1.5),
    ("dihedral:3", 2, (4.0, 4.0), 2.0),
])
def test_optimizer_makes_no_svd_call_on_blocks_of_size_two(svd_calls, group, arity, ps, p):
    g = build_group(group)
    assert max(g.spectral().dims) == 2
    m = symbol_from_spec(g, "random:1", arity)
    estimate_norm(m, ps, p, OptimizerConfig(restarts=4, max_iterations=10, seed=0))
    assert svd_calls == []


def test_blocks_of_size_three_still_use_svd(svd_calls):
    g = build_group("heisenberg:3")
    assert max(g.spectral().dims) == 3
    lp_norm(AlgebraElement(g, _random_coeffs(g.order)), 3.0)
    assert len(svd_calls) >= 1


@pytest.mark.parametrize("name", ["dihedral:3", "heisenberg:3", "cyclic:96"])
def test_lp_norms_neither_overflow_nor_underflow(name):
    # sigma^p of 1e150 overflows and of 1e-41 at p = 8 underflows; the norm
    # is homogeneous, so scaling the element scales it exactly
    g = GROUPS[name]()
    f = _random_coeffs(g.order, seed=4)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for scale in (1e150, 1e-41, 2.0 ** 498, 2.0 ** -498):
            for p in PS + (8.0,):
                assert lp_norm(AlgebraElement(g, scale * g.delta_element(0).coeffs), p) == (
                    pytest.approx(scale, rel=1e-12, abs=0))
                assert lp_norm(AlgebraElement(g, scale * f), p) == pytest.approx(
                    scale * lp_norm(AlgebraElement(g, f), p), rel=1e-12, abs=0)
        rows = np.array([np.zeros(g.order), 1e150 * f, 1e-150 * f, f])
        for p in (3.0, math.inf):
            want = [0.0] + [s * lp_norm(AlgebraElement(g, f), p) for s in (1e150, 1e-150, 1.0)]
            assert lp_norms(g, rows, p) == pytest.approx(want, rel=1e-12, abs=0)
        mat = regular_matrix(AlgebraElement(g, f))
        for p in (1.0, 3.0, 8.0, math.inf):
            for scale in (1e150, 1e-41):
                assert matrix_lp_norm(scale * mat, p) == pytest.approx(
                    scale * matrix_lp_norm(mat, p), rel=1e-12, abs=0)
        assert matrix_lp_norm(np.zeros((3, 3)), 3.0) == 0.0
