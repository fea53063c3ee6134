import math

import numpy as np
import pytest

from ncfourier.groups import (
    AlgebraElement,
    build_embedding,
    build_group,
    convolve,
    involution,
    random_element,
    regular_matrix,
)
from ncfourier.nclp import (
    conjugate_exponent,
    lp_norm,
    matrix_lp_norm,
    output_exponent,
    plancherel_trace,
)
from ncfourier.restriction import PreconditionError, _h_power, embedding_contraction_residual


def test_output_exponent():
    assert output_exponent((4.0, 4.0), 2) == 1.0 / (1.0 / 4.0 + 1.0 / 4.0) == 2.0
    assert output_exponent((3.0,), 1) == 3.0
    assert output_exponent((1.5, 3.0, 7.0), 3) == 1.0 / (1.0 / 1.5 + 1.0 / 3.0 + 1.0 / 7.0)
    assert output_exponent((math.inf, math.inf), 2) == math.inf  # Holder at the endpoint
    with pytest.raises(ValueError, match="2 exponents for a symbol of arity 3"):
        output_exponent((2.0, 2.0), 3)


def test_conjugate_exponent():
    assert conjugate_exponent(1.0) == math.inf
    assert conjugate_exponent(math.inf) == 1.0
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(4.0) == pytest.approx(4.0 / 3.0)
    with pytest.raises(ValueError):
        conjugate_exponent(0.5)


def test_trace_fixtures():
    g = build_group("dihedral:3")
    assert plancherel_trace(g.delta_element(0)) == 1.0
    assert plancherel_trace(g.delta_element(2)) == 0.0
    f = random_element(g, np.random.default_rng(0))
    assert plancherel_trace(f) == pytest.approx(
        np.trace(regular_matrix(f)) / g.order, abs=1e-12
    )


def test_plancherel_identity():
    g = build_group("dihedral:3")
    f = random_element(g, np.random.default_rng(1))
    # (f * f^*)(e) = sum |f(s)|^2 and || lambda(f) ||_2 = || f ||_2
    val = convolve(f, involution(f)).coeffs[g.identity]
    assert val == pytest.approx(np.sum(np.abs(f.coeffs) ** 2), abs=1e-12)
    assert lp_norm(f, 2.0) == pytest.approx(float(np.linalg.norm(f.coeffs)), abs=1e-10)


def test_lp_norm_fixtures():
    g = build_group("cyclic:5")
    for p in (1.0, 1.7, 2.0, 3.0, math.inf):
        assert lp_norm(g.delta_element(0), p) == pytest.approx(1.0, abs=1e-12)
    z2 = build_group("cyclic:2")
    f = AlgebraElement(z2, np.array([1.0, 1.0]))
    # singular values {2, 0}: normalized Schatten-1 norm is (2+0)/2 = 1
    assert lp_norm(f, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert lp_norm(f, math.inf) == pytest.approx(2.0, abs=1e-12)


def test_norm_of_adjoint_matches():
    g = build_group("dihedral:6")
    rng = np.random.default_rng(2)
    for p in (1.3, 2.0, 3.5, 6.0):
        f = random_element(g, rng)
        assert lp_norm(f, p) == pytest.approx(lp_norm(involution(f), p), abs=1e-10)


def dual_pairing(phi: AlgebraElement, f: AlgebraElement) -> complex:
    """Concrete duality pairing sum_s phi(s) f(s) (no conjugation)."""
    assert phi.parent is f.parent
    return complex(np.sum(phi.coeffs * f.coeffs))


def test_dual_pairing_fixtures():
    g = build_group("dihedral:3")
    assert dual_pairing(g.delta_element(0), g.delta_element(0)) == 1.0
    assert dual_pairing(g.delta_element(1), g.delta_element(2)) == 0.0


def test_dual_pairing_trace_oracle_and_holder():
    g = build_group("dihedral:3")
    rng = np.random.default_rng(3)
    for p in (1.5, 2.0, 4.0):
        q = conjugate_exponent(p)
        phi, f = random_element(g, rng), random_element(g, rng)
        phi_check = AlgebraElement(g, phi.coeffs[g.inv])  # phi^vee
        lhs = dual_pairing(phi, f)
        rhs = np.trace(regular_matrix(phi_check) @ regular_matrix(f)) / g.order
        assert lhs == pytest.approx(rhs, abs=1e-10)
        assert abs(lhs) <= lp_norm(phi_check, q) * lp_norm(f, p) + 1e-10


# h_V = |k_V|, the modulus of k_V = |V|^{-1/2} lambda(1_V), whose powers the
# embedding maps x -> x h_V^{2/p} of the restriction checks multiply by


def test_polar_fixtures_identity_and_full_group():
    g = build_group("cyclic:2")
    for a in (1.0, 2.0 / 3.0, 0.5):
        assert np.array_equal(_h_power(g.subset([0]), a), np.eye(2))
    # k = [[1, 1], [1, 1]] / sqrt(2) has eigenvalues sqrt(2) and 0: h = k, and
    # h^0 is the projection onto the constants, 0^0 = 0 on the kernel
    full = g.subset([0, 1])
    k = np.full((2, 2), 1.0 / math.sqrt(2.0))
    assert np.max(np.abs(_h_power(full, 1.0) - k)) < 1e-12
    assert np.max(np.abs(_h_power(full, 0.0) - np.full((2, 2), 0.5))) < 1e-12


def test_polar_reproduces_k_and_structure():
    g = build_group("dihedral:6")
    V = g.subset([0, 1, 5])  # {e, r, r^{-1}} is symmetric
    k = regular_matrix(V.indicator()) / math.sqrt(3)
    h = _h_power(V, 1.0)
    assert np.max(np.abs(h @ h - k @ k)) < 1e-10
    assert np.max(np.abs(h - h.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(h)) > -1e-12
    assert np.max(np.abs(h @ k - k @ h)) < 1e-10
    for a, b in ((2.0 / 3.0, 0.5), (0.5, 0.5), (1.0, 2.0 / 3.0)):
        assert np.max(np.abs(_h_power(V, a) @ _h_power(V, b) - _h_power(V, a + b))) < 1e-10


def test_polar_requires_symmetric_nonempty():
    g = build_group("cyclic:4")
    with pytest.raises(ValueError, match="subset is empty"):
        _h_power(g.subset([]), 1.0)
    # the embedding maps refuse a V that is not symmetric before any power
    emb = build_embedding("cyclic-in-cyclic:2,4")
    x = emb.sub.delta_element(0)
    with pytest.raises(PreconditionError, match="V is not symmetric"):
        embedding_contraction_residual(emb, x, emb.amb.subset([1]), 2.0)  # {1} != {3}


def test_holder_sharpness_selfadjoint():
    g = build_group("dihedral:3")
    rng = np.random.default_rng(5)
    for p, q in [(3.0, 6.0), (4.0, 4.0), (5.0, 3.0)]:
        r = 1.0 / (1.0 / p + 1.0 / q)
        f = random_element(g, rng)
        x = AlgebraElement(g, (f.coeffs + involution(f).coeffs) / 2.0)
        mat = regular_matrix(x)
        w, u = np.linalg.eigh(mat)
        y = (u * np.abs(w) ** (p / q)) @ u.conj().T
        lhs = matrix_lp_norm(mat @ y, r, trace_dim=g.order)
        rhs = matrix_lp_norm(mat, p, trace_dim=g.order) * matrix_lp_norm(
            y, q, trace_dim=g.order
        )
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_interpolation_log_convexity():
    g = build_group("dihedral:6")
    rng = np.random.default_rng(6)
    thetas = [0.2, 0.4, 0.6, 0.8]
    for _ in range(10):
        f = random_element(g, rng)
        vals = {th: math.log(lp_norm(f, 1.0 / th)) for th in thetas}
        assert 2 * vals[0.4] <= vals[0.2] + vals[0.6] + 1e-8
        assert 2 * vals[0.6] <= vals[0.4] + vals[0.8] + 1e-8
