import numpy as np
import pytest

from ncfourier.groups import AlgebraElement, build_group, convolve, random_element
from ncfourier.multipliers import (
    OptimizerConfig,
    Symbol,
    apply_multiplier,
    consummation_residual,
    consummate_symbol,
    estimate_norm,
    evaluate_ratio,
    nested_residual,
    nested_symbol,
    symbol_from_spec,
    translate_symbol,
    translation_residual,
)


def test_consummation_identity_case():
    g = build_group("dihedral:3")
    m = symbol_from_spec(g, "random:2", arity=2)
    rng = np.random.default_rng(0)
    assert consummation_residual(m, [1, 2], 2, 5, rng) == 0.0


def test_consummation_merge_two_into_one():
    g = build_group("cyclic:3")
    m = symbol_from_spec(g, "random:3")
    rng = np.random.default_rng(1)
    assert consummation_residual(m, [1], 2, 100, rng) <= 1e-12


def test_consummation_three_slots():
    g = build_group("dihedral:3")
    m = symbol_from_spec(g, "random:4", arity=2)
    rng = np.random.default_rng(2)
    assert consummation_residual(m, [1, 3], 3, 50, rng) <= 1e-10


def test_consummated_symbol_table():
    g = build_group("cyclic:3")
    m = symbol_from_spec(g, "random:5")
    big = consummate_symbol(m, [1], 2)
    for s in range(3):
        for t in range(3):
            assert big.values[s, t] == m.values[(s + t) % 3]


def test_consummation_invalid_indices():
    g = build_group("cyclic:3")
    m = symbol_from_spec(g, "random:6", arity=2)
    for bad in ([2, 3], [1, 1], [1, 4]):
        with pytest.raises(ValueError):
            consummate_symbol(m, bad, 3)


def test_translation_trivial():
    g = build_group("cyclic:4")
    m = symbol_from_spec(g, "random:7", arity=2)
    rng = np.random.default_rng(3)
    assert translation_residual(m, 1, 0, 0, 0, 5, rng) == 0.0


def test_translation_abelian_and_nonabelian():
    rng = np.random.default_rng(4)
    z4 = build_group("cyclic:4")
    m = symbol_from_spec(z4, "random:8", arity=2)
    assert translation_residual(m, 1, 1, 3, 2, 50, rng) <= 1e-12
    d3 = build_group("dihedral:3")
    m2 = symbol_from_spec(d3, "random:9", arity=2)
    # r = reflection, t = rotation: genuinely noncommuting translations
    assert translation_residual(m2, 1, 3, 1, 4, 50, rng) <= 1e-10


def test_translated_symbol_table():
    g = build_group("dihedral:3")
    m = symbol_from_spec(g, "random:10", arity=2)
    mt = translate_symbol(m, 1, 3, 1, 4)
    for s in range(6):
        for t in range(6):
            a = int(g.mul[int(g.mul[3, s]), 1])
            b = int(g.mul[int(g.mul[int(g.inv[1]), t]), 4])
            assert mt.values[s, t] == m.values[a, b]


def test_translation_norm_invariance_by_witness_transport():
    # the witness of the translated symbol, moved to lambda(r) x_1 lambda(t)
    # and lambda(t)* x_2 lambda(r'), reaches the same ratio under m: each
    # lambda(s) is an L_p isometry, so the two agree whatever the optimizer found
    g = build_group("dihedral:3")
    m = symbol_from_spec(g, "random:11", arity=2)
    r, t, rp = 3, 1, 4
    est = estimate_norm(translate_symbol(m, 1, r, t, rp), (3.0, 3.0), 1.5,
                        OptimizerConfig(restarts=15, seed=5))
    x1, x2 = (AlgebraElement(g, w) for w in est.witness)
    moved = [convolve(convolve(g.delta_element(r), x1), g.delta_element(t)),
             convolve(convolve(g.delta_element(int(g.inv[t])), x2), g.delta_element(rp))]
    ratio = evaluate_ratio(m, [x.coeffs for x in moved], est.ps, 1.5)
    assert abs(ratio - est.value) <= 1e-9
    assert est.value > np.max(np.abs(m.values))


def test_nested_trivial_all_ones():
    g = build_group("dihedral:3")
    ones = [Symbol(g, 1, np.ones(6)) for _ in range(3)]
    rng = np.random.default_rng(6)
    xs = [random_element(g, rng) for _ in range(3)]
    lhs = apply_multiplier(nested_symbol(ones), *xs)
    prod = convolve(convolve(xs[0], xs[1]), xs[2])
    assert np.max(np.abs(lhs.coeffs - prod.coeffs)) < 1e-10
    assert nested_residual(ones, 5, rng) <= 1e-12


def test_nested_two_and_three():
    rng = np.random.default_rng(7)
    z3 = build_group("cyclic:3")
    ms2 = [symbol_from_spec(z3, f"random:{20 + j}") for j in range(2)]
    assert nested_residual(ms2, 100, rng) <= 1e-12
    d3 = build_group("dihedral:3")
    ms3 = [symbol_from_spec(d3, f"random:{30 + j}") for j in range(3)]
    assert nested_residual(ms3, 50, rng) <= 1e-10


def test_nested_symbol_table_n3():
    g = build_group("cyclic:2")
    ms = [symbol_from_spec(g, f"random:{40 + j}") for j in range(3)]
    big = nested_symbol(ms)
    for s1 in range(2):
        for s2 in range(2):
            for s3 in range(2):
                expect = (
                    ms[0].values[(s1 + s2) % 2]
                    * ms[1].values[s2]
                    * ms[2].values[s3]
                )
                assert big.values[s1, s2, s3] == pytest.approx(expect, abs=1e-15)


def test_nested_rejects_multilinear_inputs():
    g = build_group("cyclic:3")
    bad = symbol_from_spec(g, "random:50", arity=2)
    with pytest.raises(ValueError):
        nested_symbol([bad])
