import json

import numpy as np
import pytest

from ncfourier.groups import (
    AlgebraElement,
    FiniteGroup,
    GroupError,
    build_embedding,
    build_group,
    conjugate_set,
    convolve,
    involution,
    parse_subset,
    random_element,
    regular_matrix,
    same_group,
)


def test_trivial_group():
    g = build_group("cyclic:1")
    assert g.order == 1
    assert g.mul.tolist() == [[0]]


def test_dihedral_3_presentation():
    # exhaustive check of r^3 = s^2 = e, s r s = r^{-1}; three reflections of order 2
    g = build_group("dihedral:3")
    assert g.order == 6
    r, s = 1, 3
    cur = r
    for _ in range(2):
        cur = int(g.mul[cur, r])
    assert cur == g.identity
    assert int(g.mul[s, s]) == g.identity
    srs = int(g.mul[int(g.mul[s, r]), s])
    assert srs == int(g.inv[r])
    order_two = [x for x in range(6) if x != 0 and int(g.mul[x, x]) == 0]
    outside = [x for x in order_two if x >= 3]
    assert len(outside) == 3


def test_heisenberg_3_center():
    g = build_group("heisenberg:3")
    assert g.order == 27
    center = [
        z
        for z in range(27)
        if all(int(g.mul[z, x]) == int(g.mul[x, z]) for x in range(27))
    ]
    assert len(center) == 3
    assert g.identity in center


@pytest.mark.parametrize(
    "spec", ["cyclic:8", "dihedral:6", "heisenberg:3", "product:cyclic:2,dihedral:3"]
)
def test_axioms_validated(spec):
    g = build_group(spec)
    g.validate()
    idx = np.arange(g.order)
    assert np.array_equal(g.mul[g.mul[idx, g.inv[idx]], idx], g.mul[idx, 0] * 0 + idx)


def test_associativity_exhaustive_small():
    g = build_group("dihedral:6")
    mul = g.mul
    assert np.array_equal(mul[mul], mul[:, mul])


def test_bad_descriptors():
    for bad in ["cyclic", "cyclic:0", "frobnicate:4", "product:cyclic:2", "cyclic:9000"]:
        with pytest.raises(GroupError):
            build_group(bad)


def test_order_overflow():
    with pytest.raises(GroupError):
        build_group("heisenberg:17")


def test_convolution_identity_and_translation():
    g = build_group("cyclic:4")
    f = random_element(g, np.random.default_rng(0))
    assert np.allclose(convolve(g.delta_element(0), f).coeffs, f.coeffs)
    out = convolve(g.delta_element(1), g.delta_element(1))
    assert np.allclose(out.coeffs, g.delta_element(2).coeffs)


def test_convolution_matches_matrix_product():
    g = build_group("dihedral:3")
    rng = np.random.default_rng(1)
    f, h = random_element(g, rng), random_element(g, rng)
    lhs = regular_matrix(convolve(f, h))
    rhs = regular_matrix(f) @ regular_matrix(h)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_involution_fixtures():
    z3 = build_group("cyclic:3")
    assert np.allclose(involution(z3.delta_element(1)).coeffs, z3.delta_element(2).coeffs)
    g = build_group("dihedral:3")
    f = random_element(g, np.random.default_rng(2))
    assert np.max(np.abs(regular_matrix(involution(f)) - regular_matrix(f).conj().T)) < 1e-14
    assert np.allclose(involution(involution(f)).coeffs, f.coeffs)


def test_involution_antiautomorphism():
    g = build_group("dihedral:3")
    rng = np.random.default_rng(3)
    f, h = random_element(g, rng), random_element(g, rng)
    lhs = involution(convolve(f, h))
    rhs = convolve(involution(h), involution(f))
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


def test_regular_matrix_point_masses():
    z2 = build_group("cyclic:2")
    assert np.array_equal(regular_matrix(z2.delta_element(0)), np.eye(2))
    assert np.array_equal(regular_matrix(z2.delta_element(1)), np.array([[0, 1], [1, 0]]))
    g = build_group("dihedral:6")
    for s in (1, 7):
        mat = regular_matrix(g.delta_element(s))
        assert np.allclose(mat @ mat.conj().T, np.eye(g.order))
        assert np.allclose(
            np.linalg.inv(mat), regular_matrix(g.delta_element(int(g.inv[s])))
        )


def test_regular_matrix_doubly_stochastic():
    g = build_group("dihedral:3")
    rng = np.random.default_rng(4)
    probs = rng.random(6)
    probs /= probs.sum()
    mat = regular_matrix(AlgebraElement(g, probs)).real
    assert np.allclose(mat.sum(axis=0), 1.0)
    assert np.allclose(mat.sum(axis=1), 1.0)


def test_conjugate_set_fixtures():
    g = build_group("dihedral:6")
    V = g.subset([0, 1, 5, 11])  # {e, r, r^-1, r s}
    out = conjugate_set(6, V)    # conjugate by the reflection s
    assert out.members == frozenset({0, 1, 5, 7})
    z8 = build_group("cyclic:8")
    W = z8.subset([1, 2, 3])
    assert conjugate_set(5, W).members == W.members
    assert conjugate_set(3, g.subset([0])).members == frozenset({0})


def test_conjugation_inverse_roundtrip():
    g = build_group("dihedral:6")
    rng = np.random.default_rng(5)
    for _ in range(25):
        s = int(rng.integers(g.order))
        V = g.subset(rng.choice(g.order, size=4, replace=False))
        back = conjugate_set(s, conjugate_set(int(g.inv[s]), V))
        assert back.members == V.members


def test_json_roundtrip():
    g = build_group("dihedral:3")
    data = json.loads(g.to_json())
    assert set(data) == {"order", "mul", "inv", "identity", "label"}
    g2 = FiniteGroup.from_json(g.to_json())
    assert same_group(g, g2)


def test_subset_parsing():
    g = build_group("dihedral:6")
    assert parse_subset(g, "indices:0,3,5").sorted() == [0, 3, 5]
    ball1 = parse_subset(g, "ball:1")
    assert g.identity in ball1
    assert ball1.is_symmetric()
    assert parse_subset(g, "ball:0").sorted() == [0]
    with pytest.raises(GroupError):
        parse_subset(g, "nope:1")


def test_embeddings():
    for spec, sub_order, sub_label, amb_label in [
        ("cyclic-in-cyclic:2,8", 2, "cyclic:2", "cyclic:8"),
        ("rotations-in-dihedral:6", 6, "cyclic:6", "dihedral:6"),
        ("reflection-in-dihedral:5", 2, "cyclic:2", "dihedral:5"),
        ("center-in-heisenberg:3", 3, "cyclic:3", "heisenberg:3"),
        ("factor1-in-product:cyclic:2,dihedral:3", 2, "cyclic:2",
         "product:cyclic:2,dihedral:3"),
        ("factor2-in-product:cyclic:2,dihedral:3", 6, "dihedral:3",
         "product:cyclic:2,dihedral:3"),
        # nested products: the factor boundary falls after a whole product
        ("factor1-in-product:product:cyclic:2,cyclic:3,dihedral:3", 6,
         "product:cyclic:2,cyclic:3", "product:product:cyclic:2,cyclic:3,dihedral:3"),
        ("factor2-in-product:dihedral:3,product:cyclic:2,heisenberg:2", 16,
         "product:cyclic:2,heisenberg:2", "product:dihedral:3,product:cyclic:2,heisenberg:2"),
        ("trivial:dihedral:3", 6, "dihedral:3", "dihedral:3"),
    ]:
        emb = build_embedding(spec)
        assert emb.sub.order == sub_order
        assert (emb.sub.label, emb.amb.label) == (sub_label, amb_label)
        # homomorphism checked in the constructor; spot-check pushforward
        x = emb.sub.delta_element(emb.sub.order - 1)
        pushed = emb.push(x)
        assert pushed.coeffs.sum() == pytest.approx(1.0)


def test_embedding_rejects_non_homomorphism():
    z2 = build_group("cyclic:2")
    z4 = build_group("cyclic:4")
    from ncfourier.groups import SubgroupEmbedding

    with pytest.raises(GroupError):
        SubgroupEmbedding(z2, z4, np.array([0, 1]))  # 1+1 != 2 in the image


def test_word_ball_growth():
    g = build_group("heisenberg:3")
    sizes = [len(g.word_ball(k)) for k in range(4)]
    assert sizes[0] == 1
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] <= g.order


def test_order_cap_boundary():
    g = build_group("cyclic:4096")
    assert g.order == 4096
    with pytest.raises(GroupError):
        build_group("cyclic:4097")
    with pytest.raises(GroupError):
        build_group("product:cyclic:64,cyclic:65")


def test_group_equality_is_structural_not_dataclass():
    a = build_group("dihedral:3")
    b = build_group("dihedral:3")
    assert a is not b
    assert same_group(a, b)
    assert (a == b) is False  # identity comparison only; no array-eq footgun
    assert a.subset([0, 1]).members == b.subset([1, 0]).members
