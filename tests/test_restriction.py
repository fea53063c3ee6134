import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ncfourier import restriction
from ncfourier.groups import (
    AlgebraElement,
    build_embedding,
    build_group,
    complex_normal,
    conjugate_set,
    convolve,
    random_element,
    regular_matrix,
)
from ncfourier.multipliers import OptimizerConfig, Symbol, symbol_from_spec
from ncfourier.nclp import lp_norm
from ncfourier.restriction import (
    PreconditionError,
    delta_exact,
    embedding_contraction_residual,
    embedding_lower_residual,
    gram_matrix,
    holder_witness,
    lattice_maps_report,
    periodization_residual,
    quotient_group,
    restriction_consistency,
)


# ---------------------------------------------------------------------- delta


def test_delta_empty_f_and_identity():
    g = build_group("dihedral:6")
    V = g.subset([0, 1, 5])
    assert delta_exact(g.subset([]), V).value == 1
    assert delta_exact(g.subset([0]), V).value == 1


def test_delta_abelian_always_one():
    g = build_group("cyclic:12")
    rng = np.random.default_rng(0)
    for _ in range(10):
        F = g.subset(rng.choice(12, size=3, replace=False))
        V = g.subset(rng.choice(12, size=5, replace=False))
        assert delta_exact(F, V).value == 1


def test_delta_d6_fixture():
    g = build_group("dihedral:6")
    val = delta_exact(g.subset([6]), g.subset([0, 1, 5, 11]))
    assert val.value == Fraction(3, 4)
    assert str(val) == "3/4"


def test_delta_monotone_in_f():
    g = build_group("dihedral:6")
    rng = np.random.default_rng(1)
    for _ in range(20):
        big = sorted(set(int(x) for x in rng.choice(12, size=4)))
        small = big[:2]
        V = g.subset(rng.choice(12, size=6, replace=False))
        assert delta_exact(g.subset(small), V).value >= delta_exact(g.subset(big), V).value


def test_delta_conjugation_invariance():
    g = build_group("dihedral:6")
    rng = np.random.default_rng(2)
    for _ in range(20):
        F = g.subset(rng.choice(12, size=2, replace=False))
        V = g.subset(rng.choice(12, size=5, replace=False))
        s = int(rng.integers(12))
        lhs = delta_exact(conjugate_set(s, F), conjugate_set(s, V))
        assert lhs.value == delta_exact(F, V).value


def test_delta_point_neighbourhood_is_one():
    g = build_group("dihedral:6")
    rng = np.random.default_rng(3)
    for _ in range(10):
        F = g.subset(rng.choice(12, size=4, replace=False))
        assert delta_exact(F, g.subset([g.identity])).value == 1


def test_gram_fixtures():
    g = build_group("dihedral:6")
    A, eig_a, eig_gap = gram_matrix(g.subset([6]), g.subset([0, 1, 5, 11]))
    assert A.shape == (1, 1) and A[0, 0] == 1.0
    assert eig_a >= -1e-12 and eig_gap >= -1e-12
    z6 = build_group("cyclic:6")
    A2, _, gap2 = gram_matrix(z6.subset([1, 2, 4]), z6.subset([0, 1]))
    assert np.allclose(A2, 1.0)
    assert abs(gap2) < 1e-12


def test_gram_random_sweep():
    rng = np.random.default_rng(4)
    specs = ["cyclic:8", "dihedral:4", "dihedral:6", "heisenberg:2", "product:cyclic:2,cyclic:4"]
    for _ in range(100):
        g = build_group(specs[int(rng.integers(len(specs)))])
        F = g.subset(rng.choice(g.order, size=int(rng.integers(1, 5)), replace=False))
        V = g.subset(rng.choice(g.order, size=int(rng.integers(1, g.order)), replace=False))
        A, eig_a, eig_gap = gram_matrix(F, V)
        assert np.allclose(np.diag(A), 1.0)
        assert eig_a >= -1e-10
        assert eig_gap >= -1e-10


# ----------------------------------------------------------------- embeddings


def test_contraction_trivial_neighbourhood():
    emb = build_embedding("cyclic-in-cyclic:2,8")
    x = random_element(emb.sub, np.random.default_rng(5))
    V = emb.amb.subset([0])
    for p in (2.0, 3.0, 5.0, math.inf):
        rep = embedding_contraction_residual(emb, x, V, p)
        assert rep.residual <= 1e-10
        assert abs(rep.context["lhs"] - rep.context["rhs"]) <= 1e-10


def test_contraction_z8_fixture_p2_equality():
    emb = build_embedding("cyclic-in-cyclic:2,8")
    V = emb.amb.subset([7, 0, 1])
    x = random_element(emb.sub, np.random.default_rng(6))
    rep = embedding_contraction_residual(emb, x, V, 2.0)
    assert rep.context["equality_gap"] <= 1e-12


def test_contraction_fails_a_broken_p2_equality(monkeypatch):
    # the embedded side scaled by 0.9 keeps max(0, lhs - rhs) at 0, so only
    # the p = 2 equality can catch it
    emb = build_embedding("cyclic-in-cyclic:2,8")
    V = emb.amb.subset([7, 0, 1])
    x = random_element(emb.sub, np.random.default_rng(6))
    assert embedding_contraction_residual(emb, x, V, 2.0).passed
    embedded_norm = restriction._embedded_norm

    def shrunk(*args):
        lhs, supp, sv = embedded_norm(*args)
        return 0.9 * lhs, supp, sv

    monkeypatch.setattr(restriction, "_embedded_norm", shrunk)
    rep = embedding_contraction_residual(emb, x, V, 2.0)
    assert rep.residual == 0.0 and rep.context["equality_gap"] > 0.01
    assert not rep.passed
    assert embedding_contraction_residual(emb, x, V, 3.0).passed


def test_contraction_fails_a_wrong_power_of_h(monkeypatch):
    # h_V^{1.1 * 2/p} in place of h_V^{2/p}: at p = 2 the embedded norm moves
    # off the subgroup one, which only the p = 2 equality sees
    emb = build_embedding("cyclic-in-cyclic:64,512")
    V = emb.amb.subset([511, 0, 1])
    coeffs = np.zeros(emb.sub.order, dtype=complex)
    coeffs[[0, 1, 5]] = [1.0, 0.5j, 0.3]
    x = AlgebraElement(emb.sub, coeffs)
    assert embedding_contraction_residual(emb, x, V, 2.0).passed
    h_power = restriction._h_power
    seen = []

    def wrong(V, exponent):
        seen.append(exponent)
        return h_power(V, 1.1 * exponent)

    monkeypatch.setattr(restriction, "_h_power", wrong)
    rep = embedding_contraction_residual(emb, x, V, 2.0)
    assert seen == [1.0]
    assert rep.context["equality_gap"] > 0.01
    assert not rep.passed


def test_contraction_dihedral_fixture_p4():
    # V = {e} plus the inverse-pair of a reflection (which collapses to {e, s});
    # its rotation translates tile D_6, so any x on the rotations is admissible
    emb = build_embedding("rotations-in-dihedral:6")
    g = emb.amb
    V = g.subset([0, 6])
    assert V.is_symmetric()
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = random_element(emb.sub, rng)
        rep = embedding_contraction_residual(emb, x, V, 4.0)
        assert rep.residual <= 1e-10


def test_one_sided_map_can_expand_without_subgroup_tiling():
    # boundary of the guarantee: with V = {e, s, s r^3} the translates gamma V
    # over the full rotation subgroup cannot be disjoint (18 > 12 elements),
    # and the p = 4 inequality genuinely fails even though the translates over
    # supp(x) = {e, r, r^2} are disjoint.  The p = 2 equality always holds.
    emb = build_embedding("rotations-in-dihedral:6")
    g = emb.amb
    V = g.subset([0, 6, 9])
    coeffs = np.zeros(emb.sub.order, dtype=complex)
    coeffs[:3] = complex_normal(np.random.default_rng(7), 3)
    x = AlgebraElement(emb.sub, coeffs)
    rep2 = embedding_contraction_residual(emb, x, V, 2.0)
    assert rep2.context["equality_gap"] <= 1e-12
    rep4 = embedding_contraction_residual(emb, x, V, 4.0)
    assert rep4.residual > 0.01


def test_contraction_disjointness_precondition():
    emb = build_embedding("cyclic-in-cyclic:4,8")
    V = emb.amb.subset([7, 0, 1])  # 2V meets 0V + translates overlap for stride 2
    x = random_element(emb.sub, np.random.default_rng(8))
    with pytest.raises(PreconditionError):
        embedding_contraction_residual(emb, x, V, 2.0)


def _dense_holder_witness(x, p):
    """|x|^{p/q} from an eigendecomposition of lambda(x)* lambda(x) on the
    regular representation, read off its identity column."""
    q = 1.0 / (0.5 - 1.0 / p)
    mat = regular_matrix(x)
    w, u = np.linalg.eigh(mat.conj().T @ mat)
    powered = (u * np.sqrt(np.clip(w, 0.0, None)) ** (p / q)) @ u.conj().T
    return powered[:, x.parent.identity]


def test_holder_witness_is_sharp():
    # dihedral:6, heisenberg:3 and the product have blocks of size 2
    rng = np.random.default_rng(9)
    specs = ["cyclic:8", "dihedral:6", "heisenberg:3", "product:cyclic:2,dihedral:3"]
    for spec, p in itertools.product(specs, (3.0, 4.0, 6.0, 10.0)):
        g = build_group(spec)
        q = 1.0 / (0.5 - 1.0 / p)
        x = random_element(g, rng)
        y = holder_witness(x, p)
        dense = _dense_holder_witness(x, p)
        assert np.abs(y.coeffs - dense).max() <= 1e-12 * np.abs(dense).max()
        assert lp_norm(convolve(x, y), 2.0) / lp_norm(y, q) == pytest.approx(
            lp_norm(x, p), abs=1e-10
        )


@pytest.mark.parametrize("p", [2.0, 1.5, math.inf])
def test_holder_witness_requires_p_between_two_and_infinity(p):
    x = random_element(build_group("cyclic:8"), np.random.default_rng(9))
    with pytest.raises(ValueError):
        holder_witness(x, p)


def test_lower_bound_trivial_v():
    emb = build_embedding("cyclic-in-cyclic:2,16")
    x = random_element(emb.sub, np.random.default_rng(10))
    y = holder_witness(x, 4.0)
    rep = embedding_lower_residual(emb, x, emb.amb.subset([0]), 4.0, y)
    assert rep.residual <= 1e-10
    assert rep.context["delta"] == 1.0


def test_lower_bound_z16_fixture():
    emb = build_embedding("cyclic-in-cyclic:2,16")
    V = emb.amb.subset([14, 15, 0, 1, 2])
    x = random_element(emb.sub, np.random.default_rng(11))
    y = holder_witness(x, 4.0)
    rep = embedding_lower_residual(emb, x, V, 4.0, y)
    assert rep.residual <= 1e-9


def test_lower_bound_nontrivial_delta():
    # reflections conjugate the rotation-ball V; delta = 1/2 strictly weakens the bound
    emb = build_embedding("rotations-in-dihedral:12")
    g = emb.amb
    V = g.subset([0, 12])  # {e, s}: symmetric
    coeffs = np.zeros(emb.sub.order, dtype=complex)
    coeffs[:2] = complex_normal(np.random.default_rng(12), 2)
    x = AlgebraElement(emb.sub, coeffs)
    y = emb.sub.delta_element(0)
    rep = embedding_lower_residual(emb, x, V, 4.0, y)
    assert rep.residual <= 1e-9
    assert rep.context["delta"] == pytest.approx(0.5)
    # the delta < 1 bound is strictly weaker than the delta = 1 version
    strong_rhs = rep.context["rhs"] / math.sqrt(rep.context["delta"])
    assert strong_rhs > rep.context["rhs"]


def test_lower_bound_precondition_names_condition():
    emb = build_embedding("cyclic-in-cyclic:2,16")
    V = emb.amb.subset([14, 15, 0, 1, 2])
    rng = np.random.default_rng(13)
    x = random_element(emb.sub, rng)
    dense = random_element(emb.sub, rng)
    # witness supported everywhere on a *fine* subgroup violates (3) for stride-1
    emb_full = build_embedding("trivial:cyclic:16")
    xf = random_element(emb_full.sub, rng)
    yf = random_element(emb_full.sub, rng)
    with pytest.raises(PreconditionError) as err:
        embedding_lower_residual(emb_full, xf, V, 4.0, yf)
    assert "disjointness" in str(err.value)


@pytest.mark.parametrize("inequality", ["contraction", "lower"])
def test_embedding_inequalities_reject_a_foreign_V(inequality):
    # both check where V lives before any set arithmetic on it
    from ncfourier.groups import GroupError

    emb = build_embedding("cyclic-in-cyclic:2,16")
    x, V = emb.sub.delta_element(1), build_group("cyclic:8").subset([0])
    with pytest.raises(GroupError, match="V must live in the ambient group"):
        if inequality == "contraction":
            embedding_contraction_residual(emb, x, V, 4.0)
        else:
            embedding_lower_residual(emb, x, V, 4.0, emb.sub.delta_element(0))


def test_lower_bound_requires_p_above_two():
    emb = build_embedding("cyclic-in-cyclic:2,16")
    x = random_element(emb.sub, np.random.default_rng(14))
    with pytest.raises(ValueError):
        embedding_lower_residual(emb, x, emb.amb.subset([0]), 2.0, x)


# ------------------------------------------------------- restriction transport


def test_restriction_consistency_trivial_embedding():
    emb = build_embedding("trivial:cyclic:4")
    m = symbol_from_spec(emb.amb, "random:15")
    rep = restriction_consistency(emb, m, (4.0,), 4.0, OptimizerConfig(restarts=20, seed=3))
    assert rep.residual == 0.0
    assert rep.context["witness_transport_gap"] <= 1e-12


def test_restriction_consistency_constant_symbol():
    emb = build_embedding("cyclic-in-cyclic:2,4")
    m = Symbol(emb.amb, 1, np.ones(4))
    for p in (1.5, 3.0):
        rep = restriction_consistency(emb, m, (p,), p, OptimizerConfig(restarts=10, seed=4))
        assert rep.context["sub_value"] == pytest.approx(1.0, abs=1e-9)
        assert rep.context["amb_value"] == pytest.approx(1.0, abs=1e-9)
        assert rep.passed


def test_restriction_consistency_rotations_in_dihedral():
    emb = build_embedding("rotations-in-dihedral:4")
    m = symbol_from_spec(emb.amb, "random:21")
    for p in (1.5, 3.0, 4.0):
        cfg = OptimizerConfig(restarts=10, max_iterations=40, seed=5)
        rep = restriction_consistency(emb, m, (p,), p, cfg)
        assert rep.residual <= 1e-6
        assert rep.context["witness_transport_gap"] <= 1e-9


def test_restriction_consistency_random():
    emb = build_embedding("rotations-in-dihedral:3")
    m = symbol_from_spec(emb.amb, "random:16")
    rep = restriction_consistency(emb, m, (4.0,), 4.0, OptimizerConfig(restarts=60, seed=5))
    assert rep.passed
    assert rep.context["witness_transport_gap"] <= 1e-9


# -------------------------------------------------------------- periodization


def test_quotient_group_construction():
    z4 = build_group("cyclic:4")
    q, coset_of, reps = quotient_group(z4, z4.subset([0, 2]))
    assert q.order == 2
    assert coset_of.tolist() == [0, 1, 0, 1]
    d3 = build_group("dihedral:3")
    q2, _, _ = quotient_group(d3, d3.subset([0, 1, 2]))
    assert q2.order == 2
    from ncfourier.groups import GroupError

    with pytest.raises(GroupError):
        quotient_group(d3, d3.subset([0, 3]))  # reflection subgroup is not normal


@pytest.mark.parametrize("members, message", [
    ([1, 2, 3], "does not contain the identity"),
    ([0, 1, 5], "is not a subgroup"),  # symmetric but not closed
    # not symmetric; in a finite group a closed subset is a subgroup, so a
    # subset that is not symmetric is not closed either
    ([0, 1], "is not a subgroup"),
])
def test_quotient_group_rejects_non_subgroups(members, message):
    from ncfourier.groups import GroupError

    z6 = build_group("cyclic:6")
    with pytest.raises(GroupError, match=message):
        quotient_group(z6, z6.subset(members))


def test_periodization_trivial_subgroup():
    g = build_group("cyclic:4")
    rng = np.random.default_rng(17)
    q, _, _ = quotient_group(g, g.subset([0]))
    m_q = symbol_from_spec(q, "random:18")
    rep = periodization_residual(g, g.subset([0]), m_q, (2.0,), 5, rng)
    assert rep.residual <= 1e-12
    assert rep.context["isometry_residual"] <= 1e-12


def test_periodization_z4_fixture():
    g = build_group("cyclic:4")
    H = g.subset([0, 2])
    q, _, _ = quotient_group(g, H)
    rng = np.random.default_rng(19)
    for p in (1.5, 2.0, 4.0):
        m_q = symbol_from_spec(q, "random:20")
        rep = periodization_residual(g, H, m_q, (p,), 10, rng)
        assert rep.residual <= 1e-12
        assert rep.context["isometry_residual"] <= 1e-10


def test_periodization_d3_bilinear():
    g = build_group("dihedral:3")
    H = g.subset([0, 1, 2])
    q, _, _ = quotient_group(g, H)
    rng = np.random.default_rng(21)
    m_q = symbol_from_spec(q, "random:22", arity=2)
    rep = periodization_residual(g, H, m_q, (4.0, 4.0), 10, rng)
    assert rep.residual <= 1e-10
    assert rep.context["isometry_residual"] <= 1e-10


# ---------------------------------------------------------------- lattice maps


def test_lattice_maps_trivial():
    emb = build_embedding("trivial:cyclic:8")
    g = emb.amb
    m = symbol_from_spec(g, "gaussian:2.0")
    rng = np.random.default_rng(23)
    rep = lattice_maps_report(emb, g.subset([0]), m, (2.0,), 5, rng)
    assert rep.residual == 0.0
    assert rep.context["pairing_deviation"] <= 1e-12


def test_lattice_maps_z8_contractions():
    emb = build_embedding("cyclic-in-cyclic:2,8")
    g = emb.amb
    m = symbol_from_spec(g, "gaussian:2.0")
    rng = np.random.default_rng(24)
    for ps in [(2.0,), (3.0,), (6.0,)]:
        rep = lattice_maps_report(emb, g.subset([0, 1, 2, 3]), m, ps, 10, rng)
        assert rep.residual <= 1e-10


def test_lattice_maps_rejects_bad_domain():
    emb = build_embedding("cyclic-in-cyclic:2,8")
    g = emb.amb
    m = symbol_from_spec(g, "gaussian:2.0")
    rng = np.random.default_rng(25)
    with pytest.raises(PreconditionError):
        lattice_maps_report(emb, g.subset([0, 1, 2]), m, (2.0,), 2, rng)
    with pytest.raises(PreconditionError):
        lattice_maps_report(emb, g.subset([0, 1, 2, 4]), m, (2.0,), 2, rng)


def test_lattice_maps_refinement_decreases_pairing_deviation():
    from ncfourier.groups import AlgebraElement

    z64 = build_group("cyclic:64")
    m2 = symbol_from_spec(z64, "gaussian:8.0", arity=2)

    def bump(width, shift):
        k = np.arange(64)
        d = np.minimum((k - shift) % 64, (shift - k) % 64).astype(float)
        return AlgebraElement(z64, np.exp(-(d ** 2) / (2 * width ** 2)) + 0j)

    xs = [bump(3.0, 1), bump(3.0, 62)]
    y = bump(4.0, 2)
    rng = np.random.default_rng(26)
    deviations = []
    for k in (3, 2, 1):
        stride = 2 ** k
        emb = build_embedding(f"cyclic-in-cyclic:{64 // stride},64")
        X = z64.subset(range(stride))
        rep = lattice_maps_report(emb, X, m2, (2.0, 2.0), 3, rng, pairing_inputs=(xs, y))
        assert rep.residual <= 1e-9
        deviations.append(rep.context["pairing_deviation"])
    assert deviations[0] > deviations[1] > deviations[2]


# ---------------------------------------------------------------------------
# exact set arithmetic against the set-per-element forms it replaced


def _conjugate_oracle(g, s, members):
    si = int(g.inv[s])
    return {int(g.mul[g.mul[s, v], si]) for v in members}


def _delta_oracle(F, V):
    surviving = set(V.members)
    for s in F.sorted():
        surviving &= _conjugate_oracle(V.parent, s, V.members)
    return Fraction(len(surviving), len(V))


def _gram_oracle(F, V):
    conjugates = [_conjugate_oracle(V.parent, s, V.members) for s in F.sorted()]
    k = len(conjugates)
    A = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            A[i, j] = A[j, i] = len(conjugates[i] & conjugates[j]) / len(V)
    d = _delta_oracle(F, V)
    delta = d.numerator / d.denominator
    eig_gap = float(np.linalg.eigvalsh(A - delta * np.ones((k, k)))[0])
    return A, float(np.linalg.eigvalsh(A)[0]), eig_gap


def _translates_meet(g, lefts, members):
    """Whether the translates s V, s in lefts, fail to be pairwise disjoint."""
    seen = {}
    for s in lefts:
        for v in members:
            h = int(g.mul[s, v])
            if h in seen and seen[h] != s:
                return True
            seen[h] = s
    return False


def _condition_3_fails(g, supp_x, supp_y, members):
    """Whether some s1 V t1 and s2 V t2 with s1 t1 != s2 t2 meet."""
    seen = {}
    for s in supp_x:
        for t in supp_y:
            prod = int(g.mul[s, t])
            for v in members:
                h = int(g.mul[g.mul[s, v], t])
                if h in seen and seen[h] != prod:
                    return True
                seen[h] = prod
    return False


def _not_fundamental_domain(emb, X):
    g, covered = emb.amb, set()
    for gamma in emb.map.tolist():
        for x in X.members:
            h = int(g.mul[gamma, x])
            if h in covered:
                return True
            covered.add(h)
    return len(covered) != g.order


def _assert_delta_and_gram_match_oracles(F, V):
    assert delta_exact(F, V).value == _delta_oracle(F, V)
    if len(F):
        A, eig_a, eig_gap = gram_matrix(F, V)
        A_want, eig_a_want, eig_gap_want = _gram_oracle(F, V)
        assert A.dtype == A_want.dtype and np.array_equal(A, A_want)
        assert (eig_a, eig_gap) == (eig_a_want, eig_gap_want)


@pytest.mark.parametrize("spec", ["cyclic:8", "dihedral:4", "dihedral:6", "heisenberg:2",
                                  "product:cyclic:2,dihedral:3"])
def test_delta_and_gram_match_set_oracles(spec):
    g = build_group(spec)
    rng = np.random.default_rng(40)
    values = set()
    for _ in range(60):
        F = g.subset(rng.choice(g.order, size=int(rng.integers(0, 5)), replace=False))
        V = g.subset(rng.choice(g.order, size=int(rng.integers(1, g.order + 1)), replace=False))
        _assert_delta_and_gram_match_oracles(F, V)
        values.add(_delta_oracle(F, V))
    if spec != "cyclic:8":
        assert len(values) > 1  # nonabelian: conjugation moves V


def test_delta_and_gram_match_set_oracles_at_order_4096():
    g = build_group("heisenberg:16")
    rng = np.random.default_rng(41)
    F = g.subset(rng.choice(g.order, size=40, replace=False))
    V = g.subset(rng.choice(g.order, size=2000, replace=False))
    _assert_delta_and_gram_match_oracles(F, V)


def _symmetric(g, members):
    members = np.asarray(members, dtype=np.int64)
    return g.subset(np.concatenate([members, g.inv[members]]).tolist())


PRECONDITION_EMBEDDINGS = ["cyclic-in-cyclic:2,8", "cyclic-in-cyclic:4,8",
                           "cyclic-in-cyclic:2,16", "rotations-in-dihedral:6",
                           "reflection-in-dihedral:4", "center-in-heisenberg:2",
                           "factor2-in-product:dihedral:3,cyclic:2", "trivial:dihedral:4"]


def _random_inputs(emb, rng):
    sub, amb = emb.sub, emb.amb

    def element(most):  # Gaussian coefficients on at most ``most`` random elements
        support = rng.choice(sub.order, size=int(rng.integers(1, min(most, sub.order) + 1)),
                             replace=False)
        coeffs = np.zeros(sub.order, dtype=complex)
        coeffs[support] = complex_normal(rng, len(support))
        return AlgebraElement(sub, coeffs)

    x, y = element(3), element(2)
    V = _symmetric(amb, rng.choice(amb.order, size=int(rng.integers(1, 5)), replace=False))
    return x, y, V


@pytest.mark.parametrize("spec", PRECONDITION_EMBEDDINGS)
def test_disjointness_preconditions_match_set_oracles(spec):
    emb = build_embedding(spec)
    g = emb.amb
    rng = np.random.default_rng(42)
    cases = [_random_inputs(emb, rng) for _ in range(30)]
    cases.append((random_element(emb.sub, rng), emb.sub.delta_element(0), g.subset([0])))
    outcomes = set()
    for x, y, V in cases:
        supp_x = np.flatnonzero(emb.push(x).coeffs).tolist()
        supp_y = np.flatnonzero(emb.push(y).coeffs).tolist()
        # contraction: condition (1) alone
        fails = _translates_meet(g, supp_x, V.members)
        outcomes.add(fails)
        if fails:
            with pytest.raises(PreconditionError, match=r"disjointness condition \(1\)"):
                embedding_contraction_residual(emb, x, V, 3.0)
        else:
            embedding_contraction_residual(emb, x, V, 3.0)
        # lower bound: conditions (1), (2), (3), reported in that order
        failing = [k for k, bad in [
            (1, fails),
            (2, _translates_meet(g, [int(g.inv[t]) for t in supp_y], V.members)),
            (3, _condition_3_fails(g, supp_x, supp_y, V.members)),
        ] if bad]
        if failing:
            with pytest.raises(PreconditionError,
                               match=rf"disjointness condition \({failing[0]}\)"):
                embedding_lower_residual(emb, x, V, 4.0, y)
        else:
            embedding_lower_residual(emb, x, V, 4.0, y)
    assert outcomes == {True, False}


def test_precondition_fixtures_match_set_oracles():
    emb = build_embedding("cyclic-in-cyclic:4,8")
    V = emb.amb.subset([7, 0, 1])
    assert _translates_meet(emb.amb, [0, 2, 4, 6], V.members)
    emb = build_embedding("trivial:cyclic:16")
    assert _condition_3_fails(emb.amb, range(16), range(16), [14, 15, 0, 1, 2])
    emb = build_embedding("cyclic-in-cyclic:2,8")
    assert _not_fundamental_domain(emb, emb.amb.subset([0, 1, 2]))
    assert _not_fundamental_domain(emb, emb.amb.subset([0, 1, 2, 4]))
    assert not _not_fundamental_domain(emb, emb.amb.subset([0, 1, 2, 3]))


@pytest.mark.parametrize("spec", PRECONDITION_EMBEDDINGS)
def test_fundamental_domain_matches_set_oracle(spec):
    emb = build_embedding(spec)
    g = emb.amb
    m = symbol_from_spec(g, "random:3")
    rng = np.random.default_rng(43)
    k = g.order // emb.sub.order
    # cosets gamma X must tile G: draw one element of each right coset H x, or
    # k arbitrary elements, or a domain one element too large or too small
    coset_of = g.mul[emb.map[:, None], np.arange(g.order)].min(axis=0)
    cosets = np.unique(coset_of)
    outcomes = set()
    for i in range(24):
        if i % 3 == 0:
            X = [int(rng.choice(np.flatnonzero(coset_of == c))) for c in cosets]
        else:
            size = k + (i % 3 == 1) * int(rng.integers(-1, 2))
            X = rng.choice(g.order, size=max(size, 0), replace=False).tolist()
        X = g.subset(X)
        bad = _not_fundamental_domain(emb, X)
        outcomes.add(bad)
        if bad:
            with pytest.raises(PreconditionError, match="fundamental domain"):
                lattice_maps_report(emb, X, m, (2.0,), 1, rng)
        else:
            assert lattice_maps_report(emb, X, m, (2.0,), 1, rng).passed
    assert outcomes == {True, False}
