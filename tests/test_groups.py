import json
import tracemalloc

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


# ---------------------------------------------------------------------------
# the constructors against their defining formulas, entry by entry


def _oracle_cyclic(n):
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n, (-idx) % n


def _oracle_dihedral(n):
    """dihedral:n entry by entry: r^k is index k, s r^k is index n+k."""
    order = 2 * n
    mul = np.zeros((order, order), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            mul[a, b] = (a + b) % n                  # r^a r^b
            mul[a, n + b] = n + (b - a) % n          # r^a s r^b = s r^{b-a}
            mul[n + a, b] = n + (a + b) % n          # s r^a r^b
            mul[n + a, n + b] = (b - a) % n          # s r^a s r^b = r^{b-a}
    inv = np.zeros(order, dtype=np.int64)
    inv[:n] = (-np.arange(n)) % n
    inv[n:] = n + np.arange(n)
    return mul, inv


def _oracle_heisenberg(n):
    """(a,b,c)(a',b',c') = (a+a', b+b', c+c'+ab') on the codes a n^2 + b n + c."""
    a, b, c = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    a, b, c = (x.ravel() for x in (a, b, c))

    def enc(x, y, z):
        return (x % n) * n * n + (y % n) * n + (z % n)

    mul = enc(a[:, None] + a[None, :], b[:, None] + b[None, :],
              c[:, None] + c[None, :] + a[:, None] * b[None, :])
    return mul, enc(-a, -b, a * b - c)


def _oracle_product(t1, t2):
    (mul1, inv1), (mul2, inv2) = t1, t2
    n2 = len(inv2)
    i, j = np.divmod(np.arange(len(inv1) * n2), n2)
    return (mul1[i[:, None], i[None, :]] * n2 + mul2[j[:, None], j[None, :]],
            inv1[i] * n2 + inv2[j])


def _assert_tables(spec, want):
    g = build_group(spec)
    mul, inv = want
    assert g.mul.dtype == np.int32 and g.inv.dtype == np.int32
    assert np.array_equal(g.mul, mul), spec
    assert np.array_equal(g.inv, inv), spec


def test_dihedral_tables_match_the_double_loop():
    for n in [*range(1, 41), 256, 512]:
        _assert_tables(f"dihedral:{n}", _oracle_dihedral(n))


def test_heisenberg_tables_match_the_coordinate_formula():
    for n in [*range(1, 9), 16]:
        _assert_tables(f"heisenberg:{n}", _oracle_heisenberg(n))


def test_cyclic_and_product_tables_match_their_formulas():
    _assert_tables("cyclic:4096", _oracle_cyclic(4096))
    _assert_tables("product:dihedral:16,cyclic:32",
                   _oracle_product(_oracle_dihedral(16), _oracle_cyclic(32)))
    _assert_tables("product:cyclic:2,product:dihedral:3,heisenberg:2",
                   _oracle_product(_oracle_cyclic(2), _oracle_product(
                       _oracle_dihedral(3), _oracle_heisenberg(2))))


@pytest.mark.parametrize("spec", ["heisenberg:16", "cyclic:4096"])
def test_build_group_memory_is_about_one_table(spec):
    # the int32 table of order 4096 holds 64 MB; an int64 or N^2-index
    # temporary alongside it would pass 160 MB
    tracemalloc.start()
    try:
        build_group(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 160 * 2 ** 20


# ---------------------------------------------------------------------------
# validate: one hand-broken table per rule


def _table(mul, inv, identity=0):
    mul = np.array(mul)
    return FiniteGroup(len(mul), mul, np.array(inv), identity, "hand-made")


# a loop of order 5 (a Latin square with identity 0 and x x = 0) that is not
# a group: (1 2) 2 = 4 but 1 (2 2) = 1
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def _broken(mul, at, value):
    mul = np.array(mul)
    mul[at] = value
    return mul


def _cyclic_table(n):
    return _oracle_cyclic(n)[0]


@pytest.mark.parametrize("group, message", [
    (_table(_cyclic_table(3), [0, 2, 1], identity=1), "identity law fails"),
    (_table(_cyclic_table(4), [0, 1, 2, 3]), "inverse law fails"),
    # row 2 reads 2 3 0 2; the identity and inverse laws still hold
    (_table(_broken(_cyclic_table(4), (2, 3), 2), [0, 3, 2, 1]),
     "multiplication table rows/columns are not permutations"),
    # past the first slab of rows
    (_table(_broken(_cyclic_table(300), (250, 7), 0), -np.arange(300) % 300),
     "multiplication table rows/columns are not permutations"),
    (_table(LOOP5, [0, 1, 2, 3, 4]), "associativity fails"),
    # LOOP5 x Z_16 has order 80, so only sampled triples are checked
    (_table(*_oracle_product((np.array(LOOP5), np.arange(5)), _oracle_cyclic(16))),
     "associativity fails on sampled triples"),
    (_table(_cyclic_table(3), [0, 2]), "table shapes wrong for order 3"),
], ids=["identity", "inverse", "row", "row-late-slab", "assoc", "assoc-sampled", "shape"])
def test_validate_rejects_each_broken_rule(group, message):
    with pytest.raises(GroupError, match=f"^{message}$"):
        group.validate()


@pytest.mark.parametrize("n, row, cols", [(4, 3, (2, 3)), (300, 150, (140, 290))])
def test_validate_rejects_a_bad_column_when_every_row_is_a_permutation(n, row, cols):
    # swapping two entries of one row (away from the identity column and the
    # inverse's column) keeps the row a permutation and breaks two columns;
    # at order 300 both lie past the first slab of 128 columns
    mul = _cyclic_table(n)
    mul[row, list(cols)] = mul[row, list(cols[::-1])]
    assert (np.sort(mul, axis=1) == np.arange(n)).all()
    with pytest.raises(GroupError, match="^multiplication table rows/columns are not"):
        _table(mul, -np.arange(n) % n).validate()


@pytest.mark.parametrize("order, inv, identity, message", [
    (3, [0, -1, 1], 0, "inverse table entries out of range for order 3"),
    (4, [0, 3, 2, 9], 0, "inverse table entries out of range for order 4"),
    (4, [0, 3, 2, 1], 4, "identity index 4 out of range for order 4"),
    (4, [0, 3, 2, 1], -1, "identity index -1 out of range for order 4"),
])
def test_from_json_rejects_out_of_range_inverse_or_identity(order, inv, identity, message):
    # numpy would wrap a negative index and reject a large one with IndexError
    text = json.dumps({"order": order, "mul": _cyclic_table(order).tolist(), "inv": inv,
                       "identity": identity, "label": f"cyclic:{order}"})
    with pytest.raises(GroupError, match=f"^{message}$"):
        FiniteGroup.from_json(text)


# ---------------------------------------------------------------------------
# subset arithmetic on the table against the set-per-element forms it replaced


def _conjugate_set_oracle(g, s, members):
    si = int(g.inv[s])
    return frozenset(int(g.mul[g.mul[s, v], si]) for v in members)


def _word_ball_oracle(g, radius):
    reached = {g.identity}
    frontier = {g.identity}
    gens = set(g.generators) | {int(g.inv[x]) for x in g.generators}
    for _ in range(radius):
        frontier = {int(g.mul[x, s]) for x in frontier for s in gens} - reached
        reached |= frontier
    return frozenset(reached)


def _word_distances_oracle(g):
    dist = np.full(g.order, -1, dtype=np.int64)
    dist[g.identity] = 0
    gens = sorted(set(g.generators) | {int(g.inv[x]) for x in g.generators})
    frontier, d = [g.identity], 0
    while frontier:
        d += 1
        nxt = []
        for x in frontier:
            for s in gens:
                y = int(g.mul[x, s])
                if dist[y] < 0:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    dist[dist < 0] = g.order
    return dist


SUBSET_GROUPS = ["cyclic:8", "dihedral:4", "dihedral:6", "heisenberg:2", "heisenberg:3",
                 "product:cyclic:2,dihedral:3"]


@pytest.mark.parametrize("spec", SUBSET_GROUPS)
def test_conjugate_set_and_symmetry_match_set_oracles(spec):
    g = build_group(spec)
    rng = np.random.default_rng(31)
    symmetric = []
    for _ in range(40):
        V = g.subset(rng.choice(g.order, size=int(rng.integers(0, g.order)), replace=False))
        s = int(rng.integers(g.order))
        assert conjugate_set(s, V).members == _conjugate_set_oracle(g, s, V.members)
        want = all(int(g.inv[m]) in V.members for m in V.members)
        assert V.is_symmetric() is want
        symmetric.append(want)
        W = g.subset(list(V.members) + g.inv[list(V.members)].tolist())
        assert W.is_symmetric()
    assert not all(symmetric)


def _generator_free(spec):
    # a table read back from JSON has no generators: only the identity is reached
    return FiniteGroup.from_json(build_group(spec).to_json())


@pytest.mark.parametrize("g", [build_group(s) for s in SUBSET_GROUPS + ["cyclic:1"]]
                         + [_generator_free("dihedral:3")], ids=repr)
def test_word_ball_and_distances_match_the_bfs_oracles(g):
    assert np.array_equal(g.word_distances(), _word_distances_oracle(g))
    for radius in range(g.order + 2):
        assert g.word_ball(radius).members == _word_ball_oracle(g, radius)


def test_negative_ball_radius_is_rejected():
    g = build_group("dihedral:6")
    with pytest.raises(GroupError, match="radius"):
        g.word_ball(-1)
    with pytest.raises(GroupError, match="radius"):
        parse_subset(g, "ball:-1")


def test_embedding_messages():
    from ncfourier.groups import SubgroupEmbedding

    z2, z4 = build_group("cyclic:2"), build_group("cyclic:4")
    with pytest.raises(GroupError, match="not injective"):
        SubgroupEmbedding(z2, z4, np.array([2, 2]))
    with pytest.raises(GroupError, match="does not fix the identity"):
        SubgroupEmbedding(z2, z4, np.array([2, 0]))
    with pytest.raises(GroupError, match="wrong length"):
        SubgroupEmbedding(z2, z4, np.array([0, 2, 1]))
    # on Z2 x Z128 a map that is the identity on the first 128 elements (the
    # factor Z128) and shifts the other coset by 5 passes every row of the
    # first slab of the table and fails only in the second
    g = build_group("product:cyclic:2,cyclic:128")
    j = np.arange(128)
    with pytest.raises(GroupError, match="not a homomorphism"):
        SubgroupEmbedding(g, g, np.concatenate([j, 128 + (j + 5) % 128]))


def test_embedding_build_memory_stays_near_the_group():
    # the group alone peaks at about 67 MB; the homomorphism check gathers
    # slabs of rows, not the whole table
    tracemalloc.start()
    try:
        build_embedding("trivial:heisenberg:16")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2 ** 20
