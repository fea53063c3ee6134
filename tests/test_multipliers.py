import json
import tracemalloc

import numpy as np
import pytest

import ncfourier.multipliers as multipliers
from ncfourier.groups import AlgebraElement, build_group, build_embedding, convolve, random_element
from ncfourier.multipliers import (
    OptimizerConfig,
    Symbol,
    apply_multiplier,
    consummate_symbol,
    estimate_norm,
    evaluate_ratio,
    nested_symbol,
    pull_back,
    restrict_symbol,
    symbol_from_csv,
    symbol_from_spec,
    symbol_to_csv,
)
from ncfourier.nclp import conjugate_exponent, lp_norm, lp_norm_gradient


def test_constant_symbol_is_convolution():
    g = build_group("cyclic:3")
    rng = np.random.default_rng(0)
    m = Symbol(g, 2, np.ones((3, 3)))
    f, h = random_element(g, rng), random_element(g, rng)
    out = apply_multiplier(m, f, h)
    assert np.max(np.abs(out.coeffs - convolve(f, h).coeffs)) < 1e-12


def test_point_mass_eigenvector():
    g = build_group("dihedral:3")
    m = symbol_from_spec(g, "random:1")
    for s in range(g.order):
        out = apply_multiplier(m, g.delta_element(s))
        expected = m.values[s] * g.delta_element(s).coeffs
        assert np.max(np.abs(out.coeffs - expected)) < 1e-14


def test_bilinear_brute_force_on_z3():
    g = build_group("cyclic:3")
    rng = np.random.default_rng(2)
    m = symbol_from_spec(g, "random:7", arity=2)
    f, h = random_element(g, rng), random_element(g, rng)
    out = apply_multiplier(m, f, h)
    brute = np.zeros(3, dtype=complex)
    for s in range(3):
        for t in range(3):
            brute[(s + t) % 3] += m.values[s, t] * f.coeffs[s] * h.coeffs[t]
    assert np.max(np.abs(out.coeffs - brute)) < 1e-12


def test_multilinearity_in_each_slot():
    g = build_group("dihedral:3")
    rng = np.random.default_rng(3)
    m = symbol_from_spec(g, "random:8", arity=2)
    x1, x2, y = (random_element(g, rng) for _ in range(3))
    a, b = 0.7 - 0.2j, -1.1 + 0.5j
    lhs = apply_multiplier(m, AlgebraElement(g, a * x1.coeffs + b * x2.coeffs), y)
    rhs_sum = a * apply_multiplier(m, x1, y).coeffs + b * apply_multiplier(m, x2, y).coeffs
    assert np.max(np.abs(lhs.coeffs - rhs_sum)) < 1e-12


def test_support_containment():
    g = build_group("dihedral:6")
    m = Symbol(g, 2, np.ones((12, 12)))
    x = g.delta_element(1)
    y = AlgebraElement(g, g.delta_element(7).coeffs + g.delta_element(2).coeffs)
    out = apply_multiplier(m, x, y)
    products = {int(g.mul[1, 7]), int(g.mul[1, 2])}
    assert set(np.flatnonzero(out.coeffs).tolist()) <= products


def test_arity_and_parent_errors():
    g = build_group("cyclic:3")
    other = build_group("cyclic:4")
    m = symbol_from_spec(g, "random:0", arity=2)
    with pytest.raises(ValueError):
        apply_multiplier(m, g.delta_element(0))
    from ncfourier.groups import GroupError

    with pytest.raises(GroupError):
        apply_multiplier(m, g.delta_element(0), other.delta_element(0))
    with pytest.raises(ValueError):
        Symbol(g, 1, np.array([np.nan, 0, 0]))


def test_estimate_norm_p2_exact():
    g = build_group("dihedral:3")
    m = symbol_from_spec(g, "random:5")
    est = estimate_norm(m, (2.0,), 2.0, OptimizerConfig(restarts=1, seed=0))
    assert est.value == pytest.approx(float(np.max(np.abs(m.values))), abs=1e-14)
    assert est.converged


def test_estimate_norm_identity_multiplier():
    g = build_group("cyclic:4")
    m = Symbol(g, 1, np.ones(4))
    for p in (1.5, 3.0, 4.0):
        est = estimate_norm(m, (p,), p, OptimizerConfig(restarts=10, seed=1))
        assert est.value == pytest.approx(1.0, abs=1e-9)


def test_estimate_norm_matches_random_search_oracle():
    # independent oracle: dense random search plus local polish
    g = build_group("cyclic:4")
    m = Symbol(g, 1, np.array([1.0, 0.0, 1.0, 0.0]))
    est = estimate_norm(m, (4.0,), 4.0, OptimizerConfig(restarts=60, seed=3))
    rng = np.random.default_rng(999)
    best, bw = 0.0, None
    # 200,000 draws, each the real then the imaginary part of one vector, in
    # the order one-at-a-time draws would take them; scored a block at a time
    for _ in range(10):
        parts = rng.standard_normal((20_000, 2, 4))
        ws = parts[:, 0] + 1j * parts[:, 1]
        ratios = multipliers._ratios(m, [ws], (4.0,), 4.0)
        k = int(np.argmax(ratios))
        if ratios[k] > best:
            best, bw = float(ratios[k]), ws[k]
    for scale in (0.3, 0.1, 0.03, 0.01):
        for _ in range(2000):
            w = bw + scale * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            r = evaluate_ratio(m, [w], (4.0,), 4.0)
            if r > best:
                best, bw = r, w
    assert est.value >= best - 1e-6
    assert est.value == pytest.approx(best, abs=1e-3)


def test_estimate_norm_self_certifying_and_deterministic():
    g = build_group("dihedral:3")
    m = symbol_from_spec(g, "random:11", arity=2)
    cfg = OptimizerConfig(restarts=8, seed=12)
    est = estimate_norm(m, (4.0, 4.0), 2.0, cfg)
    again = estimate_norm(m, (4.0, 4.0), 2.0, cfg)
    assert est.value == again.value
    assert est.value == pytest.approx(
        evaluate_ratio(m, est.witness, (4.0, 4.0), 2.0), abs=1e-9
    )


@pytest.mark.parametrize("spec", ["dihedral:3", "heisenberg:2"])
@pytest.mark.parametrize("arity, ps, p", [(1, (3.0,), 3.0), (2, (4.0, 4.0), 2.0)])
def test_estimate_norm_rerun_on_a_fresh_group_is_identical(spec, arity, ps, p):
    cfg = OptimizerConfig(restarts=6, max_iterations=30, seed=8)
    runs = []
    for _ in range(2):
        m = symbol_from_spec(build_group(spec), "random:6", arity=arity)
        runs.append(estimate_norm(m, ps, p, cfg))
    first, second = runs
    assert (first.value, first.iterations) == (second.value, second.iterations)
    assert all(np.array_equal(a, b) for a, b in zip(first.witness, second.witness))


def test_estimate_norm_warm_start_never_loses():
    g = build_group("cyclic:4")
    m = symbol_from_spec(g, "random:4")
    cfg = OptimizerConfig(restarts=3, seed=5)
    first = estimate_norm(m, (3.0,), 3.0, cfg)
    seeded = estimate_norm(m, (3.0,), 3.0, OptimizerConfig(restarts=1, seed=77),
                           warm_starts=[first.witness])
    assert seeded.value >= first.value - 1e-9


@pytest.mark.parametrize("spec, arity, ps, p, sup", [
    ("heisenberg:2", 1, (4.0,), 4.0, 2.4611),
    ("dihedral:3", 2, (4.0, 4.0), 2.0, 2.5196),
])
def test_estimate_norm_never_below_point_masses(spec, arity, ps, p, sup):
    # a tuple of point masses attains |m(s_1..s_n)| at every exponent, since
    # lambda(s) is unitary; on these inputs the descent alone ends below sup|m|
    m = symbol_from_spec(build_group(spec), "random:2", arity)
    est = estimate_norm(m, ps, p, OptimizerConfig(restarts=40, max_iterations=40, seed=2))
    sup_m = float(np.max(np.abs(m.values)))
    assert sup_m == pytest.approx(sup, abs=1e-4)
    assert est.value >= sup_m * (1 - 1e-12)
    assert est.value == pytest.approx(evaluate_ratio(m, est.witness, ps, p), rel=1e-12)


def _sequential_estimate(m, ps, p, cfg, warm_starts=None):
    """Oracle: the one-start-at-a-time power iteration that ``estimate_norm``
    stacks, with each partial adjoint summed slot by slot from the product
    table.

    Returns (value, witness, iterations)."""
    group, n, N = m.parent, m.arity, m.parent.order
    peak = np.unravel_index(int(np.argmax(np.abs(m.values))), m.values.shape)
    best_witness = [group.delta_element(int(s)).coeffs for s in peak]
    best_value = evaluate_ratio(m, best_witness, ps, p)
    p_opt, ps_opt = max(p, 1.0 + 1e-6), tuple(max(q, 1.0 + 1e-6) for q in ps)
    grid = np.arange(N)
    for _ in range(n - 1):
        grid = group.mul[grid[..., None], np.arange(N)]

    def normalize(f, q):
        nrm = lp_norm(AlgebraElement(group, f), q)
        return None if nrm <= 1e-300 else f / nrm

    def dual_of_output(fs):
        out = apply_multiplier(m, *(AlgebraElement(group, f) for f in fs))
        return lp_norm_gradient(group, out.coeffs, p_opt)

    def partial_adjoint(z, fs, i):
        weight = np.conj(m.values) * z[grid]
        for j in range(n):
            if j != i:
                shape = [1] * n
                shape[j] = N
                weight = weight * np.conj(fs[j]).reshape(shape)
        return np.sum(weight, axis=tuple(j for j in range(n) if j != i))

    starts = [[np.asarray(c, dtype=complex) for c in w] for w in warm_starts or []]
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        starts.append([random_element(group, rng).coeffs for _ in range(n)])
    total_iter = 0
    for fs in starts:
        fs = [normalize(f, q) for f, q in zip(fs, ps_opt)]
        if any(f is None for f in fs):
            continue
        start_ratio = evaluate_ratio(m, fs, ps, p)
        if start_ratio > best_value:
            best_value, best_witness = start_ratio, [f.copy() for f in fs]
        value, z = dual_of_output(fs)
        if value > 1e-300:
            for _ in range(cfg.max_iterations):
                total_iter += 1
                for i in range(n):
                    if i:
                        z = dual_of_output(fs)[1]
                    w = partial_adjoint(z, fs, i)
                    fs[i] = lp_norm_gradient(group, w, conjugate_exponent(ps_opt[i]))[1]
                new_value, z = dual_of_output(fs)
                improvement, value = new_value - value, new_value
                if improvement < multipliers._STOP_TOLERANCE * new_value:
                    break
        end_ratio = evaluate_ratio(m, fs, ps, p)
        if end_ratio > best_value:
            best_value, best_witness = end_ratio, [f.copy() for f in fs]
    return best_value, best_witness, total_iter


ORACLE_PANEL = [
    *[(spec, 1, (q,), q, False)
      for spec in ("cyclic:8", "dihedral:4", "heisenberg:2", "product:cyclic:2,cyclic:4")
      for q in (1.0, 1.5, 3.0, 4.0)],
    ("dihedral:3", 2, (4.0, 4.0), 2.0, False),
    ("cyclic:6", 2, (4.0, 4.0), 2.0, False),
    ("heisenberg:2", 1, (3.0,), 3.0, True),
]


@pytest.mark.parametrize("spec, arity, ps, p, warm", ORACLE_PANEL, ids=[
    f"{spec} {','.join(map(str, ps))}->{p}{' warm' if warm else ''}"
    for spec, _, ps, p, warm in ORACLE_PANEL])
def test_stacked_estimate_matches_sequential_oracle(spec, arity, ps, p, warm):
    m = symbol_from_spec(build_group(spec), "random:21", arity)
    cfg = OptimizerConfig(restarts=12, max_iterations=40, seed=5)
    warm_starts = None
    if warm:
        other = estimate_norm(m, ps, p, OptimizerConfig(restarts=2, max_iterations=10, seed=9))
        warm_starts = [other.witness, [np.zeros(m.parent.order)]]
    est = estimate_norm(m, ps, p, cfg, warm_starts=warm_starts)
    value, witness, iterations = _sequential_estimate(m, ps, p, cfg, warm_starts)
    assert est.value == pytest.approx(value, rel=1e-9, abs=0)
    assert evaluate_ratio(m, est.witness, ps, p) == pytest.approx(est.value, rel=1e-12, abs=0)
    assert evaluate_ratio(m, witness, ps, p) == pytest.approx(value, rel=1e-12, abs=0)
    assert abs(est.iterations - iterations) <= 0.01 * iterations


@pytest.mark.parametrize("spec, arity, ps, p, warm", ORACLE_PANEL, ids=[
    f"{spec} {','.join(map(str, ps))}->{p}{' warm' if warm else ''}"
    for spec, _, ps, p, warm in ORACLE_PANEL])
def test_no_iteration_lowers_a_start(spec, arity, ps, p, warm):
    # restart_values after k iterations, k = 0, 1, 2, ...: each start's ratio
    # is nondecreasing in k.  p = 1 runs at the smoothing exponent itself, so
    # the ratio reported is the ratio iterated on.
    ps, p = tuple(max(q, 1.0 + 1e-6) for q in ps), max(p, 1.0 + 1e-6)
    m = symbol_from_spec(build_group(spec), "random:21", arity)
    warm_starts = [[np.ones(m.parent.order)] * arity] if warm else None
    trace = [estimate_norm(m, ps, p, OptimizerConfig(restarts=12, max_iterations=k, seed=5),
                           warm_starts=warm_starts).restart_values
             for k in [*range(13), 20, 40]]
    for before, after in zip(trace, trace[1:]):
        assert np.all(after >= before * (1 - 1e-12))
    assert np.any(trace[-1] > trace[0] * (1 + 1e-6))


@pytest.mark.parametrize("spec", ["cyclic:8", "dihedral:3", "dihedral:4", "heisenberg:2"])
@pytest.mark.parametrize("symbol", ["random:2", "random:5"])
def test_estimate_near_p1_within_the_riesz_thorin_bracket(spec, symbol):
    # ||T_m||_1 <= ||m||_A and ||T_m||_2 = sup|m|, so by Riesz-Thorin
    # sup|m| <= ||T_m||_1.01 <= ||m||_A; the search lands within 5% of the top
    g = build_group(spec)
    m = symbol_from_spec(g, symbol)
    est = estimate_norm(m, (1.01,), 1.01, OptimizerConfig(restarts=40, max_iterations=60, seed=3))
    norm_a = lp_norm(AlgebraElement(g, m.values), 1.0)
    assert np.max(np.abs(m.values)) <= est.value <= norm_a * (1 + 1e-12)
    assert est.value >= 0.95 * norm_a


@pytest.mark.parametrize("spec", ["dihedral:3", "heisenberg:2"])
@pytest.mark.parametrize("arity", [2, 3])
def test_gather_apply_matches_index_loop(monkeypatch, spec, arity):
    g = build_group(spec)
    N = g.order
    m = symbol_from_spec(g, "random:4", arity)
    rng = np.random.default_rng(arity)
    stack = [rng.standard_normal((3, N)) + 1j * rng.standard_normal((3, N)) for _ in range(arity)]
    want = np.zeros((3, N), dtype=complex)
    for s in np.ndindex(*(N,) * arity):
        t = s[0]
        for u in s[1:]:
            t = g.mul[t, u]
        want[:, t] += m.values[s] * np.prod([x[:, u] for x, u in zip(stack, s)], axis=0)
    got = multipliers._apply_stack(m, stack)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    one = multipliers._apply_stack(m, [x[1] for x in stack])
    assert np.max(np.abs(one - want[1])) <= 1e-12 * np.max(np.abs(want[1]))
    # one slab per value of s_1, as a large group gets
    monkeypatch.setattr(multipliers, "_SLAB_ENTRIES", 1)
    assert np.max(np.abs(multipliers._apply_stack(m, stack) - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("chunk", [1, 3])
def test_stacked_estimate_does_not_depend_on_the_chunk_size(monkeypatch, chunk):
    m = symbol_from_spec(build_group("dihedral:4"), "random:3")
    cfg = OptimizerConfig(restarts=10, max_iterations=30, seed=4)
    # a zero warm start cannot be normalized, so a chunk of 1 holds no start
    warm = [[np.zeros(m.parent.order)]]
    whole = estimate_norm(m, (3.0,), 3.0, cfg, warm_starts=warm)
    monkeypatch.setattr(multipliers, "_STACK_ENTRIES", chunk * m.parent.order)
    cut = estimate_norm(m, (3.0,), 3.0, cfg, warm_starts=warm)
    assert cut.value == pytest.approx(whole.value, rel=1e-12, abs=0)
    assert cut.restart_values == pytest.approx(whole.restart_values, rel=1e-12, abs=0)
    assert cut.restart_values[0] == 0.0


@pytest.mark.parametrize("spec, arity, ps, p", [("cyclic:8", 1, (4.0,), 4.0),
                                                ("dihedral:3", 2, (4.0, 4.0), 2.0)])
def test_estimate_exposes_each_start(spec, arity, ps, p):
    m = symbol_from_spec(build_group(spec), "random:8", arity)
    cfg = OptimizerConfig(restarts=9, max_iterations=40, seed=1)
    warm = [[np.ones(m.parent.order)] * arity]
    est = estimate_norm(m, ps, p, cfg, warm_starts=warm)
    assert len(est.restart_values) == cfg.restarts + len(warm)
    assert max(est.restart_values) <= est.value
    assert 0 <= est.converged_runs <= len(est.restart_values)
    assert est.converged == (est.converged_runs > 0)
    assert "restart_values" not in json.loads(est.to_json())


def test_estimate_norm_p1_smoothing_flagged():
    g = build_group("cyclic:3")
    m = symbol_from_spec(g, "random:6")
    est = estimate_norm(m, (1.0,), 1.0, OptimizerConfig(restarts=5, seed=2))
    assert est.smoothing_bias == pytest.approx(1e-6)
    # on an abelian group T_m at p = 1 is convolution by the inverse Fourier
    # transform of m on the dual group, so its norm is ||m||_A
    norm_a = lp_norm(AlgebraElement(g, m.values), 1.0)
    assert np.max(np.abs(m.values)) < est.value <= norm_a * (1 + 1e-12)
    assert est.value == pytest.approx(norm_a, rel=1e-6)


def test_duality_report_band():
    # found values for (m, p) and (m^vee, p') agree within the 5% report band
    g = build_group("cyclic:8")
    m = symbol_from_spec(g, "random:13")
    p = 4.0
    cfg = OptimizerConfig(restarts=200, seed=21)
    est_p = estimate_norm(m, (p,), p, cfg)
    m_vee = Symbol(g, 1, m.values[g.inv])
    est_q = estimate_norm(m_vee, (conjugate_exponent(p),), conjugate_exponent(p), cfg)
    gap = abs(est_p.value - est_q.value) / max(est_p.value, est_q.value)
    assert gap <= 0.05


def test_norm_estimate_json():
    g = build_group("cyclic:3")
    m = symbol_from_spec(g, "random:1")
    est = estimate_norm(m, (2.0,), 2.0, OptimizerConfig(restarts=1, seed=0))
    data = json.loads(est.to_json())
    assert data["lower_bound_only"] is True
    assert len(data["witness"]) == 1 and len(data["witness"][0]) == 3


def test_restrict_symbol_fixtures():
    z4 = build_group("cyclic:4")
    emb = build_embedding("cyclic-in-cyclic:2,4")
    m = Symbol(z4, 1, np.array([1.0, 2.0, 3.0, 4.0]))
    restricted = restrict_symbol(m, emb)
    assert np.allclose(restricted.values, [1.0, 3.0])
    triv = build_embedding("trivial:cyclic:4")
    assert np.allclose(restrict_symbol(m, triv).values, m.values)
    const = Symbol(z4, 2, np.full((4, 4), 2.5))
    assert np.allclose(restrict_symbol(const, emb).values, 2.5)


def _pulled_back_by_loops(m, group, maps):
    values = np.empty((group.order,) * m.arity, dtype=complex)
    for idx in np.ndindex(values.shape):
        values[idx] = m.values[tuple(q[s] for q, s in zip(maps, idx))]
    return values


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_pulled_back_symbols_equal_index_loops(arity):
    # restriction (along the embedding), periodization (along the quotient
    # map) and arbitrary per-slot maps are one gather, equal to the loop
    from ncfourier.restriction import quotient_group

    emb = build_embedding("rotations-in-dihedral:4")
    m = symbol_from_spec(emb.amb, "random:3", arity)
    want = _pulled_back_by_loops(m, emb.sub, [emb.map] * arity)
    assert np.array_equal(restrict_symbol(m, emb).values, want)
    g = build_group("dihedral:4")
    quotient, coset_of, _ = quotient_group(g, g.subset([0, 2]))
    m_q = symbol_from_spec(quotient, "random:4", arity)
    periodized = pull_back(m_q, g, [coset_of] * arity)
    assert np.array_equal(periodized.values, _pulled_back_by_loops(m_q, g, [coset_of] * arity))
    rng = np.random.default_rng(arity)
    maps = [rng.integers(0, g.order, size=emb.sub.order) for _ in range(arity)]
    m_g = symbol_from_spec(g, "random:5", arity)
    assert np.array_equal(pull_back(m_g, emb.sub, maps).values,
                          _pulled_back_by_loops(m_g, emb.sub, maps))


def test_symbol_csv_roundtrip(tmp_path):
    g = build_group("cyclic:3")
    m = symbol_from_spec(g, "random:9", arity=2)
    path = tmp_path / "symbol.csv"
    symbol_to_csv(m, str(path))
    back = symbol_from_csv(g, str(path))
    assert np.max(np.abs(back.values - m.values)) < 1e-15


@pytest.mark.parametrize("build", [
    lambda g: symbol_from_spec(g, "random:1", arity=5),
    lambda g: symbol_from_spec(g, "gaussian:1.0", arity=5),
    lambda g: consummate_symbol(symbol_from_spec(g, "random:1"), [1], 5),
    lambda g: nested_symbol([symbol_from_spec(g, f"random:{j}") for j in range(5)]),
], ids=["random", "gaussian", "consummate", "nested"])
def test_oversize_tables_are_refused_before_allocation(build):
    # a 64^5 table takes 16 GiB of complex (4 GiB as an int32 product grid)
    g = build_group("cyclic:64")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"64\^5 exceeds 16777216"):
            build(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_symbol_families():
    g = build_group("dihedral:6")
    gauss = symbol_from_spec(g, "gaussian:1.5")
    assert gauss.values[g.identity] == pytest.approx(1.0)
    assert np.all(np.abs(gauss.values) <= 1.0)
    ind = symbol_from_spec(g, "indicator:indices:0,3")
    assert sorted(np.nonzero(ind.values)[0].tolist()) == [0, 3]
    r1 = symbol_from_spec(g, "random:5")
    r2 = symbol_from_spec(g, "random:5")
    assert np.array_equal(r1.values, r2.values)
