"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines
as they print).  Monte Carlo members use pinned seeds and are bit-reproducible.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from ncfourier.cli import main as cli_main
from ncfourier.groups import (
    AlgebraElement,
    build_embedding,
    build_group,
    complex_normal,
    random_element,
)
from ncfourier.liealg import (
    GroupMatrix,
    ad_operator,
    adjoint_norm,
    build_model,
    exp_density,
    max_nilpotent_dim,
    _matrix_density,
)
from ncfourier.montecarlo import (
    McConfig,
    delta_lower_bound_check,
    delta_mc_finite,
    growth_fit,
    key_lemma_ratio,
    main_term_deviation,
    sl2z_count,
)
from ncfourier.multipliers import (
    OptimizerConfig,
    consummation_residual,
    estimate_norm,
    nested_residual,
    symbol_from_spec,
    translation_residual,
)
from ncfourier.restriction import (
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
from ncfourier.transference import bump_element, hertz_schur_transference_residual


def report(num, name, ok, detail):
    print(f"[ACCEPT] criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_nilpotent_dimensions():
    # CPU time of this process, so that other work on the machine does not count
    t0 = time.process_time()
    got = {}
    for n in (2, 3, 4, 5):
        model = build_model(f"sl:{n}")
        got[n] = max_nilpotent_dim(model, np.random.default_rng(1), samples=1000)
    elapsed = time.process_time() - t0
    ok = got == {2: 2, 3: 6, 4: 12, 5: 20} and elapsed < 5.0
    assert report(1, "maximal nilpotent orbit dimensions", ok,
                  f"{got}, {elapsed:.2f}s")


def test_criterion_02_tube_volume_scaling():
    t0 = time.time()
    ok = True
    details = []
    for rho in (2.0, 4.0):
        stats = []
        for eps in (0.1, 0.05, 0.025):
            est, expected = key_lemma_ratio(
                eps, 0.5, rho, McConfig(10 ** 7, 42, 10 ** 7)
            )
            stats.append((abs(est.mean - rho), est.stderr, est.mean))
        final_dev, final_se, final_mean = stats[-1]
        ok &= final_dev <= 0.10 * rho
        # monotone approach, resolved at the estimates' noise level
        for (d_prev, s_prev, _), (d_next, s_next, _) in zip(stats, stats[1:]):
            ok &= d_next <= d_prev + 2.0 * (s_prev + s_next)
        details.append(f"rho={rho}: ratios {[f'{m:.3f}' for _, _, m in stats]}")
    elapsed = time.time() - t0
    ok &= elapsed < 600.0
    assert report(2, "tube-volume scaling ratio", ok,
                  "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_03_delta_lower_bound():
    violations = 0
    finals = []
    for rho in (2.0, 4.0):
        for seed in range(10):
            rng = np.random.default_rng([seed, 17])
            rep = delta_lower_bound_check(
                rho, 3, [0.1, 0.05, 0.025], 0.5,
                McConfig(4 * 10 ** 6, seed, 10 ** 6), rng,
            )
            finals.append(rep["final_estimate"])
            violations += 0 if rep["pass"] else 1
    ok = violations == 0
    assert report(3, "adjoint-ball survival lower bound", ok,
                  f"20 runs, {violations} violations, estimates in "
                  f"[{min(finals):.3f}, {max(finals):.3f}]")


def test_criterion_04_exp_density():
    sl2, sl3 = build_model("sl:2"), build_model("sl:3")
    ok = exp_density(sl2.vector([0, 0, 0])) == 1.0
    rng = np.random.default_rng(4)
    worst_path = 0.0
    for model in (sl2, sl3):
        for _ in range(250):
            x = model.vector(rng.standard_normal(model.dim))
            scale = 2.0 * rng.random() / max(np.linalg.norm(ad_operator(x), 2), 1e-9)
            x = model.vector(x.coords * scale)
            worst_path = max(worst_path, abs(_matrix_density(x) - exp_density(x)))
    ok &= worst_path <= 1e-8
    worst_conj = 0.0
    for model in (sl2, sl3):
        n = model.n
        for _ in range(250):
            x = model.vector(rng.standard_normal(model.dim) * 0.7)
            while True:
                p = rng.standard_normal((n, n)) * 0.5
                p -= np.trace(p) / n * np.eye(n)
                g = expm(p)
                if adjoint_norm(GroupMatrix(model, g)) <= 10.0:
                    break
            moved = model.vector_from_matrix(g @ x.matrix() @ np.linalg.inv(g))
            worst_conj = max(worst_conj, abs(exp_density(moved) - exp_density(x)))
    ok &= worst_conj <= 1e-7
    h3 = build_model("heisenberg3")
    worst_h = max(
        abs(exp_density(h3.vector(rng.standard_normal(3))) - 1.0) for _ in range(50)
    )
    ok &= worst_h <= 1e-12
    worst_cf = max(
        abs(exp_density(sl2.vector([t, 0, 0])) - (math.sinh(t) / t) ** 2)
        for t in (0.1, 1.0, 2.0)
    )
    ok &= worst_cf <= 1e-10
    assert report(4, "exponential-coordinates density", ok,
                  f"paths {worst_path:.1e}, conj {worst_conj:.1e}, "
                  f"nilpotent {worst_h:.1e}, closed form {worst_cf:.1e}")


def test_criterion_05_exact_l2_norm():
    rng = np.random.default_rng(5)
    specs = ["cyclic:24", "dihedral:12", "heisenberg:2", "dihedral:6",
             "product:cyclic:2,dihedral:6", "cyclic:17"]
    worst = 0.0
    for i in range(100):
        g = build_group(specs[i % len(specs)])
        m = symbol_from_spec(g, f"random:{i}")
        est = estimate_norm(m, (2.0,), 2.0, OptimizerConfig(restarts=1, seed=i))
        worst = max(worst, abs(est.value - float(np.max(np.abs(m.values)))))
    ok = worst <= 1e-10
    assert report(5, "exact L2 multiplier norm", ok, f"worst gap {worst:.1e}")


def test_criterion_06_reduction_identities():
    rng = np.random.default_rng(6)
    specs = ["cyclic:4", "cyclic:6", "dihedral:3", "dihedral:6", "cyclic:12",
             "product:cyclic:2,cyclic:3"]
    worst = {"consummation": 0.0, "translation": 0.0, "nested": 0.0}
    for i in range(100):
        g = build_group(specs[i % len(specs)])
        n = 2 if i % 2 == 0 else 3
        k = int(rng.integers(1, n + 1))
        idx = [1] + sorted(rng.choice(range(2, n + 1), size=k - 1, replace=False).tolist())
        m = symbol_from_spec(g, f"random:{i}", arity=k)
        worst["consummation"] = max(
            worst["consummation"],
            consummation_residual(m, idx, n, 2, rng),
        )
        mt = symbol_from_spec(g, f"random:{200 + i}", arity=n)
        r, t, rp = (int(v) for v in rng.integers(0, g.order, size=3))
        slot = int(rng.integers(1, n))
        worst["translation"] = max(
            worst["translation"], translation_residual(mt, slot, r, t, rp, 2, rng)
        )
        ms = [symbol_from_spec(g, f"random:{400 + i + j}") for j in range(n)]
        worst["nested"] = max(worst["nested"], nested_residual(ms, 2, rng))
    ok = all(v <= 1e-10 for v in worst.values())
    assert report(6, "multiplier reduction identities", ok,
                  ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))


def test_criterion_07_overlap_gram_bound():
    rng = np.random.default_rng(7)
    specs = ["cyclic:8", "cyclic:12", "dihedral:4", "dihedral:6", "heisenberg:2",
             "product:cyclic:2,cyclic:4", "dihedral:8"]
    worst = 0.0
    for i in range(500):
        g = build_group(specs[i % len(specs)])
        F = g.subset(rng.choice(g.order, size=int(rng.integers(1, 5)), replace=False))
        V = g.subset(rng.choice(g.order, size=int(rng.integers(1, g.order)), replace=False))
        _, eig_a, eig_gap = gram_matrix(F, V)
        worst = min(worst, eig_a, eig_gap)
    d6 = build_group("dihedral:6")
    fixture = delta_exact(d6.subset([6]), d6.subset([0, 1, 5, 11]))
    ok = worst >= -1e-10 and (fixture.numerator, fixture.denominator) == (3, 4)
    assert report(7, "overlap Gram lower bound", ok,
                  f"min eigenvalue {worst:.1e}, fixture delta = {fixture}")


def test_criterion_08_embedding_inequalities():
    ok = True
    rng = np.random.default_rng(8)
    # contraction (a): V = {e}
    emb = build_embedding("cyclic-in-cyclic:2,8")
    x = random_element(emb.sub, rng)
    worst_a = max(
        embedding_contraction_residual(emb, x, emb.amb.subset([0]), p).residual
        for p in (2.0, 4.0, math.inf)
    )
    # contraction (b): Z_2 < Z_8, V = {-1,0,1}, exact p = 2 equality
    rep_b = embedding_contraction_residual(
        emb, random_element(emb.sub, rng), emb.amb.subset([7, 0, 1]), 2.0
    )
    gap_b = rep_b.context["equality_gap"]
    # contraction (c): rotations < dihedral:6, V = {e} + reflection inverse-pair
    embd = build_embedding("rotations-in-dihedral:6")
    worst_c = max(
        embedding_contraction_residual(
            embd, random_element(embd.sub, np.random.default_rng(80 + i)),
            embd.amb.subset([0, 6]), 4.0,
        ).residual
        for i in range(10)
    )
    ok &= worst_a <= 1e-10 and gap_b <= 1e-12 and worst_c <= 1e-10
    # lower bound (a): V = {e}
    emb16 = build_embedding("cyclic-in-cyclic:2,16")
    x16 = random_element(emb16.sub, rng)
    low_a = embedding_lower_residual(
        emb16, x16, emb16.amb.subset([0]), 4.0, holder_witness(x16, 4.0)
    ).residual
    # lower bound (b): Z_2 < Z_16, V = {-2..2}
    low_b = embedding_lower_residual(
        emb16, x16, emb16.amb.subset([14, 15, 0, 1, 2]), 4.0, holder_witness(x16, 4.0)
    ).residual
    # lower bound (c): dihedral analog with nontrivial delta = 1/2
    emb12 = build_embedding("rotations-in-dihedral:12")
    c12 = np.zeros(emb12.sub.order, dtype=complex)
    c12[:2] = complex_normal(rng, 2)  # x supported on {e, r}
    x12 = AlgebraElement(emb12.sub, c12)
    rep_c = embedding_lower_residual(
        emb12, x12, emb12.amb.subset([0, 12]), 4.0, emb12.sub.delta_element(0)
    )
    ok &= low_a <= 1e-10 and low_b <= 1e-9 and rep_c.residual <= 1e-9
    ok &= rep_c.context["delta"] == pytest.approx(0.5)
    assert report(8, "embedding map inequalities", ok,
                  f"contraction {max(worst_a, worst_c):.1e} (p2 gap {gap_b:.1e}), "
                  f"lower {max(low_a, low_b, rep_c.residual):.1e}, "
                  f"nontrivial delta {rep_c.context['delta']}")


def test_criterion_09_restriction_consistency():
    embeddings = [
        "cyclic-in-cyclic:2,4", "cyclic-in-cyclic:3,6", "cyclic-in-cyclic:2,8",
        "cyclic-in-cyclic:4,8", "cyclic-in-cyclic:2,12", "cyclic-in-cyclic:6,12",
        "rotations-in-dihedral:3", "rotations-in-dihedral:4",
        "rotations-in-dihedral:6", "reflection-in-dihedral:3",
        "reflection-in-dihedral:5", "reflection-in-dihedral:6",
        "factor1-in-product:cyclic:2,cyclic:5", "factor2-in-product:cyclic:2,dihedral:3",
        "center-in-heisenberg:2", "cyclic-in-cyclic:5,10",
        "rotations-in-dihedral:5", "cyclic-in-cyclic:3,9",
        "factor2-in-product:cyclic:3,cyclic:4", "cyclic-in-cyclic:2,10",
    ]
    ps = [1.5, 3.0, 4.0]
    worst_resid = 0.0
    worst_transport = 0.0
    for i, spec in enumerate(embeddings):
        emb = build_embedding(spec)
        assert emb.amb.order <= 12
        m = symbol_from_spec(emb.amb, f"random:{i}")
        p = ps[i % 3]
        cfg = OptimizerConfig(restarts=200, max_iterations=40, seed=i)
        rep = restriction_consistency(emb, m, (p,), p, cfg)
        worst_resid = max(worst_resid, rep.residual)
        worst_transport = max(worst_transport, rep.context["witness_transport_gap"])
    ok = worst_resid <= 1e-6 and worst_transport <= 1e-9
    assert report(9, "restriction consistency by witness transport", ok,
                  f"20 configs, worst margin {worst_resid:.1e}, "
                  f"worst transport gap {worst_transport:.1e}")


def test_criterion_10_periodization():
    rng = np.random.default_rng(10)
    worst = 0.0
    worst_iso = 0.0
    z4 = build_group("cyclic:4")
    h4 = z4.subset([0, 2])
    q4, _, _ = quotient_group(z4, h4)
    for n, ps in [(1, (2.0,)), (2, (4.0, 4.0))]:
        m_q = symbol_from_spec(q4, f"random:{n}", arity=n)
        rep = periodization_residual(z4, h4, m_q, ps, 10, rng)
        worst = max(worst, rep.residual)
        worst_iso = max(worst_iso, rep.context["isometry_residual"])
    d3 = build_group("dihedral:3")
    h3 = d3.subset([0, 1, 2])
    q3, _, _ = quotient_group(d3, h3)
    for n, ps in [(1, (3.0,)), (2, (4.0, 4.0))]:
        m_q = symbol_from_spec(q3, f"random:{10 + n}", arity=n)
        rep = periodization_residual(d3, h3, m_q, ps, 10, rng)
        worst = max(worst, rep.residual)
        worst_iso = max(worst_iso, rep.context["isometry_residual"])
    ok = worst <= 1e-10 and worst_iso <= 1e-10
    assert report(10, "quotient periodization intertwiner", ok,
                  f"intertwining {worst:.1e}, isometry {worst_iso:.1e}")


def test_criterion_11_lattice_approximation_maps():
    from ncfourier.groups import AlgebraElement

    z64 = build_group("cyclic:64")
    m2 = symbol_from_spec(z64, "gaussian:8.0", arity=2)

    def bump(width, shift):
        k = np.arange(64)
        d = np.minimum((k - shift) % 64, (shift - k) % 64).astype(float)
        return AlgebraElement(z64, np.exp(-(d ** 2) / (2 * width ** 2)) + 0j)

    xs = [bump(3.0, 1), bump(3.0, 62)]
    y = bump(4.0, 2)
    rng = np.random.default_rng(11)
    worst = 0.0
    deviations = []
    for k in (3, 2, 1):
        stride = 2 ** k
        emb = build_embedding(f"cyclic-in-cyclic:{64 // stride},64")
        X = z64.subset(range(stride))
        rep = lattice_maps_report(emb, X, m2, (2.0, 2.0), 5, rng, pairing_inputs=(xs, y))
        worst = max(worst, rep.residual)
        deviations.append(rep.context["pairing_deviation"])
    ok = worst <= 1e-9 and deviations[0] > deviations[1] > deviations[2]
    assert report(11, "lattice approximation maps", ok,
                  f"contraction residual {worst:.1e}, pairing deviations "
                  f"{[f'{d:.3f}' for d in deviations]}")


def test_criterion_12_lattice_point_counting():
    t0 = time.time()
    near_one = sl2z_count(1.000001)
    radii = [100.0, 250.0, 500.0, 1000.0, 2500.0]
    counts = [sl2z_count(r) for r in radii]
    # The Haar volume of the SL(2,R) adjoint ball has no log factor (see
    # growth_fit), so the exponent e of count ~ rho^e must be near d/2 = 1,
    # and each count must lie within rho^(-1/3) of the main term 6(rho + 1/rho - 2).
    exponent, _ = growth_fit(radii, counts)
    deviation = main_term_deviation(radii, counts)
    elapsed = time.time() - t0
    ok = (near_one == 4 and 0.85 <= exponent <= 1.15 and deviation <= 1.0
          and elapsed < 300.0)
    report(12, "lattice point growth", ok,
           f"count(1+) = {near_one}, exponent {exponent:.4f} "
           f"(no log factor, band [0.85, 1.15]), main-term deviation "
           f"{deviation:.3f} of rho^(-1/3), {elapsed:.1f}s")
    assert near_one == 4
    assert elapsed < 300.0
    assert 0.85 <= exponent <= 1.15, (
        f"growth exponent {exponent:.4f} (no log factor) "
        f"outside [0.85, 1.15]; exact counts {counts} at radii {radii} "
        f"(count/rho ~ {counts[-1] / radii[-1]:.2f})"
    )
    assert deviation <= 1.0, f"exact counts {counts} at radii {radii} miss the main term"


def test_criterion_13_schur_transference():
    g = build_group("cyclic:256")
    m = symbol_from_spec(g, "random:7", arity=2)
    x = bump_element(g, 4, 1.5)
    y = bump_element(g, 4, 1.5)
    z = bump_element(g, 4, 1.5)
    rels = []
    for alpha in (8, 16, 32):
        rels.append(
            hertz_schur_transference_residual(m, alpha, 2.0, 2.0, x, y, z).relative_residual
        )
    ok = rels[-1] <= 0.05 and rels[0] >= rels[1] >= rels[2]
    assert report(13, "bilinear Schur window transference", ok,
                  f"relative residuals {[f'{r:.4f}' for r in rels]}")


def test_criterion_14_exact_mc_bridge(tmp_path):
    rng = np.random.default_rng(2024)
    specs = [
        "cyclic:6", "cyclic:12", "dihedral:3", "dihedral:6", "dihedral:4",
        "heisenberg:2", "heisenberg:3", "product:cyclic:2,dihedral:3",
    ]
    fails = 0
    for i in range(50):
        g = build_group(specs[int(rng.integers(len(specs)))])
        vsize = int(rng.integers(2, max(3, g.order // 2)))
        v_members = list(rng.choice(g.order, size=vsize, replace=False))
        f_members = sorted(
            set(int(v) for v in rng.choice(g.order, size=int(rng.integers(1, 4))))
            | {g.identity}
        )
        F, V = g.subset(f_members), g.subset(v_members)
        exact = float(delta_exact(F, V))
        est = delta_mc_finite(g, F, V, McConfig(20000, 1000 + i, 10000))
        if abs(est.mean - exact) > 3.0 * max(est.stderr, 1e-12):
            fails += 1
    args = ["delta-mc", "--model", "sl:2", "--rho", "2", "--F-count", "3",
            "--W", "tube:0.05,0.5", "--samples", "100000", "--seed", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    ok = fails == 0 and identical
    assert report(14, "exact/Monte-Carlo bridge and determinism", ok,
                  f"50 configs, {fails} outside 3 stderr; bit-identical reruns: {identical}")
