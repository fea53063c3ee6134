import math
import tracemalloc

import numpy as np
import pytest

from ncfourier import montecarlo
from ncfourier.groups import build_group
from ncfourier.liealg import (
    GroupMatrix, _adjoint_operator_matrix, _matrix_density, adjoint_norm, build_model,
)
from ncfourier.montecarlo import (
    McConfig,
    McEstimate,
    Neighborhood,
    _radial_mass,
    _tube_volume_mc,
    delta_bound_verdict,
    delta_lower_bound_check,
    delta_mc,
    delta_mc_finite,
    growth_fit,
    key_lemma_ratio,
    main_term_deviation,
    sample_adjoint_ball_sl2,
    sl2z_count,
    volume_mc,
)
from ncfourier.restriction import delta_exact


def test_mcconfig_validation():
    with pytest.raises(ValueError):
        McConfig(100, 0)
    with pytest.raises(ValueError):
        McConfig(10 ** 5, 0, batch=30000)


def test_volume_full_box_and_empty():
    cfg = McConfig(10 ** 4, 0)
    full = volume_mc(lambda p: np.ones(len(p), dtype=bool), 3, 1.0, cfg)
    assert full.mean == 8.0 and full.stderr == 0.0
    empty = volume_mc(lambda p: np.zeros(len(p), dtype=bool), 3, 1.0, cfg)
    assert empty.mean == 0.0 and empty.hits == 0 and empty.stderr > 0


def test_volume_unit_ball():
    cfg = McConfig(10 ** 6, 11, 10 ** 5)
    est = volume_mc(lambda p: np.sum(p ** 2, axis=1) <= 1.0, 3, 1.0, cfg)
    true = 4.0 * math.pi / 3.0
    assert abs(est.mean - true) <= 3.0 * est.stderr


def test_volume_determinism_and_stderr_scaling():
    oracle = lambda p: np.sum(p ** 2, axis=1) <= 1.0
    a = volume_mc(oracle, 3, 1.0, McConfig(10 ** 5, 5, 10 ** 4))
    b = volume_mc(oracle, 3, 1.0, McConfig(10 ** 5, 5, 10 ** 4))
    assert a.mean == b.mean and a.stderr == b.stderr
    big = volume_mc(oracle, 3, 1.0, McConfig(2 * 10 ** 5, 5, 10 ** 4))
    ratio = a.stderr / big.stderr
    assert ratio == pytest.approx(math.sqrt(2.0), rel=0.1)


def test_key_lemma_null_at_rho_one():
    est, expect = key_lemma_ratio(0.05, 0.5, 1.0, McConfig(10 ** 6, 9, 10 ** 6))
    assert expect == 1.0
    assert abs(est.mean - 1.0) <= 2.0 * est.stderr


def test_key_lemma_scaling_small():
    est, expect = key_lemma_ratio(0.05, 0.5, 2.0, McConfig(10 ** 6, 10, 10 ** 6))
    assert expect == 2.0
    assert abs(est.mean - 2.0) <= 0.2


def test_delta_mc_identity_and_rotation():
    model = build_model("sl:2")
    cfg = McConfig(10 ** 5, 3, 10 ** 5)
    est = delta_mc(model, [GroupMatrix(model, np.eye(2))], Neighborhood.parse("ball:0.1"), cfg)
    assert est.mean == 1.0 and est.stderr == 0.0
    th = 0.7
    k = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    est = delta_mc(model, [GroupMatrix(model, k)], Neighborhood.parse("ball:0.1"), cfg)
    assert est.mean == 1.0  # K-invariance of the ball


def test_delta_mc_hyperbolic_strictly_below_one():
    model = build_model("sl:2")
    cfg = McConfig(10 ** 6, 3, 10 ** 6)
    est = delta_mc(
        model, [GroupMatrix(model, np.diag([2.0, 0.5]))], Neighborhood.parse("ball:0.1"), cfg
    )
    assert est.mean < 1.0 - 5.0 * est.stderr


def test_delta_mc_tube_conjugation_only_hits_radius():
    # orbit min norm is conjugation invariant, so the tube's eps constraint
    # survives conjugation exactly; delta < 1 comes from the radius cap
    model = build_model("sl:2")
    cfg = McConfig(10 ** 6, 5, 10 ** 6)
    est = delta_mc(
        model, [GroupMatrix(model, np.diag([2.0, 0.5]))],
        Neighborhood.parse("tube:0.05,0.5"), cfg,
    )
    assert 0.0 < est.mean < 1.0


def test_delta_mc_finite_bridges_exact():
    rng = np.random.default_rng(2024)
    specs = [
        "cyclic:6", "cyclic:12", "dihedral:3", "dihedral:6", "dihedral:4",
        "heisenberg:2", "heisenberg:3", "product:cyclic:2,dihedral:3",
    ]
    for i in range(50):
        g = build_group(specs[int(rng.integers(len(specs)))])
        vsize = int(rng.integers(2, max(3, g.order // 2)))
        v_members = list(rng.choice(g.order, size=vsize, replace=False))
        f_members = sorted(
            set(int(x) for x in rng.choice(g.order, size=int(rng.integers(1, 4))))
            | {g.identity}
        )
        F, V = g.subset(f_members), g.subset(v_members)
        exact = float(delta_exact(F, V))
        est = delta_mc_finite(g, F, V, McConfig(20000, 1000 + i, 10000))
        assert abs(est.mean - exact) <= 3.0 * max(est.stderr, 1e-12)


def _delta_mc_finite_hits_oracle(group, F, V, cfg):
    """The per-conjugator loop delta_mc_finite ran before it read one mask."""
    members = np.array(sorted(V.members), dtype=np.int64)
    in_v = np.zeros(group.order, dtype=bool)
    in_v[members] = True
    hits = 0
    for b in range(cfg.samples // cfg.batch):
        rng = np.random.default_rng([cfg.seed, b])
        v = members[rng.integers(0, len(members), size=cfg.batch)]
        surviving = np.ones(cfg.batch, dtype=bool)
        for s in F.sorted():
            surviving &= in_v[group.mul[group.mul[int(group.inv[s]), v], s]]
        hits += int(np.count_nonzero(surviving))
    return hits


@pytest.mark.parametrize("spec, f_size, v_size", [
    ("dihedral:6", 0, 5), ("dihedral:6", 2, 4), ("heisenberg:3", 3, 10),
    ("product:cyclic:2,dihedral:3", 2, 6), ("heisenberg:16", 40, 2000),
])
def test_delta_mc_finite_hits_match_the_loop_oracle(spec, f_size, v_size):
    g = build_group(spec)
    rng = np.random.default_rng(f_size + v_size)
    F = g.subset(rng.choice(g.order, size=f_size, replace=False))
    V = g.subset(rng.choice(g.order, size=v_size, replace=False))
    cfg = McConfig(20000, 7, 5000)
    est = delta_mc_finite(g, F, V, cfg)
    assert est.hits == _delta_mc_finite_hits_oracle(g, F, V, cfg)
    assert est.mean == est.hits / cfg.samples


def test_sample_adjoint_ball():
    model = build_model("sl:2")
    rng = np.random.default_rng(4)
    for rho in (1.0, 2.0, 4.0):
        for g in sample_adjoint_ball_sl2(model, rho, 10, rng):
            assert adjoint_norm(g) <= rho * (1 + 1e-9)


def test_delta_lower_bound_check_single_seed():
    rng = np.random.default_rng([3, 17])
    rep = delta_lower_bound_check(2.0, 3, [0.1, 0.05], 0.5, McConfig(10 ** 6, 3, 10 ** 6), rng)
    assert rep["bound"] == 0.5
    assert rep["pass"]
    assert len(rep["rows"]) == 2
    with pytest.raises(ValueError, match="eps schedule is empty"):
        delta_lower_bound_check(2.0, 3, [], 0.5, McConfig(10 ** 4, 3), rng)


def test_delta_bound_fails_without_a_sample_inside_the_tube():
    # a cube draw lands in tube:eps,R with probability about pi eps^2 / R^2,
    # so 10^4 draws expect 0.005 hits in tube:0.0002,0.5: 0 +- 1 clears
    # 1/rho - 3 stderr, but it carries no information about delta
    rng = np.random.default_rng([3, 17])
    rep = delta_lower_bound_check(2.0, 3, [0.0002], 0.5, McConfig(10 ** 4, 1), rng)
    assert rep["rows"][0]["hits"] == 0 and rep["final_estimate"] == 0.0
    assert not rep["pass"]
    assert delta_bound_verdict(McEstimate(0.0, 1.0, 10 ** 4, 1, 0), 2.0) == (0.5, False)


def test_sl2z_count_fixtures():
    assert sl2z_count(1.000001) == 4
    assert sl2z_count(2.0) == 4
    assert sl2z_count(0.5) == 0
    for rho in (10 ** 5, math.inf, math.nan):
        with pytest.raises(ValueError, match="is not a number <= 10"):
            sl2z_count(rho)


def test_sl2z_count_brute_force_oracle():
    # independent oracle: full scan over entries bounded by sqrt(T_max)
    def brute(rho):
        t_max = rho + 1.0 / rho
        bound = int(math.isqrt(int(t_max))) + 1
        total = 0
        rng = range(-bound, bound + 1)
        for a in rng:
            for b in rng:
                for c in rng:
                    for d in rng:
                        if a * d - b * c != 1:
                            continue
                        if a * a + b * b + c * c + d * d <= t_max + 1e-9:
                            total += 1
        return total

    for rho in (1.5, 3.0, 5.0, 9.0):
        assert sl2z_count(rho) == brute(rho)


def _sl2z_norms(t_max):
    """Sorted a^2 + b^2 + c^2 + d^2 <= t_max over every integer matrix of
    determinant 1, by a full scan of the entries."""
    r = math.isqrt(t_max)
    a, b, c, d = np.meshgrid(*[np.arange(-r, r + 1)] * 4, indexing="ij")
    norms = (a * a + b * b + c * c + d * d)[a * d - b * c == 1]
    return np.sort(norms[norms <= t_max])


def test_sl2z_count_matches_a_full_scan_on_a_dense_grid():
    norms = _sl2z_norms(61)
    for rho in np.linspace(1.0, 60.0, 1181):
        want = np.searchsorted(norms, rho + 1.0 / rho + 1e-9, side="right")
        assert sl2z_count(rho) == want, rho


@pytest.mark.parametrize("k", range(3, 61))
def test_sl2z_count_where_rho_plus_inverse_is_an_integer(k):
    # rho + 1/rho = k exactly, so the matrices of squared norm k count
    rho = (k + math.sqrt(k * k - 4)) / 2.0
    assert abs(rho + 1.0 / rho - k) <= 1e-9
    assert sl2z_count(rho) == np.searchsorted(_sl2z_norms(61), k, side="right")


def test_sl2z_count_adjoint_norm_oracle():
    # membership test a^2+b^2+c^2+d^2 <= rho + 1/rho equals ||Ad|| <= rho
    model = build_model("sl:2")
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(200):
        a, b = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
        if math.gcd(a, b) != 1:
            continue
        g, u, v = _ext_gcd_local(a, b)
        if g < 0:
            u, v = -u, -v
        d0, c0 = u, -v
        t = int(rng.integers(-2, 3))
        c, d = c0 + t * a, d0 + t * b
        mat = np.array([[a, b], [c, d]], dtype=float)
        rho = 4.0
        lhs = a * a + b * b + c * c + d * d <= rho + 1.0 / rho
        rhs = adjoint_norm(GroupMatrix(model, mat)) <= rho * (1 + 1e-12)
        assert lhs == rhs
        checked += 1
    assert checked > 50


def _ext_gcd_local(a, b):
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    return old_r, old_u, old_v


def test_growth_fit_synthetic():
    radii = [100.0, 250.0, 500.0, 1000.0, 2500.0]
    # an exact power law fits its exponent with no residual
    exponent, residual = growth_fit(radii, [r ** 2 for r in radii])
    assert exponent == pytest.approx(2.0, abs=1e-9)
    assert residual <= 1e-9
    # criterion-12 control: the band [0.85, 1.15] accepts counts 6 rho and
    # rejects the wrong growth law 6 rho log rho
    exponent, _ = growth_fit(radii, [6.0 * r for r in radii])
    assert 0.85 <= exponent <= 1.15
    exponent, residual = growth_fit(radii, [6.0 * r * math.log(r) for r in radii])
    assert not 0.85 <= exponent <= 1.15
    assert residual > 1e-6
    # no log(log rho) enters, so radii at and below 1 fit like any other
    through_one = [0.5, 1.0, 10.0, 100.0, 1000.0]
    assert growth_fit(through_one, [6.0 * r for r in through_one])[0] == pytest.approx(1.0)
    # five radii with two distinct values are a two-point fit
    with pytest.raises(ValueError, match="five distinct radii"):
        growth_fit([100.0, 100.0, 100.0, 250.0, 250.0], [580, 580, 580, 1476, 1476])


def test_growth_fit_on_real_counts():
    # ground truth from exact enumeration: the count grows linearly in rho
    # (count/rho hovers near 6 across the whole range), so the fit sits at ~1
    radii = [100.0, 250.0, 500.0, 1000.0, 2500.0]
    counts = [sl2z_count(r) for r in radii]
    assert counts[0] == 580
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    for r, c in zip(radii, counts):
        assert 5.5 <= c / r <= 6.5
    assert growth_fit(radii, counts)[0] == pytest.approx(1.0, abs=0.05)
    # the counts lie -1.4% to +1.3% from 6(rho + 1/rho - 2); at rho = 2500,
    # -1.33% is 0.18 of rho^(-1/3)
    assert 0.1 <= main_term_deviation(radii, counts) <= 0.35
    # counts scaled by 1.3 keep the exponent but miss the main term by 28-32%,
    # several times rho^(-1/3)
    assert main_term_deviation(radii, [1.3 * c for c in counts]) > 3.0
    # radii below 20 are not checked
    assert main_term_deviation([1.5, 19.9], [4, 1000]) == 0.0


def test_key_lemma_thick_tube_warns():
    with pytest.warns(UserWarning):
        key_lemma_ratio(0.2, 0.5, 2.0, McConfig(10 ** 4, 1, 10 ** 4))


# ---------------------------------------------------------------------------
# oracles: the matrix exp/log path of delta_mc, the sequential SL(2,Z) count
# and the exact sl(2) tube volume
#
# x coordinates (x1, x2, x3) <-> [[x1, x2], [x3, -x1]], where |x|_F^2 =
# 2 x1^2 + x2^2 + x3^2 and det x = -x1^2 - x2 x3: the oracles decide W there,
# independently of delta_mc's frame rows (y, a, b)


def _sl2_frob2(x):
    return 2.0 * x[:, 0] ** 2 + x[:, 1] ** 2 + x[:, 2] ** 2


def _sl2_det(x):
    return -(x[:, 0] ** 2) - x[:, 1] * x[:, 2]


def _contains(W, x):
    """W in x coordinates: |x|_F < R, and 2 |det x| < eps^2 on a tube."""
    inside = _sl2_frob2(x) < W.params[-1] ** 2
    if W.kind == "tube":
        inside &= 2.0 * np.abs(_sl2_det(x)) < W.params[0] ** 2
    return inside


def _matrices(x):
    return np.stack([x[:, 0], x[:, 1], x[:, 2], -x[:, 0]], axis=1).reshape(-1, 2, 2)


def _x_of(m):
    """x coordinates of traceless 2x2 matrix batches."""
    return np.column_stack([0.5 * (m[:, 0, 0] - m[:, 1, 1]), m[:, 0, 1], m[:, 1, 0]])


def _frame_matrices(u):
    """The matrices sum_k u_k _FRAME[k] of the frame rows u."""
    return np.tensordot(u, montecarlo._FRAME, 1)


def _x_of_frame(u):
    return _x_of(_frame_matrices(u))


def _conjugate(s, x):
    """x coordinates of s^-1 X s for each row x, through 2x2 matrices."""
    return _x_of(np.linalg.inv(s.mat) @ _matrices(x) @ s.mat)


def _frame_inside(W, u):
    """W on frame rows, in the arithmetic of ``Neighborhood._frame_rows_inside``."""
    sq = np.square(u)
    inside = sq[:, 0] + sq[:, 1] + sq[:, 2] < W.params[-1] ** 2
    if W.kind == "tube":
        inside &= np.abs(sq[:, 0] + sq[:, 1] - sq[:, 2]) < W.params[0] ** 2
    return inside


def _frame_adjoints(model, F):
    """delta_mc's Ad_{s^-1} for each s, from frame rows to orthonormal coordinates."""
    frame = model._onb.T @ montecarlo._FRAME.reshape(3, 4).T
    return [_adjoint_operator_matrix(model, np.linalg.inv(s.mat)) @ frame for s in F]


def _gather_exp_coeffs(mu2):
    """exp(X) = c0 I + c1 X for X^2 = mu2 I, branch by branch on gathers."""
    c0 = np.empty_like(mu2)
    c1 = np.empty_like(mu2)
    pos = mu2 > 1e-12
    neg = mu2 < -1e-12
    mid = ~(pos | neg)
    w = np.sqrt(np.abs(mu2))
    c0[pos] = np.cosh(w[pos])
    c1[pos] = np.sinh(w[pos]) / w[pos]
    c0[neg] = np.cos(w[neg])
    c1[neg] = np.sin(w[neg]) / w[neg]
    c0[mid] = 1.0 + mu2[mid] / 2.0
    c1[mid] = 1.0 + mu2[mid] / 6.0
    return c0, c1


def _gather_log_factor(alpha):
    """The principal-log factor f(alpha) and its ok mask, on gathers.  The
    root takes |1 - alpha^2| as |1 - alpha| (1 + alpha), which keeps f exact
    to a few ulps where alpha is within 1e-10 of 1."""
    ok = alpha > -1.0 + 1e-12
    f = np.ones_like(alpha)
    hi = alpha > 1.0 + 1e-12
    lo = ok & (alpha < 1.0 - 1e-12)
    f[hi] = np.arccosh(alpha[hi]) / np.sqrt((alpha[hi] - 1.0) * (alpha[hi] + 1.0))
    f[lo] = np.arccos(alpha[lo]) / np.sqrt((1.0 - alpha[lo]) * (1.0 + alpha[lo]))
    return f, ok


def _sl2_density(x):
    """Haar density nu in exponential coordinates: (sinh mu / mu)^2 with
    mu^2 = x1^2 + x2 x3 (trigonometric for negative mu^2)."""
    mu2 = -_sl2_det(x)
    pos = mu2 > 1e-12
    neg = mu2 < -1e-12
    big = pos | neg
    w = np.sqrt(np.abs(mu2))
    out = 1.0 + mu2 / 3.0  # |mu2| <= 1e-12
    ratio = np.empty_like(mu2)
    np.sinh(w, out=ratio, where=pos)
    np.sin(w, out=ratio, where=neg)
    np.divide(ratio, w, out=ratio, where=big)
    np.square(ratio, out=out, where=big)
    return out


def _matrix_exp(x):
    """exp of traceless 2x2 batches given by coordinates, as matrices."""
    c0, c1 = _gather_exp_coeffs(-_sl2_det(x))
    out = np.empty((x.shape[0], 2, 2))
    out[:, 0, 0] = c0 + c1 * x[:, 0]
    out[:, 0, 1] = c1 * x[:, 1]
    out[:, 1, 0] = c1 * x[:, 2]
    out[:, 1, 1] = c0 - c1 * x[:, 0]
    return out


def _matrix_log(z):
    """Principal log of det-1 2x2 matrix batches: (coordinates, ok mask)."""
    f, ok = _gather_log_factor(0.5 * (z[:, 0, 0] + z[:, 1, 1]))
    coords = np.empty((z.shape[0], 3))
    coords[:, 0] = f * 0.5 * (z[:, 0, 0] - z[:, 1, 1])
    coords[:, 1] = f * z[:, 0, 1]
    coords[:, 2] = f * z[:, 1, 0]
    coords[~ok] = 0.0
    return coords, ok


class _LogRoundTripError(RuntimeError):
    """More than 1% of the checked points failed the matrix-log roundtrip."""


def _rb_sums(model, u, F, W):
    """delta_mc's five running sums over the hits u (frame rows), one
    conjugator at a time, and each hit's t_F: its survival radius is
    r_F = R |u| / sqrt(t_F).  Every s counts: the F sampled here from
    adjoint balls with rho > 1 hold no element of K, which delta_mc drops."""
    R2 = W.params[-1] ** 2
    u = u.T.copy()
    sq = np.square(u)
    cone = sq[0] + sq[1] - sq[2]
    t_w = sq[0] + sq[1] + sq[2]
    if W.kind == "tube":
        t_w = np.maximum(t_w, R2 / W.params[0] ** 2 * np.abs(cone))
    t_f = t_w.copy()
    for ad in _frame_adjoints(model, F):
        y2 = np.square(ad @ u)
        t_f = np.maximum(t_f, y2[0] + y2[1] + y2[2])
    z = 0.5 * R2 * cone
    b = _radial_mass(z / t_w)
    lost = b - (t_w / t_f) ** 1.5 * _radial_mass(z / t_f)
    return [b.sum(), lost.sum(), b @ b, b @ lost, lost @ lost], t_f


def _matrix_radius_check(F, W, x, t_f):
    """The survival radius of each hit x (x coordinates) through 2x2
    matrices: on its ray, (1 - 1e-9) r_F must lie in W and survive every s,
    and (1 + 1e-9) r_F must leave W or fail some s, where surviving s means
    that the principal log of s^-1 e^x s lies in W.  Returns the hits whose exp-log roundtrip
    failed and the hits found on the wrong side."""
    mats = np.stack([s.mat for s in F])
    inv_mats = np.stack([np.linalg.inv(s.mat) for s in F])
    scale = W.params[-1] / np.sqrt(t_f)  # r_F / |x|
    good = np.ones(len(x), dtype=bool)
    survives = []
    for side in (1.0 - 1e-9, 1.0 + 1e-9):
        pts = x * (side * scale)[:, None]
        surviving = _contains(W, pts)
        expx = _matrix_exp(pts)
        for k in range(len(F)):
            z = np.einsum("ab,nbc,cd->nad", inv_mats[k], expx, mats[k])
            y, ok = _matrix_log(z)
            ok &= np.linalg.norm(_matrix_exp(y) - z, axis=(1, 2)) <= 1e-8
            good &= ok
            surviving &= _contains(W, y)
        survives.append(surviving)
    misplaced = good & ~(survives[0] & ~survives[1])
    return int(np.count_nonzero(~good)), int(np.count_nonzero(misplaced))


def _matrix_delta_mc(model, F, W, cfg):
    """delta_mc with each batch drawn by one rng.uniform call of the frame
    cube and filtered and summed in the frame as delta_mc does, and every
    hit's survival radius checked through 2x2 matrices
    (``_matrix_radius_check``).  Returns the estimate, the hits whose
    roundtrip failed and the hits whose radius the matrices contradict."""
    h = W.frame_half_width()
    sums = np.zeros(5)
    hits = rejected = misplaced = 0
    for b in range(cfg.samples // cfg.batch):
        rng = np.random.default_rng([cfg.seed, b])
        u = rng.uniform(-h, h, size=(cfg.batch, 3))
        u = u[_frame_inside(W, u)]
        if u.shape[0] == 0:
            continue
        hits += u.shape[0]
        batch_sums, t_f = _rb_sums(model, u, F, W)
        sums += batch_sums
        bad, wrong = _matrix_radius_check(F, W, _x_of_frame(u), t_f)
        rejected += bad
        misplaced += wrong
    if hits and rejected > 0.01 * hits:
        raise _LogRoundTripError(f"{rejected} of {hits} hits failed the log roundtrip")
    den, lost, den2, cross, lost2 = (float(v) for v in sums)
    share = lost / den
    var = max(lost2 - 2.0 * share * cross + share * share * den2, 0.0)
    est = McEstimate(1.0 - share, math.sqrt(var) / den, cfg.samples, cfg.seed, hits)
    return est, rejected, misplaced


def _indicator_delta_mc(F, W, cfg):
    """The survival fraction as delta_mc estimated it before it added each
    ray's radial mass: on the same hits, the 0/1 survival of each weighted by
    nu, with the delta-method stderr of sum 1_S nu / sum nu."""
    radii = np.full(3, W.frame_half_width())
    numer, denom = [], []
    for b in range(cfg.samples // cfg.batch):
        for u in montecarlo._box_blocks(radii, cfg, b):
            pts = _x_of_frame(W._frame_rows_inside(u))
            surviving = np.ones(len(pts), dtype=bool)
            for s in F:
                surviving &= _contains(W, _conjugate(s, pts))
            weights = _sl2_density(pts)
            numer.append(np.where(surviving, weights, 0.0))
            denom.append(weights)
    a, w = np.concatenate(numer), np.concatenate(denom)
    ratio = a.sum() / w.sum()
    stderr = math.sqrt(np.sum((a - ratio * w) ** 2)) / w.sum()
    return McEstimate(ratio, stderr, cfg.samples, cfg.seed, len(w))


@pytest.mark.parametrize("spec", [
    "tube:0.1,0.5", "tube:0.05,0.5", "tube:0.025,0.5", "ball:0.1", "ball:1", "ball:3.2",
])
def test_delta_mc_matches_matrix_path_bit_for_bit(spec):
    # below |x|_F = pi sqrt2 no rotation angle reaches the log's branch point
    model = build_model("sl:2")
    W = Neighborhood.parse(spec)
    for seed, rho in ((0, 2.0), (1, 4.0)):
        F = sample_adjoint_ball_sl2(model, rho, 3, np.random.default_rng([seed, 17]))
        cfg = McConfig(2 * 10 ** 5, seed, 10 ** 5)
        want, rejected, misplaced = _matrix_delta_mc(model, F, W, cfg)
        assert rejected == 0 and misplaced == 0 and want.hits > 0
        assert delta_mc(model, F, W, cfg) == want


@pytest.mark.parametrize("spec", ["ball:5", "ball:30", "tube:4.5,6"])
def test_delta_mc_refuses_where_exp_is_not_injective(spec):
    # sup det x over W is min(W.params)^2 / 2: past pi sqrt2 it reaches pi^2,
    # the rotation angle where the principal log of e^x stops being x.  On
    # ball:5 the matrix path moves the survival radius of rays past that
    # angle, and on ball:30, where e^x reaches cosh(21), it aborts
    model = build_model("sl:2")
    F = sample_adjoint_ball_sl2(model, 2.0, 3, np.random.default_rng(3))
    cfg = McConfig(10 ** 5, 3, 10 ** 5)
    W = Neighborhood.parse(spec)
    if spec == "ball:5":
        assert _matrix_delta_mc(model, F, W, cfg)[2] > 0
    if spec == "ball:30":
        with pytest.raises(_LogRoundTripError):
            _matrix_delta_mc(model, F, W, cfg)
    with pytest.raises(ValueError, match="exceeds pi sqrt2 = 4.442883"):
        delta_mc(model, F, W, cfg)
    # at the bound itself det x < pi^2 still holds on all of W
    edge = Neighborhood(W.kind, tuple(min(v, math.pi * math.sqrt(2.0)) for v in W.params))
    assert delta_mc(model, F, edge, cfg).hits > 0


def test_conjugated_exp_has_the_adjoint_as_its_principal_log():
    # log(s^-1 e^x s) = Ad_{s^-1} x, the identity delta_mc rests on, checked
    # for its frame Ad with scipy's expm and logm on tube and ball points, and
    # on two elliptic points of ball:4.25 at the rotation angle sqrt(det x) =
    # 3.0 (the principal log's branch point is at pi)
    linalg = pytest.importorskip("scipy.linalg")
    model = build_model("sl:2")
    F = sample_adjoint_ball_sl2(model, 4.0, 3, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    b = math.sqrt(9.01)
    for spec, extra in (("tube:0.1,0.5", []), ("ball:1", []),
                        ("ball:4.25", [[0.0, 3.0, -3.0], [0.1, -b, b]])):
        W = Neighborhood.parse(spec)
        h = W.frame_half_width()
        u = W._frame_rows_inside(rng.uniform(-h, h, (1000, 3)))[:30]
        u = np.concatenate([u, _frame(np.reshape(extra, (-1, 3)))])
        assert _contains(W, _x_of_frame(u)).all()
        for s, ad in zip(F, _frame_adjoints(model, F)):
            s_inv = np.linalg.inv(s.mat)
            for mat, v in zip(_frame_matrices(u), u @ ad.T):
                z = s_inv @ linalg.expm(mat) @ s.mat
                want = (model._onb @ v).reshape(2, 2)
                assert np.max(np.abs(linalg.logm(z) - want)) <= 1e-9 * max(1.0, np.abs(want).max())


def test_sl2_density_matches_matrix_density():
    # the closed form (sinh mu / mu)^2 against prod |sinh m_ij / m_ij|^2 over
    # the eigenvalue pairs of the matrix, on both sides of det x = pi^2
    model = build_model("sl:2")
    x_edges = [[0.0, 1.0, 0.0], [1e-7, 0.0, 0.0], [0.0, 1e-7, -1e-7], [0.0, 2.0, -2.0],
               [0.0, math.pi, -math.pi], [3.0, 0.0, 0.0]]
    x = np.concatenate([x_edges, np.random.default_rng(2).uniform(-4.0, 4.0, (10 ** 4, 3))])
    want = np.array([_matrix_density(model.vector(p)) for p in x])
    assert np.all(np.abs(_sl2_density(x) - want) <= 1e-13 * np.maximum(1.0, want))


def test_radial_mass_matches_quadrature():
    # S(z) = M(r)/r^3 against scipy's quad of nu(t theta) t^2 on rays with
    # -det theta = +-1/2 at r = sqrt(2|z|), for both signs of z, on both sides
    # of the series switch at |z| = 1/8 and up to |z| = pi^2 (ball:pi sqrt2)
    integrate = pytest.importorskip("scipy.integrate")
    rays = {1.0: np.array([1.0, 0.0, 0.0]) / math.sqrt(2.0),
            -1.0: np.array([0.0, 1.0, -1.0]) / math.sqrt(2.0)}
    for z in (1e-9, 1e-4, 0.01, 0.1, 0.125 * (1.0 - 1e-12), 0.125 * (1.0 + 1e-12), 0.2, 1.0,
              4.0, math.pi ** 2):
        r = math.sqrt(2.0 * z)
        for sign, theta in rays.items():
            assert -2.0 * _sl2_det(theta[None])[0] == pytest.approx(sign, rel=1e-15)
            mass, _ = integrate.quad(lambda t: _sl2_density((t * theta)[None])[0] * t * t,
                                     0.0, r, epsabs=0.0, epsrel=1e-13, limit=200)
            want = mass / r ** 3
            got = _radial_mass(np.array([sign * z]))[0]
            assert abs(got - want) <= 1e-13 * want, (sign * z, got, want)


def _unblocked_volume_mc(oracle, dim, box_radius, cfg):
    """volume_mc with each batch drawn by one rng.uniform call."""
    radii = np.broadcast_to(np.asarray(box_radius, dtype=float), (dim,))
    hits = 0
    for b in range(cfg.samples // cfg.batch):
        rng = np.random.default_rng([cfg.seed, b])
        hits += int(np.count_nonzero(oracle(rng.uniform(-radii, radii, size=(cfg.batch, dim)))))
    vol_box = float(np.prod(2.0 * radii))
    phat = hits / cfg.samples
    stderr = vol_box * math.sqrt(phat * (1.0 - phat) / cfg.samples)
    return McEstimate(phat * vol_box, stderr, cfg.samples, cfg.seed, hits)


@pytest.mark.parametrize("block", [montecarlo._BLOCK, 7])
@pytest.mark.parametrize("batch", [
    montecarlo._BLOCK // 2, montecarlo._BLOCK, montecarlo._BLOCK + montecarlo._BLOCK // 2 + 1,
])
def test_blocked_draws_match_one_uniform_call(monkeypatch, block, batch):
    monkeypatch.setattr(montecarlo, "_BLOCK", block)
    cfg = McConfig(batch * max(2, -(-10 ** 4 // batch)), 5, batch)
    disc = lambda p: np.sum(p ** 2, axis=1) <= 1.0
    # with unequal per-axis radii a wrong tiling order of the affine map
    # moves points out of the unit ball
    for dim, radius in ((2, [1.0, 0.5]), (3, 1.0), (3, [0.5, 1.5, 1.0])):
        want = _unblocked_volume_mc(disc, dim, radius, cfg)
        assert 0 < want.hits < cfg.samples
        assert volume_mc(disc, dim, radius, cfg) == want
    model = build_model("sl:2")
    F = sample_adjoint_ball_sl2(model, 2.0, 3, np.random.default_rng(8))
    W = Neighborhood("tube", (0.1, 0.5))
    want, rejected, misplaced = _matrix_delta_mc(model, F, W, cfg)
    assert rejected == 0 and misplaced == 0 and want.hits > 0
    assert delta_mc(model, F, W, cfg) == want


def _frame(x):
    """(y, a, b) = (sqrt2 x1, (x2 + x3)/sqrt2, (x2 - x3)/sqrt2), written out."""
    r = math.sqrt(2.0)
    return np.column_stack([r * x[:, 0], (x[:, 1] + x[:, 2]) / r, (x[:, 1] - x[:, 2]) / r])


@pytest.mark.parametrize("spec", ["tube:0.1,0.5", "tube:0.025,0.5", "tube:1,0.5", "ball:1"])
def test_frame_cube_encloses_the_neighbourhood(spec):
    # boundary points of W in x coordinates, drawn without the frame: the
    # sphere |x|_F = R inside the cone condition, the eps-shell
    # 2|det x| = eps^2 inside the sphere, and the points where |b| and |y|
    # reach h; each maps into the cube of half-width h
    W = Neighborhood.parse(spec)
    R, h = W.params[-1], W.frame_half_width()
    rng = np.random.default_rng(21)
    d = rng.standard_normal((20000, 3))
    sphere = R * d / np.sqrt(_sl2_frob2(d))[:, None]
    if W.kind == "ball":
        parts = [sphere]
        extremes = np.array([[R, 0.0, 0.0], [0.0, R, -R]]) / math.sqrt(2.0)
    else:
        eps = W.params[0]
        parts = [sphere[2.0 * np.abs(_sl2_det(sphere)) <= eps * eps]]
        extremes = np.empty((0, 3))
        x23 = rng.uniform(-R, R, (20000, 2))
        for side in (1.0, -1.0):
            x1sq = side * eps * eps / 2.0 - x23[:, 0] * x23[:, 1]
            ok = x1sq >= 0.0
            shell = np.column_stack([np.sqrt(x1sq[ok]), x23[ok]])
            parts.append(shell[_sl2_frob2(shell) <= R * R])
        # on the rim |x|_F = R, 2|det x| = eps^2: |b| = h where x2 = -x3 = h/sqrt2
        # and x1 = (R^2 - eps^2)^(1/2) / 2; y = h where x1 = h/sqrt2 and
        # x2 = -x3 = (R^2 - eps^2)^(1/2) / 2
        if eps < R:
            rim = math.sqrt(R * R - eps * eps)
            extremes = np.array([[rim / 2.0, h / math.sqrt(2.0), -h / math.sqrt(2.0)],
                                 [h / math.sqrt(2.0), rim / 2.0, -rim / 2.0]])
            assert np.allclose(2.0 * np.abs(_sl2_det(extremes)), eps * eps, rtol=1e-12, atol=0.0)
            assert np.allclose(_sl2_frob2(extremes), R * R, rtol=1e-12, atol=0.0)
    pts = np.concatenate(parts + [extremes])
    assert len(pts) > 1000
    u = _frame(pts)
    assert np.max(np.abs(u)) <= h * (1.0 + 1e-12)
    # the cube is tight: the extreme points reach its faces
    assert np.allclose(np.max(np.abs(_frame(extremes)), axis=1), h, rtol=1e-12, atol=0.0)
    # the frame basis of delta_mc inverts the map written out here
    assert np.allclose(_x_of_frame(u), pts, rtol=0.0, atol=1e-15)


def _xbox_delta_mc(F, W, cfg):
    """delta_mc as it drew before the frame cube: uniform in the box
    [-R/sqrt2, R/sqrt2] x [-R, R]^2 of the Frobenius ball in x coordinates,
    with per-hit weight arrays over the whole run."""
    R = W.params[-1]
    radii = np.array([R / math.sqrt(2.0), R, R])
    numer, denom = [], []
    for b in range(cfg.samples // cfg.batch):
        rng = np.random.default_rng([cfg.seed, b])
        pts = rng.uniform(-radii, radii, size=(cfg.batch, 3))
        pts = pts[_contains(W, pts)]
        weights = _sl2_density(pts)
        surviving = np.ones(len(pts), dtype=bool)
        for s in F:
            surviving &= _contains(W, _conjugate(s, pts))
        numer.append(np.where(surviving, weights, 0.0))
        denom.append(weights)
    a, w = np.concatenate(numer), np.concatenate(denom)
    ratio = a.sum() / w.sum()
    return ratio, math.sqrt(np.sum((a - ratio * w) ** 2)) / w.sum()


@pytest.mark.parametrize("spec", ["tube:0.1,0.5", "tube:0.05,0.5", "tube:0.025,0.5", "ball:1"])
def test_frame_cube_agrees_with_the_x_box(spec):
    # the frame-cube draws and the old box of the Frobenius ball estimate the
    # same fraction: a cube that cut into W would move the estimate
    model = build_model("sl:2")
    W = Neighborhood.parse(spec)
    for seed in (0, 1):
        F = sample_adjoint_ball_sl2(model, 2.0, 3, np.random.default_rng([seed, 23]))
        est = delta_mc(model, F, W, McConfig(2 * 10 ** 6, seed, 5 * 10 ** 5))
        mean, stderr = _xbox_delta_mc(F, W, McConfig(2 * 10 ** 6, seed + 100, 5 * 10 ** 5))
        assert abs(est.mean - mean) <= 4.0 * math.hypot(est.stderr, stderr)


# the survival fraction of the suite's delta-mc member (rho = 2, F of seed 11,
# tube:0.05,0.5) by radial quadrature, to about 3e-5 (ROADMAP item 1)
_SUITE_DELTA = 0.68518


def _suite_member():
    model = build_model("sl:2")
    F = sample_adjoint_ball_sl2(model, 2.0, 3, np.random.default_rng(11))
    return model, F, Neighborhood.parse("tube:0.05,0.5")


def test_delta_mc_suite_member_near_quadrature_value():
    model, F, W = _suite_member()
    est = delta_mc(model, F, W, McConfig(10 ** 7, 11, 10 ** 6))
    assert abs(est.mean - _SUITE_DELTA) <= 4.0 * est.stderr + 3e-5


def test_delta_mc_stderr_is_calibrated():
    # the spread of (estimate - delta)/stderr over seeds is that of a unit normal
    model, F, W = _suite_member()
    z = []
    for seed in range(100):
        est = delta_mc(model, F, W, McConfig(250_000, seed, 250_000))
        z.append((est.mean - _SUITE_DELTA) / est.stderr)
    assert 0.8 <= math.sqrt(np.mean(np.square(z))) <= 1.2


@pytest.mark.parametrize("spec", [
    "tube:0.1,0.5", "tube:0.05,0.5", "tube:0.025,0.5", "ball:0.1", "ball:1", "ball:3.2",
])
def test_radial_mass_beats_the_indicator_on_the_same_draws(spec):
    model = build_model("sl:2")
    W = Neighborhood.parse(spec)
    for seed, rho in ((0, 2.0), (1, 4.0)):
        F = sample_adjoint_ball_sl2(model, rho, 3, np.random.default_rng([seed, 17]))
        cfg = McConfig(10 ** 6, seed, 5 * 10 ** 5)
        est, old = delta_mc(model, F, W, cfg), _indicator_delta_mc(F, W, cfg)
        assert est.hits == old.hits > 0
        assert est.stderr < old.stderr
        assert abs(est.mean - old.mean) <= 4.0 * old.stderr


def test_volume_mc_memory_does_not_grow_with_the_batch():
    # one uniform draw of a 10^7 x 2 batch holds 160 MB of points
    cfg = McConfig(10 ** 7, 2)
    tracemalloc.start()
    try:
        est = volume_mc(lambda p: np.sum(p ** 2, axis=1) <= 1.0, 2, 1.0, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(est.mean - math.pi) <= 4.0 * est.stderr
    assert peak < 8 * 2 ** 20


def _sequential_sl2z_count(rho):
    """sl2z_count as a scalar double loop over the top rows (a, b)."""
    t_max = rho + 1.0 / rho
    bound = int(math.isqrt(int(t_max)))
    total = 0
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a * a + b * b > t_max or math.gcd(a, b) != 1:
                continue
            g, u, v = _ext_gcd_local(a, b)
            if g < 0:
                u, v = -u, -v
            d0, c0 = u, -v
            qa = a * a + b * b
            qb = 2.0 * (a * c0 + b * d0)
            qc = a * a + b * b + c0 * c0 + d0 * d0 - t_max
            disc = qb * qb - 4.0 * qa * qc
            if disc < 0:
                continue
            lo = (-qb - math.sqrt(disc)) / (2.0 * qa)
            hi = (-qb + math.sqrt(disc)) / (2.0 * qa)
            for t in range(math.ceil(lo - 1e-12), math.floor(hi + 1e-12) + 1):
                c, d = c0 + t * a, d0 + t * b
                if a * a + b * b + c * c + d * d <= t_max + 1e-9:
                    total += 1
    return total


@pytest.mark.parametrize("rho", [1.0, 1.5, 2.0, 100.0, 999.5, 2500.0, 7321.0, 1e4])
def test_sl2z_count_matches_sequential_oracle(rho):
    assert sl2z_count(rho) == _sequential_sl2z_count(rho)


def _all_rows_sl2z_count(rho):
    """sl2z_count summed over every coprime top row (a, b), without the
    order-8 symmetry: the vectorized formula with a Euclidean extended gcd."""
    k = math.floor(rho + 1.0 / rho + 1e-9)
    bound = math.isqrt(k)
    a, b = np.meshgrid(np.arange(-bound, bound + 1), np.arange(-bound, bound + 1), indexing="ij")
    a, b = a.ravel(), b.ravel()
    q = a * a + b * b
    keep = (q < k) & (np.gcd(a, b) == 1)
    a, b, q = a[keep], b[keep], q[keep]
    # elementwise a u + b v = g = +-gcd(a, b) by the recurrence with floor division
    old_r, r = a.copy(), b.copy()
    old_u, u = np.ones_like(a), np.zeros_like(a)
    old_v, v = np.zeros_like(a), np.ones_like(a)
    while np.any(r):
        live = r != 0
        quo = np.zeros_like(a)
        quo[live] = old_r[live] // r[live]
        old_r, r = np.where(live, r, old_r), np.where(live, old_r - quo * r, r)
        old_u, u = np.where(live, u, old_u), np.where(live, old_u - quo * u, u)
        old_v, v = np.where(live, v, old_v), np.where(live, old_v - quo * v, v)
    # (c0, d0) = sign(g) (-v, u) solves a d0 - b c0 = 1; s = a c0 + b d0
    s = np.where(old_r < 0, -1, 1) * (b * old_u - a * old_v)
    r = np.floor(np.sqrt(q * (k - q) - 1)).astype(np.int64)
    return int(((r - s) // q + (r + s) // q + 1).sum())


def test_sl2z_count_matches_the_all_rows_formula():
    radii = list(range(1, 501)) + np.random.default_rng(24).uniform(1.0, 1e4, 50).tolist()
    for rho in radii:
        assert sl2z_count(rho) == _all_rows_sl2z_count(rho), rho


def _exact_tube_volume(eps, R):
    """Volume of {x in sl(2) : 2|det x| < eps^2, |x|_F < R}: pi/sqrt2 times the
    area of {(s, b) : s >= 0, |s - b^2| < eps^2, s + b^2 < R^2}.  For b >= 0
    the width in s is b^2 + eps^2 up to eps, 2 eps^2 up to
    b1 = sqrt((R^2 - eps^2)/2) and R^2 + eps^2 - 2 b^2 up to
    b2 = sqrt((R^2 + eps^2)/2) (this order needs 3 eps^2 <= R^2)."""
    e2, r2 = eps * eps, R * R
    assert 3.0 * e2 <= r2
    b1, b2 = math.sqrt((r2 - e2) / 2.0), math.sqrt((r2 + e2) / 2.0)
    half = (4.0 / 3.0) * eps ** 3 + 2.0 * e2 * (b1 - eps) + (r2 + e2) * (b2 - b1) \
        - (2.0 / 3.0) * (b2 ** 3 - b1 ** 3)
    return math.pi / math.sqrt(2.0) * 2.0 * half


def test_tube_volume_matches_closed_form():
    for i, (eps, want) in enumerate(((0.1, 0.028452), (0.05, 0.0074837), (0.025, 0.0019172))):
        exact = _exact_tube_volume(eps, 0.5)
        assert exact == pytest.approx(want, rel=1e-4)
        est = _tube_volume_mc(eps, 0.5, McConfig(10 ** 6, 7 + i, 10 ** 6))
        assert abs(est.mean - exact) <= 4.0 * est.stderr
        assert est.hits > 0.85 * est.samples  # the band hugs the tube


@pytest.mark.parametrize("rho", [2.0, 4.0])
@pytest.mark.parametrize("eps", [0.1, 0.05, 0.025])
def test_key_lemma_ratio_within_4_stderr_of_exact(eps, rho):
    exact = _exact_tube_volume(eps, rho * 0.5) / _exact_tube_volume(eps, 0.5)
    for seed in range(5):
        est, _ = key_lemma_ratio(eps, 0.5, rho, McConfig(2 * 10 ** 5, seed, 10 ** 5))
        assert abs(est.mean - exact) <= 4.0 * est.stderr
