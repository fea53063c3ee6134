import math

import numpy as np
import pytest

from ncfourier.groups import build_group
from ncfourier.liealg import GroupMatrix, adjoint_norm, build_model
from ncfourier.montecarlo import (
    SL2Z_LOG_POWER,
    CountSeries,
    LogFailureError,
    McConfig,
    McEstimate,
    Neighborhood,
    _sl2_density,
    _sl2_det,
    _tube_volume_mc,
    delta_lower_bound_check,
    delta_mc,
    delta_mc_finite,
    growth_fit,
    key_lemma_ratio,
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


def test_sl2z_count_fixtures():
    assert sl2z_count(1.000001) == 4
    assert sl2z_count(2.0) == 4
    assert sl2z_count(0.5) == 0
    with pytest.raises(ValueError):
        sl2z_count(10 ** 5)


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
    exact = [r * math.log(r) for r in radii]
    series = growth_fit(CountSeries(radii, exact))
    assert series.fitted_exponent == pytest.approx(1.0, abs=1e-6)
    assert series.fit_residual <= 1e-9
    # model-mismatch control: counts = rho^2 fit with the wrong log correction
    quad = [r ** 2 for r in radii]
    series2 = growth_fit(CountSeries(radii, quad))
    assert series2.fitted_exponent == pytest.approx(2.0, abs=0.2)
    assert series2.fit_residual > 1e-6
    # criterion-12 control: at the SL(2,Z) log power the band [0.85, 1.15]
    # accepts counts 6 rho and rejects the wrong growth law 6 rho log rho
    linear = growth_fit(CountSeries(radii, [6.0 * r for r in radii]),
                        log_power=SL2Z_LOG_POWER)
    assert 0.85 <= linear.fitted_exponent <= 1.15
    with_log = growth_fit(CountSeries(radii, [6.0 * r * math.log(r) for r in radii]),
                          log_power=SL2Z_LOG_POWER)
    assert not 0.85 <= with_log.fitted_exponent <= 1.15


def test_growth_fit_on_real_counts():
    # ground truth from exact enumeration: the count grows linearly in rho
    # (count/rho hovers near 6 across the whole range), so the uncorrected fit
    # sits at ~0.99 while dividing out log(rho) depresses the slope to
    # ~1 - 1/<log rho> ~ 0.84 over this decade-and-a-bit
    radii = [100.0, 250.0, 500.0, 1000.0, 2500.0]
    counts = [sl2z_count(r) for r in radii]
    assert counts[0] == 580
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    for r, c in zip(radii, counts):
        assert 5.5 <= c / r <= 6.5
    uncorrected = growth_fit(CountSeries(radii, counts), log_power=0)
    assert uncorrected.fitted_exponent == pytest.approx(1.0, abs=0.05)
    corrected = growth_fit(CountSeries(radii, counts), log_power=1)
    assert corrected.fitted_exponent == pytest.approx(0.843, abs=0.02)


def test_sl2_log_rejects_branch_point():
    from ncfourier.montecarlo import _sl2_exp_coeffs, _sl2_log_factor

    # rotation by pi has half-trace -1: no principal log
    _, ok = _sl2_log_factor(np.array([-1.0]))
    assert not ok[0]
    # a safe rotation roundtrips through the closed forms exactly
    coords = np.array([0.0, 1.2, -1.2])
    c0, c1 = _sl2_exp_coeffs(np.array([-(1.2 ** 2)]))
    f, ok2 = _sl2_log_factor(c0)
    assert ok2[0]
    assert np.max(np.abs(f * c1 * coords - coords)) <= 1e-12


def test_key_lemma_thick_tube_warns():
    with pytest.warns(UserWarning):
        key_lemma_ratio(0.2, 0.5, 2.0, McConfig(10 ** 4, 1, 10 ** 4))


# ---------------------------------------------------------------------------
# oracles: the matrix exp/log path of delta_mc, the sequential SL(2,Z) count
# and the exact sl(2) tube volume


def _matrix_exp(x):
    """exp of traceless 2x2 batches given by coordinates, as matrices."""
    mu2 = -_sl2_det(x)
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
    out = np.empty((x.shape[0], 2, 2))
    out[:, 0, 0] = c0 + c1 * x[:, 0]
    out[:, 0, 1] = c1 * x[:, 1]
    out[:, 1, 0] = c1 * x[:, 2]
    out[:, 1, 1] = c0 - c1 * x[:, 0]
    return out


def _matrix_log(z):
    """Principal log of det-1 2x2 matrix batches: (coordinates, ok mask)."""
    alpha = 0.5 * (z[:, 0, 0] + z[:, 1, 1])
    ok = alpha > -1.0 + 1e-12
    f = np.ones_like(alpha)
    hi = alpha > 1.0 + 1e-12
    lo = ok & (alpha < 1.0 - 1e-12)
    f[hi] = np.arccosh(alpha[hi]) / np.sqrt(alpha[hi] ** 2 - 1.0)
    f[lo] = np.arccos(alpha[lo]) / np.sqrt(1.0 - alpha[lo] ** 2)
    coords = np.empty((z.shape[0], 3))
    coords[:, 0] = f * 0.5 * (z[:, 0, 0] - z[:, 1, 1])
    coords[:, 1] = f * z[:, 0, 1]
    coords[:, 2] = f * z[:, 1, 0]
    coords[~ok] = 0.0
    return coords, ok


def _matrix_delta_mc(model, F, W, cfg):
    """delta_mc through 2x2 matrices: conjugate e^x by each s, take the
    principal log and check the exp-log roundtrip.  Returns the estimate and
    the number of rejected samples."""
    mats = np.stack([s.mat for s in F])
    inv_mats = np.stack([np.linalg.inv(s.mat) for s in F])
    radii = W.box_radius()
    numer_parts, denom_parts = [], []
    hits = rejected = 0
    for b in range(cfg.samples // cfg.batch):
        rng = np.random.default_rng([cfg.seed, b])
        pts = rng.uniform(-radii, radii, size=(cfg.batch, 3))
        pts = pts[W.contains_sl2(pts)]
        if pts.shape[0] == 0:
            continue
        hits += pts.shape[0]
        weights = _sl2_density(pts)
        good = np.ones(pts.shape[0], dtype=bool)
        surviving = np.ones(pts.shape[0], dtype=bool)
        expx = _matrix_exp(pts)
        for k in range(len(F)):
            z = np.einsum("ab,nbc,cd->nad", inv_mats[k], expx, mats[k])
            y, ok = _matrix_log(z)
            ok &= np.linalg.norm(_matrix_exp(y) - z, axis=(1, 2)) <= 1e-8
            good &= ok
            surviving &= W.contains_sl2(y) & ok
        rejected += int(np.count_nonzero(~good))
        numer_parts.append(np.where(surviving & good, weights, 0.0))
        denom_parts.append(np.where(good, weights, 0.0))
    if hits and rejected > 0.01 * hits:
        raise LogFailureError(f"{rejected} of {hits} samples failed the log roundtrip")
    a = np.concatenate(numer_parts)
    bw = np.concatenate(denom_parts)
    den = float(bw.sum())
    ratio = float(a.sum()) / den
    stderr = math.sqrt(float(np.sum((a - ratio * bw) ** 2))) / den
    return McEstimate(ratio, stderr, cfg.samples, cfg.seed, hits), rejected


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
        want, rejected = _matrix_delta_mc(model, F, W, cfg)
        assert rejected == 0 and want.hits > 0
        assert delta_mc(model, F, W, cfg) == want


def test_delta_mc_at_the_principal_log_branch_point():
    # ball:5 holds elliptic x whose rotation angle is near pi, where the log
    # is ill-conditioned and both paths reject samples; those carry the Haar
    # weight (sin w / w)^2 ~ 0, so the estimates still agree
    model = build_model("sl:2")
    F = sample_adjoint_ball_sl2(model, 2.0, 3, np.random.default_rng(3))
    cfg = McConfig(5 * 10 ** 5, 3, 5 * 10 ** 5)
    W = Neighborhood.parse("ball:5")
    want, rejected = _matrix_delta_mc(model, F, W, cfg)
    assert rejected > 0
    got = delta_mc(model, F, W, cfg)
    assert got.hits == want.hits
    assert got.mean == pytest.approx(want.mean, rel=1e-12)
    assert got.stderr == pytest.approx(want.stderr, rel=1e-12)


def test_delta_mc_aborts_on_log_failures():
    # on ball:30, e^x reaches cosh(21): more than 1% of the roundtrips miss
    # the absolute 1e-8 residual and both paths abort
    model = build_model("sl:2")
    F = sample_adjoint_ball_sl2(model, 2.0, 3, np.random.default_rng(3))
    cfg = McConfig(10 ** 5, 3, 10 ** 5)
    W = Neighborhood.parse("ball:30")
    with pytest.raises(LogFailureError):
        _matrix_delta_mc(model, F, W, cfg)
    with pytest.raises(LogFailureError):
        delta_mc(model, F, W, cfg)


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
