import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from ncfourier import liealg
from ncfourier.liealg import (
    GroupMatrix,
    ad_operator,
    adjoint_norm,
    ball_checks,
    build_model,
    exp_density,
    is_nilpotent_matrix,
    kak_log_profile,
    max_nilpotent_dim,
    nilcone_tube_membership,
    nilpotent_orbit_dim,
    orbit_min_norm,
    random_nilpotent,
    random_special_orthogonal,
    _nilpotent_orbit_dims,
    _random_nilpotent_coords,
)


@pytest.fixture(scope="module")
def sl2():
    return build_model("sl:2")


@pytest.fixture(scope="module")
def sl3():
    return build_model("sl:3")


def test_sl2_structure(sl2):
    assert sl2.dim == 3
    H, E, F = sl2.basis
    assert np.allclose(H, np.diag([1.0, -1.0]))
    # [H, E] = 2E, [H, F] = -2F, [E, F] = H
    assert np.allclose(H @ E - E @ H, 2 * E)
    assert np.allclose(H @ F - F @ H, -2 * F)
    assert np.allclose(E @ F - F @ E, H)


def test_heisenberg_structure():
    h3 = build_model("heisenberg3")
    assert h3.dim == 3
    x, y, z = h3.basis
    assert np.allclose(x @ y - y @ x, z)
    assert np.allclose(x @ z - z @ x, 0.0)
    assert np.allclose(y @ z - z @ y, 0.0)
    assert h3.cartan_involution is None


def test_sl3_jacobi_validated(sl3):
    c = sl3.bracket
    jac = (
        np.einsum("ijm,mkl->ijkl", c, c)
        + np.einsum("jkm,mil->ijkl", c, c)
        + np.einsum("kim,mjl->ijkl", c, c)
    )
    assert np.max(np.abs(jac)) <= 1e-12


def test_unsupported_models():
    for bad in ("sl:1", "sl:6", "so:3"):
        with pytest.raises(ValueError):
            build_model(bad)


def test_ad_operator_fixtures(sl2):
    assert np.allclose(ad_operator(sl2.vector([0, 0, 0])), 0.0)
    adH = ad_operator(sl2.vector([1, 0, 0]))
    assert np.allclose(adH, np.diag([0.0, 2.0, -2.0]))


def test_ad_linear_traceless_spectrum(sl3):
    rng = np.random.default_rng(0)
    for _ in range(10):
        a, b = rng.standard_normal(2)
        x = sl3.vector(rng.standard_normal(8))
        y = sl3.vector(rng.standard_normal(8))
        lhs = ad_operator(sl3.vector(a * x.coords + b * y.coords))
        assert np.allclose(lhs, a * ad_operator(x) + b * ad_operator(y), atol=1e-12)
        assert abs(np.trace(ad_operator(x))) <= 1e-12
        # adjoint-representation spectrum is closed under negation
        mu = np.linalg.eigvals(ad_operator(x))
        dist = np.abs(mu[:, None] + mu[None, :]).min(axis=1)
        assert np.max(dist) <= 1e-8


def test_adjoint_norm_fixtures(sl2):
    assert adjoint_norm(GroupMatrix(sl2, np.eye(2))) == pytest.approx(1.0, abs=1e-12)
    g = GroupMatrix(sl2, np.diag([2.0, 0.5]))
    assert adjoint_norm(g) == pytest.approx(4.0, abs=1e-12)


def test_adjoint_norm_svd_oracle(sl2, sl3):
    rng = np.random.default_rng(1)
    for model in (sl2, sl3):
        n = model.n
        for _ in range(20):
            p = rng.standard_normal((n, n)) * 0.6
            p -= np.trace(p) / n * np.eye(n)
            g = GroupMatrix(model, expm(p))
            sigma = np.linalg.svd(g.mat, compute_uv=False)
            assert adjoint_norm(g) == pytest.approx(sigma[0] / sigma[-1], abs=1e-9)


def test_adjoint_norm_submultiplicative(sl2):
    rng = np.random.default_rng(2)
    for _ in range(30):
        p1, p2 = (rng.standard_normal((2, 2)) for _ in range(2))
        g = GroupMatrix(sl2, expm(p1 - np.trace(p1) / 2 * np.eye(2)))
        h = GroupMatrix(sl2, expm(p2 - np.trace(p2) / 2 * np.eye(2)))
        gh = GroupMatrix(sl2, g.mat @ h.mat)
        assert adjoint_norm(gh) <= adjoint_norm(g) * adjoint_norm(h) * (1 + 1e-9)


def test_ball_checks(sl2):
    rng = np.random.default_rng(3)
    k = random_special_orthogonal(2, rng)
    rep = ball_checks(GroupMatrix(sl2, k), 1.0, rng)
    assert rep["member"] and rep["norm"] == pytest.approx(1.0, abs=1e-9)
    rep = ball_checks(GroupMatrix(sl2, np.diag([2.0, 0.5])), 4.0, rng)
    assert rep["member"]
    assert rep["inversion_gap"] <= 1e-9
    assert rep["k_invariance_gap"] <= 1e-8
    rep = ball_checks(GroupMatrix(sl2, np.diag([3.0, 1.0 / 3.0])), 4.0, rng)
    assert not rep["member"]
    with pytest.raises(ValueError):
        ball_checks(GroupMatrix(sl2, np.eye(2)), 0.5, rng)


def test_kak_profile(sl2, sl3):
    rng = np.random.default_rng(4)
    k = random_special_orthogonal(2, rng)
    h, root = kak_log_profile(GroupMatrix(sl2, k))
    assert np.max(np.abs(h)) <= 1e-9
    g = GroupMatrix(sl2, np.diag([2.0, 0.5]))
    h, root = kak_log_profile(g)
    assert h == pytest.approx([math.log(2), -math.log(2)], abs=1e-12)
    assert root == pytest.approx(math.log(4), abs=1e-12)
    # polygon characterization against the adjoint norm on random SL(3)
    for _ in range(200):
        p = rng.standard_normal((3, 3)) * 0.5
        p -= np.trace(p) / 3 * np.eye(3)
        g = GroupMatrix(sl3, expm(p))
        nrm = adjoint_norm(g)
        _, root = kak_log_profile(g)
        assert math.exp(root) == pytest.approx(nrm, rel=1e-9)


def test_nilpotency_and_orbit_dims(sl2, sl3):
    E = sl2.vector([0, 1, 0])
    assert is_nilpotent_matrix(E.matrix())
    assert nilpotent_orbit_dim(sl2.vector([0, 0, 0])) == 0
    assert nilpotent_orbit_dim(E) == 2
    reg3 = sl3.vector_from_matrix(np.diag([1.0, 1.0], 1))
    assert nilpotent_orbit_dim(reg3) == 6
    with pytest.raises(ValueError):
        nilpotent_orbit_dim(sl2.vector([1, 0, 0]))  # semisimple, not nilpotent


def test_orbit_dim_conjugation_invariant(sl3):
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = random_nilpotent(sl3, rng)
        d = nilpotent_orbit_dim(x)
        assert d % 2 == 0
        p = rng.standard_normal((3, 3)) * 0.4
        p -= np.trace(p) / 3 * np.eye(3)
        g = expm(p)
        moved = sl3.vector_from_matrix(g @ x.matrix() @ np.linalg.inv(g))
        assert nilpotent_orbit_dim(moved) == d


def test_max_nilpotent_dims_and_runtime():
    t0 = time.time()
    expected = {2: 2, 3: 6, 4: 12, 5: 20}
    for n, d in expected.items():
        model = build_model(f"sl:{n}")
        assert max_nilpotent_dim(model, np.random.default_rng(1), samples=200) == d
    assert time.time() - t0 < 5.0
    assert max_nilpotent_dim(build_model("heisenberg3")) is None


def _sequential_orbit_dims(model, rng, samples):
    """The per-sample loop of the nilpotent sweep: one random nilpotent at a
    time (scipy expm of one matrix), its nilpotency test and the rank of ad_x."""
    n = model.n
    dims = []
    for _ in range(samples):
        upper = np.triu(rng.standard_normal((n, n)), 1)
        p = rng.standard_normal((n, n)) * 0.3
        p = p - np.trace(p) / n * np.eye(n)
        g = expm(p)
        x = model.vector_from_matrix(g @ upper @ np.linalg.inv(g))
        mat = x.matrix()
        power = np.linalg.matrix_power(mat / np.linalg.norm(mat, "fro"), n)
        assert np.linalg.norm(power, "fro") <= 1e-9
        sigma = np.linalg.svd(ad_operator(x), compute_uv=False)
        dims.append(int(np.sum(sigma > 1e-8 * sigma[0])))
    return dims


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_batched_sweep_matches_sequential_oracle(n):
    model = build_model(f"sl:{n}")
    for seed in (0, 1, 7):
        want = _sequential_orbit_dims(model, np.random.default_rng(seed), 300)
        got = _nilpotent_orbit_dims(
            model, _random_nilpotent_coords(model, np.random.default_rng(seed), 300)
        )
        assert got.tolist() == want


def test_sweep_chunks_draw_one_stream(monkeypatch):
    monkeypatch.setattr(liealg, "_SWEEP_CHUNK", 7)
    model = build_model("sl:3")
    swept, drawn = np.random.default_rng(5), np.random.default_rng(5)
    assert max_nilpotent_dim(model, swept, samples=20) == 6
    drawn.standard_normal((20, 2, 3, 3))
    assert swept.random() == drawn.random()


def test_sweep_rejects_a_larger_orbit(monkeypatch):
    # the first sampled orbit above the regular dimension is reported
    real = liealg._nilpotent_orbit_dims

    def bumped(model, coords):
        dims = real(model, coords)
        if len(coords) > 1:
            dims[3:] += np.arange(1, len(coords) - 2)
        return dims

    monkeypatch.setattr(liealg, "_nilpotent_orbit_dims", bumped)
    with pytest.raises(AssertionError, match="dimension 7 exceeds the regular value 6"):
        max_nilpotent_dim(build_model("sl:3"), np.random.default_rng(0), samples=10)


def test_exp_density_fixtures(sl2):
    assert exp_density(sl2.vector([0, 0, 0])) == 1.0
    for t in (0.1, 1.0, 2.0):
        nu = exp_density(sl2.vector([t, 0, 0]))
        assert nu == pytest.approx((math.sinh(t) / t) ** 2, abs=1e-10)
    h3 = build_model("heisenberg3")
    rng = np.random.default_rng(6)
    for _ in range(20):
        assert exp_density(h3.vector(rng.standard_normal(3))) == pytest.approx(
            1.0, abs=1e-12
        )


def test_exp_density_series_vs_eigen(sl2, sl3):
    rng = np.random.default_rng(7)
    for model in (sl2, sl3):
        for _ in range(50):
            x = model.vector(rng.standard_normal(model.dim))
            norm_ad = np.linalg.norm(ad_operator(x), 2)
            x = model.vector(x.coords * (2.0 * rng.random() / max(norm_ad, 1e-12)))
            gap = abs(exp_density(x, method="series") - exp_density(x, method="eigen"))
            assert gap <= 1e-8


def test_exp_density_series_divergence_warns(sl2):
    big = sl2.vector([3.0, 0, 0])  # ||ad|| = 6 > pi
    with pytest.warns(RuntimeWarning):
        val = exp_density(big, method="series")
    assert val == pytest.approx(exp_density(big, method="eigen"), abs=1e-10)


def test_exp_density_conjugation_invariance(sl2, sl3):
    rng = np.random.default_rng(8)
    for model in (sl2, sl3):
        n = model.n
        for _ in range(50):
            x = model.vector(rng.standard_normal(model.dim) * 0.7)
            while True:
                p = rng.standard_normal((n, n)) * 0.5
                p -= np.trace(p) / n * np.eye(n)
                g = expm(p)
                if adjoint_norm(GroupMatrix(model, g)) <= 10.0:
                    break
            moved = model.vector_from_matrix(g @ x.matrix() @ np.linalg.inv(g))
            assert exp_density(moved) == pytest.approx(exp_density(x), abs=1e-7)


# ---------------------------------------------------------------------------
# moment-map descent: an independent route to the orbit infimum, kept here as
# the oracle for the closed form of orbit_min_norm


def _norm_descent(mat: np.ndarray, iterations: int) -> tuple[float, bool]:
    """Minimize ||g x g^{-1}||_F by a moment-map flow: step along
    xi = -(y y^T - y^T y) with Armijo backtracking.  Returns (value,
    converged); converged means the flow reached a critical point, stalled,
    or drove the norm to the nilpotent floor."""
    y = mat.copy()
    initial = best = np.linalg.norm(y, "fro")
    step = 0.25
    converged = False
    for _ in range(iterations):
        grad = y @ y.T - y.T @ y
        gn = np.linalg.norm(grad, "fro")
        if gn < 1e-14 * max(best, 1.0):
            converged = True
            break
        xi = -grad / gn
        improved = False
        while step > 1e-14:
            g = expm(step * xi)
            cand = g @ y @ np.linalg.inv(g)
            cn = np.linalg.norm(cand, "fro")
            if cn < best:
                y, best = cand, cn
                improved = True
                step = min(step * 1.5, 2.0)
                break
            step *= 0.5
        if not improved:
            converged = True
            break
    if best <= 1e-10 * max(initial, 1.0):
        converged = True  # orbit closure reaches 0; flow cannot terminate
    return float(best), converged


def descent_oracle(x, starts: int = 20, iterations: int = 400, rng=None) -> tuple[float, bool]:
    """Best descent value from x and from starts - 1 random conjugates of it,
    and whether the run that reached it converged.  Every value is attained
    on the orbit, so it is an upper bound on the infimum."""
    rng = rng or np.random.default_rng(0)
    n = x.model.n
    mat = x.matrix()
    best, converged = _norm_descent(mat, iterations)
    for _ in range(starts - 1):
        p = rng.standard_normal((n, n))
        g = expm(0.4 * (p - np.trace(p) / n * np.eye(n)))
        val, conv = _norm_descent(g @ mat @ np.linalg.inv(g), iterations)
        if val < best:
            best, converged = val, conv
    return best, converged


def test_orbit_min_norm_fixtures(sl2):
    assert orbit_min_norm(sl2.vector([0, 1, 0])) == 0.0  # nilpotent
    assert orbit_min_norm(sl2.vector([1, 0, 0])) == pytest.approx(math.sqrt(2.0))
    J2 = sl2.vector_from_matrix(np.array([[0.0, 2.0], [-2.0, 0.0]]))
    assert orbit_min_norm(J2) == pytest.approx(2.0 * math.sqrt(2.0))


def test_orbit_min_norm_descent_validates_closed_form(sl2):
    rng = np.random.default_rng(9)
    for _ in range(8):
        x = sl2.vector(rng.standard_normal(3))
        cf = orbit_min_norm(x)
        de, _ = descent_oracle(x, starts=20, iterations=300, rng=rng)
        assert abs(de - cf) <= 1e-4
    # nilpotent: descent must drive the norm to (near) zero
    de0, _ = descent_oracle(sl2.vector([0, 1, 0]), starts=5, iterations=400, rng=rng)
    assert de0 <= 1e-4


@pytest.mark.parametrize("name", ["sl:2", "sl:3", "sl:4"])
def test_orbit_min_norm_below_converged_descent(name):
    model = build_model(name)
    rng = np.random.default_rng(23)
    for _ in range(6):
        x = model.vector(rng.standard_normal(model.dim))
        value = orbit_min_norm(x)
        de, converged = descent_oracle(x, starts=3, rng=rng)
        assert converged
        # the oracle bounds the infimum from above; both sides are rounded,
        # so the lower end allows rounding (measured down to -3.4e-15)
        assert -1e-13 <= (de - value) / value <= 1e-10


def test_orbit_min_norm_conjugation_and_sign_invariant(sl2, sl3):
    rng = np.random.default_rng(24)
    for model in (sl2, sl3, build_model("sl:4")):
        n = model.n
        for _ in range(20):
            x = model.vector(rng.standard_normal(model.dim))
            while True:
                p = rng.standard_normal((n, n)) * 0.5
                g = expm(p - np.trace(p) / n * np.eye(n))
                if adjoint_norm(GroupMatrix(model, g)) <= 10.0:
                    break
            moved = model.vector_from_matrix(g @ x.matrix() @ np.linalg.inv(g))
            value = orbit_min_norm(x)
            assert orbit_min_norm(moved) == pytest.approx(value, rel=1e-9)
            assert orbit_min_norm(model.vector(-x.coords)) == pytest.approx(value, rel=1e-12)


def test_orbit_min_norm_needs_sl_model():
    h3 = build_model("heisenberg3")
    with pytest.raises(ValueError):
        orbit_min_norm(h3.vector([1.0, 2.0, 0.5]))
    with pytest.raises(ValueError):
        nilcone_tube_membership(h3.vector([0.1, 0.0, 0.0]), 0.5, 1.0)


def test_tube_membership(sl2):
    assert nilcone_tube_membership(sl2.vector([0, 0, 0]), 0.5, 0.5)
    E = sl2.vector([0, 1, 0])
    assert nilcone_tube_membership(E, 0.01, 2.0)
    assert not nilcone_tube_membership(sl2.vector([1, 0, 0]), 1.0, 2.0)
    rng = np.random.default_rng(10)
    for _ in range(40):
        x = sl2.vector(rng.standard_normal(3) * 0.4)
        forward = nilcone_tube_membership(x, 0.2, 0.6)
        mirrored = nilcone_tube_membership(sl2.vector(-x.coords), 0.2, 0.6)
        assert forward == mirrored


def test_group_matrix_validation(sl2):
    with pytest.raises(ValueError):
        GroupMatrix(sl2, np.diag([2.0, 1.0]))  # det != 1
    h3 = build_model("heisenberg3")
    m = np.eye(3)
    m[0, 1] = 2.5
    GroupMatrix(h3, m)  # unit upper-triangular passes
    with pytest.raises(ValueError):
        GroupMatrix(h3, np.diag([2.0, 1.0, 0.5]))


def test_descent_oracle_reports_non_convergence(sl2):
    # a two-iteration budget on a generic point cannot reach the critical set
    x = sl2.vector([0.9, 1.7, -0.4])
    _, converged = descent_oracle(x, starts=2, iterations=2)
    assert not converged
