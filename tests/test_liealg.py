import dataclasses
import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from ncfourier import liealg
from ncfourier.liealg import (
    GroupMatrix,
    ad_operator,
    adjoint_norm,
    build_model,
    exp_density,
    is_nilpotent_matrix,
    max_nilpotent_dim,
    nilpotent_orbit_dim,
    orbit_min_norm,
    random_special_orthogonal,
    _matrix_density,
    _nilpotent_orbit_dims,
)
from ncfourier.montecarlo import _FRAME, Neighborhood


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
    assert not h3.is_sl()


def test_sl3_jacobi_validated(sl3):
    c = sl3.bracket
    jac = (
        np.einsum("ijm,mkl->ijkl", c, c)
        + np.einsum("jkm,mil->ijkl", c, c)
        + np.einsum("kim,mjl->ijkl", c, c)
    )
    assert np.max(np.abs(jac)) <= 1e-12


def _bracket_by_pairs(model):
    """The structure constants from one commutator per basis pair."""
    out = np.zeros((model.dim,) * 3)
    for i, bi in enumerate(model.basis):
        for j, bj in enumerate(model.basis):
            out[i, j] = model._pinv @ (bi @ bj - bj @ bi).ravel()
    return out


@pytest.mark.parametrize("name", ["sl:2", "sl:3", "sl:4", "sl:5", "heisenberg3"])
def test_bracket_matches_the_pair_loop(name):
    model = build_model(name)
    assert np.array_equal(model.bracket, _bracket_by_pairs(model))


@pytest.mark.parametrize("name", ["sl:3", "sl:5", "heisenberg3"])
def test_validate_model_rejects_a_broken_bracket(name):
    model = build_model(name)
    c = model.bracket.copy()
    # an antisymmetric change that breaks Jacobi: [b_0, b_2] gains 1e-9 b_0
    c[0, 2, 0] += 1e-9
    c[2, 0, 0] -= 1e-9
    with pytest.raises(AssertionError, match="Jacobi identity fails"):
        liealg._validate_model(dataclasses.replace(model, bracket=c))
    c[2, 0, 0] += 2e-9
    with pytest.raises(AssertionError, match="not antisymmetric"):
        liealg._validate_model(dataclasses.replace(model, bracket=c))
    # a non-finite constant fails the antisymmetry test, and with it Jacobi
    for bad in (np.nan, np.inf):
        c = model.bracket.copy()
        c[0, 2, 0] = bad
        with pytest.raises(AssertionError, match="not antisymmetric"):
            liealg._validate_model(dataclasses.replace(model, bracket=c))


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


def test_ball_checks(sl2, sl3):
    # the adjoint norm that defines the ball is invariant under inversion and
    # K-bi-invariant, and 1 exactly on K
    rng = np.random.default_rng(3)
    k = random_special_orthogonal(2, rng)
    assert adjoint_norm(GroupMatrix(sl2, k)) == pytest.approx(1.0, abs=1e-9)
    for model in (sl2, sl3):
        n = model.n
        for _ in range(10):
            p = rng.standard_normal((n, n)) * 0.6
            g = expm(p - np.trace(p) / n * np.eye(n))
            nrm = adjoint_norm(GroupMatrix(model, g))
            inverse = adjoint_norm(GroupMatrix(model, np.linalg.inv(g)))
            assert abs(inverse - nrm) <= 1e-9 * nrm
            for _ in range(8):
                k1 = random_special_orthogonal(n, rng)
                k2 = random_special_orthogonal(n, rng)
                moved = adjoint_norm(GroupMatrix(model, k1 @ g @ k2))
                assert abs(moved - nrm) <= 1e-8 * nrm


def test_kak_profile(sl2, sl3):
    # ||Ad_g|| = exp(h_max - h_min) for the KAK middle factor diag(e^h):
    # sigma_1 / sigma_n of g
    rng = np.random.default_rng(4)
    k = random_special_orthogonal(2, rng)
    assert np.linalg.svd(k, compute_uv=False) == pytest.approx([1.0, 1.0], abs=1e-12)
    assert adjoint_norm(GroupMatrix(sl2, np.diag([2.0, 0.5]))) == pytest.approx(4.0, abs=1e-12)
    for _ in range(200):
        p = rng.standard_normal((3, 3)) * 0.5
        p -= np.trace(p) / 3 * np.eye(3)
        g = GroupMatrix(sl3, expm(p))
        h = np.log(np.linalg.svd(g.mat, compute_uv=False))
        assert adjoint_norm(g) == pytest.approx(math.exp(h[0] - h[-1]), rel=1e-9)


def test_nilpotency_and_orbit_dims(sl2, sl3):
    E = sl2.vector([0, 1, 0])
    assert is_nilpotent_matrix(E.matrix())
    assert nilpotent_orbit_dim(sl2.vector([0, 0, 0])) == 0
    assert nilpotent_orbit_dim(E) == 2
    reg3 = sl3.vector_from_matrix(np.diag([1.0, 1.0], 1))
    assert nilpotent_orbit_dim(reg3) == 6
    with pytest.raises(ValueError):
        nilpotent_orbit_dim(sl2.vector([1, 0, 0]))  # semisimple, not nilpotent


def _partitions_by_scan(n):
    """The partitions of n in reverse lexicographic order, by a scan of the
    non-increasing tuples of every length."""
    tuples = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(n, 0, -1), k) for k in range(1, n + 1))
    return sorted((t for t in tuples if sum(t) == n), reverse=True)


def _jordan(parts):
    """Block-diagonal nilpotent Jordan matrix, one block per part."""
    return block_diag(*[np.eye(k, k, 1) for k in parts])


def _formula_dim(parts):
    """n^2 - sum_k (lambda^T_k)^2, lambda^T_k the number of parts >= k."""
    n = sum(parts)
    return n * n - sum(sum(1 for p in parts if p >= k) ** 2 for k in range(1, n + 1))


def _rotated_jordan(model, rng, count):
    """Sample i: J_lambda for the partition of index i mod p(n), conjugated by
    the Haar O(n) draw of its own n^2 normals, one sample at a time."""
    parts = _partitions_by_scan(model.n)
    out = []
    for i in range(count):
        q = _one_orthogonal(rng.standard_normal((model.n, model.n)))
        out.append((parts[i % len(parts)], q @ _jordan(parts[i % len(parts)]) @ q.T))
    return out


@pytest.mark.parametrize("n, dims", [
    (2, [2, 0]), (3, [6, 4, 0]), (4, [12, 10, 8, 6, 0]), (5, [20, 18, 16, 14, 12, 8, 0])])
def test_partition_orbit_dims_are_pinned(n, dims):
    model = build_model(f"sl:{n}")
    parts = _partitions_by_scan(n)
    assert liealg._partitions(n) == parts
    assert [_formula_dim(p) for p in parts] == dims
    assert [nilpotent_orbit_dim(model.vector_from_matrix(_jordan(p))) for p in parts] == dims


def test_orbit_dim_conjugation_invariant(sl3):
    rng = np.random.default_rng(5)
    for parts, mat in _rotated_jordan(sl3, rng, 25):
        x = sl3.vector_from_matrix(mat)
        d = nilpotent_orbit_dim(x)
        assert d == _formula_dim(parts) and d % 2 == 0
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


def _recording_reader(monkeypatch):
    """Patch the sweep's power-rank reader to record each (mats, ranks) call."""
    calls, real = [], liealg._power_ranks

    def record(mats):
        ranks = real(mats)
        calls.append((mats.copy(), ranks.copy()))
        return ranks

    monkeypatch.setattr(liealg, "_power_ranks", record)
    return calls


def _sequential_power_ranks(mat):
    """rank(x^k), k = 1 .. n - 1, one matrix and one power at a time."""
    n = len(mat)
    top = np.linalg.svd(mat, compute_uv=False)[0]
    return [int(np.sum(np.linalg.svd(np.linalg.matrix_power(mat, k), compute_uv=False)
                       > 1e-8 * top ** k)) for k in range(1, n)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_batched_sweep_matches_sequential_oracle(n, monkeypatch):
    model = build_model(f"sl:{n}")
    calls = _recording_reader(monkeypatch)
    for seed in (0, 1, 7):
        calls.clear()
        assert max_nilpotent_dim(model, np.random.default_rng(seed), 300) == n * (n - 1)
        mats = np.concatenate([m for m, _ in calls])
        ranks = np.concatenate([r for _, r in calls])
        for i, (parts, want) in enumerate(_rotated_jordan(model, np.random.default_rng(seed), 300)):
            assert np.abs(mats[i] - want).max() <= 1e-12
            assert ranks[i].tolist() == _sequential_power_ranks(want)
            # the rank of ad_x on the same sample agrees with the partition
            sigma = np.linalg.svd(ad_operator(model.vector_from_matrix(want)), compute_uv=False)
            assert int(np.sum(sigma > 1e-8 * sigma[0])) == _formula_dim(parts)


def _one_orthogonal(normals):
    """The Haar O(n) draw of one Gaussian matrix: the QR factor with
    diag(R) > 0."""
    q, r = np.linalg.qr(normals)
    return q * np.sign(np.diag(r))


def _one_rotation(normals):
    """The Haar rotation of one Gaussian matrix: its O(n) draw, the first
    column negated if det = -1."""
    q = _one_orthogonal(normals)
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_orthogonal_stack_matches_one_at_a_time():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5):
        normals = rng.standard_normal((50, n, n))
        stacked = liealg._orthogonal(normals)
        dets = np.linalg.det(stacked)
        for q, a in zip(stacked, normals):
            assert np.abs(q - _one_orthogonal(a)).max() <= 1e-14
            assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-14
        assert np.abs(np.abs(dets) - 1.0).max() <= 1e-12
        # both signs of det occur: the sweep draws from O(n), not SO(n)
        assert dets.min() < 0 < dets.max()
        # a rotation is the old draw of random_special_orthogonal, bit for bit
        got = random_special_orthogonal(n, np.random.default_rng(n))
        assert np.array_equal(got, _one_rotation(np.random.default_rng(n).standard_normal((n, n))))
        assert np.linalg.det(got) == pytest.approx(1.0, abs=1e-12)


def test_sweep_chunks_draw_one_stream(monkeypatch):
    # n^2 normals per sample, the samples of one chunk for any chunk size
    model = build_model("sl:3")
    calls = _recording_reader(monkeypatch)
    assert max_nilpotent_dim(model, np.random.default_rng(5), samples=20) == 6
    whole = calls[0][0]
    monkeypatch.setattr(liealg, "_SWEEP_CHUNK", 7)
    calls.clear()
    swept, drawn = np.random.default_rng(5), np.random.default_rng(5)
    assert max_nilpotent_dim(model, swept, samples=20) == 6
    assert [len(m) for m, _ in calls] == [7, 7, 6]
    assert np.array_equal(np.concatenate([m for m, _ in calls]), whole)
    drawn.standard_normal((20, 3, 3))
    assert swept.random() == drawn.random()


def test_sweep_rejects_a_larger_orbit(monkeypatch):
    # from sample 3 on, the reader returns the regular ranks 2, 1: sample 3
    # is regular and reads right, sample 4, of partition (2, 1), reads the
    # regular orbit and is the one reported
    real = liealg._power_ranks

    def bumped(mats):
        ranks = real(mats)
        ranks[3:] = [2, 1]
        return ranks

    monkeypatch.setattr(liealg, "_power_ranks", bumped)
    with pytest.raises(AssertionError, match=r"sweep sample 4 of partition \(2, 1\): nilpotent "
                       r"True, lambda\^T read as \[1, 1, 1\], orbit dimension 6 against 4"):
        max_nilpotent_dim(build_model("sl:3"), np.random.default_rng(0), samples=10)


# planted faults: each one must make max_nilpotent_dim raise, and orbit-dim
# with it


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sweep_of_zeros_fails(n, monkeypatch):
    # every rotation 0, so every sweep sample is the zero matrix
    monkeypatch.setattr(liealg, "_orthogonal", lambda normals: np.zeros_like(normals))
    with pytest.raises(AssertionError, match=rf"sweep sample 0 of partition \({n},\): .* "
                       rf"orbit dimension 0 against {n * (n - 1)}"):
        max_nilpotent_dim(build_model(f"sl:{n}"), np.random.default_rng(0), samples=50)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_representative_with_a_bumped_ad_rank_fails(n, monkeypatch):
    real = liealg._nilpotent_orbit_dims
    model = build_model(f"sl:{n}")
    for j, parts in enumerate(_partitions_by_scan(n)):
        def bumped(m, coords, j=j):
            dims = real(m, coords)
            dims[j] += 2
            return dims

        monkeypatch.setattr(liealg, "_nilpotent_orbit_dims", bumped)
        with pytest.raises(AssertionError, match=rf"partition {re.escape(str(parts))}: rank of ad "
                           rf"{_formula_dim(parts) + 2}, formula {_formula_dim(parts)}"):
            max_nilpotent_dim(model, np.random.default_rng(0), samples=50)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_power_rank_reader_off_by_one_on_one_sample_fails(n, monkeypatch):
    # the second sample of each partition, each rank r_k = rank(J_lambda^k),
    # one up and one down: every such reading fails, also the ones that keep
    # the orbit dimension (r_1 of (2, 1) read as 2 gives lambda^T = (1, 2))
    real = liealg._power_ranks
    model = build_model(f"sl:{n}")
    parts = _partitions_by_scan(n)
    planted = 0
    for i, k, step in itertools.product(range(len(parts)), range(1, n), (1, -1)):
        if not 0 <= sum(max(p - k, 0) for p in parts[i]) + step <= n:
            continue
        sample = len(parts) + i

        def off(mats, sample=sample, k=k, step=step):
            ranks = real(mats)
            ranks[sample, k - 1] += step
            return ranks

        monkeypatch.setattr(liealg, "_power_ranks", off)
        with pytest.raises(AssertionError, match=rf"sweep sample {sample} of partition "):
            max_nilpotent_dim(model, np.random.default_rng(0), samples=3 * len(parts))
        planted += 1
    assert planted == {2: 3, 3: 9, 4: 22, 5: 41}[n]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sweep_of_scaled_rotations_fails(n, monkeypatch):
    # each rotation 1.001 q, so x^k (x^k)^T is 1.001^(4k) times a projection;
    # the SVD oracle reads every rank as for q J q^T, so only the projection
    # test sees the fault
    real = liealg._orthogonal
    monkeypatch.setattr(liealg, "_orthogonal", lambda normals: 1.001 * real(normals))
    with pytest.raises(AssertionError, match=rf"sweep sample 0 of partition \({n},\): nilpotent "
                       rf"True, lambda\^T unread, orbit dimension unread against {n * (n - 1)}; "
                       rf"x\^k is not a partial isometry for k in {re.escape(str(list(range(1, n))))}$"):
        max_nilpotent_dim(build_model(f"sl:{n}"), np.random.default_rng(0), samples=50)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_power_ranks_refuse_powers_that_are_no_partial_isometry(n):
    # J_lambda reads its ranks; 2 J_lambda reads -1 on every nonzero power
    # and 0 on the zero ones, which are partial isometries; a rotated sample
    # scaled by 1.001 reads -1 where the SVD oracle reads the J_lambda ranks
    rng = np.random.default_rng(n)
    for parts in _partitions_by_scan(n):
        jordan = _jordan(parts)
        ranks = [sum(max(p - k, 0) for p in parts) for k in range(1, n)]
        refused = [-1 if r else 0 for r in ranks]
        scaled = jordan[None] * np.array([1.0, 2.0])[:, None, None]
        assert liealg._power_ranks(scaled).tolist() == [ranks, refused]
        q = _one_rotation(rng.standard_normal((n, n)))
        near = 1.001 * (q @ jordan @ q.T)
        assert _sequential_power_ranks(near) == ranks
        assert liealg._power_ranks(near[None])[0].tolist() == refused


def test_power_ranks_peak_memory():
    # one call on the largest sweep chunk of sl:5 holds at most six
    # (S, n, n) stacks at once: it keeps one power, not the n - 1 of them
    rng = np.random.default_rng(2)
    parts = _partitions_by_scan(5)
    jordans = np.stack([_jordan(parts[i % len(parts)]) for i in range(liealg._SWEEP_CHUNK)])
    q = liealg._orthogonal(rng.standard_normal(jordans.shape))
    mats = q @ jordans @ np.swapaxes(q, 1, 2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ranks = liealg._power_ranks(mats)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert ranks.shape == (len(mats), 4) and ranks.min() >= 0
    assert peak <= 6 * mats.nbytes


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


def _series_density(x, terms=24):
    """nu(x) = |det Phi_x| from the power series
    Phi_x = Id - ad/2! + ad^2/3! - ..., truncated after ``terms`` terms; an
    oracle where ||ad_x|| <= 2, whose next term is then below 2^24 / 25!."""
    ad = ad_operator(x)
    term = np.eye(x.model.dim)
    phi = np.eye(x.model.dim)
    for k in range(1, terms):
        term = term @ (-ad) / (k + 1.0)
        phi = phi + term
    return abs(float(np.linalg.det(phi)))


def test_exp_density_series_vs_eigen(sl2, sl3):
    rng = np.random.default_rng(7)
    for model in (sl2, sl3):
        for _ in range(50):
            x = model.vector(rng.standard_normal(model.dim))
            norm_ad = np.linalg.norm(ad_operator(x), 2)
            x = model.vector(x.coords * (2.0 * rng.random() / max(norm_ad, 1e-12)))
            series = _series_density(x)
            assert abs(series - exp_density(x)) <= 1e-8
            assert abs(series - _matrix_density(x)) <= 1e-8


@pytest.mark.parametrize("name", ["sl:2", "sl:3", "sl:4", "sl:5", "heisenberg3"])
def test_matrix_density_matches_exp_density(name):
    # the tolerance of the density command, on norms from 1e-4 to 200: far
    # past ||ad_x|| <= pi, where a truncated series would serve, up to overflow
    model = build_model(name)
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(300):
        coords = rng.standard_normal(model.dim)
        x = model.vector(coords * 10.0 ** rng.uniform(-4.0, math.log10(200.0))
                         / np.linalg.norm(coords))
        with np.errstate(over="ignore", invalid="ignore"):
            nu = exp_density(x)
        if not math.isfinite(nu):
            continue
        tol = 1e-10 * max(1.0, nu) * max(1.0, np.linalg.norm(ad_operator(x), 2))
        assert abs(nu - _matrix_density(x)) <= tol
        checked += 1
    assert checked >= 250


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


def test_tube_membership(sl2):
    # Neighborhood("tube") keeps the frame rows u of x = sum_k u_k _FRAME[k]
    # with inf_g ||Ad_g x|| = sqrt(2 |det x|) = sqrt|y^2 + a^2 - b^2| < eps and
    # ||x||_F = |u| < R; the orbit_min_norm of each point is its oracle
    def contains(tube, u):
        return len(tube._frame_rows_inside(np.array([u], dtype=float))) == 1

    assert contains(Neighborhood("tube", (0.5, 0.5)), [0, 0, 0])
    assert contains(Neighborhood("tube", (0.01, 2.0)), [0, 1, 1])  # sqrt2 E_12
    assert not contains(Neighborhood("tube", (1.0, 2.0)), [1, 0, 0])  # orbit min norm 1
    assert not contains(Neighborhood("tube", (1.5, 1.0)), [0, 0, 1])  # ||x||_F = 1
    tube = Neighborhood("tube", (0.2, 0.6))
    rng = np.random.default_rng(10)
    pts = rng.standard_normal((40, 3)) * 0.4
    want = []
    for u in pts:
        x = sl2.vector_from_matrix(np.tensordot(u, _FRAME, 1))
        want.append(orbit_min_norm(x) < 0.2 and np.linalg.norm(x.matrix()) < 0.6)
    assert np.array_equal(tube._frame_rows_inside(pts), pts[want])
    assert np.array_equal(tube._frame_rows_inside(-pts), -pts[want])
    assert 0 < sum(want) < len(pts)
    # a neighbourhood checks its own kind and arity
    for kind, params in (("tube", (0.1,)), ("box", (1.0,)), ("ball", (1.0, 2.0))):
        with pytest.raises(ValueError, match="expected ball:r or tube:eps,R"):
            Neighborhood(kind, params)


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
