"""Monte Carlo volume and conjugation-survival estimation, plus exact
SL(2,Z) lattice-point counting with growth-exponent fitting.

Sampling is batched and deterministically seeded: batch b of a run with seed
s draws from default_rng([s, b]), so results are bit-identical across reruns
with the same seed, sample count and batch size (a different batch size
draws different points).  The sl(2) paths are closed-form and vectorized: the
tube volumes of the key lemma are sampled in the sheared plane that encloses
the tube, not in its bounding box, and conjugation acts on coordinates
through the 3x3 matrix of Ad, with exp and log as the two coefficients of
e^X = c0 I + c1 X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, GroupSubset
from .liealg import GroupMatrix, LieModel, build_model, random_special_orthogonal

__all__ = [
    "McConfig",
    "McEstimate",
    "CountSeries",
    "Neighborhood",
    "volume_mc",
    "key_lemma_ratio",
    "delta_mc",
    "delta_mc_finite",
    "sample_adjoint_ball_sl2",
    "delta_lower_bound_check",
    "sl2z_count",
    "SL2Z_LOG_POWER",
    "growth_fit",
]


@dataclass(frozen=True)
class McConfig:
    samples: int
    seed: int
    batch: int = 0  # 0: one batch of everything

    def __post_init__(self):
        if self.samples < 10 ** 4:
            raise ValueError("need at least 10^4 samples")
        if self.batch < 0:
            raise ValueError(f"batch size must be >= 0 (0: one batch), got {self.batch}")
        batch = self.batch or self.samples
        if self.samples % batch != 0:
            raise ValueError("batch size must divide the sample count")
        object.__setattr__(self, "batch", batch)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int
    hits: int


@dataclass
class CountSeries:
    radii: list[float]
    counts: list[int]
    fitted_exponent: float = math.nan
    fit_residual: float = math.nan


def volume_mc(oracle, dim: int, box_radius, cfg: McConfig) -> McEstimate:
    """Rejection-sampling volume of {x : oracle(x)} inside the box
    prod [-r_i, r_i] (``box_radius`` scalar or per-axis).

    ``oracle`` takes a (batch, dim) array and returns a boolean mask.  Zero
    hits give mean 0 with the zero-information stderr vol/samples (flagged by
    hits == 0).
    """
    radii = np.broadcast_to(np.asarray(box_radius, dtype=float), (dim,))
    vol_box = float(np.prod(2.0 * radii))
    hits = 0
    for b in range(cfg.samples // cfg.batch):
        rng = np.random.default_rng([cfg.seed, b])
        pts = rng.uniform(-radii, radii, size=(cfg.batch, dim))
        hits += int(np.count_nonzero(oracle(pts)))
    phat = hits / cfg.samples
    stderr = vol_box * math.sqrt(phat * (1.0 - phat) / cfg.samples)
    if hits == 0:
        stderr = vol_box / cfg.samples
    return McEstimate(phat * vol_box, stderr, cfg.samples, cfg.seed, hits)


# ---------------------------------------------------------------------------
# sl(2) closed forms, vectorized over sample batches
#
# coordinates (x1, x2, x3) <-> [[x1, x2], [x3, -x1]];  |x|_F^2 = 2 x1^2 + x2^2
# + x3^2, det = -x1^2 - x2 x3, orbit min norm = sqrt(2 |det|).


def _sl2_frob2(x: np.ndarray) -> np.ndarray:
    return 2.0 * x[:, 0] ** 2 + x[:, 1] ** 2 + x[:, 2] ** 2


def _sl2_det(x: np.ndarray) -> np.ndarray:
    return -(x[:, 0] ** 2) - x[:, 1] * x[:, 2]


def _sl2_exp_coeffs(mu2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c0, c1) with exp(X) = c0 I + c1 X for traceless 2x2 X, where
    X^2 = mu2 I (mu2 = -det X)."""
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


def _sl2_log_factor(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal log of det-1 2x2 matrices z = alpha I + B, B traceless:
    log z = f(alpha) B.  Returns (f, ok mask).

    f = arccosh(alpha)/sqrt(alpha^2-1) (alpha > 1), arccos(alpha)/sqrt(1-alpha^2)
    (|alpha| < 1), 1 at alpha = 1.  alpha <= -1 has no principal log (ok False).
    """
    ok = alpha > -1.0 + 1e-12
    f = np.ones_like(alpha)
    hi = alpha > 1.0 + 1e-12
    lo = ok & (alpha < 1.0 - 1e-12)
    f[hi] = np.arccosh(alpha[hi]) / np.sqrt(alpha[hi] ** 2 - 1.0)
    f[lo] = np.arccos(alpha[lo]) / np.sqrt(1.0 - alpha[lo] ** 2)
    return f, ok


def _sl2_conjugation(s: np.ndarray) -> np.ndarray:
    """The 3x3 matrix of x -> s^{-1} x s = Ad_{s^{-1}} x on sl(2) coordinates."""
    s_inv = np.linalg.inv(s)
    cols = []
    for x in ([[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]):
        m = s_inv @ np.array(x) @ s
        cols.append([0.5 * (m[0, 0] - m[1, 1]), m[0, 1], m[1, 0]])
    return np.array(cols).T


def _sl2_density(x: np.ndarray) -> np.ndarray:
    """Haar density nu in exponential coordinates: (sinh mu / mu)^2 with
    mu^2 = x1^2 + x2 x3 (trigonometric for negative mu^2)."""
    mu2 = -_sl2_det(x)
    out = np.empty_like(mu2)
    pos = mu2 > 1e-12
    neg = mu2 < -1e-12
    mid = ~(pos | neg)
    w = np.sqrt(np.abs(mu2))
    out[pos] = (np.sinh(w[pos]) / w[pos]) ** 2
    out[neg] = (np.sin(w[neg]) / w[neg]) ** 2
    out[mid] = 1.0 + mu2[mid] / 3.0
    return out


@dataclass(frozen=True)
class Neighborhood:
    """Symmetric neighbourhood of 0 in the algebra: a Frobenius ball
    (``ball:r``) or the nilpotent-cone tube (``tube:eps,R``)."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in self.params):
            raise ValueError(f"{self.kind} parameters must be positive and finite")

    @staticmethod
    def parse(spec: str) -> "Neighborhood":
        kind, _, rest = spec.partition(":")
        params = tuple(float(tok) for tok in rest.split(",") if tok)
        if kind == "ball" and len(params) == 1:
            return Neighborhood("ball", params)
        if kind == "tube" and len(params) == 2:
            return Neighborhood("tube", params)
        raise ValueError(f"bad neighbourhood spec {spec!r}")

    def box_radius(self) -> np.ndarray:
        r = self.params[-1]
        return np.array([r / math.sqrt(2.0), r, r])

    def contains_sl2(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "ball":
            return _sl2_frob2(x) < self.params[0] ** 2
        eps, radius = self.params
        min_orbit2 = 2.0 * np.abs(_sl2_det(x))
        return (min_orbit2 < eps ** 2) & (_sl2_frob2(x) < radius ** 2)


class LogFailureError(RuntimeError):
    """More than 1% of the conjugated samples failed the matrix-log roundtrip."""


def delta_mc(
    model: LieModel, F: list[GroupMatrix], W: Neighborhood, cfg: McConfig
) -> McEstimate:
    """Survival fraction of V = exp(W) under conjugation by every element of F.

    Ratio-of-integrals estimator with shared samples and the exponential-
    coordinates Haar density as importance weight:

        delta = int_W 1[for all s: log(s^{-1} e^x s) in W] nu(x) dx / int_W nu(x) dx.

    Points are drawn uniformly from W's bounding box and kept inside W.  The
    conjugates act on coordinates: e^x = c0 I + c1 x, so s^{-1} e^x s is
    c0 I + c1 Ad_{s^{-1}} x, whose principal log is f(c0) c1 Ad_{s^{-1}} x
    with one factor f(c0) for every conjugator.  Each log is validated by its
    exp-log roundtrip residual

        sqrt(2 (c0' - c0)^2 + (c1' f c1 - c1)^2 |Ad_{s^{-1}} x|_F^2) <= 1e-8,

    with (c0', c1') the exp coefficients of the log; failing samples are
    rejected and counted, and more than 1% failures aborts.  Note the
    numerator intersects with W itself, i.e. this estimates the survival
    fraction of V, a lower bound for the intersection over F alone (they agree
    when the identity is in F).
    """
    if model.name != "sl:2":
        raise NotImplementedError("vectorized sampler is sl:2 only")
    for s in F:
        if s.model.name != model.name:
            raise ValueError("conjugators live on a different model")
    ads = [_sl2_conjugation(s.mat) for s in F]
    radii = W.box_radius()
    numer_parts: list[np.ndarray] = []
    denom_parts: list[np.ndarray] = []
    hits = 0
    rejected = 0
    for b in range(cfg.samples // cfg.batch):
        rng = np.random.default_rng([cfg.seed, b])
        pts = rng.uniform(-radii, radii, size=(cfg.batch, 3))
        in_w = W.contains_sl2(pts)
        pts = pts[in_w]
        if pts.shape[0] == 0:
            continue
        hits += pts.shape[0]
        weights = _sl2_density(pts)
        good = np.ones(pts.shape[0], dtype=bool)
        surviving = np.ones(pts.shape[0], dtype=bool)
        if ads:
            c0, c1 = _sl2_exp_coeffs(-_sl2_det(pts))
            f, ok = _sl2_log_factor(c0)
            scale = f * c1
            for ad in ads:
                conj = ad @ pts.T  # Ad_{s^{-1}} x, one row per coordinate
                y = scale * conj  # log(s^{-1} e^x s)
                c0_back, c1_back = _sl2_exp_coeffs(y[0] ** 2 + y[1] * y[2])
                residual = np.sqrt(
                    2.0 * (c0_back - c0) ** 2
                    + (c1_back * scale - c1) ** 2 * _sl2_frob2(conj.T)
                )
                ok_k = ok & (residual <= 1e-8)
                good &= ok_k
                surviving &= W.contains_sl2(y.T) & ok_k
        rejected += int(np.count_nonzero(~good))
        numer_parts.append(np.where(surviving & good, weights, 0.0))
        denom_parts.append(np.where(good, weights, 0.0))
    if hits and rejected > 0.01 * hits:
        raise LogFailureError(
            f"{rejected} of {hits} in-neighbourhood samples failed the log roundtrip"
        )
    if not denom_parts:
        return McEstimate(0.0, 1.0, cfg.samples, cfg.seed, 0)
    a = np.concatenate(numer_parts)
    bw = np.concatenate(denom_parts)
    den = float(bw.sum())
    if den == 0.0:
        return McEstimate(0.0, 1.0, cfg.samples, cfg.seed, 0)
    ratio = float(a.sum()) / den
    # delta-method stderr for the shared-sample ratio estimator
    stderr = math.sqrt(float(np.sum((a - ratio * bw) ** 2))) / den
    return McEstimate(ratio, stderr, cfg.samples, cfg.seed, hits)


def delta_mc_finite(
    group: FiniteGroup, F: GroupSubset, V: GroupSubset, cfg: McConfig
) -> McEstimate:
    """Finite-group specialization: sample uniformly from V and count the
    fraction landing in every conjugate s V s^{-1}, s in F."""
    members = np.array(sorted(V.members), dtype=np.int64)
    in_v = np.zeros(group.order, dtype=bool)
    in_v[members] = True
    f_elems = F.sorted()
    hits = 0
    for b in range(cfg.samples // cfg.batch):
        rng = np.random.default_rng([cfg.seed, b])
        v = members[rng.integers(0, len(members), size=cfg.batch)]
        surviving = np.ones(cfg.batch, dtype=bool)
        for s in f_elems:
            si = int(group.inv[s])
            conj = group.mul[group.mul[si, v], s]  # s^{-1} w s in V <=> w in sVs^{-1}
            surviving &= in_v[conj]
        hits += int(np.count_nonzero(surviving))
    phat = hits / cfg.samples
    stderr = math.sqrt(phat * (1.0 - phat) / cfg.samples)
    return McEstimate(phat, stderr, cfg.samples, cfg.seed, hits)


def key_lemma_ratio(
    eps: float, R: float, rho: float, cfg: McConfig, model: LieModel | None = None
) -> tuple[McEstimate, float]:
    """Tube-volume scaling ratio Lambda(V_{eps, rho R}) / Lambda(V_{eps, R})
    with propagated stderr, and the expected limit rho^{d/2} (= rho on sl:2).

    Each volume is a hit-or-miss estimate over the sheared band that encloses
    the tube (see ``_tube_volume_mc``), where about 90% of the draws land
    inside; the two volumes use independent streams derived from the seed."""
    model = model or build_model("sl:2")
    if model.name != "sl:2":
        raise NotImplementedError("sl:2 only")
    if rho < 1.0:
        raise ValueError("rho must be >= 1")
    if not (eps > 0 and R > 0):
        raise ValueError("eps and R must be positive")
    if eps > R / 5.0:
        import warnings

        warnings.warn(f"eps = {eps} is large relative to R = {R}: tube is not thin")
    est_big = _tube_volume_mc(eps, rho * R, McConfig(cfg.samples, _derive(cfg.seed, 0), cfg.batch))
    est_small = _tube_volume_mc(eps, R, McConfig(cfg.samples, _derive(cfg.seed, 1), cfg.batch))
    ratio = est_big.mean / est_small.mean
    rel = math.sqrt(
        (est_big.stderr / est_big.mean) ** 2 + (est_small.stderr / est_small.mean) ** 2
    )
    est = McEstimate(
        ratio, ratio * rel, 2 * cfg.samples, cfg.seed, est_big.hits + est_small.hits
    )
    return est, rho ** 1.0  # d/2 = 1 for sl(2)


def _tube_volume_mc(eps: float, R: float, cfg: McConfig) -> McEstimate:
    """Hit-or-miss volume of the sl(2) tube {2|det x| < eps^2, |x|_F < R}.

    In y = sqrt2 x1, a = (x2+x3)/sqrt2, b = (x2-x3)/sqrt2 the tube is
    {|s - b^2| < eps^2, s + b^2 < R^2} with s = y^2 + a^2.  The angle of
    (y, a) integrates out to pi (dy da = ds dtheta / 2) and dx = dy da db / sqrt2,
    so the volume is pi/sqrt2 times the area of the (s, b) region.  The shear
    u = s - b^2 has Jacobian 1 and maps that region to
    {u + b^2 >= 0, u + 2 b^2 < R^2} inside the band
    |b| <= sqrt((R^2 + eps^2)/2), |u| < eps^2, which is where points are drawn.
    """
    e2, r2 = eps * eps, R * R

    def inside(pts: np.ndarray) -> np.ndarray:
        b2 = pts[:, 0] ** 2
        return (pts[:, 1] + b2 >= 0.0) & (pts[:, 1] + 2.0 * b2 < r2)

    est = volume_mc(inside, 2, [math.sqrt((r2 + e2) / 2.0), e2], cfg)
    scale = math.pi / math.sqrt(2.0)
    return McEstimate(scale * est.mean, scale * est.stderr, est.samples, est.seed, est.hits)


def _derive(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def sample_adjoint_ball_sl2(
    model: LieModel, rho: float, count: int, rng: np.random.Generator
) -> list[GroupMatrix]:
    """Samples of the adjoint rho-ball of SL(2,R) via KAK: random SO(2)
    factors and middle factor diag(e^h, e^-h) with h uniform on
    2|h| <= log rho.  This is not the Haar distribution on the ball, whose
    weight in t = |h| is sinh(2t)."""
    if not (1.0 <= rho < math.inf):
        raise ValueError("adjoint balls need 1 <= rho < infinity")
    if count < 0:
        raise ValueError("the sample count must be >= 0")
    out = []
    for _ in range(count):
        k1 = random_special_orthogonal(2, rng)
        k2 = random_special_orthogonal(2, rng)
        h = rng.uniform(-math.log(rho) / 2.0, math.log(rho) / 2.0) if rho > 1 else 0.0
        a = np.diag([math.exp(h), math.exp(-h)])
        out.append(GroupMatrix(model, k1 @ a @ k2))
    return out


def delta_lower_bound_check(
    rho: float,
    f_size: int,
    eps_schedule: list[float],
    R: float,
    cfg: McConfig,
    rng: np.random.Generator,
) -> dict:
    """One-sided consistency of the adjoint-ball lower bound delta >= rho^{-d/2}.

    Samples F inside the adjoint rho-ball, estimates the survival fraction of
    exp(V_{eps,R}) for each eps in the schedule, and checks the smallest-eps
    estimate against rho^{-1} - 3 stderr (d/2 = 1 on sl:2).  This checks the
    specific tube basis the bound is proved with; agreement is consistency,
    not proof, while a violation would falsify the bound.
    """
    model = build_model("sl:2")
    F = sample_adjoint_ball_sl2(model, rho, f_size, rng)
    rows = []
    for i, eps in enumerate(sorted(eps_schedule, reverse=True)):
        est = delta_mc(
            model, F, Neighborhood("tube", (eps, R)),
            McConfig(cfg.samples, _derive(cfg.seed, i), cfg.batch),
        )
        rows.append({"eps": eps, "estimate": est.mean, "stderr": est.stderr,
                     "samples": est.samples, "hits": est.hits})
    final = rows[-1]
    bound = rho ** (-1.0)
    return {
        "rho": rho,
        "R": R,
        "bound": bound,
        "rows": rows,
        "final_estimate": final["estimate"],
        "final_stderr": final["stderr"],
        "pass": final["estimate"] >= bound - 3.0 * final["stderr"],
    }


# ---------------------------------------------------------------------------
# exact lattice-point counting in SL(2,Z)

SL2Z_LOG_POWER = 0
"""Power of log(rho) in the growth law of sl2z_count(rho); pass it to
growth_fit.

The lattice-point theorem gives #(Gamma & B_rho) ~ vol(B_rho) / vol(G/Gamma)
(Duke-Rudnick-Sarnak, Duke Math. J. 71, 1993; Eskin-McMullen, same volume),
so the log power is the one in the Haar volume of the adjoint ball.  On
SL(2,R) write g = k1 diag(e^t, e^-t) k2 with t >= 0: the Haar measure is
sinh(2t) dt dk1 dk2 and ||Ad_g|| = e^(2t), hence

    vol(B_rho) ~ int_0^{(ln rho)/2} sinh(2t) dt = (rho + 1/rho - 2) / 4,

linear in rho = rho^(d/2) (d = 2) with no log factor.  This matches the
classical count #{gamma : ||gamma||_F^2 <= T} ~ 6 T at T = rho + 1/rho.
"""


def sl2z_count(rho: float) -> int:
    """Exact number of integer matrices with determinant 1 and adjoint norm
    <= rho.

    On SL(2) the adjoint norm is sigma_1/sigma_2 = sigma_1^2, and with
    sigma_1^2 sigma_2^2 = 1 membership reduces to the exact test
    a^2 + b^2 + c^2 + d^2 <= rho + 1/rho.  The coprime top rows (a, b) are
    enumerated as arrays; the bottom rows solving a d - b c = 1 are
    (c0 + t a, d0 + t b) for one particular solution (c0, d0) and integer t,
    and the t in the ball form an interval.  Its endpoints come from the
    float roots of the quadratic in t and are moved inwards until they pass
    the exact integer test.
    """
    if rho < 1.0:
        return 0
    if rho > 10 ** 4:
        raise ValueError("radius capped at 10^4")
    t_max = rho + 1.0 / rho
    bound = int(math.isqrt(int(t_max)))
    a, b = np.meshgrid(np.arange(-bound, bound + 1), np.arange(-bound, bound + 1), indexing="ij")
    a, b = a.ravel(), b.ravel()
    qa = a * a + b * b
    keep = (qa <= t_max) & (np.gcd(a, b) == 1)
    a, b, qa = a[keep], b[keep], qa[keep]
    # particular solution of a d - b c = 1; generic (c,d) = (c0+ta, d0+tb)
    g, u, v = _ext_gcd(a, b)
    sign = np.where(g < 0, -1, 1)
    d0, c0 = sign * u, -sign * v
    qb = 2.0 * (a * c0 + b * d0)
    qc = (qa + c0 * c0 + d0 * d0) - t_max
    disc = qb * qb - 4.0 * qa * qc
    real = disc >= 0
    a, b, c0, d0, qa, qb = a[real], b[real], c0[real], d0[real], qa[real], qb[real]
    root = np.sqrt(disc[real])
    lo = np.ceil((-qb - root) / (2.0 * qa) - 1e-12).astype(np.int64)
    hi = np.floor((-qb + root) / (2.0 * qa) + 1e-12).astype(np.int64)

    def inside(t: np.ndarray) -> np.ndarray:
        c, d = c0 + t * a, d0 + t * b
        return qa + c * c + d * d <= t_max + 1e-9

    # the exact set is an interval in t, so shrinking both ends finds it
    while True:
        nonempty = lo <= hi
        move_lo = nonempty & ~inside(lo)
        move_hi = nonempty & ~inside(hi)
        if not (move_lo.any() or move_hi.any()):
            break
        lo = lo + move_lo
        hi = hi - move_hi
    return int(np.maximum(hi - lo + 1, 0).sum())


def _ext_gcd(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise g, u, v with a u + b v = g = +-gcd(a, b), by the Euclidean
    recurrence with floor division."""
    old_r, r = a.copy(), b.copy()
    old_u, u = np.ones_like(a), np.zeros_like(a)
    old_v, v = np.zeros_like(a), np.ones_like(a)
    while np.any(r):
        live = r != 0
        q = np.zeros_like(a)
        q[live] = old_r[live] // r[live]
        old_r, r = np.where(live, r, old_r), np.where(live, old_r - q * r, r)
        old_u, u = np.where(live, u, old_u), np.where(live, old_u - q * u, u)
        old_v, v = np.where(live, v, old_v), np.where(live, old_v - q * v, v)
    return old_r, old_u, old_v


def growth_fit(series: CountSeries, log_power: int = 1) -> CountSeries:
    """Least-squares exponent of count ~ rho^e (log rho)^log_power: slope of
    log(count / (log rho)^log_power) against log rho, residual reported."""
    if len(series.radii) < 5:
        raise ValueError("need at least five radii spanning the fit range")
    x = np.log(np.asarray(series.radii, dtype=float))
    counts = np.asarray(series.counts, dtype=float)
    if np.any(counts <= 0):
        raise ValueError("counts must be positive for the log fit")
    y = np.log(counts) - log_power * np.log(x)
    coeffs, residuals, *_ = np.polyfit(x, y, 1, full=True)
    series.fitted_exponent = float(coeffs[0])
    rss = float(residuals[0]) if len(residuals) else 0.0
    series.fit_residual = math.sqrt(rss / len(x))
    return series
