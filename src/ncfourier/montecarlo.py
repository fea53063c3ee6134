"""Monte Carlo volume and conjugation-survival estimation, plus exact
SL(2,Z) lattice-point counting with growth-exponent fitting.

Sampling is batched and deterministically seeded: batch b of a run with seed
s draws from default_rng([s, b]), so results are bit-identical across reruns
with the same seed, sample count and batch size (a different batch size
draws different points).  The sl(2) paths (matrix exp/log, tube
membership, Haar density) are closed-form and fully vectorized.
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


def _sl2_exp(x: np.ndarray) -> np.ndarray:
    """exp of traceless 2x2 batches: X^2 = mu^2 I with mu^2 = -det."""
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


def _sl2_log(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal log of det-1 2x2 batches; returns (coords, ok mask).

    z = alpha I + B with B traceless; the log is f(alpha) B with
    f = arccosh(alpha)/sqrt(alpha^2-1) (alpha > 1), arccos(alpha)/sqrt(1-alpha^2)
    (|alpha| < 1), 1 at alpha = 1.  alpha <= -1 has no principal log.
    """
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

    The matrix log of each conjugate is validated by an exp-log roundtrip
    (residual <= 1e-8); failing samples are rejected and counted, and more
    than 1% failures aborts.  Note the numerator intersects with W itself,
    i.e. this estimates the survival fraction of V, a lower bound for the
    intersection over F alone (they agree when the identity is in F).
    """
    if model.name != "sl:2":
        raise NotImplementedError("vectorized sampler is sl:2 only")
    for s in F:
        if s.model.name != model.name:
            raise ValueError("conjugators live on a different model")
    mats = np.stack([s.mat for s in F]) if F else np.zeros((0, 2, 2))
    inv_mats = np.stack([np.linalg.inv(s.mat) for s in F]) if F else mats
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
        if len(F):
            expx = _sl2_exp(pts)
            for k in range(len(F)):
                z = np.einsum("ab,nbc,cd->nad", inv_mats[k], expx, mats[k])
                y, ok = _sl2_log(z)
                back = _sl2_exp(y)
                ok &= np.linalg.norm(back - z, axis=(1, 2)) <= 1e-8
                good &= ok
                surviving &= W.contains_sl2(y) & ok
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
    with propagated stderr, and the expected limit rho^{d/2} (= rho on sl:2)."""
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
    big = Neighborhood("tube", (eps, rho * R))
    small = Neighborhood("tube", (eps, R))
    est_big = volume_mc(
        big.contains_sl2, 3, big.box_radius(), McConfig(cfg.samples, _derive(cfg.seed, 0), cfg.batch)
    )
    est_small = volume_mc(
        small.contains_sl2, 3, small.box_radius(), McConfig(cfg.samples, _derive(cfg.seed, 1), cfg.batch)
    )
    ratio = est_big.mean / est_small.mean
    rel = math.sqrt(
        (est_big.stderr / est_big.mean) ** 2 + (est_small.stderr / est_small.mean) ** 2
    )
    est = McEstimate(
        ratio, ratio * rel, 2 * cfg.samples, cfg.seed, est_big.hits + est_small.hits
    )
    return est, rho ** 1.0  # d/2 = 1 for sl(2)


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
    a^2 + b^2 + c^2 + d^2 <= rho + 1/rho.  Enumeration runs over coprime top
    rows (a, b) with the bottom row solved from the determinant equation.
    """
    if rho < 1.0:
        return 0
    if rho > 10 ** 4:
        raise ValueError("radius capped at 10^4")
    t_max = rho + 1.0 / rho
    bound = int(math.isqrt(int(t_max)))
    total = 0
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a * a + b * b > t_max:
                continue
            if math.gcd(a, b) != 1:
                continue
            # particular solution of a d - b c = 1; generic (c,d) = (c0+ta, d0+tb)
            g, u, v = _ext_gcd(a, b)
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
            t_lo, t_hi = math.ceil(lo - 1e-12), math.floor(hi + 1e-12)
            for t in range(t_lo, t_hi + 1):
                c, d = c0 + t * a, d0 + t * b
                if a * a + b * b + c * c + d * d <= t_max + 1e-9:
                    total += 1
    return total


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """g, u, v with a u + b v = g = gcd(a, b)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
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
