"""Monte Carlo volume and conjugation-survival estimation, plus exact
SL(2,Z) lattice-point counting with growth-exponent and main-term checks.

Sampling is batched and deterministically seeded: batch b of a run with seed
s draws from default_rng([s, b]), so results are bit-identical across reruns
with the same seed, sample count and batch size (a different batch size
draws different points).  Each batch is drawn and filtered in blocks of a few
thousand rows that stay in cache; the blocks continue one stream, so the
points are those of a single draw of the whole batch, and memory no longer
grows with the batch size.  The sl(2) paths are closed-form and vectorized,
and sample in the Frobenius-orthonormal frame (y, a, b), where the nilpotent
cone is y^2 + a^2 = b^2: the key lemma in the sheared plane that encloses a
tube, the survival fraction in the cube that encloses W, decided in that
frame alone, where each hit adds the exact Haar mass of its ray.
Conjugation acts through the 3x3 matrix of Ad: log(s^-1 e^x s) = Ad_{s^-1} x
wherever exp is injective, so no matrix exp or log is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, GroupSubset, _conjugation_mask
from .liealg import GroupMatrix, LieModel, _adjoint_operator_matrix, build_model
from .liealg import random_special_orthogonal

__all__ = [
    "McConfig",
    "McEstimate",
    "Neighborhood",
    "volume_mc",
    "key_lemma_ratio",
    "delta_mc",
    "delta_mc_finite",
    "sample_adjoint_ball_sl2",
    "delta_lower_bound_check",
    "delta_bound_verdict",
    "sl2z_count",
    "growth_fit",
    "main_term_deviation",
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
        for pts in _box_blocks(radii, cfg, b):
            hits += int(np.count_nonzero(oracle(pts)))
    phat = hits / cfg.samples
    stderr = vol_box * math.sqrt(phat * (1.0 - phat) / cfg.samples)
    if hits == 0:
        stderr = vol_box / cfg.samples
    return McEstimate(phat * vol_box, stderr, cfg.samples, cfg.seed, hits)


# rows per drawn block: a block of sl(2) points and its masks fit in L2 cache
_BLOCK = 1 << 13


def _box_blocks(radii: np.ndarray, cfg: McConfig, b: int):
    """Batch b of a box-sampling run as (rows, dim) blocks of points.

    The batch is the first cfg.batch * dim doubles of default_rng([cfg.seed, b]),
    drawn ``_BLOCK`` rows at a time and mapped to the box prod [-r_i, r_i] as
    Generator.uniform maps them (low + (high - low) u, in that rounding), so
    the blocks stack to rng.uniform(-radii, radii, (cfg.batch, dim)), bit for
    bit.  The map runs on each flattened block against low and width tiled
    once per call: broadcast against a (dim,) row, numpy runs it as a dim-wide
    inner loop that costs more than the draw itself.
    """
    rng = np.random.default_rng([cfg.seed, b])
    rows = min(_BLOCK, cfg.batch)
    low = np.tile(-radii, rows)
    width = np.tile(radii, rows) - low
    for start in range(0, cfg.batch, _BLOCK):
        u = rng.random((min(_BLOCK, cfg.batch - start), len(radii)))
        flat = u.reshape(-1)
        flat *= width[:flat.size]
        flat += low[:flat.size]
        yield u


# ---------------------------------------------------------------------------
# sl(2) in the frame (y, a, b), vectorized over sample batches
#
# x = y H/sqrt2 + a (E_12 + E_21)/sqrt2 + b (E_12 - E_21)/sqrt2 with
# H = diag(1, -1): the basis _FRAME is Frobenius-orthonormal, so |x|_F^2 =
# y^2 + a^2 + b^2, 2 det x = b^2 - y^2 - a^2, and the orbit min norm
# sqrt(2 |det x|) vanishes on the nilpotent cone y^2 + a^2 = b^2.
_FRAME = np.array([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]],
                   [[0.0, 1.0], [-1.0, 0.0]]]) / math.sqrt(2.0)


_MASS_SERIES = [2.0 * 4.0 ** j / math.factorial(2 * j + 3) for j in range(7, -1, -1)]


def _radial_mass(z: np.ndarray) -> np.ndarray:
    """S(z) = M(r)/r^3 at z = mu^2 r^2, where M(r) = int_0^r nu(t theta) t^2 dt
    = (sinh 2 mu r - 2 mu r)/(4 mu^3) is the Haar mass of [0, r) on a ray theta,
    mu^2 = -det theta: 2 (sinh Z - Z)/Z^3 at Z = 2 sqrt z (2 (Z - sin Z)/Z^3 at
    Z = 2 sqrt(-z) if z < 0) and, for |z| <= 1/8, where those cancel, the series
    2 sum_j (4z)^j / (2j + 3)!, cut after j = 7 (2e-19 relative short)."""
    out = np.polyval(_MASS_SERIES, z)
    far = np.flatnonzero(np.abs(z) > 0.125)
    w = 2.0 * np.sqrt(np.abs(z[far]))
    out[far] = 2.0 * np.sign(z[far]) * (np.where(z[far] > 0.0, np.sinh(w), np.sin(w)) - w) / w ** 3
    return out


@dataclass(frozen=True)
class Neighborhood:
    """Symmetric neighbourhood of 0 in the algebra: a Frobenius ball
    (``ball:r``) or the nilpotent-cone tube (``tube:eps,R``)."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if {"ball": 1, "tube": 2}.get(self.kind) != len(self.params):
            raise ValueError(f"bad neighbourhood {self.kind!r} with {len(self.params)} "
                             "parameter(s): expected ball:r or tube:eps,R")
        if not all(0.0 < v < math.inf for v in self.params):
            raise ValueError(f"{self.kind} parameters must be positive and finite")

    @staticmethod
    def parse(spec: str) -> "Neighborhood":
        kind, _, rest = spec.partition(":")
        try:  # an empty token raises too
            params = tuple(float(tok) for tok in rest.split(","))
        except ValueError:
            raise ValueError(
                f"bad neighbourhood spec {spec!r}: empty or non-numeric parameter") from None
        return Neighborhood(kind, params)

    def frame_half_width(self) -> float:
        """Half-width h of the frame cube |y|, |a|, |b| <= h enclosing W: R for a
        ball, sqrt((R^2 + eps^2)/2) for a tube, where 2 b^2, 2 (y^2 + a^2) < R^2 + eps^2."""
        if self.kind == "ball":
            return self.params[0]
        return math.sqrt((self.params[0] ** 2 + self.params[1] ** 2) / 2.0)

    def _frame_rows_inside(self, u: np.ndarray) -> np.ndarray:
        """The frame rows u = (y, a, b) of the points of W, in order.  A tube
        first keeps 2 |det x| = |y^2 + a^2 - b^2| < eps^2, which most draws
        miss, then either kind |x|_F^2 = |u|^2 < R^2."""
        if self.kind == "tube":
            sq = np.square(u)
            u = u[np.flatnonzero(np.abs(sq[:, 0] + sq[:, 1] - sq[:, 2]) < self.params[0] ** 2)]
        sq = np.square(u)
        return u[np.flatnonzero(sq[:, 0] + sq[:, 1] + sq[:, 2] < self.params[-1] ** 2)]


def delta_mc(
    model: LieModel, F: list[GroupMatrix], W: Neighborhood, cfg: McConfig
) -> McEstimate:
    """Survival fraction of V = exp(W) under conjugation by every element of F,
    int_W 1[for all s: Ad_{s^{-1}} x in W] nu(x) dx / int_W nu(x) dx, with nu the
    Haar density in exponential coordinates.  s^{-1} e^x s = e^{Ad_{s^{-1}} x},
    and the principal log of e^y is y when det y < pi^2, where an elliptic y
    rotates by sqrt(det y) < pi (Higham, Functions of Matrices, 2008, ch. 11).
    Conjugation keeps det, and sup det x over W is min(W.params)^2 / 2, so a W
    with min(W.params) > pi sqrt2, where exp is not injective, is refused;
    below it x survives s when |Ad_{s^{-1}} x|_F < R.  The numerator intersects
    with W itself: this estimates the survival fraction of V, a lower bound
    for the intersection over F alone.

    Points are drawn uniformly from the frame cube that encloses W (for a
    tube, 2.8 times smaller than the box of the Frobenius ball in x), and each
    hit adds its ray's conditional mean (Rao-Blackwellization; Casella and
    Robert, Biometrika 83, 1996).  On the ray t theta, |theta|_F = 1, W is
    t < r_W, r_W^2 = min(R^2, eps^2 / (2 |det theta|)), and the survivors are
    t < r_F, r_F^2 = min(r_W^2, min_s R^2 / |Ad_{s^{-1}} theta|_F^2).  Hits are
    uniform on W and dx = t^2 dt dtheta, so theta has density r_W^3 / (3 vol W)
    and t, given theta, 3 t^2 / r_W^3: E[1_S nu | theta] = 3 M(r_F) / r_W^3 (M of
    ``_radial_mass``).  So a hit adds a = (r_F / r_W)^3 S(mu^2 r_F^2) over
    b = S(mu^2 r_W^2); five running sums of b and b - a give the ratio and its
    stderr sqrt(sum (a - delta b)^2) / sum b.  Each r is kept as t = (R |x| / r)^2.

    Everything is read from the frame rows u that ``Neighborhood`` keeps:
    |x|_F = |u|, 2 |det x| = |y^2 + a^2 - b^2| and |Ad_{s^{-1}} x|_F = |A u|, A
    the ``_adjoint_operator_matrix`` of s^{-1} after the frame's map into its
    orthonormal basis.  An s with |A| <= 1 + 1e-12 (s in K = SO(2), up to
    rounding) raises no t_F by a factor over 1 + 2e-12 and is dropped, so F in
    K gives 1 +- 0.
    """
    if model.name != "sl:2":
        raise NotImplementedError("vectorized sampler is sl:2 only")
    for s in F:
        if s.model.name != model.name:
            raise ValueError("conjugators live on a different model")
    limit = math.pi * math.sqrt(2.0)
    if min(W.params) > limit:
        raise ValueError(f"{W.kind} parameter {min(W.params):g} exceeds pi sqrt2 = {limit:.6f}: "
                         "exp is not injective on W, so the ratio is not delta of exp(W)")
    frame = model._onb.T @ _FRAME.reshape(3, 4).T  # frame rows -> orthonormal coordinates
    ads = [_adjoint_operator_matrix(model, np.linalg.inv(s.mat)) @ frame for s in F]
    ads = [ad for ad in ads if np.linalg.norm(ad, 2) > 1.0 + 1e-12]
    r2 = W.params[-1] ** 2
    cone_scale = r2 / W.params[0] ** 2 if W.kind == "tube" else 0.0
    radii = np.full(3, W.frame_half_width())
    sums, hits = np.zeros(5), 0  # sums of b, lost, b^2, b lost, lost^2
    for b in range(cfg.samples // cfg.batch):
        u = np.concatenate([W._frame_rows_inside(v).T for v in _box_blocks(radii, cfg, b)], axis=1)
        hits += u.shape[1]
        sq = np.square(u)
        cone = sq[0] + sq[1] - sq[2]  # -2 det x
        t_w = np.maximum(sq[0] + sq[1] + sq[2], cone_scale * np.abs(cone))
        t_f = t_w
        for ad in ads:  # sq takes the squares of each conjugate in turn
            np.square(np.matmul(ad, u, out=sq), out=sq)
            t_f = np.maximum(t_f, sq[0] + sq[1] + sq[2])
        del u, sq  # a lower peak: the mass terms need only (hits,) arrays
        z = 0.5 * r2 * cone  # mu^2 r^2 = z / t
        mass_w = _radial_mass(z / t_w)
        lost = mass_w - (t_w / t_f) ** 1.5 * _radial_mass(z / t_f)
        sums += [mass_w.sum(), lost.sum(), mass_w @ mass_w, mass_w @ lost, lost @ lost]
    if hits == 0:
        return McEstimate(0.0, 1.0, cfg.samples, cfg.seed, 0)
    den, lost, den2, cross, lost2 = (float(v) for v in sums)
    share = lost / den  # 1 - delta, and sum (a - delta b)^2 = sum (lost - share b)^2
    var = max(lost2 - 2.0 * share * cross + share * share * den2, 0.0)
    return McEstimate(1.0 - share, math.sqrt(var) / den, cfg.samples, cfg.seed, hits)


def delta_mc_finite(
    group: FiniteGroup, F: GroupSubset, V: GroupSubset, cfg: McConfig
) -> McEstimate:
    """Finite-group specialization: sample uniformly from V and count the
    fraction landing in every conjugate s V s^{-1}, s in F."""
    if len(V) == 0:
        raise ValueError("V is empty")
    members = np.array(sorted(V.members), dtype=np.int64)
    # the elements of G lying in every conjugate s V s^{-1}, s in F
    surviving = _conjugation_mask(group, F.sorted(), members).all(axis=0)
    hits = 0
    for b in range(cfg.samples // cfg.batch):
        rng = np.random.default_rng([cfg.seed, b])
        v = members[rng.integers(0, len(members), size=cfg.batch)]
        hits += int(np.count_nonzero(surviving[v]))
    phat = hits / cfg.samples
    stderr = math.sqrt(phat * (1.0 - phat) / cfg.samples)
    return McEstimate(phat, stderr, cfg.samples, cfg.seed, hits)


def key_lemma_ratio(eps: float, R: float, rho: float, cfg: McConfig) -> tuple[McEstimate, float]:
    """Tube-volume scaling ratio Lambda(V_{eps, rho R}) / Lambda(V_{eps, R})
    on sl(2) with propagated stderr, and the expected limit rho^{d/2} = rho.

    Each volume is a hit-or-miss estimate over the sheared band that encloses
    the tube (see ``_tube_volume_mc``), where about 90% of the draws land
    inside; the two volumes use independent streams derived from the seed."""
    if not 1.0 <= rho < math.inf:
        raise ValueError(f"rho = {rho} is not finite and >= 1")
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

    In the frame (y, a, b) the tube is {|s - b^2| < eps^2, s + b^2 < R^2} with
    s = y^2 + a^2.  The angle of (y, a) integrates out to pi (dy da =
    ds dtheta / 2) and dx = dy da db / sqrt2, so the volume is pi/sqrt2 times
    the area of the (s, b) region.  The shear u = s - b^2 has Jacobian 1 and
    maps that region to {u + b^2 >= 0, u + 2 b^2 < R^2} inside the band
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
    if model.name != "sl:2":
        raise ValueError(f"the adjoint-ball sampler needs the sl:2 model, got {model.name}")
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
    not proof, while a violation would falsify the bound.  The verdict is
    ``delta_bound_verdict``'s.
    """
    if not eps_schedule:
        raise ValueError("the eps schedule is empty")
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
    bound, passed = delta_bound_verdict(est, rho)
    return {
        "rho": rho,
        "R": R,
        "bound": bound,
        "rows": rows,
        "final_estimate": est.mean,
        "final_stderr": est.stderr,
        "pass": passed,
    }


def delta_bound_verdict(est: McEstimate, rho: float) -> tuple[float, bool]:
    """The adjoint-ball lower bound rho^{-d/2} (d/2 = 1 on sl:2) on the
    survival fraction of a tube, and whether the estimate is consistent with
    it: mean >= rho^{-1} - 3 stderr.  An estimate with no sample inside the
    tube fails: its 0 +- 1 says nothing about the fraction."""
    bound = rho ** (-1.0)
    return bound, est.hits > 0 and est.mean >= bound - 3.0 * est.stderr


# ---------------------------------------------------------------------------
# exact lattice-point counting in SL(2,Z)

def sl2z_count(rho: float) -> int:
    """Exact number of integer matrices with determinant 1 and adjoint norm
    <= rho.

    On SL(2) the adjoint norm is sigma_1/sigma_2 = sigma_1^2, and with
    sigma_1^2 sigma_2^2 = 1 membership reduces to the integer test
    a^2 + b^2 + c^2 + d^2 <= K = floor(rho + 1/rho + 1e-9).  For each coprime
    top row (a, b) with q = a^2 + b^2 < K, the bottom rows solving
    a d - b c = 1 are (c0, d0) + t (a, b) for one solution (c0, d0), and with
    s = a c0 + b d0 Lagrange's identity gives c^2 + d^2 = ((q t + s)^2 + 1)/q.
    So the row counts the t with |q t + s| <= r = floor(sqrt(q (K - q) - 1)):
    floor((r - s)/q) + floor((r + s)/q) + 1 of them, which depends on s mod q
    alone: a s = a^2 c0 + a b d0 = b (a d0 - b c0) = b (mod q), so
    s = b a^{-1} (mod q), with a invertible as gcd(a, q) = gcd(a, b^2) = 1.
    Every operand is an integer below K^2/4 < 2^52, so the square root is
    exact in doubles.

    Only the top rows with 0 <= b <= a are visited.  The maps
    (a, b; c, d) -> (b, a; -d, -c) and -> (-b, a; -d, c) keep the determinant
    and the norm and carry the matrices with top row (a, b) onto those with
    top row (b, a), resp. (-b, a).  On top rows they generate the dihedral
    group of order 8, so a row's count is constant on its orbit.  Each orbit
    meets 0 <= b <= a once; among coprime rows, (1, 0) and (1, 1) have orbits
    of 4 and every a > b > 0 one of 8.
    """
    if not rho <= 10 ** 4:
        raise ValueError(f"radius {rho} is not a number <= 10^4")
    if rho < 1.0:
        return 0
    k = math.floor(rho + 1.0 / rho + 1e-9)
    a, b = np.tril_indices(math.isqrt(k) + 1)  # 0 <= b <= a
    q = a * a + b * b
    keep = (q < k) & (np.gcd(a, b) == 1)  # a row with q = k has no bottom row
    a, b, q = a[keep], b[keep], q[keep]
    s = b * np.array([pow(x, -1, y) for x, y in zip(a.tolist(), q.tolist())], dtype=np.int64) % q
    r = np.floor(np.sqrt(q * (k - q) - 1)).astype(np.int64)
    orbit = np.where((b == 0) | (b == a), 4, 8)
    return int((orbit * ((r - s) // q + (r + s) // q + 1)).sum())


def growth_fit(radii: list[float], counts: list[int]) -> tuple[float, float]:
    """Least-squares exponent e of count ~ rho^e (the slope of log count
    against log rho) and the root-mean-square residual of that fit.

    The law has no log(rho) factor.  The lattice-point theorem gives
    #(Gamma & B_rho) ~ vol(B_rho) / vol(G/Gamma) (Duke-Rudnick-Sarnak, Duke
    Math. J. 71, 1993; Eskin-McMullen, same volume).  On SL(2,R) write
    g = k(theta1) diag(e^t, e^-t) k(theta2) with t >= 0 and theta in
    [0, 2 pi): the Haar measure is sinh(2t) dt dtheta1 dtheta2 / 2 and
    ||Ad_g|| = e^(2t), so

        vol(B_rho) = 2 pi^2 int_0^{(ln rho)/2} sinh(2t) dt = pi^2 (rho + 1/rho - 2) / 2,

    linear in rho = rho^(d/2) (d = 2).  In the same measure
    vol(G/Gamma) = pi^2 / 12 for Gamma = SL(2,Z): the modular surface has
    hyperbolic area pi/3 and each fibre K/{+-1} has mass pi/4.  So
    count ~ 6 (rho + 1/rho - 2), the classical #{gamma : ||gamma||_F^2 <= T}
    ~ 6 T at T = rho + 1/rho; ``main_term_deviation`` checks it.
    """
    if len(set(radii)) < 5:
        raise ValueError(f"need at least five distinct radii for the fit, got {len(set(radii))}")
    counts = np.asarray(counts, dtype=float)
    if np.any(counts <= 0):
        raise ValueError("counts must be positive for the log fit")
    x = np.log(np.asarray(radii, dtype=float))
    coeffs, residuals, *_ = np.polyfit(x, np.log(counts), 1, full=True)
    rss = float(residuals[0]) if len(residuals) else 0.0
    return float(coeffs[0]), math.sqrt(rss / len(x))


def main_term_deviation(radii: list[float], counts: list[int]) -> float:
    """Largest |count / (6 (rho + 1/rho - 2)) - 1| rho^(1/3) over the radii
    rho >= 20 (0 when there are none); at most 1 is agreement with the main
    term of ``growth_fit``.  ||gamma||_F^2 = 2 cosh d(i, gamma i), so Selberg's
    O(T^(2/3)) hyperbolic lattice-point error bounds the relative error by
    O(rho^(-1/3)).  Against brute force the value is at most 0.653 (at
    rho = 43) over the integer radii 20 to 10^4."""
    return max((abs(c / (6.0 * (r + 1.0 / r - 2.0)) - 1.0) * r ** (1.0 / 3.0)
                for r, c in zip(radii, counts) if r >= 20.0), default=0.0)
