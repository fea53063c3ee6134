"""Matrix Lie algebra models: sl(n,R) for 2 <= n <= 5 and the 3-dimensional
Heisenberg algebra.

The invariant form is the trace form B(x,y) = trace(xy), so the associated
inner product B_theta(x,y) = -B(x, theta(y)) with theta(y) = -y^T is the
Frobenius inner product.  (The Killing form differs by the constant 2n on
sl(n); every ratio verified downstream is invariant under that rescaling.)
The Heisenberg model is not reductive: it carries no Cartan involution and
the adjoint-ball / KAK / orbit-norm operations require an sl model.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LieModel",
    "AlgebraVector",
    "GroupMatrix",
    "build_model",
    "ad_operator",
    "adjoint_norm",
    "ball_checks",
    "kak_log_profile",
    "is_nilpotent_matrix",
    "nilpotent_orbit_dim",
    "max_nilpotent_dim",
    "exp_density",
    "orbit_min_norm",
    "nilcone_tube_membership",
    "random_special_orthogonal",
    "random_nilpotent",
]


@dataclass(frozen=True, eq=False)
class LieModel:
    name: str
    n: int                      # matrix size
    dim: int
    basis: tuple[np.ndarray, ...]
    bracket: np.ndarray         # c[i,j,k]: [b_i, b_j] = sum_k c[i,j,k] b_k
    cartan_involution: np.ndarray | None  # theta on coordinates; None if absent
    inner: np.ndarray           # Gram matrix of B_theta in the basis
    _flat: np.ndarray = None    # (n^2, dim) flattened basis, for coordinates
    _pinv: np.ndarray = None
    _onb: np.ndarray = None     # (n^2, dim) Frobenius-orthonormal spanning basis

    def coords(self, mat: np.ndarray) -> np.ndarray:
        """Coordinates of a matrix in the model basis (least squares, exact on span)."""
        return self._pinv @ np.asarray(mat, dtype=float).ravel()

    def matrix(self, coords: np.ndarray) -> np.ndarray:
        return (self._flat @ np.asarray(coords, dtype=float)).reshape(self.n, self.n)

    def vector(self, coords) -> "AlgebraVector":
        return AlgebraVector(self, np.asarray(coords, dtype=float))

    def vector_from_matrix(self, mat: np.ndarray) -> "AlgebraVector":
        return AlgebraVector(self, self.coords(mat))

    def is_sl(self) -> bool:
        return self.name.startswith("sl:")


@dataclass(frozen=True, eq=False)
class AlgebraVector:
    model: LieModel
    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (self.model.dim,) or not np.all(np.isfinite(c)):
            raise ValueError("coordinates must be a finite vector of model dimension")
        object.__setattr__(self, "coords", c)

    def matrix(self) -> np.ndarray:
        return self.model.matrix(self.coords)

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.matrix(), "fro"))


@dataclass(frozen=True, eq=False)
class GroupMatrix:
    model: LieModel
    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=float)
        object.__setattr__(self, "mat", m)
        if m.shape != (self.model.n, self.model.n):
            raise ValueError("group matrix has the wrong shape")
        if self.model.is_sl():
            if abs(np.linalg.det(m) - 1.0) > 1e-9:
                raise ValueError("sl-model group matrices must have determinant 1")
        else:
            if not np.allclose(np.tril(m, -1), 0.0) or not np.allclose(
                np.diag(m), 1.0
            ):
                raise ValueError("heisenberg group matrices are unit upper-triangular")


def _sl_basis(n: int) -> list[np.ndarray]:
    basis = []
    for i in range(n - 1):  # H_i = E_ii - E_{i+1,i+1}
        h = np.zeros((n, n))
        h[i, i], h[i + 1, i + 1] = 1.0, -1.0
        basis.append(h)
    for i in range(n):      # E_ij row-major, skipping the diagonal
        for j in range(n):
            if i != j:
                e = np.zeros((n, n))
                e[i, j] = 1.0
                basis.append(e)
    return basis


def _heisenberg_basis() -> list[np.ndarray]:
    x = np.zeros((3, 3)); x[0, 1] = 1.0
    y = np.zeros((3, 3)); y[1, 2] = 1.0
    z = np.zeros((3, 3)); z[0, 2] = 1.0
    return [x, y, z]


def build_model(name: str) -> LieModel:
    """Build ``sl:n`` (2 <= n <= 5) or ``heisenberg3``."""
    if name.startswith("sl:"):
        n = int(name.split(":")[1])
        if not 2 <= n <= 5:
            raise ValueError("sl models supported for 2 <= n <= 5")
        basis = _sl_basis(n)
        size = n
    elif name == "heisenberg3":
        basis = _heisenberg_basis()
        size = 3
    else:
        raise ValueError(f"unsupported model {name!r}")
    dim = len(basis)
    flat = np.stack([b.ravel() for b in basis], axis=1)  # (size^2, dim)
    pinv = np.linalg.pinv(flat)
    bracket = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(dim):
            comm = basis[i] @ basis[j] - basis[j] @ basis[i]
            bracket[i, j] = pinv @ comm.ravel()
    q, _ = np.linalg.qr(flat)
    inner = flat.T @ flat  # Frobenius Gram matrix (B_theta for sl)
    if name.startswith("sl:"):
        theta = np.zeros((dim, dim))
        for j, b in enumerate(basis):
            theta[:, j] = pinv @ (-b.T).ravel()
    else:
        theta = None
    model = LieModel(
        name=name, n=size, dim=dim, basis=tuple(basis), bracket=bracket,
        cartan_involution=theta, inner=inner, _flat=flat, _pinv=pinv, _onb=q,
    )
    _validate_model(model)
    return model


def _validate_model(model: LieModel) -> None:
    c = model.bracket
    if np.max(np.abs(c + np.swapaxes(c, 0, 1))) > 1e-12:
        raise AssertionError("bracket is not antisymmetric")
    jac = (
        np.einsum("ijm,mkl->ijkl", c, c)
        + np.einsum("jkm,mil->ijkl", c, c)
        + np.einsum("kim,mjl->ijkl", c, c)
    )
    if np.max(np.abs(jac)) > 1e-12:
        raise AssertionError("Jacobi identity fails")
    if np.min(np.linalg.eigvalsh(model.inner)) <= 0:
        raise AssertionError("inner product is not positive definite")
    if model.cartan_involution is not None:
        th = model.cartan_involution
        if np.max(np.abs(th @ th - np.eye(model.dim))) > 1e-12:
            raise AssertionError("cartan involution does not square to identity")


def ad_operator(x: AlgebraVector) -> np.ndarray:
    """Matrix of y -> [x, y] in the model basis."""
    return np.einsum("i,ijk->kj", x.coords, x.model.bracket)


def _adjoint_operator_matrix(g: GroupMatrix) -> np.ndarray:
    """Ad_g in a Frobenius-orthonormal basis of the model's span."""
    model = g.model
    ginv = np.linalg.inv(g.mat)
    n, dim = model.n, model.dim
    onb = model._onb  # (n^2, dim), columns orthonormal
    cols = onb.T.reshape(dim, n, n)
    conjugated = np.einsum("ab,kbc,cd->kad", g.mat, cols, ginv)
    return onb.T @ conjugated.reshape(dim, n * n).T


def adjoint_norm(g: GroupMatrix) -> float:
    """Operator norm of Ad_g with respect to the B_theta inner product; >= 1,
    and = 1 exactly on the maximal compact subgroup."""
    if abs(np.linalg.det(g.mat)) < 1e-12:
        raise ValueError("matrix is singular")
    return float(np.linalg.svd(_adjoint_operator_matrix(g), compute_uv=False)[0])


def random_special_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def ball_checks(g: GroupMatrix, rho: float, rng: np.random.Generator | None = None) -> dict:
    """Adjoint-ball membership report with inversion and K-bi-invariance gaps."""
    if rho < 1.0:
        raise ValueError("adjoint balls need rho >= 1")
    rng = rng or np.random.default_rng(0)
    model = g.model
    nrm = adjoint_norm(g)
    inv_gap = abs(adjoint_norm(GroupMatrix(model, np.linalg.inv(g.mat))) - nrm)
    k_gap = 0.0
    for _ in range(8):
        k1 = random_special_orthogonal(model.n, rng)
        k2 = random_special_orthogonal(model.n, rng)
        moved = GroupMatrix(model, k1 @ g.mat @ k2)
        k_gap = max(k_gap, abs(adjoint_norm(moved) - nrm))
    return {
        "norm": nrm,
        "member": nrm <= rho * (1.0 + 1e-12),
        "inversion_gap": inv_gap,
        "k_invariance_gap": k_gap,
    }


def kak_log_profile(g: GroupMatrix) -> tuple[np.ndarray, float]:
    """Sorted log singular values (the log of the KAK middle factor) and the
    largest root value max_{i != j} (h_i - h_j) = h_max - h_min.

    Membership in the rho-ball is equivalent to h_max - h_min <= log rho.
    """
    if not g.model.is_sl():
        raise ValueError("KAK profile requires an sl model")
    sigma = np.linalg.svd(g.mat, compute_uv=False)
    h = np.sort(np.log(sigma))[::-1]
    return h, float(h[0] - h[-1])


def is_nilpotent_matrix(mat: np.ndarray, tol: float = 1e-9) -> bool | np.ndarray:
    """X^n = 0 to tolerance after scaling X to unit Frobenius norm.  A
    (..., n, n) stack gives one flag per matrix."""
    mat = np.asarray(mat, dtype=float)
    nrm = np.linalg.norm(mat, axis=(-2, -1), keepdims=True)
    scaled = mat / np.where(nrm == 0.0, 1.0, nrm)
    power = np.linalg.matrix_power(scaled, mat.shape[-1])
    flags = np.linalg.norm(power, axis=(-2, -1)) <= tol
    return bool(flags) if flags.ndim == 0 else flags


def _nilpotent_orbit_dims(model: LieModel, coords: np.ndarray) -> np.ndarray:
    """Ranks of ad_x for a (S, dim) stack of nilpotent coordinate vectors."""
    mats = (coords @ model._flat.T).reshape(-1, model.n, model.n)
    if not np.all(is_nilpotent_matrix(mats)):
        raise ValueError("element is not nilpotent")
    ads = np.einsum("si,ijk->skj", coords, model.bracket)
    sigma = np.linalg.svd(ads, compute_uv=False)
    top = sigma[:, :1]
    return np.where(top[:, 0] > 0.0, np.count_nonzero(sigma > 1e-8 * top, axis=1), 0)


def nilpotent_orbit_dim(x: AlgebraVector) -> int:
    """Dimension of the adjoint orbit through a nilpotent element: rank of ad_x."""
    return int(_nilpotent_orbit_dims(x.model, x.coords[None])[0])


def _random_nilpotent_coords(model: LieModel, rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, dim) coordinates of random strictly upper-triangular matrices,
    each conjugated by exp of a random traceless matrix; sample i uses the
    normals 2 i n^2 .. 2 (i + 1) n^2 - 1 of the stream (first the upper
    triangle, then the conjugator)."""
    from scipy.linalg import expm

    n = model.n
    draws = rng.standard_normal((count, 2, n, n))
    upper = np.triu(draws[:, 0], 1)
    p = draws[:, 1] * 0.3
    p -= (np.trace(p, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)
    g = expm(p)
    mats = g @ upper @ np.linalg.inv(g)
    return mats.reshape(count, n * n) @ model._pinv.T


def random_nilpotent(model: LieModel, rng: np.random.Generator) -> AlgebraVector:
    """Random strictly upper-triangular element conjugated by a random group element."""
    return model.vector(_random_nilpotent_coords(model, rng, 1)[0])


# samples per batched sweep step: bounds the (chunk, dim, dim) ad stack
_SWEEP_CHUNK = 2048


def max_nilpotent_dim(
    model: LieModel, rng: np.random.Generator | None = None, samples: int = 1000
) -> int | None:
    """Largest nilpotent orbit dimension.

    For sl:n this is the orbit of the single-Jordan-block nilpotent; a
    randomized sweep checks that no sampled nilpotent orbit exceeds it.  The
    sweep runs batched, in chunks of up to ``_SWEEP_CHUNK`` samples that draw
    the same stream as ``random_nilpotent`` called once per sample.
    Returns None for heisenberg3 (not a reductive model; the notion drives
    nothing there).
    """
    if not model.is_sl():
        return None
    rng = rng or np.random.default_rng(0)
    n = model.n
    regular = np.diag(np.ones(n - 1), 1)
    d = nilpotent_orbit_dim(model.vector_from_matrix(regular))
    for start in range(0, samples, _SWEEP_CHUNK):
        count = min(_SWEEP_CHUNK, samples - start)
        dims = _nilpotent_orbit_dims(model, _random_nilpotent_coords(model, rng, count))
        if np.any(dims > d):
            cand = int(dims[np.argmax(dims > d)])
            raise AssertionError(
                f"random nilpotent orbit of dimension {cand} exceeds the regular value {d}"
            )
    return d


def exp_density(
    x: AlgebraVector, series_terms: int = 24, method: str = "auto"
) -> float:
    """Density of the pulled-back Haar measure in exponential coordinates.

    nu(x) = |det Phi_x| with Phi_x = (Id - exp(-ad_x)) / ad_x.  The
    eigenvalue-product path prod |(1 - e^{-mu_i}) / mu_i| over the complex
    spectrum of ad_x is exact; the truncated power series
    Id - ad/2! + ad^2/3! - ... is kept as an independent route and hands off
    to the eigenvalue path (with a warning) when ||ad_x|| > pi, where the
    truncation degrades.
    """
    ad = ad_operator(x)
    if method not in ("auto", "eigen", "series"):
        raise ValueError(f"unknown method {method!r}")
    if method == "series":
        if series_terms < 8:
            raise ValueError("series needs at least 8 terms")
        norm_ad = float(np.linalg.norm(ad, 2))
        if norm_ad > math.pi:
            warnings.warn(
                f"||ad_x|| = {norm_ad:.3f} > pi: series truncation unreliable, "
                "switching to the eigenvalue product",
                RuntimeWarning,
            )
        else:
            term = np.eye(x.model.dim)
            phi = np.eye(x.model.dim)
            for k in range(1, series_terms):
                term = term @ (-ad) / (k + 1.0)
                phi = phi + term
            return abs(float(np.linalg.det(phi)))
    mu = np.linalg.eigvals(ad)
    factors = np.ones(len(mu), dtype=complex)
    big = np.abs(mu) > 1e-8
    factors[big] = -np.expm1(-mu[big]) / mu[big]
    small = ~big
    factors[small] = 1.0 - mu[small] / 2.0 + mu[small] ** 2 / 6.0
    return float(np.abs(np.prod(factors)))


# ---------------------------------------------------------------------------
# orbit norm infimum and the nilpotent-cone tubes


def orbit_min_norm(x: AlgebraVector) -> float:
    """Infimum of the B_theta norm over the adjoint orbit of x, exactly:
    sqrt(sum |lambda_i|^2) over the complex eigenvalues of the matrix of x.

    The orbit closure of x contains exactly one closed orbit, that of its
    semisimple part, and the norm attains its infimum there on the normal
    matrices (Kempf-Ness, Invent. Math. 1979; Richardson-Slodowy, J. London
    Math. Soc. 42, 1990, for real groups); a normal matrix has Frobenius
    norm sqrt(sum |lambda_i|^2).  On sl:2 this is sqrt(2 |det x|).

    Near the nilpotent cone the value carries a rounding floor: a Jordan
    block of size k, perturbed at unit roundoff u, splits its eigenvalue by
    about ||x|| u^{1/k}, so on a nilpotent x whose largest Jordan block has
    size k the result is in general of order ||x|| u^{1/k}, not 0.
    """
    if not x.model.is_sl():
        raise ValueError("orbit norms need an sl model")
    lam = np.linalg.eigvals(x.matrix())
    return float(np.sqrt(np.sum(np.abs(lam) ** 2)))


def nilcone_tube_membership(x: AlgebraVector, eps: float, radius: float) -> bool:
    """x lies in the tube around the nilpotent cone: its orbit meets the open
    eps-ball and x itself lies in the open radius-ball.

    The orbit test inherits the rounding floor of ``orbit_min_norm``: about
    ||x|| u^{1/k} for a Jordan block of size k, so an eps below that floor
    can exclude a nilpotent element.
    """
    if eps <= 0 or radius <= 0:
        raise ValueError("eps and radius must be positive")
    if x.frobenius_norm() >= radius:
        return False
    return orbit_min_norm(x) < eps
