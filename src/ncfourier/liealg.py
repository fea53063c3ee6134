"""Matrix Lie algebra models: sl(n,R) for 2 <= n <= 5 and the 3-dimensional
Heisenberg algebra.

The invariant form is the trace form B(x,y) = trace(xy), so the associated
inner product B_theta(x,y) = -B(x, theta(y)) with theta(y) = -y^T is the
Frobenius inner product, which every norm here uses directly.  (The Killing
form differs by the constant 2n on sl(n); every ratio verified downstream is
invariant under that rescaling.)  The Heisenberg model is not reductive: it
has no Cartan involution, and the orbit-norm and nilpotent-orbit operations
require an sl model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LieModel",
    "AlgebraVector",
    "GroupMatrix",
    "build_model",
    "ad_operator",
    "adjoint_norm",
    "is_nilpotent_matrix",
    "nilpotent_orbit_dim",
    "max_nilpotent_dim",
    "exp_density",
    "orbit_min_norm",
    "random_special_orthogonal",
]


@dataclass(frozen=True, eq=False)
class LieModel:
    name: str
    n: int                      # matrix size
    dim: int
    basis: tuple[np.ndarray, ...]
    bracket: np.ndarray         # c[i,j,k]: [b_i, b_j] = sum_k c[i,j,k] b_k
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
    stack = np.stack(basis)
    products = stack[:, None] @ stack[None]  # b_i b_j
    comms = products - products.swapaxes(0, 1)
    bracket = (comms.reshape(dim * dim, size * size) @ pinv.T).reshape(dim, dim, dim)
    q, _ = np.linalg.qr(flat)
    model = LieModel(
        name=name, n=size, dim=dim, basis=tuple(basis), bracket=bracket,
        _flat=flat, _pinv=pinv, _onb=q,
    )
    _validate_model(model)
    return model


def _validate_model(model: LieModel) -> None:
    c = model.bracket
    if not np.max(np.abs(c + np.swapaxes(c, 0, 1))) <= 1e-12:  # a NaN or inf fails too
        raise AssertionError("bracket is not antisymmetric")
    # t[i, j, k, l] = sum_m c[i, j, m] c[m, k, l]; the Jacobi sum at i, in (j, k, l),
    # is t[i, j, k, l] + t[j, k, i, l] + t[k, i, j, l], one i at a time to stay in cache
    dim = model.dim
    t = (c.reshape(-1, dim) @ c.reshape(dim, -1)).reshape((dim,) * 4)
    if max(np.max(np.abs(t[i] + t[:, :, i] + t[:, i].swapaxes(0, 1))) for i in range(dim)) > 1e-12:
        raise AssertionError("Jacobi identity fails")


def ad_operator(x: AlgebraVector) -> np.ndarray:
    """Matrix of y -> [x, y] in the model basis."""
    return _ad_stack(x.model, x.coords[None])[0]


def _ad_stack(model: LieModel, coords: np.ndarray) -> np.ndarray:
    """ad_x for each row x of a (S, dim) coordinate stack: entry (k, j) of
    ad_x is sum_i x_i c_ijk, from one matmul against the flattened bracket."""
    dim = model.dim
    flat = coords @ model.bracket.reshape(dim, dim * dim)
    return flat.reshape(-1, dim, dim).swapaxes(1, 2)


def _adjoint_operator_matrix(model: LieModel, g: np.ndarray) -> np.ndarray:
    """Ad_g of an invertible (n, n) matrix g in a Frobenius-orthonormal basis
    of the model's span."""
    ginv = np.linalg.inv(g)
    n, dim = model.n, model.dim
    onb = model._onb  # (n^2, dim), columns orthonormal
    cols = onb.T.reshape(dim, n, n)
    conjugated = np.einsum("ab,kbc,cd->kad", g, cols, ginv)
    return onb.T @ conjugated.reshape(dim, n * n).T


def adjoint_norm(g: GroupMatrix) -> float:
    """Operator norm of Ad_g with respect to the B_theta inner product; >= 1,
    and = 1 exactly on the maximal compact subgroup."""
    if abs(np.linalg.det(g.mat)) < 1e-12:
        raise ValueError("matrix is singular")
    return float(np.linalg.svd(_adjoint_operator_matrix(g.model, g.mat), compute_uv=False)[0])


def _orthogonal(normals: np.ndarray) -> np.ndarray:
    """Q from the QR factorization of each (..., n, n) Gaussian matrix, with
    the signs fixed by diag(R) > 0, so Q is Haar on O(n)."""
    q, r = np.linalg.qr(normals)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def random_special_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar rotation: the Haar O(n) draw of n^2 normals, its first column
    negated where det = -1."""
    q = _orthogonal(rng.standard_normal((n, n)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def is_nilpotent_matrix(mat: np.ndarray) -> bool | np.ndarray:
    """||X^n||_F <= 1e-9 after scaling X to unit Frobenius norm.  A
    (..., n, n) stack gives one flag per matrix."""
    mat = np.asarray(mat, dtype=float)
    nrm = np.linalg.norm(mat, axis=(-2, -1), keepdims=True)
    scaled = mat / np.where(nrm == 0.0, 1.0, nrm)
    power = np.linalg.matrix_power(scaled, mat.shape[-1])
    flags = np.linalg.norm(power, axis=(-2, -1)) <= 1e-9
    return bool(flags) if flags.ndim == 0 else flags


def _nilpotent_orbit_dims(model: LieModel, coords: np.ndarray) -> np.ndarray:
    """Ranks of ad_x for a (S, dim) stack of nilpotent coordinate vectors."""
    mats = (coords @ model._flat.T).reshape(-1, model.n, model.n)
    if not np.all(is_nilpotent_matrix(mats)):
        raise ValueError("element is not nilpotent")
    sigma = np.linalg.svd(_ad_stack(model, coords), compute_uv=False)
    return np.count_nonzero(sigma > 1e-8 * sigma[:, :1], axis=1)


def nilpotent_orbit_dim(x: AlgebraVector) -> int:
    """Dimension of the adjoint orbit through a nilpotent element: rank of ad_x."""
    return int(_nilpotent_orbit_dims(x.model, x.coords[None])[0])


def _partitions(n: int, top: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n as non-increasing tuples, (n) first, (1, ..., 1) last."""
    if n == 0:
        return [()]
    return [(k,) + p for k in range(min(n, top or n), 0, -1) for p in _partitions(n - k, k)]


def _power_ranks(mats: np.ndarray) -> np.ndarray:
    """(S, n - 1) ranks of x^k, k = 1 .. n - 1, of a (S, n, n) stack: each
    read as ||x^k||_F^2 where x^k is a partial isometry, -1 where it is not.
    The powers of every sweep sample q J_lambda q^T are partial isometries,
    since J_lambda^k is a 0/1 partial permutation.  One power is held at a
    time, and no SVD is taken.

    P = x^k (x^k)^T is symmetric with eigenvalues mu = sigma^2 >= 0, the
    squared singular values of x^k.  If ||P^2 - P||_F <= tau = 1e-8, every
    mu has mu |mu - 1| <= ||P^2 - P||_2 <= ||P^2 - P||_F, so mu <= 2 tau or
    |mu - 1| <= 2 tau (for mu <= 1/2 the factor |mu - 1| is at least 1/2,
    for mu >= 1/2 the factor mu is).  Then tr P = ||x^k||_F^2 lies within
    2 n tau < 1/2 of the number r of mu near 1, and rint(tr P) = r: the
    singular values near 1 are counted and those at most sqrt(2 tau) are
    not, which is the count the rule sigma > 1e-8 sigma_max(x)^k gives when
    no singular value lies between 1e-8 and 1.5e-4.  A power is read only
    if it also has |tr P - rint(tr P)| <= 1e-8.
    """
    ranks = np.empty((len(mats), mats.shape[-1] - 1), dtype=int)
    power = mats
    for k in range(ranks.shape[1]):
        if k:
            power = power @ mats
        proj = power @ np.swapaxes(power, 1, 2)
        defect = proj @ proj
        defect -= proj
        trace = np.einsum("sii->s", proj)
        rank = np.rint(trace)
        isometry = (np.sqrt(np.einsum("sij,sij->s", defect, defect)) <= 1e-8) & (
            np.abs(trace - rank) <= 1e-8)
        ranks[:, k] = np.where(isometry, rank, -1)
    return ranks


# samples per batched sweep step: bounds each (chunk, n, n) power and projection
_SWEEP_CHUNK = 2048


def max_nilpotent_dim(
    model: LieModel, rng: np.random.Generator | None = None, samples: int = 1000
) -> int | None:
    """Largest nilpotent orbit dimension: the rank of ad on the regular
    (single-Jordan-block) nilpotent of sl:n; None for heisenberg3, which is
    not reductive.

    The nilpotent orbits of sl(n), real or complex, match the partitions
    lambda of n, with dim O_lambda = n^2 - sum_i (lambda^T_i)^2
    (Collingwood-McGovern, Nilpotent Orbits in Semisimple Lie Algebras, 1993,
    section 6.1).  A call raises AssertionError unless the rank of ad on every
    Jordan matrix J_lambda equals the formula and every sweep sample
    q J_lambda q^T (at sample i, lambda of index i mod p(n) and q the Haar
    O(n) draw of the sample's n^2 normals; q^T = q^{-1}, so q J_lambda q^T
    has J_lambda's Jordan type whatever the sign of det q) is nilpotent of
    the type lambda^T_k = r_{k-1} - r_k read from the ranks r_k of x^k
    (r_0 = n, r_n = 0), each r_k the trace of the projection x^k (x^k)^T (see
    ``_power_ranks``).  The sweep runs in chunks of up to ``_SWEEP_CHUNK``
    samples that continue one stream.  Margins over 20,000 sweep samples
    per n (seed 3): ||P^2 - P||_F is at most 5.6e-15 and
    |tr P - rint(tr P)| at most 8.0e-15 on every power, against the 1e-8 a
    read allows; the zero singular values of ad_x are at most 2.8e-15 and
    the others at least 0.126 times its largest.
    """
    if not model.is_sl():
        return None
    rng = rng or np.random.default_rng(0)
    n = model.n
    parts = _partitions(n)
    # J_lambda: ones on the superdiagonal except where a Jordan block ends
    reps = np.stack([np.diag(1.0 - np.isin(np.arange(1, n), np.cumsum(p)), 1) for p in parts])
    types = np.array([[sum(part >= k for part in p) for k in range(1, n + 1)] for p in parts])
    dims = n * n - np.sum(types ** 2, axis=1)
    ad_dims = _nilpotent_orbit_dims(model, reps.reshape(-1, n * n) @ model._pinv.T)
    if np.any(ad_dims != dims):
        i = int(np.argmax(ad_dims != dims))
        raise AssertionError(f"partition {parts[i]}: rank of ad {ad_dims[i]}, formula {dims[i]}")
    for start in range(0, samples, _SWEEP_CHUNK):
        which = np.arange(start, min(start + _SWEEP_CHUNK, samples)) % len(parts)
        q = _orthogonal(rng.standard_normal((len(which), n, n)))
        mats = q @ reps[which] @ np.swapaxes(q, 1, 2)
        ranks = _power_ranks(mats)
        read = -np.diff(ranks, axis=1, prepend=n, append=0)
        nilpotent = is_nilpotent_matrix(mats)
        bad = ~nilpotent | np.any(read != types[which], axis=1)
        if np.any(bad):
            i = int(np.argmax(bad))
            unread = (np.flatnonzero(ranks[i] < 0) + 1).tolist()
            found = (f"lambda^T unread, orbit dimension unread against {dims[which[i]]}; "
                     f"x^k is not a partial isometry for k in {unread}" if unread else
                     f"lambda^T read as {read[i].tolist()}, orbit dimension "
                     f"{n * n - np.sum(read[i] ** 2)} against {dims[which[i]]}")
            raise AssertionError(f"sweep sample {start + i} of partition {parts[which[i]]}: "
                                 f"nilpotent {nilpotent[i]}, {found}")
    return int(ad_dims[0])


def exp_density(x: AlgebraVector) -> float:
    """Density of the pulled-back Haar measure in exponential coordinates,
    nu(x) = |det((Id - exp(-ad_x)) / ad_x)| (Helgason, Differential Geometry,
    Lie Groups, and Symmetric Spaces, 1978, Thm II.1.7): the product of
    |(1 - e^{-mu}) / mu| over the complex spectrum of ad_x."""
    mu = np.linalg.eigvals(ad_operator(x))
    big = np.abs(mu) > 1e-8
    factors = 1.0 - mu / 2.0 + mu ** 2 / 6.0  # the series, where |mu| <= 1e-8
    factors[big] = -np.expm1(-mu[big]) / mu[big]
    return float(np.abs(np.prod(factors)))


def _matrix_density(x: AlgebraVector) -> float:
    """nu(x) from the eigenvalues lambda_i of the matrix of x, exactly:
    prod_{i<j} |sinh(m_ij) / m_ij|^2 with m_ij = (lambda_i - lambda_j) / 2.

    On sl(n) the spectrum of ad_x is {lambda_i - lambda_j : i != j} and n - 1
    zeros, and the factors of mu and -mu multiply to (sinh(mu/2) / (mu/2))^2.
    On heisenberg3 every eigenvalue is 0 and nu = 1.
    """
    lam = np.linalg.eigvals(x.matrix())
    i, j = np.triu_indices(len(lam), 1)
    m = (lam[i] - lam[j]) / 2.0
    m = m[m != 0.0]  # sinh(m) / m -> 1
    return float(np.prod(np.abs(np.sinh(m) / m) ** 2))


# ---------------------------------------------------------------------------
# orbit norm infimum


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
