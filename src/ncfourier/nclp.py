"""Noncommutative L_p structure of finite group von Neumann algebras.

Conventions: Haar measure on a finite group is counting measure, the trace is
the vector state at the identity, tau(lambda(f)) = f(e), equivalently Tr/N on
the regular representation.  L_p norms are normalized Schatten norms of the
regular representation, computed on its irreducible blocks (Plancherel,
||lambda(f)||_p^p = (1/N) sum_pi d_pi ||f^(pi)||_{S_p}^p, from
``FiniteGroup.spectral()``), so no NxN matrix is formed or factorized.
``lp_norms`` and ``lp_norm_gradient`` take (..., N) coefficient stacks and
return one value per row; ``lp_norm`` is the one-element case of the same
code.  ``matrix_lp_norm`` stays for operators that are not algebra elements.
Exponents are plain floats with math.inf as a first-class value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .groups import AlgebraElement, FiniteGroup, GroupSubset, _same_parent, regular_matrix

__all__ = [
    "conjugate_exponent",
    "plancherel_trace",
    "lp_norm",
    "lp_norms",
    "lp_norm_gradient",
    "matrix_lp_norm",
    "dual_pairing",
    "PolarPair",
    "polar_parts",
]


def conjugate_exponent(p: float) -> float:
    """p' with 1/p + 1/p' = 1; conjugates 1 and infinity explicitly."""
    if p < 1:
        raise ValueError(f"exponent {p} < 1")
    if p == 1:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def exponent_tuple(ps) -> tuple[float, ...]:
    """Exponents as a tuple of floats; a single number means one exponent."""
    return tuple(float(q) for q in (ps if isinstance(ps, (tuple, list)) else [ps]))


def plancherel_trace(f: AlgebraElement) -> complex:
    """tau(lambda(f)) = f(identity)."""
    return complex(f.coeffs[f.parent.identity])


def matrix_lp_norm(mat: np.ndarray, p: float, trace_dim: int | None = None) -> float:
    """Normalized Schatten p-norm ((1/N) sum sigma_i^p)^(1/p) of a square matrix.

    ``trace_dim`` overrides the normalization dimension N (defaults to the
    matrix size).
    """
    if p < 1:
        raise ValueError(f"exponent {p} < 1")
    n = trace_dim if trace_dim is not None else mat.shape[0]
    try:
        sigma = np.linalg.svd(mat, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numerical failure
        raise ArithmeticError(f"SVD failed for a {mat.shape} matrix: {exc}") from exc
    if math.isinf(p):
        return float(sigma[0]) if sigma.size else 0.0
    return float((np.sum(sigma ** p) / n) ** (1.0 / p))


def lp_norm(f: AlgebraElement, p: float) -> float:
    """Noncommutative L_p norm of lambda(f); for p = 2 this is the l2 norm of f."""
    return float(lp_norms(f.parent, f.coeffs, p))


def lp_norms(group: FiniteGroup, coeffs: np.ndarray, p: float) -> np.ndarray:
    """L_p norms of a (..., N) stack of coefficient vectors, one per row."""
    if p < 1:
        raise ValueError(f"exponent {p} < 1")
    spec = group.spectral()
    sigmas = [_singular_values(b) for b in spec.forward(coeffs)]
    if math.isinf(p):
        return functools.reduce(np.maximum, (s.max(axis=(-2, -1), initial=0.0) for s in sigmas))
    total = sum(d * (s ** p).sum(axis=(-2, -1)) for d, s in zip(spec.dims, sigmas))
    return (total / spec.order) ** (1.0 / p)


def lp_norm_gradient(
    group: FiniteGroup, coeffs: np.ndarray, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """||lambda(f)||_p (1 < p < inf) of each row f of a (..., N) coefficient
    stack, and the ascent direction of the norm in the coefficients of f,
    from one SVD per block stack.

    Each block f^(pi) = U sigma V^H gives G_pi = U sigma^(p-1) V^H (constant
    factors dropped, since callers renormalize steps), pulled back by the
    adjoint transform: the coefficient vector s -> sum_pi d_pi tr(pi(s)^* G_pi),
    which is the regular-matrix gradient summed over the entries (t, u) with
    t u^-1 = s.
    """
    spec = group.spectral()
    total, grads = 0.0, []
    for d, b in zip(spec.dims, spec.forward(coeffs)):
        if d == 1:
            mag = np.abs(b)
            sigma = mag[..., 0]
            grads.append(b * np.power(mag, p - 2.0, out=np.zeros(mag.shape), where=mag > 0))
        else:
            u, sigma, vh = np.linalg.svd(b)
            grads.append((u * sigma[..., None, :] ** (p - 1.0)) @ vh)
        total = total + d * (sigma ** p).sum(axis=(-2, -1))
    return (total / spec.order) ** (1.0 / p), spec.adjoint(grads)


def _singular_values(blocks: np.ndarray) -> np.ndarray:
    """Singular values of a (..., k, d, d) block stack, shape (..., k, d)."""
    if blocks.shape[-1] == 1:
        return np.abs(blocks[..., 0])
    return np.linalg.svd(blocks, compute_uv=False)


def dual_pairing(phi: AlgebraElement, f: AlgebraElement) -> complex:
    """Concrete duality pairing sum_s phi(s) f(s) (no conjugation)."""
    _same_parent(phi, f)
    return complex(np.sum(phi.coeffs * f.coeffs))


@dataclass(frozen=True, eq=False)
class PolarPair:
    """Polar data of k_V = |V|^{-1/2} lambda(1_V) for a symmetric subset V.

    k_V is self-adjoint, so h and u commute, u is a self-adjoint partial
    isometry and u^2 is the support projection of h.  The eigendecomposition
    is kept so fractional powers h^(2/p) are cheap.
    """

    h: np.ndarray
    u: np.ndarray
    source: GroupSubset
    eigvals: np.ndarray
    eigvecs: np.ndarray

    def h_power(self, exponent: float) -> np.ndarray:
        """h^exponent via the stored eigendecomposition (0^0 := 0 on the kernel)."""
        w = np.abs(self.eigvals)
        powered = np.zeros_like(w)
        nz = w > 1e-13 * max(w.max(initial=0.0), 1.0)
        powered[nz] = w[nz] ** exponent
        return (self.eigvecs * powered) @ self.eigvecs.conj().T


def polar_parts(subset: GroupSubset) -> PolarPair:
    """Polar decomposition of |V|^{-1/2} lambda(1_V); V must be symmetric, nonempty."""
    if len(subset) == 0:
        raise ValueError("subset is empty")
    if not subset.is_symmetric():
        raise ValueError("subset is not symmetric (V != V^{-1})")
    k = regular_matrix(subset.indicator()) / math.sqrt(len(subset))
    # symmetric V with real indicator makes k self-adjoint; eigh is exact here
    w, q = np.linalg.eigh(k)
    scale = max(float(np.max(np.abs(w))), 1.0)
    sign = np.where(np.abs(w) > 1e-13 * scale, np.sign(w), 0.0)
    h = (q * np.abs(w)) @ q.conj().T
    u = (q * sign) @ q.conj().T
    return PolarPair(h=h, u=u, source=subset, eigvals=w, eigvecs=q)
