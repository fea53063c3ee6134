"""Noncommutative L_p structure of finite group von Neumann algebras.

Conventions: Haar measure on a finite group is counting measure, the trace is
the vector state at the identity, tau(lambda(f)) = f(e), equivalently Tr/N on
the regular representation.  L_p norms are normalized Schatten norms of the
regular representation, computed on its irreducible blocks (Plancherel,
||lambda(f)||_p^p = (1/N) sum_pi d_pi ||f^(pi)||_{S_p}^p, from
``FiniteGroup.spectral()``), so no NxN matrix is formed or factorized.
``lp_norms`` and ``lp_norm_gradient`` take (..., N) coefficient stacks and
return one value per row; ``lp_norm`` is the one-element case of the same
code.  Blocks of size 1 and 2 are factorized in closed form (see ``_svd2``);
only blocks of size >= 3 go to ``numpy.linalg.svd``.  ``matrix_lp_norm``
stays for operators that are not algebra elements (the dense embedding and
lattice maps of ``restriction``).  Exponents are plain floats in [1, inf]
with math.inf as a first-class value; ``check_exponent`` is the one place
that validates them.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .groups import AlgebraElement, FiniteGroup

_SUBNORMAL = np.finfo(float).smallest_subnormal

__all__ = [
    "conjugate_exponent",
    "plancherel_trace",
    "lp_norm",
    "lp_norms",
    "lp_norm_gradient",
    "matrix_lp_norm",
]


def check_exponent(p) -> float:
    """p as a float, if 1 <= p <= inf; anything else (NaN too) is a ValueError."""
    p = float(p)
    if not 1.0 <= p <= math.inf:
        raise ValueError(f"exponent {p} is not in [1, inf]")
    return p


def conjugate_exponent(p: float) -> float:
    """p' with 1/p + 1/p' = 1; conjugates 1 and infinity explicitly."""
    p = check_exponent(p)
    if p == 1:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def exponent_tuple(ps) -> tuple[float, ...]:
    """Exponents as a tuple of floats; a single number means one exponent."""
    return tuple(check_exponent(q) for q in (ps if isinstance(ps, (tuple, list)) else [ps]))


def output_exponent(ps: tuple[float, ...], arity: int) -> float:
    """p with 1/p = sum_i 1/p_i (inf when every p_i is), the output exponent
    of a multilinear map with one exponent p_i per slot; a tuple of another
    length is a ValueError naming both counts."""
    if len(ps) != arity:
        raise ValueError(f"{len(ps)} exponents for a symbol of arity {arity}")
    total = sum(1.0 / q for q in ps)
    return 1.0 / total if total else math.inf


def plancherel_trace(f: AlgebraElement) -> complex:
    """tau(lambda(f)) = f(identity)."""
    return complex(f.coeffs[f.parent.identity])


def matrix_lp_norm(mat: np.ndarray, p: float, trace_dim: int | None = None) -> float:
    """Normalized Schatten p-norm ((1/N) sum sigma_i^p)^(1/p) of a square matrix,
    summed as sigma_1 ((1/N) sum (sigma_i / sigma_1)^p)^(1/p), so no power
    overflows or underflows where the norm itself is representable.

    ``trace_dim`` overrides the normalization dimension N (defaults to the
    matrix size).
    """
    p = check_exponent(p)
    n = trace_dim if trace_dim is not None else mat.shape[0]
    try:
        sigma = np.linalg.svd(mat, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numerical failure
        raise ArithmeticError(f"SVD failed for a {mat.shape} matrix: {exc}") from exc
    top = float(sigma[0]) if sigma.size else 0.0
    if math.isinf(p) or top == 0.0:
        return top
    return top * float((np.sum((sigma / top) ** p) / n) ** (1.0 / p))


def lp_norm(f: AlgebraElement, p: float) -> float:
    """Noncommutative L_p norm of lambda(f); for p = 2 this is the l2 norm of f."""
    return float(lp_norms(f.parent, f.coeffs, p))


def lp_norms(group: FiniteGroup, coeffs: np.ndarray, p: float) -> np.ndarray:
    """L_p norms of a (..., N) stack of coefficient vectors, one per row.
    Each row's singular values are divided by their largest before the power
    is taken, so no power overflows or underflows where the norm itself is
    representable."""
    p = check_exponent(p)
    spec = group.spectral()
    sigmas = [_factor(b)[0] for b in spec.forward(coeffs)]
    top = functools.reduce(np.maximum, [s.max(axis=(-2, -1), initial=0.0) for s in sigmas])
    if math.isinf(p):
        return top
    # a zero row keeps scale > 0, and its sum stays 0
    scale = np.maximum(top, _SUBNORMAL)
    col = scale[..., None, None]
    total = sum(d * ((s / col) ** p).sum(axis=(-2, -1)) for d, s in zip(spec.dims, sigmas))
    return scale * (total / spec.order) ** (1.0 / p)


def lp_norm_gradient(
    group: FiniteGroup, coeffs: np.ndarray, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """||lambda(f)||_p (1 < p < inf) of each row f of a (..., N) coefficient
    stack, and the gradient of the norm: the coefficients of the norming
    element z = J_p(f) / ||f||_p^(p-1), where J_p(f) = U sigma^(p-1) V^H on
    each block f^(pi) = U sigma V^H.  So ||z||_p' = 1 and <f, z> = sum_s
    f(s) conj(z(s)) = ||f||_p; z = 0 on a zero row.

    J_p(f) is pulled back by the adjoint transform, s -> (1/N) sum_pi d_pi
    tr(pi(s)^* G_pi).  As in ``lp_norms``, the singular values are divided by
    the row's largest before any power is taken, so p' near 1 (p ~ 1e6) does
    not overflow.  At p = 2, z = f / ||f||_2 needs no factorization.
    """
    if p == 2.0:
        norm = np.linalg.norm(coeffs, axis=-1)
        return norm, coeffs / np.where(norm > 0.0, norm, 1.0)[..., None]
    spec = group.spectral()
    parts = [_factor(b, p) for b in spec.forward(coeffs)]
    top = functools.reduce(np.maximum, [s.max(axis=(-2, -1), initial=0.0) for s, _ in parts])
    col = np.maximum(top, _SUBNORMAL)[..., None, None]
    mean, grads = 0.0, []
    for d, (s, g) in zip(spec.dims, parts):
        ratio = s / col
        power = ratio ** (p - 1.0)
        mean = mean + (d / spec.order) * (power * ratio).sum(axis=(-2, -1))
        # each block's gradient comes divided by its own sigma_1^(p-1)
        grads.append(g * power[..., :1, None])
    # J, built from sigma / top, has ||J||_p' = mean^(1/p'); adjoint adds N.
    # A zero row has zero gradients, and any positive divisor keeps it 0.
    dual = spec.order * np.maximum(mean, _SUBNORMAL) ** (1.0 - 1.0 / p)
    return col[..., 0, 0] * mean ** (1.0 / p), spec.adjoint(grads) / dual[..., None]


def _factor(blocks: np.ndarray, p: float | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Singular values (..., k, d) of a (..., k, d, d) block stack and, given
    1 < p < inf, U (sigma / sigma_1)^(p-1) V^H of each block, where sigma_1
    is the block's own largest singular value, so no power overflows (0 on a
    zero block; None without p), as ``_svd2`` returns them; only blocks of
    size >= 3 go to ``numpy.linalg.svd``."""
    d = blocks.shape[-1]
    if d == 2:
        return _svd2(blocks, p)
    if d == 1:
        mag = np.abs(blocks)
        grad = None if p is None else np.divide(blocks, mag, out=np.zeros(blocks.shape, complex),
                                                where=mag > 0)
        return mag[..., 0], grad
    if p is None:
        return np.linalg.svd(blocks, compute_uv=False), None
    u, sigma, vh = np.linalg.svd(blocks)
    ratio = np.divide(sigma, sigma[..., :1], out=np.zeros(sigma.shape), where=sigma[..., :1] > 0)
    return sigma, (u * ratio[..., None, :] ** (p - 1.0)) @ vh


_COFACTOR_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])[:, None]
_TINY = np.finfo(float).tiny


def _svd2(blocks: np.ndarray, p: float | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Singular values (..., k, 2) of a (..., k, 2, 2) block stack in closed
    form and, given p, U (sigma / sigma_1)^(p-1) V^H of each block (else None).

    sigma_1^2 = (||A||_F^2 + gap) / 2 with gap = sigma_1^2 - sigma_2^2 taken
    from the entries of A^H A (||A||_F^4 - 4|det A|^2 would cancel when
    sigma_1 ~ sigma_2), and sigma_2 = |det A| / sigma_1, never a difference.
    The gradient is (alpha A + beta C) / sigma_1 with C = (det A / |det A|)
    [[d*, -c*], [-b*, a*]] = U diag(sigma_2, sigma_1) V^H.  With
    r = sigma_2 / sigma_1 and g_q = (1 - r^q) / (1 - r^2), alpha = g_p and
    beta = (r^(p-1) - r) / (1 - r^2), which is r^(p-1) g_(2-p) below p = 2 and
    -r g_(p-2) above, so no factor is a difference near r = 1.  Each g_q
    comes from L = -log r^2 = log1p(gap / sigma_2^2) and t = 1 - r^2 =
    gap / sigma_1^2, both accurate whether r is near 0 or near 1.
    """
    lead = blocks.shape[:-2]
    entries = blocks.reshape(-1, 4).T.copy()  # rows a, b, c, d of [[a, b], [c, d]]
    conj = entries.conj()
    sq = (conj * entries).real
    h = sq[:2] + sq[2:]  # |a|^2 + |c|^2 and |b|^2 + |d|^2, the diagonal of A^H A
    cross = conj[::2] * entries[1::2]  # a* b and c* d
    prods = entries[:2] * entries[:1:-1]  # a d and b c
    det = prods[0] - prods[1]
    mag = np.abs(det)
    gap = np.hypot(h[0] - h[1], 2.0 * np.abs(cross[0] + cross[1]))
    s1_sq = 0.5 * (h[0] + h[1] + gap)
    sigma = np.empty((2, gap.size))
    s1 = np.sqrt(s1_sq, out=sigma[0])
    # s1 = 0 only on a zero block, whose det is 0 too
    s1_safe = np.maximum(s1, _TINY)
    s2 = np.minimum(mag / s1_safe, s1, out=sigma[1])
    values = sigma.T.reshape(lead + (2,))
    if p is None:
        return values, None
    with np.errstate(divide="ignore", invalid="ignore"):
        t = gap / s1_sq
        log_ratio = np.log1p(gap / (s2 * s2))
        r = s2 / s1_safe
        alpha = _mean_power(p, log_ratio, t)
        if p < 2.0:
            beta = r ** (p - 1.0) * _mean_power(2.0 - p, log_ratio, t)
        else:
            beta = -r * _mean_power(p - 2.0, log_ratio, t)
    scale = 1.0 / s1_safe
    phase = det / (mag + (mag == 0))  # det / |det|, and 0 where det = 0
    grad = (scale * alpha) * entries + (scale * beta * phase) * (conj[::-1] * _COFACTOR_SIGNS)
    return values, grad.T.reshape(lead + (2, 2))


def _mean_power(q: float, log_ratio: np.ndarray, t: np.ndarray) -> np.ndarray:
    """g_q = (1 - r^q) / (1 - r^2) = -expm1(-(q/2) L) / t for L = -log r^2 and
    t = 1 - r^2.  g_q is the mean of (q/2) x^(q/2-1) over [r^2, 1], so it lies
    between 1 and q/2 and tends to q/2 as r -> 1: clamping there maps the 0/0
    of equal singular values (and of zero blocks) to that limit, no cutoff."""
    clamp = np.fmin if q > 2.0 else np.fmax
    return clamp(-np.expm1(-0.5 * q * log_ratio) / t, 0.5 * q)
