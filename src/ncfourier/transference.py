"""Bilinear Schur-multiplier transference at finite truncation.

The cyclic group Z_L stands in for an amenable discrete group; the Folner
sets are the centered windows F_alpha = {-alpha..alpha} mod L.  The bilinear
Schur multiplier acts entrywise on matrices indexed by Z_L,

    S_M(y1, y2)_{s,t} = sum_r m(s - r, r - t) y1_{s,r} y2_{r,t},

and the compressions j_{p,alpha}(x) = |F_alpha|^{-1/p} P x P (P the window
projection) carry group-algebra elements into the matrix picture.  The
ultrafilter limit of the exact theory becomes a convergence-in-alpha report:
the pairing of S_M against compressions approaches the multiplier pairing as
the Folner overlap fraction goes to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import AlgebraElement, FiniteGroup, regular_matrix
from .multipliers import Symbol, apply_multiplier
from .nclp import check_exponent, conjugate_exponent, output_exponent

__all__ = [
    "TransferenceResult",
    "folner_window",
    "schur_bilinear",
    "compress",
    "hertz_schur_transference_residual",
]


def folner_window(L: int, alpha: int) -> np.ndarray:
    """Indices of F_alpha = {-alpha..alpha} mod L."""
    return np.array([k % L for k in range(-alpha, alpha + 1)], dtype=np.int64)


def schur_bilinear(m: Symbol, y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """Entrywise bilinear Schur action of an arity-2 symbol on Z_L matrices."""
    if m.arity != 2:
        raise ValueError("bilinear Schur action needs an arity-2 symbol")
    L = m.parent.order
    a = np.arange(L)
    out = np.zeros((L, L), dtype=complex)
    for r in range(L):
        block = m.values[np.ix_((a - r) % L, (r - a) % L)]
        out += block * np.outer(y1[:, r], y2[r, :])
    return out


def compress(x: AlgebraElement, alpha: int, p: float) -> np.ndarray:
    """j_{p,alpha}(x) = |F_alpha|^{-1/p} P_{F_alpha} x P_{F_alpha}."""
    L = x.parent.order
    window = folner_window(L, alpha)
    mat = regular_matrix(x)  # on Z_L entry (a, b) is x(a - b)
    proj = np.zeros((L, L))
    proj[window, window] = 1.0
    scale = len(window) ** (-1.0 / p) if not math.isinf(p) else 1.0
    return scale * (proj @ mat @ proj)


@dataclass
class TransferenceResult:
    alpha: int
    schur_pairing: complex
    multiplier_pairing: complex
    residual: float
    relative_residual: float


def hertz_schur_transference_residual(
    m: Symbol,
    alpha: int,
    p1: float,
    p2: float,
    x: AlgebraElement,
    y: AlgebraElement,
    z: AlgebraElement,
) -> TransferenceResult:
    """Compare the compressed Schur pairing with the multiplier pairing.

    Both pairings are trace pairings against z* ; the compression scalings
    multiply out to |F_alpha|^{-1} so the residual does not depend on the
    exponents, which are nevertheless validated (1/p1 + 1/p2 <= 1).
    """
    L = m.parent.order
    if alpha < 0:
        raise ValueError(f"Folner radius {alpha} is negative")
    if alpha > L // 4:
        raise ValueError(f"Folner radius {alpha} too large for L = {L}")
    p1, p2 = check_exponent(p1), check_exponent(p2)
    p = output_exponent((p1, p2), m.arity)
    if 1.0 / p > 1.0 + 1e-12:
        raise ValueError("need p1, p2 >= 1 with 1/p1 + 1/p2 <= 1")
    pprime = conjugate_exponent(p)

    s_mat = schur_bilinear(m, compress(x, alpha, p1), compress(y, alpha, p2))
    z_mat = compress(z, alpha, pprime)
    schur_pairing = complex(np.sum(s_mat * np.conj(z_mat)))

    t_out = apply_multiplier(m, x, y)
    multiplier_pairing = complex(np.sum(t_out.coeffs * np.conj(z.coeffs)))

    residual = abs(schur_pairing - multiplier_pairing)
    denom = abs(multiplier_pairing)
    return TransferenceResult(
        alpha=alpha,
        schur_pairing=schur_pairing,
        multiplier_pairing=multiplier_pairing,
        residual=residual,
        relative_residual=residual / denom if denom > 0 else (0.0 if residual == 0 else math.inf),
    )


def bump_element(group: FiniteGroup, radius: int, width: float) -> AlgebraElement:
    """Positive coefficient bump supported on {-radius..radius} mod L."""
    if radius < 0:
        raise ValueError(f"bump radius must be >= 0, got {radius}")
    if not 0.0 < width < math.inf:
        raise ValueError(f"bump width must be positive and finite, got {width}")
    L = group.order
    coeffs = np.zeros(L, dtype=complex)
    for k in range(-radius, radius + 1):
        coeffs[k % L] = math.exp(-(k ** 2) / (2.0 * width ** 2))
    return AlgebraElement(group, coeffs)
