"""Reference computations made apart from ncfourier.

Every function here works on raw numpy arrays and group tables (``mul``,
``inv``) and shares no code with the package.  The benchmark checks the
package's outputs against these values or against the brackets they give.

Conventions match the package: L_p norms are normalized Schatten norms of the
left regular representation, (1/N sum sigma_i^p)^(1/p), and the L_2 norm of
lambda(x) is the l2 norm of the coefficient vector.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# group algebra


def convolve(mul: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(f*g)(s) = sum_{t u = s} f(t) g(u), summed over the nonzero f(t) only."""
    out = np.zeros(mul.shape[0], dtype=complex)
    for t in np.flatnonzero(f):
        out[mul[t]] += f[t] * g
    return out


def involution(inv: np.ndarray, f: np.ndarray) -> np.ndarray:
    """x*(s) = conj(x(s^-1))."""
    return np.conj(f[inv])


def regular_matrix(mul: np.ndarray, inv: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Entry (t, u) is f(t u^-1); used only at small orders."""
    return f[mul[:, inv]]


def schatten(mat: np.ndarray, p: float) -> float:
    """Normalized Schatten p-norm of a square matrix."""
    sigma = np.linalg.svd(mat, compute_uv=False)
    if math.isinf(p):
        return float(sigma[0])
    return float((np.sum(sigma ** p) / mat.shape[0]) ** (1.0 / p))


def lp_norm_dense(mul: np.ndarray, inv: np.ndarray, f: np.ndarray, p: float) -> float:
    return schatten(regular_matrix(mul, inv, f), p)


def lp_norm_cyclic(f: np.ndarray, p: float) -> float:
    """Exact L_p norm on cyclic:N: lambda(f) is circulant, its singular values
    are |fft(f)|."""
    sigma = np.abs(np.fft.fft(f))
    if math.isinf(p):
        return float(sigma.max())
    return float(np.mean(sigma ** p) ** (1.0 / p))


def lp_bracket(mul: np.ndarray, inv: np.ndarray, f: np.ndarray, p: float) -> tuple[float, float]:
    """A two-sided bracket [lo, hi] on the L_p norm of lambda(f), p in {1, 2, 3, 4, inf},
    from convolutions only.

    p = 2 is Plancherel and p = 4 the even-p identity ||x||_4^4 = ||x* x||_2^2,
    both exact.  ||x||_8^8 = ||(x* x)^2||_2^2 is exact too.  With the
    normalized trace, p -> ||x||_p is increasing, so ||x||_8 <= ||x||_inf <=
    N^(1/8) ||x||_8; log-convexity gives ||x||_3 <= ||x||_2^(1/3) ||x||_4^(2/3);
    Holder gives ||x||_2^2 <= ||x||_1 ||x||_inf.
    """
    n = f.shape[0]
    l2 = float(np.linalg.norm(f))
    y = convolve(mul, involution(inv, f), f)
    l4 = float(np.linalg.norm(y)) ** 0.5
    l8 = float(np.linalg.norm(convolve(mul, y, y))) ** 0.25
    inf_hi = min(l8 * n ** 0.125, float(np.sum(np.abs(f))))
    if p == 2.0:
        return l2, l2
    if p == 4.0:
        return l4, l4
    if p == 3.0:
        return l2, l2 ** (1.0 / 3.0) * l4 ** (2.0 / 3.0)
    if math.isinf(p):
        return l8, inf_hi
    if p == 1.0:
        return l2 * l2 / inf_hi, l2
    raise ValueError(f"no bracket for p = {p}")


def apply_bilinear(mul: np.ndarray, m: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """T_m(x, y)(s) = sum_{s1 s2 = s} m(s1, s2) x(s1) y(s2)."""
    n = mul.shape[0]
    w = m * np.outer(x, y)
    return (np.bincount(mul.ravel(), w.real.ravel(), n)
            + 1j * np.bincount(mul.ravel(), w.imag.ravel(), n))


# ---------------------------------------------------------------------------
# multiplier norms


def norm_ratio(mul, inv, m: np.ndarray, witness, ps, p: float) -> float:
    """||T_m(x_1..x_n)||_p / prod ||x_i||_{p_i} for a linear or bilinear symbol."""
    if m.ndim == 1:
        out = m * witness[0]
    else:
        out = apply_bilinear(mul, m, witness[0], witness[1])
    denom = 1.0
    for w, q in zip(witness, ps):
        denom *= lp_norm_dense(mul, inv, w, q)
    return lp_norm_dense(mul, inv, out, p) / denom


def norm_upper_bound(mul, inv, m: np.ndarray, p: float) -> float:
    """Upper bound on ||T_m||.

    Linear: interpolating ||T_m||_2 = sup|m| with ||T_m||_{inf} <= ||m||_A, the
    normalized trace norm of lambda(m), gives sup|m|^(2/q) ||m||_A^(1-2/q)
    with q = max(p, p').  Multilinear: each lambda(s) is unitary and
    |x(s)| <= ||x||_1 <= ||x||_p, so the norm is at most sum |m|.
    """
    if m.ndim > 1:
        return float(np.sum(np.abs(m)))
    sup = float(np.max(np.abs(m)))
    a_norm = lp_norm_dense(mul, inv, m, 1.0)
    q = max(p, p / (p - 1.0))
    return sup ** (2.0 / q) * a_norm ** (1.0 - 2.0 / q)


# ---------------------------------------------------------------------------
# restriction and transference


def delta_fraction(mul: np.ndarray, inv: np.ndarray, F, V) -> tuple[int, int]:
    """|V cap (intersection over s in F of s V s^-1)| and |V|."""
    V = np.asarray(sorted(V), dtype=np.int64)
    surviving = np.ones(len(V), dtype=bool)
    for s in F:
        # v lies in s V s^-1 exactly when s^-1 v s lies in V
        surviving &= np.isin(mul[mul[inv[s], V], s], V)
    return int(surviving.sum()), len(V)


def transference_pairing(m: np.ndarray, x, y, z) -> tuple[complex, float]:
    """sum_{a,b} m(a,b) x(a) y(b) conj z(a+b) on Z_L, and the same sum of
    absolute values."""
    L = len(x)
    idx = (np.arange(L)[:, None] + np.arange(L)[None, :]) % L
    terms = m * np.outer(x, y) * np.conj(z[idx])
    return complex(terms.sum()), float(np.abs(terms).sum())


def transference_residual_bound(abs_sum: float, support: int, alpha: int) -> float:
    """Largest residual the Folner compression can leave.

    With x and y supported in {-k..k}, the compressed pairing is |F|^-1 times
    a sum over s in F of partial pairings; every s at distance >= 2k from the
    window's ends sees the whole pairing, and at most 4k do not, each off by
    at most the absolute sum.
    """
    return 4.0 * support * abs_sum / (2.0 * alpha + 1.0)


# ---------------------------------------------------------------------------
# sl(2) tubes and SL(2, Z)


def tube_volume(eps: float, R: float) -> float:
    """Exact volume of {x in sl(2) : 2|det x| < eps^2, |x|_F < R}.

    With y = sqrt2 x1, a = (x2+x3)/sqrt2, b = (x2-x3)/sqrt2 and s = y^2 + a^2
    the tube is {|s - b^2| < eps^2, s + b^2 < R^2} and its volume is
    (pi/sqrt2) area{(s, b) : s >= 0, |s - b^2| < eps^2, s + b^2 < R^2}.  The
    width in s at height b is quadratic in b between the breakpoints, so
    Simpson's rule is exact on each piece.
    """
    e2, r2 = eps * eps, R * R

    def width(b: float) -> float:
        lo = max(0.0, b * b - e2)
        hi = min(b * b + e2, r2 - b * b)
        return max(0.0, hi - lo)

    cuts = sorted({0.0, R, *(math.sqrt(c) for c in (e2, (r2 - e2) / 2, (r2 + e2) / 2) if 0 < c < r2)})
    area = 0.0
    for a, b in zip(cuts, cuts[1:]):
        area += (b - a) / 6.0 * (width(a) + 4.0 * width(0.5 * (a + b)) + width(b))
    return math.pi / math.sqrt(2.0) * 2.0 * area


def tube_ratio(eps: float, R: float, rho: float) -> float:
    return tube_volume(eps, rho * R) / tube_volume(eps, R)


def sl2z_norms(t_max: int) -> np.ndarray:
    """Sorted a^2+b^2+c^2+d^2 over all integer (a,b,c,d) with ad - bc = 1 and
    a^2+b^2+c^2+d^2 <= t_max, by enumerating (a, b, c) and solving for d."""
    r = math.isqrt(t_max)
    bc = np.arange(-r, r + 1)
    b, c = np.meshgrid(bc, bc, indexing="ij")
    b, c = b.ravel(), c.ravel()
    found = []
    for a in range(-r, r + 1):
        if a == 0:
            # -bc = 1 forces (b, c) = (1, -1) or (-1, 1); d is free
            d = np.arange(-r, r + 1)
            found.extend([2 + d * d] * 2)
            continue
        num = 1 + b * c
        ok = num % a == 0
        d = num[ok] // a
        found.append(a * a + b[ok] ** 2 + c[ok] ** 2 + d * d)
    norms = np.sort(np.concatenate(found))
    return norms[norms <= t_max]


def sl2z_count(norms: np.ndarray, rho: float) -> int:
    """Number of SL(2,Z) elements with ||Ad_g|| <= rho, i.e. with squared
    Frobenius norm <= rho + 1/rho."""
    return int(np.searchsorted(norms, rho + 1.0 / rho, side="right"))


def max_nilpotent_orbit_dim(n: int) -> int:
    """The regular nilpotent orbit of sl(n) has dimension n^2 - n."""
    return n * (n - 1)
