"""Linear and multilinear Fourier multipliers on finite groups.

A multiplier with symbol m on G^n sends (lambda(f_1), ..., lambda(f_n)) to
sum over tuples of m(s_1,...,s_n) f_1(s_1)...f_n(s_n) lambda(s_1...s_n),
computed in gather form (``_apply_stack``).  Norm estimation is
lower-bound-only: a multi-start power iteration (Boyd's method for l_p
operator norms, run on noncommutative L_p) on the coefficient vectors, with
witnesses kept so every reported value is the evaluated ratio of a concrete
input tuple.  No upper-bound certification is attempted away from the exact
p = 2 linear case.  The starts advance together as one (S, N) stack per
slot, in chunks of at most max(1, 2^20 // N^arity) starts (16 MB).
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .groups import (
    AlgebraElement,
    FiniteGroup,
    GroupError,
    SubgroupEmbedding,
    complex_normal,
    convolve,
    parse_subset,
    random_element,
    same_group,
)
from .nclp import (
    check_exponent,
    conjugate_exponent,
    exponent_tuple,
    lp_norm,
    lp_norm_gradient,
    lp_norms,
)

__all__ = [
    "Symbol",
    "OptimizerConfig",
    "NormEstimate",
    "apply_multiplier",
    "estimate_norm",
    "evaluate_ratio",
    "restrict_symbol",
    "consummation_residual",
    "translation_residual",
    "nested_residual",
    "symbol_from_spec",
    "symbol_from_csv",
    "symbol_to_csv",
]

MAX_TABLE = 2 ** 24
# estimate_norm advances its starts in chunks whose symbol-sized tensors (one
# N^arity table per start) hold at most this many entries: 16 MB of complex
_STACK_ENTRIES = 2 ** 20
# a start stops when an iteration raises its ratio by less than this, relatively
_STOP_TOLERANCE = 1e-10
# a gathered multilinear table holds at most this many entries at a time (4 MB)
_SLAB_ENTRIES = 2 ** 18
# einsum subscripts, one per slot; "z" is left for the output
_SLOTS = "abcdefghijklmnopqrstuvwxy"


@dataclass(eq=False)
class Symbol:
    """A dense symbol table on G^n (arity n >= 1)."""

    parent: FiniteGroup
    arity: int
    values: np.ndarray

    def __post_init__(self):
        n, N = self.arity, self.parent.order
        if n < 1:
            raise ValueError("arity must be >= 1")
        _require_table(N, n)
        self.values = np.asarray(self.values, dtype=complex).reshape((N,) * n)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("symbol values must be finite")


def _require_table(N: int, n: int, where: str = "") -> None:
    """Refuse N^n > MAX_TABLE table entries, before anything that size is allocated."""
    if N ** n > MAX_TABLE:
        raise ValueError(f"{where}symbol table size {N}^{n} exceeds {MAX_TABLE}")


def _cached(group: FiniteGroup, key: tuple, build) -> np.ndarray:
    """The read-only array ``build()``, made once per group and key and kept
    on the group, as its spectral layer is; nothing is kept per symbol."""
    cache = group.__dict__.setdefault("_index_tables", {})
    if key not in cache:
        cache[key] = build()
        cache[key].setflags(write=False)
    return cache[key]


def _product_index_grid(group: FiniteGroup, arity: int) -> np.ndarray:
    """Array P of shape (N,)*arity with P[s_1,...,s_n] = s_1 s_2 ... s_n (int32)."""
    if arity == 1:
        return np.arange(group.order, dtype=np.int32)
    return _cached(group, ("product", arity), lambda: group.mul[
        _product_index_grid(group, arity - 1)[..., None], np.arange(group.order)])


def _gather_index(group: FiniteGroup, arity: int) -> np.ndarray:
    """Flat int32 index I of shape (N,)*n with I[s_1, ..., s_{n-1}, t] = k N + u,
    where k is the flat position of (s_1, ..., s_{n-1}) and
    u = (s_1 ... s_{n-1})^-1 t, so y.reshape(-1)[I] holds y[s_1, ..., s_{n-1}, u]."""
    N = group.order

    def build():
        prefix = _product_index_grid(group, arity - 1)[..., None]
        flat = N * np.arange(N ** (arity - 1), dtype=np.int32).reshape(prefix.shape)
        return flat + group.mul[group.inv[prefix], np.arange(N)]

    return _cached(group, ("gather", arity), build)


def apply_multiplier(m: Symbol, *fs: AlgebraElement) -> AlgebraElement:
    """Apply T_m to algebra elements; multilinear in each slot."""
    if len(fs) != m.arity:
        raise ValueError(f"symbol has arity {m.arity}, got {len(fs)} arguments")
    for f in fs:
        if not same_group(f.parent, m.parent):
            raise GroupError("arguments live on a different group than the symbol")
    return AlgebraElement(m.parent, _apply_stack(m, [f.coeffs for f in fs]))


def _apply_stack(m: Symbol, cs: list[np.ndarray]) -> np.ndarray:
    """T_m on (..., N) coefficient stacks, one output row per row of inputs.

    In gather form: out(t) = sum over s_1..s_{n-1} of m(s_1, ..., s_{n-1}, u)
    x_1(s_1) ... x_{n-1}(s_{n-1}) x_n(u) with u = (s_1 ... s_{n-1})^-1 t.  The
    table y = m x_n is gathered through ``_gather_index`` and the leading
    slots are contracted with einsum."""
    if m.arity == 1:
        return m.values * cs[0]
    n, N = m.arity, m.parent.order
    y = m.values * cs[-1].reshape(cs[-1].shape[:-1] + (1,) * (n - 1) + (N,))
    flat, index = y.reshape(y.shape[:-n] + (-1,)), _gather_index(m.parent, n)
    slots = _SLOTS[:n - 1]
    spec = ",".join("..." + a for a in slots) + f",...{slots}z->...z"
    # gathered in slabs of s_1 by plain indexing (np.take would copy the index to intp)
    step = max(1, _SLAB_ENTRIES * N // flat.size)
    return sum(np.einsum(spec, cs[0][..., lo:lo + step], *cs[1:-1], flat[..., index[lo:lo + step]])
               for lo in range(0, N, step))


def _partial_adjoint(m: Symbol, z: np.ndarray, cs: list[np.ndarray], i: int) -> np.ndarray:
    """The adjoint of x_i -> T_m(x_1, ..., x_n), the other slots fixed, at the
    (S, N) stack z: s_i -> sum over the other slots of conj(m(s)) z(s_1 ... s_n)
    prod_{j != i} conj(x_j(s_j)).  Arity 1 is conj(m) z."""
    n = m.arity
    if n == 1:
        return np.conj(m.values) * z
    slots = _SLOTS[:n]
    others = [j for j in range(n) if j != i]
    spec = f"{slots},...{slots}," + ",".join("..." + slots[j] for j in others) + f"->...{slots[i]}"
    return np.einsum(spec, np.conj(m.values), z[..., _product_index_grid(m.parent, n)],
                     *(np.conj(cs[j]) for j in others))


@dataclass
class OptimizerConfig:
    restarts: int = 50
    max_iterations: int = 80
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(eq=False)
class NormEstimate:
    """Best found lower bound for a multiplier norm, with its witness.

    ``value`` always equals the evaluated ratio of ``witness`` (self
    certifying); it is a lower bound on the true norm by construction, and
    the gap to the true norm is unquantified away from the exact cases.
    ``iterations`` counts power-iteration sweeps (one update of every slot),
    summed over the starts.  ``converged`` says whether any start stopped on
    the tolerance, ``converged_runs`` how many did, and ``restart_values``
    holds the final ratio of each start (warm starts first; 0 for a start
    that cannot be normalized).
    """

    value: float
    witness: list[np.ndarray]
    restarts: int
    iterations: int
    converged: bool
    seed: int
    p: float = 2.0
    ps: tuple[float, ...] = field(default_factory=tuple)
    smoothing_bias: float = 0.0
    converged_runs: int = 0
    restart_values: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def to_json(self) -> str:
        return json.dumps(
            {
                "value": self.value,
                "p": self.p,
                "ps": list(self.ps),
                "restarts": self.restarts,
                "iterations": self.iterations,
                "converged": self.converged,
                "seed": self.seed,
                "lower_bound_only": True,
                "smoothing_bias": self.smoothing_bias,
                "witness": [
                    [[float(z.real), float(z.imag)] for z in w] for w in self.witness
                ],
            }
        )


def evaluate_ratio(
    m: Symbol, witness: list[np.ndarray], ps: tuple[float, ...], p: float
) -> float:
    """||T_m(x_1..x_n)||_p / prod ||x_i||_{p_i} for explicit coefficient vectors."""
    return float(_ratios(m, [AlgebraElement(m.parent, w).coeffs for w in witness], ps, p))


def _ratios(m: Symbol, cs: list[np.ndarray], ps, p: float) -> np.ndarray:
    """``evaluate_ratio`` of each row of (..., N) slot stacks; 0 where an
    input norm is 0."""
    denom, zero = 1.0, False
    for c, q in zip(cs, ps):
        nrm = lp_norms(m.parent, c, q)
        denom, zero = denom * nrm, zero | (nrm == 0.0)
    value = lp_norms(m.parent, _apply_stack(m, cs), p)
    return np.divide(value, denom, out=np.zeros(np.shape(value)), where=~zero)


def _power_iterate(m: Symbol, fs: list[np.ndarray], ps_opt, p_opt: float,
                   cfg: OptimizerConfig) -> tuple[int, int]:
    """Boyd's power iteration for ||T_m: L_{p_1} x ... x L_{p_n} -> L_p||, run
    on every row of the unit-norm (S, N) slot stacks ``fs`` at once, in place;
    returns (iterations, converged rows).

    One iteration updates the slots in turn (Gauss-Seidel), each from the
    latest values of the others: with z the norming element of y = T_m(x) in
    L_p' and w = T_i^*(z), x_i becomes the norming element of w in L_{p_i'}
    (both from ``lp_norm_gradient``), of unit L_{p_i} norm.  By Hoelder,
    ||T_m(x_+)||_p >= <x_i+, w> = ||w||_{p_i'} >= <x_i, w> = ||T_m(x)||_p,
    so no update lowers a row's ratio.  A row stops when an iteration raises
    its ratio by less than ``_STOP_TOLERANCE`` relatively (it counts as
    converged), after ``cfg.max_iterations``, or at once if T_m sends it to 0.
    """
    group, n = m.parent, m.arity
    duals = [conjugate_exponent(q) for q in ps_opt]
    value, z = lp_norm_gradient(group, _apply_stack(m, fs), p_opt)
    live = value > 1e-300
    rows, xs, value, z = np.flatnonzero(live), [f[live] for f in fs], value[live], z[live]
    iterations = converged = 0
    for _ in range(cfg.max_iterations):
        if not rows.size:
            break
        iterations += rows.size
        for i in range(n):
            if i:
                z = lp_norm_gradient(group, _apply_stack(m, xs), p_opt)[1]
            xs[i] = lp_norm_gradient(group, _partial_adjoint(m, z, xs, i), duals[i])[1]
        value_before, (value, z) = value, lp_norm_gradient(group, _apply_stack(m, xs), p_opt)
        done = value - value_before < _STOP_TOLERANCE * value
        if done.any():
            for f, x in zip(fs, xs):
                f[rows[done]] = x[done]
            converged += int(done.sum())
            keep = ~done
            rows, xs, value, z = rows[keep], [x[keep] for x in xs], value[keep], z[keep]
    for f, x in zip(fs, xs):
        f[rows] = x
    return iterations, converged


def estimate_norm(
    m: Symbol,
    ps,
    p: float,
    cfg: OptimizerConfig,
    warm_starts: list[list[np.ndarray]] | None = None,
) -> NormEstimate:
    """Estimate ||T_m: L_{p_1} x ... x L_{p_n} -> L_p|| from below.

    A multi-start power iteration over the coefficient vectors (see
    ``_power_iterate``), deterministic given ``cfg.seed``; no iteration
    lowers a start's ratio at the exponents it runs at.  The tuple of point masses at argmax|m|
    is scored first: its ratio is sup|m| at every exponent, because lambda(s)
    is unitary, so the estimate never falls below sup|m|.  The linear
    p = p_1 = 2 case returns that candidate, which is exact there.  p or p_i
    equal to 1 are optimized at the smoothing exponent 1 + 1e-6 (final ratios
    are evaluated at the true exponents, so the reported value stays a valid
    lower bound; the smoothing only steers the search).

    The starts (the warm starts, then ``cfg.restarts`` random ones) are held
    as one (S, N) stack per slot and advance together, in chunks of at most
    max(1, 2^20 // N^arity) starts; each start follows the same rule
    as if it ran alone.  The best witness is chosen in start
    order: each start's ratio at its start, then at its end, replaces the
    best so far when it is strictly larger.
    """
    ps = exponent_tuple(ps)
    p = check_exponent(p)
    if len(ps) != m.arity:
        raise ValueError("exponent tuple length must match symbol arity")
    if any(math.isinf(q) for q in ps) or math.isinf(p):
        raise ValueError("optimizer handles finite exponents >= 1 only")

    group, n, N = m.parent, m.arity, m.parent.order
    mags = np.abs(m.values)
    peak = np.unravel_index(int(np.argmax(mags)), mags.shape)
    best_witness = [group.delta_element(int(s)).coeffs for s in peak]

    if n == 1 and p == 2.0 and ps[0] == 2.0:
        return NormEstimate(
            value=float(mags[peak]), witness=best_witness, restarts=0, iterations=0,
            converged=True, seed=cfg.seed, p=p, ps=ps,
        )

    smooth = 1.0 + 1e-6
    p_opt = max(p, smooth)
    ps_opt = tuple(max(q, smooth) for q in ps)
    bias = 0.0 if (p_opt == p and ps_opt == ps) else 1e-6

    starts = [[AlgebraElement(group, c).coeffs for c in w] for w in warm_starts or []]
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        starts.append([random_element(group, rng).coeffs for _ in range(n)])

    best_value = evaluate_ratio(m, best_witness, ps, p)
    restart_values = np.zeros(len(starts))
    total_iter = converged_runs = 0
    chunk = max(1, _STACK_ENTRIES // N ** n)
    for lo in range(0, len(starts), chunk):
        fs = [np.array([s[j] for s in starts[lo:lo + chunk]]) for j in range(n)]
        norms = [lp_norms(group, f, q) for f, q in zip(fs, ps_opt)]
        # a start with a slot of norm <= 1e-300 cannot be normalized
        kept = np.flatnonzero(np.all([nrm > 1e-300 for nrm in norms], axis=0))
        if not kept.size:
            continue
        fs = [f[kept] / nrm[kept, None] for f, nrm in zip(fs, norms)]
        start, start_ratio = [f.copy() for f in fs], _ratios(m, fs, ps, p)
        iterations, converged = _power_iterate(m, fs, ps_opt, p_opt, cfg)
        end_ratio = _ratios(m, fs, ps, p)
        total_iter += iterations
        converged_runs += converged
        for i in range(len(kept)):
            for stack, ratio in ((start, start_ratio[i]), (fs, end_ratio[i])):
                if ratio > best_value:
                    best_value, best_witness = float(ratio), [f[i].copy() for f in stack]
        restart_values[lo + kept] = end_ratio

    return NormEstimate(
        value=best_value, witness=best_witness, restarts=cfg.restarts, iterations=total_iter,
        converged=converged_runs > 0, seed=cfg.seed, p=p, ps=ps, smoothing_bias=bias,
        converged_runs=converged_runs, restart_values=restart_values,
    )


# ---------------------------------------------------------------------------
# reduction identities


def pull_back(m: Symbol, group: FiniteGroup, maps) -> Symbol:
    """The symbol (s_1, ..., s_n) -> m(q_1(s_1), ..., q_n(s_n)) on ``group``,
    for index arrays q_i from ``group`` into m's group, one per slot.
    Restriction (q_i the subgroup embedding) and periodization (q_i the
    quotient map) are both this pull-back."""
    return Symbol(group, m.arity, m.values[np.ix_(*maps)])


def restrict_symbol(m: Symbol, emb: SubgroupEmbedding) -> Symbol:
    """Restrict a symbol on G^n to H^n along a subgroup embedding."""
    if not same_group(emb.amb, m.parent):
        raise GroupError("embedding target does not match the symbol's group")
    return pull_back(m, emb.sub, [emb.map] * m.arity)


def _worst_deviation(m_tilde: Symbol, rhs, trials: int, rng: np.random.Generator) -> float:
    """Max over ``trials`` draws of ||T_{m~}(x_1..x_n) - rhs([x_1..x_n])||_2,
    each x_j a ``random_element`` drawn from rng in slot order."""
    group, worst = m_tilde.parent, 0.0
    for _ in range(trials):
        xs = [random_element(group, rng) for _ in range(m_tilde.arity)]
        worst = max(worst, lp_norm(apply_multiplier(m_tilde, *xs) - rhs(xs), 2.0))
    return worst


def consummate_symbol(m: Symbol, indices, n: int) -> Symbol:
    """Blow a symbol of arity k up to arity n by multiplying grouped arguments.

    ``indices`` are the increasing split points i_1 = 1 < ... < i_k <= n
    (1-based); slot j of m receives the product s_{i_j} ... s_{i_{j+1}-1}.
    """
    indices = [int(i) for i in indices]
    k = m.arity
    if len(indices) != k or indices[0] != 1 or sorted(indices) != indices or indices[-1] > n:
        raise ValueError(f"invalid consummation indices {indices} for arity {k} -> {n}")
    if len(set(indices)) != k:
        raise ValueError("consummation indices must be strictly increasing")
    group = m.parent
    N = group.order
    _require_table(N, n)
    bounds = indices + [n + 1]
    slot_grids = []
    for j in range(k):
        lo, hi = bounds[j], bounds[j + 1]
        width = hi - lo
        prod = _product_index_grid(group, width)  # shape (N,)*width
        shape = [1] * n
        shape[lo - 1 : hi - 1] = [N] * width
        slot_grids.append(prod.reshape(shape))
    values = m.values[tuple(np.broadcast_to(g, (N,) * n) for g in slot_grids)]
    return Symbol(group, n, values)


def consummation_residual(
    m: Symbol, indices, n: int, trials: int, rng: np.random.Generator
) -> float:
    """Max L_2 deviation of T_{m~}(x_1..x_n) from T_m applied to grouped
    products, for the arity-n symbol m~ of ``consummate_symbol``."""
    m_tilde = consummate_symbol(m, indices, n)
    bounds = [int(i) for i in indices] + [n + 1]

    def grouped_apply(xs):
        grouped = []
        for j in range(m.arity):
            acc = xs[bounds[j] - 1]
            for t in range(bounds[j], bounds[j + 1] - 1):
                acc = convolve(acc, xs[t])
            grouped.append(acc)
        return apply_multiplier(m, *grouped)

    return _worst_deviation(m_tilde, grouped_apply, trials, rng)


def translate_symbol(m: Symbol, i: int, r: int, t: int, rp: int) -> Symbol:
    """Symbol s -> m(r s_1, ..., s_i t, t^{-1} s_{i+1}, ..., s_n r')."""
    group, n, N = m.parent, m.arity, m.parent.order
    if not (1 <= i <= max(n - 1, 1)):
        raise ValueError(f"slot index {i} out of range for arity {n}")
    maps = [np.arange(N) for _ in range(n)]
    maps[0] = group.mul[r, maps[0]]
    if n > 1:
        maps[i - 1] = group.mul[maps[i - 1], t]
        maps[i] = group.mul[int(group.inv[t]), maps[i]]
    maps[n - 1] = group.mul[maps[n - 1], rp]
    return pull_back(m, group, maps)


def translated_apply(
    m: Symbol, xs: list[AlgebraElement], r: int, t: int, rp: int, i: int
) -> AlgebraElement:
    """lambda(r)* T_m(lambda(r)x_1, ..., x_i lambda(t), lambda(t)* x_{i+1}, ..., x_n lambda(r')) lambda(r')*."""
    group, n = m.parent, len(xs)
    mod = list(xs)
    mod[0] = convolve(group.delta_element(r), mod[0])
    if n > 1:
        mod[i - 1] = convolve(mod[i - 1], group.delta_element(t))
        mod[i] = convolve(group.delta_element(int(group.inv[t])), mod[i])
    mod[n - 1] = convolve(mod[n - 1], group.delta_element(rp))
    out = convolve(group.delta_element(int(group.inv[r])), apply_multiplier(m, *mod))
    return convolve(out, group.delta_element(int(group.inv[rp])))


def translation_residual(
    m: Symbol, i: int, r: int, t: int, rp: int, trials: int, rng: np.random.Generator
) -> float:
    """Max L_2 deviation between T of the translated symbol and the conjugated T_m."""
    return _worst_deviation(
        translate_symbol(m, i, r, t, rp), lambda xs: translated_apply(m, xs, r, t, rp, i),
        trials, rng)


def nested_symbol(ms: list[Symbol]) -> Symbol:
    """m~(s_1..s_n) = m_1(s_1...s_{n-1}) m_2(s_2...s_{n-1}) ... m_{n-1}(s_{n-1}) m_n(s_n)."""
    if any(mj.arity != 1 for mj in ms):
        raise ValueError("nested construction takes linear symbols only")
    group = ms[0].parent
    n, N = len(ms), group.order
    if any(not same_group(mj.parent, group) for mj in ms):
        raise GroupError("nested symbols must share one group")
    _require_table(N, n)
    values = np.ones((N,) * n, dtype=complex)
    for j in range(1, n):  # factor m_j(s_j ... s_{n-1}), 1-based j <= n-1
        width = (n - 1) - (j - 1)
        prod = _product_index_grid(group, width)
        shape = [1] * n
        shape[j - 1 : n - 1] = [N] * width
        values = values * ms[j - 1].values[prod].reshape(shape)
    shape = [1] * n
    shape[n - 1] = N
    values = values * ms[n - 1].values.reshape(shape)
    return Symbol(group, n, values)


def nested_apply(ms: list[Symbol], xs: list[AlgebraElement]) -> AlgebraElement:
    """T_{m_1}(x_1 T_{m_2}(x_2 ... T_{m_{n-1}}(x_{n-1}) ...)) T_{m_n}(x_n)."""
    n = len(ms)
    if n == 1:
        return apply_multiplier(ms[0], xs[0])
    inner = apply_multiplier(ms[n - 2], xs[n - 2])
    for j in range(n - 3, -1, -1):
        inner = apply_multiplier(ms[j], convolve(xs[j], inner))
    return convolve(inner, apply_multiplier(ms[n - 1], xs[n - 1]))


def nested_residual(ms: list[Symbol], trials: int, rng: np.random.Generator) -> float:
    """Max L_2 deviation between the product symbol and the nested composition."""
    return _worst_deviation(nested_symbol(ms), lambda xs: nested_apply(ms, xs), trials, rng)


# ---------------------------------------------------------------------------
# symbol construction and serialization


def symbol_from_spec(group: FiniteGroup, spec: str, arity: int = 1) -> Symbol:
    """Named symbol families: ``gaussian:sigma``, ``indicator:<subset>``, ``random:seed``.

    gaussian uses the word metric from the canonical generators; for arity > 1
    the profile is the product over slots.
    """
    kind, _, rest = spec.partition(":")
    N = group.order
    _require_table(N, arity)
    if kind == "gaussian":
        sigma = float(rest)
        if not 0.0 < sigma < math.inf:
            raise ValueError(f"gaussian width {rest!r} is not in (0, inf)")
        dist = group.word_distances().astype(float)
        one = np.exp(-(dist ** 2) / (2.0 * sigma ** 2))
        return Symbol(group, arity, functools.reduce(np.multiply.outer, [one] * arity))
    if kind == "indicator":
        subset = parse_subset(group, rest)
        one = np.zeros(N)
        one[subset.sorted()] = 1.0
        return Symbol(group, arity, functools.reduce(np.multiply.outer, [one] * arity))
    if kind == "random":
        rng = np.random.default_rng(int(rest))
        shape = (N,) * arity
        return Symbol(group, arity, complex_normal(rng, shape))
    raise ValueError(f"unknown symbol spec {spec!r}")


def symbol_to_csv(m: Symbol, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"s{i + 1}" for i in range(m.arity)] + ["re", "im"])
        for idx in np.ndindex(*m.values.shape):
            z = m.values[idx]
            writer.writerow([*idx, repr(float(z.real)), repr(float(z.imag))])


def symbol_from_csv(group: FiniteGroup, path: str) -> Symbol:
    """Read a symbol in the format ``symbol_to_csv`` writes: the header
    ``s1,...,sn,re,im``, then one row per entry with n indices in 0..N-1 and
    the real and imaginary parts; entries not listed are 0.  A malformed file
    raises ``ValueError`` naming ``path:line``."""
    N = group.order
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        arity = len(header) - 2
        if arity < 1 or header != [f"s{i + 1}" for i in range(arity)] + ["re", "im"]:
            raise ValueError(f"{path}:1: header must be s1,...,sn,re,im, got {','.join(header)!r}")
        _require_table(N, arity, f"{path}:1: ")
        values = np.zeros((N,) * arity, dtype=complex)
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != arity + 2:
                raise ValueError(f"{where}: expected {arity + 2} fields, got {len(row)}")
            try:
                idx = tuple(int(tok) for tok in row[:arity])
                z = complex(float(row[arity]), float(row[arity + 1]))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from exc
            if not all(0 <= i < N for i in idx):
                raise ValueError(f"{where}: indices {idx} must lie in 0..{N - 1}")
            values[idx] = z
    return Symbol(group, arity, values)
