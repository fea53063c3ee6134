"""Exact finite-scale checks of the restriction machinery.

Everything here is exact set arithmetic plus Schatten norms: the
conjugation-survival fraction delta_F(V), the overlap Gram matrix and its
lower bound by delta, the contraction and lower-bound inequalities for the
embedding maps x -> x h_V^{2/p}, witness-transport restriction consistency,
the quotient periodization intertwiner, and the fundamental-domain
compression/sampling maps with their pairing convergence.  Algebra elements
are normed on irreducible blocks; the embedding and lattice maps are dense
N x N matrices, normed by ``matrix_lp_norm``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .groups import (
    AlgebraElement,
    FiniteGroup,
    GroupError,
    GroupSubset,
    SubgroupEmbedding,
    _conjugation_mask,
    convolve,
    involution,
    random_element,
    regular_matrix,
    same_group,
)
from .multipliers import (
    OptimizerConfig,
    Symbol,
    apply_multiplier,
    estimate_norm,
    evaluate_ratio,
    pull_back,
    restrict_symbol,
)
from .nclp import (
    exponent_tuple,
    lp_norm,
    lp_norm_gradient,
    matrix_lp_norm,
    output_exponent,
    plancherel_trace,
)

__all__ = [
    "DeltaValue",
    "ResidualReport",
    "PreconditionError",
    "delta_exact",
    "gram_matrix",
    "embedding_contraction_residual",
    "embedding_lower_residual",
    "holder_witness",
    "restriction_consistency",
    "quotient_group",
    "periodization_residual",
    "lattice_maps_report",
]


class PreconditionError(ValueError):
    """A stated hypothesis of the inequality under test fails for this input."""


@dataclass(frozen=True)
class DeltaValue:
    """delta_F(V) = |intersection of s V s^{-1} over s in F| / |V|, exact."""

    numerator: int
    denominator: int
    F: GroupSubset
    V: GroupSubset

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __float__(self):
        return self.numerator / self.denominator

    def __str__(self):
        return f"{self.numerator}/{self.denominator}"


@dataclass
class ResidualReport:
    name: str
    residual: float
    tolerance: float
    context: dict = field(default_factory=dict)
    # a condition the residual does not carry; False fails the report
    holds: bool = True

    @property
    def passed(self) -> bool:
        return self.holds and self.residual <= self.tolerance

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "context": self.context,
        }


def delta_exact(F: GroupSubset, V: GroupSubset) -> DeltaValue:
    """Exact survival fraction; empty F means the intersection is V itself."""
    if len(V) == 0:
        raise ValueError("V is empty")
    if not same_group(F.parent, V.parent):
        raise GroupError("F and V live on different groups")
    members = V.sorted()
    mask = _conjugation_mask(V.parent, F.sorted(), members)
    return DeltaValue(int(np.count_nonzero(mask.all(axis=0)[members])), len(V), F, V)


def gram_matrix(F: GroupSubset, V: GroupSubset):
    """Overlap matrix A[s,t] = |Ad_s(V) cap Ad_t(V)|/|V| over F, with the
    smallest eigenvalues of A and of A - delta_F(V) * (all-ones matrix)."""
    if len(V) == 0 or len(F) == 0:
        raise ValueError("F and V must be nonempty")
    if not same_group(F.parent, V.parent):
        raise GroupError("F and V live on different groups")
    members = V.sorted()
    mask = _conjugation_mask(V.parent, F.sorted(), members)  # rows in increasing s
    A = (mask.astype(np.int64) @ mask.T) / len(V)
    delta = np.count_nonzero(mask.all(axis=0)[members]) / len(V)
    eig_a = float(np.linalg.eigvalsh(A)[0])
    eig_gap = float(np.linalg.eigvalsh(A - delta)[0])
    return A, eig_a, eig_gap


# ---------------------------------------------------------------------------
# embedding inequalities


def _require_disjoint(products: np.ndarray, labels: np.ndarray, what: str) -> None:
    """Raise ``PreconditionError`` when two translates meet: some element of
    ``products`` carries two different labels (``labels`` broadcasts against
    ``products``).  A stable sort puts equal products side by side, so the
    report names the first pair of labels, in input order, at the least such
    element."""
    labels = np.broadcast_to(labels, products.shape).ravel()
    order = np.argsort(products, axis=None, kind="stable")
    g, lab = products.ravel()[order], labels[order]
    clash = np.flatnonzero((g[1:] == g[:-1]) & (lab[1:] != lab[:-1]))
    if clash.size:
        i = clash[0]
        raise PreconditionError(
            f"{what}: translates {lab[i]} and {lab[i + 1]} meet at element {g[i]}"
        )


def _h_power(V: GroupSubset, exponent: float) -> np.ndarray:
    """h_V^exponent, h_V = |k_V| for k_V = |V|^{-1/2} lambda(1_V), self-adjoint
    when V is symmetric: k_V's eigenvectors times |w|^exponent, each |w| at
    most 1e-13 max(|w|_max, 1) read as 0 (0^0 := 0 on the kernel)."""
    if len(V) == 0:
        raise ValueError("subset is empty")
    k = regular_matrix(V.indicator()) / math.sqrt(len(V))
    w, q = np.linalg.eigh(k)
    w = np.abs(w)
    powered = np.zeros_like(w)
    nz = w > 1e-13 * max(w.max(initial=0.0), 1.0)
    powered[nz] = w[nz] ** exponent
    return (q * powered) @ q.conj().T


def _embedded_norm(
    emb: SubgroupEmbedding, x: AlgebraElement, V: GroupSubset, p: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """||x h_V^{2/p}||_p in the ambient group (||x||_p at p = infinity, where
    the map is x -> x), after the checks both embedding inequalities share: x
    lives on the subgroup, V in the ambient group, V is symmetric, and the
    translates sV over the ambient support of x are pairwise disjoint
    (condition (1)).  Also returns that support as a column and the products
    s v (rows s, columns the sorted members v of V)."""
    if not same_group(x.parent, emb.sub):
        raise GroupError("x must live on the subgroup")
    if not same_group(V.parent, emb.amb):
        raise GroupError("V must live in the ambient group")
    if not V.is_symmetric():
        raise PreconditionError("V is not symmetric")
    x_amb = emb.push(x)
    supp = np.flatnonzero(x_amb.coeffs)[:, None]
    sv = emb.amb.mul[supp, V.sorted()]
    _require_disjoint(sv, supp, "disjointness condition (1) sV, s in supp(x) fails")
    amb_mat = regular_matrix(x_amb)
    if not math.isinf(p):
        amb_mat = amb_mat @ _h_power(V, 2.0 / p)
    return matrix_lp_norm(amb_mat, p, trace_dim=emb.amb.order), supp, sv


def embedding_contraction_residual(
    emb: SubgroupEmbedding, x: AlgebraElement, V: GroupSubset, p: float
) -> ResidualReport:
    """max(0, ||x h_V^{2/p}||_p - ||x||_p-on-the-subgroup).

    Preconditions: V symmetric, and the translates s V for s in the ambient
    support of x pairwise disjoint.  At p = 2 that disjointness forces exact
    equality, so there the report also fails when ``equality_gap`` = |lhs - rhs|
    exceeds 1e-10 max(1, rhs).  For p > 2 the contraction is guaranteed when
    the translates gamma V over the whole subgroup are disjoint (e.g. V inside
    a fundamental domain); with disjointness only over supp(x) the one-sided
    map can expand slightly and the report then carries a positive residual
    (see the dihedral boundary example in the tests).
    """
    lhs, _, _ = _embedded_norm(emb, x, V, p)
    rhs = lp_norm(x, p)
    residual = max(0.0, lhs - rhs)
    report = ResidualReport(
        name="embedding-contraction",
        residual=residual,
        tolerance=1e-10,
        context={"p": p, "lhs": lhs, "rhs": rhs, "V": sorted(V.members)},
    )
    if p == 2.0:
        report.context["equality_gap"] = abs(lhs - rhs)
        report.holds = abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)
    return report


def holder_witness(x: AlgebraElement, p: float) -> AlgebraElement:
    """y = |x|^{p/q} with 1/q = 1/2 - 1/p, the sharp Holder witness for
    ||x||_p = ||x y||_2 / ||y||_q, computed in the subgroup algebra on its
    irreducible blocks; needs 2 < p < infinity, where q is finite and
    positive.

    p/q = p/2 - 1.  f = x* x has the blocks X^H X = |X|^2, X each block of
    x.  They are positive semidefinite, so on each of them the singular value
    decomposition is the eigendecomposition U sigma U^H, and
    J_r(f) = U sigma^(r-1) U^H = |X|^{2(r-1)}.  With r = p/4 + 1/2, which
    lies in (1, inf) for 2 < p < inf, 2(r - 1) = p/2 - 1, so y = J_r(f) =
    ||f||_r^(r-1) z for the norming element z of f that
    ``lp_norm_gradient`` returns with ||f||_r (y = 0 at x = 0).
    """
    if not (2.0 < p < math.inf):
        raise ValueError("Holder witness needs 2 < p < infinity")
    r = 0.25 * p + 0.5
    norm, z = lp_norm_gradient(x.parent, convolve(involution(x), x).coeffs, r)
    return AlgebraElement(x.parent, norm ** (r - 1.0) * z)


def embedding_lower_residual(
    emb: SubgroupEmbedding,
    x: AlgebraElement,
    V: GroupSubset,
    p: float,
    y: AlgebraElement,
) -> ResidualReport:
    """Per-V lower bound: ||x h_V^{2/p}||_p >= delta_F(V)^{1/2} ||xy||_2 / ||y||_q
    under the three disjointness hypotheses, reported as a one-sided residual.

    F is the ambient support of x, F_y the inverse support of y; q is the
    L_2-conjugate of p (1/p + 1/q = 1/2).
    """
    if not (2.0 < p < math.inf):
        raise ValueError("lower bound applies for 2 < p < infinity")
    if not same_group(y.parent, emb.sub):
        raise GroupError("y must live on the subgroup")
    lhs, supp_x, sv = _embedded_norm(emb, x, V, p)
    group = emb.amb
    q = 1.0 / (0.5 - 1.0 / p)
    supp_y = np.flatnonzero(emb.push(y).coeffs)
    supp_y_star = group.inv[supp_y][:, None]
    mul = group.mul
    _require_disjoint(mul[supp_y_star, V.sorted()], supp_y_star,
                      "disjointness condition (2) sV, s in F_y fails")
    # (3) s V t disjoint across pairs with distinct products st; axes (s, t, v)
    _require_disjoint(mul[sv[:, None, :], supp_y[:, None]], mul[supp_x, supp_y][..., None],
                      "disjointness condition (3) s1 V t1 cap s2 V t2 fails")
    dval = float(delta_exact(group.subset(supp_x.ravel().tolist()), V))
    norm_y = lp_norm(y, q)
    if norm_y == 0:
        raise ValueError("witness y is zero")
    rhs = math.sqrt(dval) * lp_norm(convolve(x, y), 2.0) / norm_y
    return ResidualReport(
        name="embedding-lower-bound",
        residual=max(0.0, rhs - lhs),
        tolerance=1e-9,
        context={"p": p, "delta": dval, "lhs": lhs, "rhs": rhs},
    )


# ---------------------------------------------------------------------------
# restriction consistency by witness transport


def restriction_consistency(
    emb: SubgroupEmbedding, m: Symbol, ps, p: float, cfg: OptimizerConfig
) -> ResidualReport:
    """Certify that the restricted multiplier norm does not exceed the ambient one.

    Runs the optimizer on the subgroup, transports its witness into the
    ambient group (exact ratio equality: the ambient regular representation of
    a subgroup-supported element is [G:H] copies of the subgroup one), then
    reruns the ambient optimizer seeded with the transported witness and
    reports max(0, found_sub - found_amb).  The report fails too when the
    transported ratio misses the subgroup one by more than
    1e-9 max(1, found_sub), as a wrong restriction of the symbol makes it.
    """
    ps = exponent_tuple(ps)
    m_sub = restrict_symbol(m, emb)
    est_sub = estimate_norm(m_sub, ps, p, cfg)
    transported = [emb.push(AlgebraElement(emb.sub, w)).coeffs for w in est_sub.witness]
    ratio_amb = evaluate_ratio(m, transported, ps, p)
    transport_gap = abs(ratio_amb - est_sub.value)
    est_amb = estimate_norm(m, ps, p, cfg, warm_starts=[transported])
    return ResidualReport(
        name="restriction-consistency",
        residual=max(0.0, est_sub.value - est_amb.value),
        tolerance=1e-6,
        holds=transport_gap <= 1e-9 * max(1.0, est_sub.value),
        context={
            "p": p,
            "ps": list(ps),
            "sub_value": est_sub.value,
            "amb_value": est_amb.value,
            "witness_transport_gap": transport_gap,
        },
    )


# ---------------------------------------------------------------------------
# periodization


def quotient_group(group: FiniteGroup, H: GroupSubset):
    """Quotient by a normal subgroup; returns (quotient, coset_of: index array,
    representative: index array).  Cosets are ordered by their minimal element,
    so the identity coset is index 0."""
    members = np.array(sorted(H.members), dtype=np.int64)
    in_h = np.zeros(group.order, dtype=bool)
    in_h[members] = True
    if not in_h[group.identity]:
        raise GroupError("H does not contain the identity")
    closed = in_h[group.mul[np.ix_(members, members)]].all()
    if not (closed and in_h[group.inv[members]].all()):
        raise GroupError("H is not a subgroup")
    # g h g^{-1} for every g and every h in H
    if not in_h[group.mul[group.mul[:, members], group.inv[:, None]]].all():
        raise GroupError("H is not normal")
    # each coset gH is named by its minimal element
    coset_min = group.mul[:, members].min(axis=1)
    reps_arr = np.unique(coset_min).astype(np.int64)
    coset_of = np.searchsorted(reps_arr, coset_min).astype(np.int64)
    q = len(reps_arr)
    mul = coset_of[group.mul[reps_arr[:, None], reps_arr[None, :]]]
    inv = coset_of[group.inv[reps_arr]]
    quotient = FiniteGroup(q, mul, inv, 0, f"{group.label}/H{len(members)}")
    quotient.validate()
    return quotient, coset_of, reps_arr


def periodization_residual(
    group: FiniteGroup,
    H: GroupSubset,
    m_q: Symbol,
    ps,
    trials: int,
    rng: np.random.Generator,
) -> ResidualReport:
    """Check the quotient intertwiner against the periodized multiplier.

    pi embeds the quotient algebra as the corner lambda(g) Pi of the ambient
    algebra, Pi = |H|^{-1} sum_h lambda(h).  With counting measure on both
    sides the exact p-isometry is pi_p = |H|^{1/p} pi, and

        pi_p(T_{m_q}(x_1..x_n)) = T_{m_pi}(pi_{p_1}(x_1), ..., pi_{p_n}(x_n)).

    Reports the max coefficient deviation of that identity over random inputs
    plus the worst p-isometry gap |  ||pi_p(x)||_p - ||x||_p  |.
    """
    ps = exponent_tuple(ps)
    quotient, coset_of, _ = quotient_group(group, H)
    if not same_group(m_q.parent, quotient):
        raise GroupError("symbol does not live on G/H")
    quotient = m_q.parent  # the caller's table, whose spectral layer is cached
    n = m_q.arity
    p = output_exponent(ps, n)
    m_pi = pull_back(m_q, group, [coset_of] * n)  # the H-invariant g -> m_q(gH)
    hsize = len(H)

    def lift(x: AlgebraElement, exponent: float) -> AlgebraElement:
        # pi(x) has coefficient function g -> x(gH)/|H|; pi_p scales by |H|^{1/p}
        coeffs = x.coeffs[coset_of] / hsize
        return AlgebraElement(group, hsize ** (1.0 / exponent) * coeffs)

    worst_intertwine = 0.0
    worst_isometry = 0.0
    for _ in range(trials):
        xs = [random_element(quotient, rng) for _ in range(n)]
        lifted = [lift(x, q) for x, q in zip(xs, ps)]
        lhs = lift(apply_multiplier(m_q, *xs), p)
        rhs = apply_multiplier(m_pi, *lifted)
        worst_intertwine = max(worst_intertwine, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))
        for x, q in zip(xs, ps):
            worst_isometry = max(
                worst_isometry, abs(lp_norm(lift(x, q), q) - lp_norm(x, q))
            )
        # trace preservation of the unnormalized pi: tau_G(pi(x)) = tau_Q(x)/|H|
        x0 = xs[0]
        tr_gap = abs(
            plancherel_trace(AlgebraElement(group, x0.coeffs[coset_of] / hsize))
            - plancherel_trace(x0) / hsize
        )
        worst_intertwine = max(worst_intertwine, tr_gap)
    return ResidualReport(
        name="periodization-intertwiner",
        residual=worst_intertwine,
        tolerance=1e-10,
        context={
            "isometry_residual": worst_isometry,
            "quotient_order": quotient.order,
            "ps": list(ps),
        },
    )


# ---------------------------------------------------------------------------
# fundamental-domain compression and sampling maps


def lattice_maps_report(
    emb: SubgroupEmbedding,
    X: GroupSubset,
    m: Symbol,
    ps,
    trials: int,
    rng: np.random.Generator,
    pairing_inputs=None,
) -> ResidualReport:
    """Contraction residuals for the compression map x -> |X|^{-2+1/p} h* x h
    (subgroup algebra into the ambient one) and the sampling map

        Psi(x) = sum_gamma tau(h* lambda(gamma^{-1}) h x) lambda(gamma),

    scaled by |X|^{-1-1/p} (ambient algebra onto the subgroup one), plus the
    deviation of the compressed-sampled multiplier pairing <y, S(x_vec)> from
    <y, T_m(x_vec)>.  ``pairing_inputs`` optionally pins (xs, y) on the
    ambient group so deviations are comparable across refinements.
    """
    ps = exponent_tuple(ps)
    group, sub = emb.amb, emb.sub
    n = m.arity
    p = output_exponent(ps, n)
    # X is a fundamental domain when the translates gamma X over the subgroup tile G
    what = "X is not a fundamental domain"
    _require_disjoint(group.mul[emb.map[:, None], X.sorted()], emb.map[:, None], what)
    if len(emb.map) * len(X) != group.order:
        raise PreconditionError(f"{what}: cosets do not cover G")
    h = regular_matrix(X.indicator())
    xsize = len(X)
    m_sub = restrict_symbol(m, emb)

    def compress_map(x: AlgebraElement, exponent: float) -> np.ndarray:
        amb = emb.push(x)
        return xsize ** (-2.0 + 1.0 / exponent) * (
            h.conj().T @ regular_matrix(amb) @ h
        )

    def sample_map(x: AlgebraElement, exponent: float) -> AlgebraElement:
        # tau is tracial, so tau(h* lambda(gamma^{-1}) h x) = tau(lambda(gamma^{-1}) w)
        # with w = h x h*, i.e. the coefficient of w at gamma
        w_mat = h @ regular_matrix(x) @ h.conj().T
        coeffs = np.array(
            [w_mat[int(g), group.identity] for g in emb.map.tolist()], dtype=complex
        )
        return AlgebraElement(sub, xsize ** (-1.0 - 1.0 / exponent) * coeffs)

    worst_phi = 0.0
    worst_psi = 0.0
    for _ in range(trials):
        xs = random_element(sub, rng)
        phi_norm = matrix_lp_norm(compress_map(xs, p), p, trace_dim=group.order)
        # the compressed side is a dense matrix, so the subgroup side is
        # normed densely too: equal maps then give a residual of exactly 0
        worst_phi = max(worst_phi, phi_norm - matrix_lp_norm(regular_matrix(xs), p))
        xa = random_element(group, rng)
        psi = sample_map(xa, p)
        worst_psi = max(worst_psi, lp_norm(psi, p) - lp_norm(xa, p))

    if pairing_inputs is None:
        xs_in = [random_element(group, rng) for _ in range(n)]
        y_in = random_element(group, rng)
    else:
        xs_in, y_in = pairing_inputs
    sampled = [sample_map(x, q) for x, q in zip(xs_in, ps)]
    t_sub = apply_multiplier(m_sub, *sampled)
    s_mat = xsize ** (-2.0 + 1.0 / p) * (
        h.conj().T @ regular_matrix(emb.push(t_sub)) @ h
    )
    lhs = np.trace(regular_matrix(y_in) @ s_mat) / group.order
    rhs = np.trace(regular_matrix(y_in) @ regular_matrix(apply_multiplier(m, *xs_in))) / group.order
    deviation = abs(lhs - rhs)
    residual = max(worst_phi, worst_psi, 0.0)
    return ResidualReport(
        name="lattice-approximation-maps",
        residual=residual,
        tolerance=1e-9,
        context={
            "compression_residual": max(worst_phi, 0.0),
            "sampling_residual": max(worst_psi, 0.0),
            "pairing_deviation": float(deviation),
            "domain": sorted(X.members),
        },
    )
