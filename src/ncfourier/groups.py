"""Finite groups as explicit multiplication tables, and their group algebras.

Groups are immutable once built: an index set 0..N-1, an NxN multiplication
table, an inverse table and identity index 0.  All exact computations in the
package (convolution, regular representation, conjugation counting) live on
top of these tables.  Order is capped at 4096 so the dense regular
representation stays feasible.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

MAX_ORDER = 4096

__all__ = [
    "FiniteGroup",
    "GroupSubset",
    "AlgebraElement",
    "SubgroupEmbedding",
    "build_group",
    "build_embedding",
    "parse_subset",
    "convolve",
    "involution",
    "regular_matrix",
    "conjugate_set",
    "random_element",
]


class GroupError(ValueError):
    """Malformed descriptor, order overflow or table inconsistency."""


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group on indices 0..order-1 with identity at index 0.

    Element ordering is canonical per constructor so fixtures are stable:
    cyclic:N lists 0..N-1 additively; dihedral:N lists rotations r^k first
    (index k) then reflections s*r^k (index N+k); heisenberg:N lists triples
    (a,b,c) as a*N^2 + b*N + c with group law
    (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b'); products pack (i,j) as
    i*order2 + j.
    """

    order: int
    mul: np.ndarray
    inv: np.ndarray
    identity: int
    label: str
    generators: tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "mul", np.ascontiguousarray(self.mul, dtype=np.int32))
        object.__setattr__(self, "inv", np.ascontiguousarray(self.inv, dtype=np.int32))
        self.mul.setflags(write=False)
        self.inv.setflags(write=False)
        object.__setattr__(self, "_fingerprint", hash(self.mul.tobytes()))

    def validate(self, rng: np.random.Generator | None = None) -> None:
        """Check the group axioms; exhaustive for order <= 64, sampled above."""
        n = self.order
        mul, inv = self.mul, self.inv
        if mul.shape != (n, n) or inv.shape != (n,):
            raise GroupError(f"table shapes wrong for order {n}")
        idx = np.arange(n)
        if not np.array_equal(mul[self.identity], idx) or not np.array_equal(
            mul[:, self.identity], idx
        ):
            raise GroupError("identity law fails")
        if not np.array_equal(mul[idx, inv[idx]], np.full(n, self.identity)):
            raise GroupError("inverse law fails")
        if not (np.array_equal(np.sort(mul, axis=0), idx[:, None] * np.ones((1, n), dtype=np.int32))
                and np.array_equal(np.sort(mul, axis=1), np.ones((n, 1), dtype=np.int32) * idx[None, :])):
            raise GroupError("multiplication table rows/columns are not permutations")
        if n <= 64:
            # mul[mul][x,y,z] = (xy)z and mul[:, mul][x,y,z] = x(yz)
            if not np.array_equal(mul[mul], mul[:, mul]):
                raise GroupError("associativity fails")
        else:
            rng = rng or np.random.default_rng(0)
            xs, ys, zs = rng.integers(0, n, size=(3, 20000))
            if not np.array_equal(mul[mul[xs, ys], zs], mul[xs, mul[ys, zs]]):
                raise GroupError("associativity fails on sampled triples")

    def delta_element(self, s: int) -> "AlgebraElement":
        """Point mass at element s."""
        coeffs = np.zeros(self.order, dtype=complex)
        coeffs[s] = 1.0
        return AlgebraElement(self, coeffs)

    def subset(self, members) -> "GroupSubset":
        return GroupSubset(self, frozenset(int(m) for m in members))

    def word_ball(self, radius: int) -> "GroupSubset":
        """Ball of the word metric in the canonical symmetric generators."""
        reached = {self.identity}
        frontier = {self.identity}
        gens = set(self.generators) | {int(self.inv[g]) for g in self.generators}
        for _ in range(radius):
            frontier = {
                int(self.mul[x, g]) for x in frontier for g in gens
            } - reached
            reached |= frontier
        return self.subset(reached)

    def word_distances(self) -> np.ndarray:
        """Word-metric distance from the identity to every element (BFS)."""
        dist = np.full(self.order, -1, dtype=np.int64)
        dist[self.identity] = 0
        gens = sorted(set(self.generators) | {int(self.inv[g]) for g in self.generators})
        frontier = [self.identity]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for x in frontier:
                for g in gens:
                    y = int(self.mul[x, g])
                    if dist[y] < 0:
                        dist[y] = d
                        nxt.append(y)
            frontier = nxt
        dist[dist < 0] = self.order  # disconnected only if generators were dropped
        return dist

    def to_json(self) -> str:
        return json.dumps(
            {
                "order": self.order,
                "mul": self.mul.tolist(),
                "inv": self.inv.tolist(),
                "identity": self.identity,
                "label": self.label,
            }
        )

    @staticmethod
    def from_json(text: str) -> "FiniteGroup":
        data = json.loads(text)
        g = FiniteGroup(
            order=int(data["order"]),
            mul=np.array(data["mul"], dtype=np.int32),
            inv=np.array(data["inv"], dtype=np.int32),
            identity=int(data["identity"]),
            label=str(data["label"]),
        )
        g.validate()
        return g

    def __repr__(self):
        return f"FiniteGroup({self.label}, order={self.order})"


@dataclass(frozen=True)
class GroupSubset:
    """A subset of group element indices."""

    parent: FiniteGroup
    members: frozenset[int]

    def __post_init__(self):
        n = self.parent.order
        if any(m < 0 or m >= n for m in self.members):
            raise GroupError("subset members out of range")

    def sorted(self) -> list[int]:
        return sorted(self.members)

    def is_symmetric(self) -> bool:
        inv = self.parent.inv
        return all(int(inv[m]) in self.members for m in self.members)

    def indicator(self) -> "AlgebraElement":
        coeffs = np.zeros(self.parent.order, dtype=complex)
        coeffs[list(self.members)] = 1.0
        return AlgebraElement(self.parent, coeffs)

    def __len__(self):
        return len(self.members)

    def __contains__(self, item):
        return int(item) in self.members


@dataclass(eq=False)
class AlgebraElement:
    """A complex coefficient function on a finite group (an element of its
    group algebra under the left regular representation)."""

    parent: FiniteGroup
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (self.parent.order,):
            raise GroupError("coefficient vector length must equal the group order")

    def copy(self) -> "AlgebraElement":
        return AlgebraElement(self.parent, self.coeffs.copy())

    def support(self) -> list[int]:
        return [int(s) for s in np.nonzero(self.coeffs)[0]]

    def __add__(self, other):
        _same_parent(self, other)
        return AlgebraElement(self.parent, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _same_parent(self, other)
        return AlgebraElement(self.parent, self.coeffs - other.coeffs)

    def __rmul__(self, scalar):
        return AlgebraElement(self.parent, complex(scalar) * self.coeffs)


def same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    """Structural equality (identical multiplication table), not object identity."""
    return a is b or (
        a.order == b.order
        and a.identity == b.identity
        and a._fingerprint == b._fingerprint  # type: ignore[attr-defined]
    )


def _same_parent(f: AlgebraElement, g: AlgebraElement) -> None:
    if not same_group(f.parent, g.parent):
        raise GroupError("algebra elements live on different groups")


def convolve(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """Group-algebra product (f*g)(s) = sum_t f(t) g(t^{-1} s)."""
    _same_parent(f, g)
    out = np.zeros(f.parent.order, dtype=complex)
    np.add.at(out, f.parent.mul, f.coeffs[:, None] * g.coeffs[None, :])
    return AlgebraElement(f.parent, out)


def involution(f: AlgebraElement) -> AlgebraElement:
    """Adjoint in the group algebra: f*(s) = conj(f(s^{-1}))."""
    return AlgebraElement(f.parent, np.conj(f.coeffs[f.parent.inv]))


def regular_matrix(f: AlgebraElement) -> np.ndarray:
    """Matrix of the left regular representation: entry (t,u) = f(t u^{-1})."""
    grp = f.parent
    table = grp.mul[:, grp.inv]
    return f.coeffs[table]


def conjugate_set(s: int, subset: GroupSubset) -> GroupSubset:
    """Image of the subset under conjugation v -> s v s^{-1}."""
    grp = subset.parent
    si = int(grp.inv[s])
    return grp.subset(int(grp.mul[grp.mul[s, v], si]) for v in subset.members)


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian array: the real parts are drawn first, then
    the imaginary parts, so every random input in the package draws alike."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_element(
    group: FiniteGroup, rng: np.random.Generator, support: list[int] | None = None
) -> AlgebraElement:
    """Standard complex Gaussian coefficients, optionally restricted to a support."""
    coeffs = np.zeros(group.order, dtype=complex)
    idx = np.arange(group.order) if support is None else np.asarray(support)
    coeffs[idx] = complex_normal(rng, len(idx))
    return AlgebraElement(group, coeffs)


# ---------------------------------------------------------------------------
# constructors


def _cyclic(n: int) -> FiniteGroup:
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    inv = (-idx) % n
    gens = (1 % n,)
    return FiniteGroup(n, mul, inv, 0, f"cyclic:{n}", gens)


def _dihedral(n: int) -> FiniteGroup:
    # index k < n is r^k; index n+k is s r^k, with s r^a s = r^{-a}
    order = 2 * n
    mul = np.zeros((order, order), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            mul[a, b] = (a + b) % n                  # r^a r^b
            mul[a, n + b] = n + (b - a) % n          # r^a s r^b = s r^{b-a}
            mul[n + a, b] = n + (a + b) % n          # s r^a r^b
            mul[n + a, n + b] = (b - a) % n          # s r^a s r^b = r^{b-a}
    inv = np.zeros(order, dtype=np.int64)
    inv[:n] = (-np.arange(n)) % n
    inv[n:] = n + np.arange(n)                       # reflections are involutions
    return FiniteGroup(order, mul, inv, 0, f"dihedral:{n}", (1 % n, n))


def _heisenberg(n: int) -> FiniteGroup:
    # upper unitriangular 3x3 matrices over Z_n, encoded (a,b,c) -> a n^2 + b n + c
    order = n ** 3
    if order > MAX_ORDER:
        raise GroupError(f"heisenberg:{n} has order {order} > {MAX_ORDER}")
    a, b, c = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    a, b, c = (x.ravel().astype(np.int32) for x in (a, b, c))
    enc = lambda x, y, z: (x % n) * n * n + (y % n) * n + (z % n)
    mul = enc(
        a[:, None] + a[None, :],
        b[:, None] + b[None, :],
        c[:, None] + c[None, :] + a[:, None] * b[None, :],
    )
    inv = enc(-a, -b, a * b - c)
    gens = (enc(1, 0, 0), enc(0, 1, 0)) if n > 1 else (0,)
    return FiniteGroup(order, mul, inv, 0, f"heisenberg:{n}", gens)


def _product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    order = g1.order * g2.order
    if order > MAX_ORDER:
        raise GroupError(f"product order {order} > {MAX_ORDER}")
    n2 = g2.order
    i1, j1 = np.divmod(np.arange(order), n2)
    mul = (
        g1.mul[i1[:, None], i1[None, :]].astype(np.int64) * n2
        + g2.mul[j1[:, None], j1[None, :]]
    )
    inv = g1.inv[i1].astype(np.int64) * n2 + g2.inv[j1]
    gens = tuple(int(g) * n2 for g in g1.generators) + tuple(
        int(g) for g in g2.generators
    )
    return FiniteGroup(order, mul, inv, 0, f"product:{g1.label},{g2.label}", gens)


def build_group(spec: str) -> FiniteGroup:
    """Build a group from a descriptor string.

    Grammar: ``cyclic:N``, ``dihedral:N``, ``heisenberg:N``, or
    ``product:<desc>,<desc>`` (products nest).
    """
    (group,) = _parse_groups(spec, 1)
    return group


def _parse_groups(spec: str, count: int) -> list[FiniteGroup]:
    """Parse ``count`` consecutive descriptors from ``spec`` and validate each."""
    rest = [t for t in re.split(r"[:,]", spec.strip()) if t]
    groups = []
    for _ in range(count):
        group, rest = _parse_tokens(rest)
        if group.order > MAX_ORDER:
            raise GroupError(f"group order {group.order} exceeds cap {MAX_ORDER}")
        group.validate()
        groups.append(group)
    if rest:
        raise GroupError(f"trailing tokens in group descriptor: {rest}")
    return groups


def _parse_tokens(tokens: list[str]) -> tuple[FiniteGroup, list[str]]:
    if not tokens:
        raise GroupError("empty group descriptor")
    kind, rest = tokens[0], tokens[1:]
    if kind == "product":
        g1, rest = _parse_tokens(rest)
        g2, rest = _parse_tokens(rest)
        return _product(g1, g2), rest
    if kind in ("cyclic", "dihedral", "heisenberg"):
        if not rest or not rest[0].isdigit():
            raise GroupError(f"{kind} descriptor needs a positive integer")
        n = int(rest[0])
        if n < 1:
            raise GroupError("group parameter must be >= 1")
        if kind == "cyclic":
            if n > MAX_ORDER:
                raise GroupError("order overflow")
            return _cyclic(n), rest[1:]
        if kind == "dihedral":
            if 2 * n > MAX_ORDER:
                raise GroupError("order overflow")
            return _dihedral(n), rest[1:]
        return _heisenberg(n), rest[1:]
    raise GroupError(f"unknown group kind {kind!r}")


def parse_subset(group: FiniteGroup, spec: str) -> GroupSubset:
    """Parse ``indices:0,3,5`` or ``ball:k`` into a subset of the group."""
    kind, _, rest = spec.partition(":")
    if kind == "indices":
        try:
            members = [int(tok) for tok in rest.split(",") if tok != ""]
        except ValueError as exc:
            raise GroupError(f"bad subset spec {spec!r}") from exc
        return group.subset(members)
    if kind == "ball":
        return group.word_ball(int(rest))
    raise GroupError(f"unknown subset spec {spec!r}")


# ---------------------------------------------------------------------------
# subgroup embeddings


@dataclass(frozen=True, eq=False)
class SubgroupEmbedding:
    """An injective homomorphism from ``sub`` into ``amb`` given as an index map."""

    sub: FiniteGroup
    amb: FiniteGroup
    map: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "map", np.ascontiguousarray(self.map, dtype=np.int64))
        m = self.map
        if m.shape != (self.sub.order,):
            raise GroupError("embedding map has the wrong length")
        if len(set(m.tolist())) != self.sub.order:
            raise GroupError("embedding map is not injective")
        if int(m[self.sub.identity]) != self.amb.identity:
            raise GroupError("embedding does not fix the identity")
        ms = m[self.sub.mul]
        if not np.array_equal(ms, self.amb.mul[m[:, None], m[None, :]]):
            raise GroupError("embedding is not a homomorphism")

    def push(self, x: AlgebraElement) -> AlgebraElement:
        """Transport an element of the subgroup algebra into the ambient algebra."""
        if x.parent is not self.sub:
            raise GroupError("element does not live on the subgroup")
        coeffs = np.zeros(self.amb.order, dtype=complex)
        coeffs[self.map] = x.coeffs
        return AlgebraElement(self.amb, coeffs)

    def image(self) -> GroupSubset:
        return self.amb.subset(self.map.tolist())


def build_embedding(spec: str) -> SubgroupEmbedding:
    """Build a named subgroup embedding.

    Forms: ``trivial:<group-desc>`` (identity embedding),
    ``cyclic-in-cyclic:d,N`` (d | N, 1 -> N/d),
    ``rotations-in-dihedral:N`` (cyclic:N as the rotations of dihedral:N),
    ``reflection-in-dihedral:N`` (cyclic:2 generated by one reflection),
    ``center-in-heisenberg:N``,
    ``factor1-in-product:<desc>,<desc>`` / ``factor2-in-product:...``.
    """
    kind, _, rest = spec.partition(":")
    if kind == "trivial":
        g = build_group(rest)
        return SubgroupEmbedding(g, g, np.arange(g.order))
    if kind == "cyclic-in-cyclic":
        d_str, n_str = rest.split(",")
        d, n = int(d_str), int(n_str)
        if n % d != 0:
            raise GroupError(f"cyclic:{d} does not divide cyclic:{n}")
        return SubgroupEmbedding(
            build_group(f"cyclic:{d}"), build_group(f"cyclic:{n}"),
            np.arange(d) * (n // d),
        )
    if kind == "rotations-in-dihedral":
        n = int(rest)
        return SubgroupEmbedding(
            build_group(f"cyclic:{n}"), build_group(f"dihedral:{n}"), np.arange(n)
        )
    if kind == "reflection-in-dihedral":
        n = int(rest)
        return SubgroupEmbedding(
            build_group("cyclic:2"), build_group(f"dihedral:{n}"),
            np.array([0, n]),
        )
    if kind == "center-in-heisenberg":
        n = int(rest)
        return SubgroupEmbedding(
            build_group(f"cyclic:{n}"), build_group(f"heisenberg:{n}"),
            np.arange(n),  # (0,0,c) encodes to c
        )
    if kind in ("factor1-in-product", "factor2-in-product"):
        g1, g2 = _parse_groups(rest, 2)
        amb = _product(g1, g2)
        amb.validate()
        if kind == "factor1-in-product":
            return SubgroupEmbedding(g1, amb, np.arange(g1.order) * g2.order)
        return SubgroupEmbedding(g2, amb, np.arange(g2.order))
    raise GroupError(f"unknown embedding spec {spec!r}")

