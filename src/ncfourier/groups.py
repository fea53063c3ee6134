"""Finite groups as explicit multiplication tables, and their group algebras.

Groups are immutable once built: an index set 0..N-1, an NxN multiplication
table, an inverse table and identity index 0.  All exact computations in the
package (convolution, regular representation, conjugation counting) live on
top of these tables.

The constructors fill the int32 table by broadcasting, with no Python loop
over elements: cyclic and dihedral tables are copied from strided views of
0..n-1 laid out twice, Heisenberg and product tables are one broadcast sum
over the factored axes of the table.  ``build_group`` validates every table it makes
(``FiniteGroup.validate``); building and validating an order-4096 group holds
the 64 MB table and a few MB besides.

Each group also has a spectral layer, ``FiniteGroup.spectral()``: the Fourier
transform onto one unitary irreducible block per class, built lazily by a
recipe the constructor sets (FFTs for cyclic and dihedral groups, Kronecker
blocks for products, Dixon's method for every other table).  Norms are
computed on those blocks, so the dense NxN regular matrix no longer bounds the
order; the cap of 4096 is the size of the multiplication table, which every
group stores, and of the N^2-entry stored transform of Dixon's method.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

MAX_ORDER = 4096
STORED_ORDER = 64

__all__ = [
    "FiniteGroup",
    "Spectral",
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

    ``spectral_recipe`` builds the group's spectral layer; the constructors
    set it, and a table without one (a quotient, a ``from_json`` table) takes
    Dixon's method whatever its label says.
    """

    order: int
    mul: np.ndarray
    inv: np.ndarray
    identity: int
    label: str
    generators: tuple[int, ...] = field(default=())
    spectral_recipe: Callable[[], "Spectral"] | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "mul", np.ascontiguousarray(self.mul, dtype=np.int32))
        object.__setattr__(self, "inv", np.ascontiguousarray(self.inv, dtype=np.int32))
        self.mul.setflags(write=False)
        self.inv.setflags(write=False)

    def validate(self) -> None:
        """Check the group axioms, raising ``GroupError`` on the first that fails.

        In order: the table shapes; ``identity`` lies in 0..N-1; the identity
        law; every ``inv`` entry lies in 0..N-1; the inverse law; every row
        and every column is a permutation of 0..N-1; associativity, on all
        N^3 triples up to order 64 and above it on 20,000 triples drawn from
        ``default_rng(0)``.  The permutation check sorts slabs of rows, and of
        columns copied out tile by tile, so it costs two row-wise sorts of the
        table and a few slabs of 128 rows of extra memory; every other check
        is O(N), or O(N^3) = 2^18 entries at order 64.
        """
        n = self.order
        mul, inv = self.mul, self.inv
        if mul.shape != (n, n) or inv.shape != (n,):
            raise GroupError(f"table shapes wrong for order {n}")
        if not 0 <= self.identity < n:
            raise GroupError(f"identity index {self.identity} out of range for order {n}")
        idx = np.arange(n, dtype=np.int32)
        if not np.array_equal(mul[self.identity], idx) or not np.array_equal(
            mul[:, self.identity], idx
        ):
            raise GroupError("identity law fails")
        if inv.min() < 0 or inv.max() >= n:
            raise GroupError(f"inverse table entries out of range for order {n}")
        if not (mul[idx, inv] == self.identity).all():
            raise GroupError("inverse law fails")
        if not _is_latin_square(mul):
            raise GroupError("multiplication table rows/columns are not permutations")
        if n <= 64:
            # mul[mul][x,y,z] = (xy)z and mul[:, mul][x,y,z] = x(yz)
            if not np.array_equal(mul[mul], mul[:, mul]):
                raise GroupError("associativity fails")
        else:
            xs, ys, zs = np.random.default_rng(0).integers(0, n, size=(3, 20000))
            if not np.array_equal(mul[mul[xs, ys], zs], mul[xs, mul[ys, zs]]):
                raise GroupError("associativity fails on sampled triples")

    def spectral(self) -> "Spectral":
        """The irreducible blocks of the group algebra, built on first use.

        Up to order ``STORED_ORDER`` the recipe's transform is kept as one NxN
        matrix: there a matrix product costs a fraction of an FFT call.
        """
        spec = self.__dict__.get("_spectral")
        if spec is None:
            if self.spectral_recipe is None:
                spec = _StoredSpectral(*_dixon_transform(self))
            else:
                spec = self.spectral_recipe()
                if self.order <= STORED_ORDER:
                    spec = _StoredSpectral.of(spec)
            object.__setattr__(self, "_spectral", spec)
        return spec

    def delta_element(self, s: int) -> "AlgebraElement":
        """Point mass at element s."""
        coeffs = np.zeros(self.order, dtype=complex)
        coeffs[s] = 1.0
        return AlgebraElement(self, coeffs)

    def subset(self, members) -> "GroupSubset":
        return GroupSubset(self, frozenset(map(int, members)))

    def word_ball(self, radius: int) -> "GroupSubset":
        """Ball of the word metric in the canonical symmetric generators."""
        if radius < 0:
            raise GroupError(f"word-ball radius must be >= 0, got {radius}")
        # reached elements lie within order - 1 steps; unreached ones read order
        dist = self.word_distances()
        return self.subset(np.flatnonzero(dist <= min(radius, self.order - 1)).tolist())

    def word_distances(self) -> np.ndarray:
        """Word-metric distance from the identity to every element (BFS, one
        table gather per level)."""
        dist = np.full(self.order, -1, dtype=np.int64)
        dist[self.identity] = 0
        gens = np.asarray(self.generators, dtype=np.int64)
        gens = np.union1d(gens, self.inv[gens])
        frontier = np.array([self.identity])
        d = 0
        while frontier.size:
            d += 1
            reached = np.unique(self.mul[frontier[:, None], gens])
            frontier = reached[dist[reached] < 0]
            dist[frontier] = d
        dist[dist < 0] = self.order  # disconnected only if generators were dropped
        return dist

    def json_chunks(self):
        """The group as indented JSON with sorted keys (``json.dumps(...,
        indent=2, sort_keys=True)`` plus a newline), one table row at a time:
        an order-4096 table never becomes nested lists or one string, and the
        indenting runs in C (``str.join``), not in json's pure-Python indent
        encoder."""
        def block(values, pad):  # a JSON list of ints, one per line at indent pad
            inner = (",\n" + " " * pad).join(map(str, values.tolist()))
            return "[\n" + " " * pad + inner + "\n" + " " * (pad - 2) + "]"

        yield (f'{{\n  "identity": {self.identity},\n  "inv": {block(self.inv, 4)},\n'
               f'  "label": {json.dumps(self.label)},\n  "mul": [\n')
        last = self.order - 1
        for i, row in enumerate(self.mul):
            yield f"    {block(row, 6)}{',' if i < last else ''}\n"
        yield f'  ],\n  "order": {self.order}\n}}\n'

    def to_json(self) -> str:
        return "".join(self.json_chunks())

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
        if self.members and not (0 <= min(self.members) and max(self.members) < self.parent.order):
            raise GroupError("subset members out of range")

    def sorted(self) -> list[int]:
        return sorted(self.members)

    def is_symmetric(self) -> bool:
        return self.members.issuperset(self.parent.inv[list(self.members)].tolist())

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

    def __sub__(self, other):
        _same_parent(self, other)
        return AlgebraElement(self.parent, self.coeffs - other.coeffs)


def same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    """Structural equality (identical multiplication table), not object identity."""
    return a is b or (
        a.order == b.order
        and a.identity == b.identity
        and _fingerprint(a) == _fingerprint(b)
    )


def _fingerprint(group: FiniteGroup) -> int:
    """Hash of the table, computed on first use: most groups are never compared."""
    fp = group.__dict__.get("_fingerprint")
    if fp is None:
        fp = hash(group.mul.tobytes())
        object.__setattr__(group, "_fingerprint", fp)
    return fp


_SLAB = 128


def _is_latin_square(mul: np.ndarray) -> bool:
    """Whether every row and every column of the N x N table lists 0..N-1 once.

    Slabs of ``_SLAB`` rows are sorted and compared with arange(N).  Columns
    take the same path: each slab of columns is copied into a row-major buffer
    one _SLAB x _SLAB tile at a time, so no strided sort runs and no transpose
    of the whole table is held.
    """
    n = len(mul)
    idx = np.arange(n, dtype=mul.dtype)
    for r in range(0, n, _SLAB):
        if not (np.sort(mul[r:r + _SLAB], axis=1) == idx).all():
            return False
    if n <= _SLAB:  # one tile: sorting the strided transpose costs least
        return bool((np.sort(mul.T, axis=1) == idx).all())
    buf = np.empty((_SLAB, n), dtype=mul.dtype)
    for c in range(0, n, _SLAB):
        cols = buf[:min(_SLAB, n - c)]
        for r in range(0, n, _SLAB):
            cols[:, r:r + _SLAB] = mul[r:r + _SLAB, c:c + _SLAB].T
        cols.sort(axis=1)
        if not (cols == idx).all():
            return False
    return True


def _same_parent(f: AlgebraElement, g: AlgebraElement) -> None:
    if not same_group(f.parent, g.parent):
        raise GroupError("algebra elements live on different groups")


def convolve(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """Group-algebra product (f*g)(s) = sum_t f(t) g(t^{-1} s), summed over the
    support of f in increasing t, with O(N) memory."""
    _same_parent(f, g)
    grp = f.parent
    out = np.zeros(grp.order, dtype=complex)
    for t in np.flatnonzero(f.coeffs):
        out += f.coeffs[t] * g.coeffs[grp.mul[grp.inv[t]]]
    return AlgebraElement(grp, out)


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
    (row,) = _conjugation_mask(grp, [s], subset.sorted())
    return grp.subset(np.flatnonzero(row).tolist())


def _conjugation_mask(group: FiniteGroup, conjugators, members) -> np.ndarray:
    """Boolean (len(conjugators), N) mask whose row i marks s_i V s_i^{-1},
    for V given by its member indices: one table gather per side."""
    s = np.asarray(conjugators, dtype=np.int64).reshape(-1, 1)
    conj = group.mul[group.mul[s, np.asarray(members, dtype=np.int64)], group.inv[s]]
    mask = np.zeros((len(s), group.order), dtype=bool)
    mask[np.arange(len(s))[:, None], conj] = True
    return mask


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian array: the real parts are drawn first, then
    the imaginary parts, so every random input in the package draws alike."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_element(group: FiniteGroup, rng: np.random.Generator) -> AlgebraElement:
    """Standard complex Gaussian coefficients."""
    return AlgebraElement(group, complex_normal(rng, group.order))


# ---------------------------------------------------------------------------
# spectral layer: the Fourier transform onto irreducible blocks


class Spectral:
    """The group Fourier transform f -> (f^(pi))_pi, f^(pi) = sum_s f(s) pi(s),
    over one unitary irreducible pi per class.

    lambda(f) is unitarily equivalent to the direct sum of f^(pi) (x) 1_{d_pi},
    so ||lambda(f)||_p^p = (1/N) sum_pi d_pi ||f^(pi)||_{S_p}^p (Plancherel).
    ``forward`` maps coefficients of shape (..., N) to one stack per block
    dimension: stack i has shape (..., counts[i], dims[i], dims[i]).
    ``adjoint`` maps stacks back to (..., N) coefficients,
    adjoint(B)(s) = sum_pi d_pi tr(pi(s)^* B_pi); it is the adjoint of forward
    under the trace pairing of the regular representation, and
    adjoint(forward(f)) = N f.
    """

    order: int
    dims: tuple[int, ...]
    counts: tuple[int, ...]

    def forward(self, coeffs: np.ndarray) -> list[np.ndarray]:
        raise NotImplementedError

    def adjoint(self, blocks: list[np.ndarray]) -> np.ndarray:
        raise NotImplementedError


class _CyclicSpectral(Spectral):
    """Z_n: the characters s -> exp(-2 pi i k s / n), by FFT; no matrix stored."""

    def __init__(self, n: int):
        self.order, self.dims, self.counts = n, (1,), (n,)

    def forward(self, coeffs):
        return [np.fft.fft(coeffs)[..., None, None]]

    def adjoint(self, blocks):
        return self.order * np.fft.ifft(blocks[0][..., 0, 0])


class _DihedralSpectral(Spectral):
    """D_n from one FFT of the rotation half a = f(r^k) and the reflection half
    b = f(s r^k): rho_j(r) = diag(w^j, w^-j), rho_j(s) = [[0, 1], [1, 0]] with
    w = exp(2 pi i / n) and 0 < j < n/2 give the 2x2 blocks
    [[A_-j, B_j], [B_-j, A_j]]; the characters with r -> +-1 (the sign -1 only
    for even n) and s -> +-1 give the 1x1 blocks A_0 +- B_0 and A_n/2 +- B_n/2.
    """

    def __init__(self, n: int):
        self.n, self.order = n, 2 * n
        j = np.arange(1, (n + 1) // 2)
        halves = np.array([0, n // 2] if n % 2 == 0 else [0])
        # positions in the FFT of the two halves, laid end to end (A, then B)
        self._rot, self._ref = np.repeat(halves, 2), n + np.repeat(halves, 2)
        self._sign = np.tile([1.0, -1.0], len(halves))
        self._two = np.stack([np.stack([-j % n, n + j], -1), np.stack([n + -j % n, j], -1)], -2)
        self.dims = (1, 2) if len(j) else (1,)
        self.counts = (2 * len(halves), len(j))[: len(self.dims)]

    def forward(self, coeffs):
        ft = np.fft.fft(coeffs.reshape(coeffs.shape[:-1] + (2, self.n))).reshape(coeffs.shape)
        blocks = [(ft[..., self._rot] + self._sign * ft[..., self._ref])[..., None, None]]
        if len(self.dims) == 2:
            blocks.append(ft[..., self._two])
        return blocks

    def adjoint(self, blocks):
        ones = blocks[0][..., 0, 0]
        ft = np.zeros(ones.shape[:-1] + (self.order,), dtype=complex)
        ft[..., self._rot[::2]] = ones[..., ::2] + ones[..., 1::2]
        ft[..., self._ref[::2]] = ones[..., ::2] - ones[..., 1::2]
        if len(self.dims) == 2:
            ft[..., self._two] = 2.0 * blocks[1]
        out = np.fft.ifft(ft.reshape(ft.shape[:-1] + (2, self.n)))
        return self.n * out.reshape(ft.shape)


def _permute_tail(x: np.ndarray, perm: tuple[int, ...]) -> np.ndarray:
    """Permute the last len(perm) axes of x, leaving the leading ones."""
    lead = x.ndim - len(perm)
    return x.transpose(*range(lead), *(lead + i for i in perm))


class _ProductSpectral(Spectral):
    """G1 x G2: each factor's transform along its own axis of the (N1, N2)
    coefficient grid, then the Kronecker blocks pi1(s) (x) pi2(t), gathered by
    dimension d1*d2 (pairs in factor-stack order, pi1 outer to pi2)."""

    def __init__(self, s1: Spectral, s2: Spectral):
        self.s1, self.s2, self.order = s1, s2, s1.order * s2.order
        pairs = [(i1, i2) for i1 in range(len(s1.dims)) for i2 in range(len(s2.dims))]
        self.dims = tuple(sorted({s1.dims[i1] * s2.dims[i2] for i1, i2 in pairs}))
        self._layout = [[(i1, i2) for i1, i2 in pairs if s1.dims[i1] * s2.dims[i2] == d]
                        for d in self.dims]
        self.counts = tuple(sum(s1.counts[i1] * s2.counts[i2] for i1, i2 in lay)
                            for lay in self._layout)

    def forward(self, coeffs):
        s1, s2 = self.s1, self.s2
        grid = coeffs.reshape(coeffs.shape[:-1] + (s1.order, s2.order))
        # outer[i2][i1] has the axes (..., k2, a, b, k1, c, e) of pi2[a, b] pi1[c, e]
        outer = [s1.forward(_permute_tail(inner, (1, 2, 3, 0))) for inner in s2.forward(grid)]
        stacks = []
        for d, lay in zip(self.dims, self._layout):
            # to (..., k1, k2, c, a, e, b): the Kronecker block [(c, a), (e, b)]
            parts = [_permute_tail(outer[i2][i1], (3, 0, 4, 1, 5, 2)) for i1, i2 in lay]
            parts = [y.reshape(y.shape[:-6] + (-1, d, d)) for y in parts]
            stacks.append(parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-3))
        return stacks

    def adjoint(self, blocks):
        s1, s2 = self.s1, self.s2
        pieces = {}
        for stack, lay in zip(blocks, self._layout):
            start = 0
            for i1, i2 in lay:
                k1, k2, d1, d2 = s1.counts[i1], s2.counts[i2], s1.dims[i1], s2.dims[i2]
                y = stack[..., start:start + k1 * k2, :, :]
                y = y.reshape(y.shape[:-3] + (k1, k2, d1, d2, d1, d2))
                pieces[i1, i2] = _permute_tail(y, (1, 3, 5, 0, 2, 4))
                start += k1 * k2
        inner = [_permute_tail(s1.adjoint([pieces[i1, i2] for i1 in range(len(s1.dims))]),
                               (3, 0, 1, 2))
                 for i2 in range(len(s2.dims))]
        out = s2.adjoint(inner)
        return out.reshape(out.shape[:-2] + (self.order,))


class _StoredSpectral(Spectral):
    """A transform stored as one N x N matrix T whose columns hold the block
    entries, stack after stack: forward(f) = f T, sliced into the stacks."""

    def __init__(self, dims: tuple[int, ...], counts: tuple[int, ...], matrix: np.ndarray):
        self.order, self.dims, self.counts, self._matrix = len(matrix), dims, counts, matrix
        sizes = [k * d * d for k, d in zip(counts, dims)]
        ends = np.cumsum([0] + sizes).tolist()
        self._columns = [slice(a, b) for a, b in zip(ends, ends[1:])]
        self._weights = np.repeat(dims, sizes)

    @classmethod
    def of(cls, spec: Spectral) -> "_StoredSpectral":
        stacks = spec.forward(np.eye(spec.order, dtype=complex))
        matrix = np.concatenate([b.reshape(spec.order, -1) for b in stacks], axis=1)
        return cls(spec.dims, spec.counts, matrix)

    def forward(self, coeffs):
        y = coeffs @ self._matrix
        return [y[..., cols].reshape(y.shape[:-1] + (k, d, d))
                for cols, k, d in zip(self._columns, self.counts, self.dims)]

    def adjoint(self, blocks):
        flat = np.concatenate([b.reshape(b.shape[:-3] + (-1,)) for b in blocks], axis=-1)
        return np.conj((np.conj(flat) * self._weights) @ self._matrix.T)


# internal seed of the random Hermitian elements in Dixon's method, so that two
# builds of the same table give bit-identical blocks
_DIXON_SEED = 20240601
_DIXON_ATTEMPTS = 4


def _dixon_transform(group: FiniteGroup) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray]:
    """(dims, counts, matrix) of a table's transform by Dixon's method (Math.
    Comp. 24, 1970): the eigenspaces of a random complex Hermitian element of
    the right regular representation are irreducible left-invariant subspaces."""
    for attempt in range(_DIXON_ATTEMPTS):
        found = _dixon_representations(group, np.random.default_rng([_DIXON_SEED, attempt]))
        if found is not None:
            return found
    raise ArithmeticError(f"no irreducible decomposition found for {group.label}")


def _dixon_representations(group: FiniteGroup, rng: np.random.Generator):
    """One unitary irreducible representation per class, as (dims, counts,
    matrix) for ``_StoredSpectral``, or None when the random elements were too
    degenerate to separate them.

    l2(G) is first split by the characters chi of the centre Z: on the
    chi-isotypic part, with basis e_r(z r) = conj(chi(z)) over coset
    representatives r, a right-regular element c acts by the matrix
    H[r, r'] = sum_w conj(chi(w)) c(w r^-1 r').  An irreducible pi of
    dimension d there gives d eigenvalues of multiplicity d.  An eigenspace
    Q (N x d) is left invariant, lambda(s) Q = Q B(s), so rows R with Q[R]
    invertible give B(s) = Q[R]^-1 Q[s^-1 R] for all s at once.
    """
    n, mul, inv = group.order, group.mul, group.inv
    centre = np.flatnonzero(np.all(mul == mul.T, axis=1))
    chars = _centre_characters(group, centre, rng)
    if chars is None:
        return None
    # every element t = z r with z in the centre and r the least element of Z t
    rep_of = mul[centre].min(axis=0)
    cosets = np.flatnonzero(rep_of == np.arange(n))
    coset_of = np.searchsorted(cosets, rep_of)
    zpos = np.argmax(mul[centre][:, rep_of] == np.arange(n), axis=0)
    shifts = mul[centre[:, None, None], mul[inv[cosets][:, None], cosets[None, :]]]  # w r^-1 r'

    def element(chi):
        c = complex_normal(rng, n)
        return np.tensordot(np.conj(chi), (c + np.conj(c[inv]))[shifts], axes=1)

    # the eigenspaces of each chi-part, and how many irreducibles each dimension has
    found, need = [], {}
    for chi in chars:
        # one random element per level, shared by the runs split at that level
        spaces = _eigenspaces(functools.cache(lambda level, chi=chi: element(chi)))
        sizes = np.bincount([q.shape[1] for q in spaces])
        if any(k % d for d, k in enumerate(sizes) if k):
            return None
        wanted = {d: int(k) // d for d, k in enumerate(sizes) if k}
        found.append((chi, spaces, wanted))
        for d, k in wanted.items():
            need[d] = need.get(d, 0) + k
    if sum(k * d * d for d, k in need.items()) != n:
        return None

    dims = tuple(sorted(need))
    counts = tuple(need[d] for d in dims)
    matrix = np.empty((n, n), dtype=complex)
    ends = np.cumsum([0] + [k * d * d for k, d in zip(counts, dims)])
    reps = {d: matrix[:, a:b].reshape(n, need[d], d, d) for d, a, b in zip(dims, ends, ends[1:])}
    filled = dict.fromkeys(need, 0)
    rows_of = mul[inv[:, None], cosets[None, :]]  # s^-1 r
    left, right = rng.integers(n, size=(2, 16))  # pairs that test B(l) B(r) = B(l r)
    for chi, spaces, wanted in found:
        kept: dict[int, list[np.ndarray]] = {d: [] for d in wanted}  # characters
        for q in spaces:
            d = q.shape[1]
            if len(kept[d]) == wanted[d]:
                continue
            sel = _pivot_rows(q)
            t = rows_of[:, sel]
            rows = np.conj(chi[zpos[t]])[..., None] * q[coset_of[t]]  # Q[s^-1 R]
            blocks = np.linalg.solve(q[sel], rows.transpose(1, 0, 2).reshape(d, -1))
            blocks = blocks.reshape(d, n, d).transpose(1, 0, 2)
            trace = np.trace(blocks, axis1=1, axis2=2)
            hom = np.abs(blocks[left] @ blocks[right] - blocks[mul[left, right]]).max()
            if hom > 1e-8 or abs(np.vdot(trace, trace).real / n - 1.0) > 1e-8:
                return None  # not a representation, or a reducible one
            # d eigenspaces carry each irreducible of dimension d > 1
            if d > 1 and any(abs(np.vdot(k, trace)) > 0.5 * n for k in kept[d]):
                continue
            kept[d].append(trace)
            reps[d][:, filled[d]] = blocks
            filled[d] += 1
    return (dims, counts, matrix) if filled == need else None


def _eigenspaces(element: Callable[[int], np.ndarray], level: int = 0,
                 basis: np.ndarray | None = None) -> list[np.ndarray]:
    """Orthonormal bases (columns) of the eigenspaces of the Hermitian
    element(level), compressed to the span of the columns of ``basis`` when
    one is given (the bases are then returned in the outer coordinates).

    An eigenspace is only as accurate as its eigenvalue is isolated, so a run
    of eigenvalues closer than 1e-3 of the scale is split again by
    element(level + 1) compressed to the run's span, up to level 2: that span
    is well separated, and an element of the commutant compressed to an
    invariant subspace is again one.
    """
    h = element(level)
    if basis is not None:
        h = basis.conj().T @ h @ basis
    w, v = np.linalg.eigh(h)
    if basis is not None:
        v = basis @ v
    scale = max(1.0, float(np.abs(w).max()))
    spaces = []
    for run in np.split(np.arange(len(w)), np.flatnonzero(np.diff(w) > 1e-3 * scale) + 1):
        parts = np.split(run, np.flatnonzero(np.diff(w[run]) > 1e-8 * scale) + 1)
        if len(parts) > 1 and level < 2:
            spaces += _eigenspaces(element, level + 1, v[:, run])
        else:
            spaces += [v[:, idx] for idx in parts]
    return spaces


def _pivot_rows(q: np.ndarray) -> np.ndarray:
    """d rows of an M x d matrix with orthonormal columns whose square block is
    well conditioned: Gram-Schmidt with pivoting, each step taking the row of
    largest residual norm and projecting it out of the others."""
    residual, rows = q.copy(), []
    for _ in range(q.shape[1]):
        i = int(np.argmax(np.einsum("ij,ij->i", residual, residual.conj()).real))
        rows.append(i)
        v = residual[i] / np.linalg.norm(residual[i])
        residual -= np.outer(residual @ v.conj(), v)
    return np.array(rows)


def _centre_characters(group: FiniteGroup, centre: np.ndarray, rng: np.random.Generator):
    """chars[k, i] = chi_k(centre[i]) over all characters of the (abelian)
    centre: the eigenvectors of random Hermitian elements of its regular
    representation, scaled to 1 at the identity; None if they are not
    characters."""
    pos = np.full(group.order, -1)
    pos[centre] = np.arange(len(centre))
    zmul, zinv = pos[group.mul[np.ix_(centre, centre)]], pos[group.inv[centre]]

    @functools.cache
    def element(level):
        c = complex_normal(rng, len(centre))
        return (c + np.conj(c[zinv]))[zmul[:, zinv]]

    spaces = _eigenspaces(element)
    if any(q.shape[1] != 1 for q in spaces):
        return None
    vecs = np.concatenate(spaces, axis=1)
    chars = (vecs / vecs[pos[group.identity]]).T
    if np.abs(np.abs(chars) - 1.0).max() > 1e-8:
        return None
    return chars


# ---------------------------------------------------------------------------
# constructors


def _windows(n: int) -> np.ndarray:
    """The (n + 1, n) int32 view w[k, b] = (k + b) mod n: row k is the window
    at k of 0..n-1 laid out twice, so sums and differences mod n are views."""
    twice = np.arange(2 * n, dtype=np.int32) % n
    return np.ndarray((n + 1, n), np.int32, twice, 0, (4, 4))


def _cyclic(n: int) -> FiniteGroup:
    mul = _windows(n)[:n].copy()  # (a + b) mod n
    inv = -np.arange(n, dtype=np.int32) % n
    gens = (1 % n,)
    return FiniteGroup(n, mul, inv, 0, f"cyclic:{n}", gens, lambda: _CyclicSpectral(n))


def _dihedral(n: int) -> FiniteGroup:
    # index k < n is r^k; index n+k is s r^k, with s r^a s = r^{-a}
    order = 2 * n
    win = _windows(n)
    add, sub = win[:n], win[n:0:-1]            # (a + b) mod n, (b - a) mod n
    mul = np.empty((order, order), dtype=np.int32)
    mul[:n, :n] = add                          # r^a r^b
    np.add(sub, n, out=mul[:n, n:])            # r^a s r^b = s r^{b-a}
    np.add(add, n, out=mul[n:, :n])            # s r^a r^b
    mul[n:, n:] = sub                          # s r^a s r^b = r^{b-a}
    idx = np.arange(n, dtype=np.int32)
    inv = np.concatenate([-idx % n, n + idx])  # reflections are involutions
    return FiniteGroup(order, mul, inv, 0, f"dihedral:{n}", (1 % n, n),
                       lambda: _DihedralSpectral(n))


def _heisenberg(n: int) -> FiniteGroup:
    # upper unitriangular 3x3 matrices over Z_n, encoded (a,b,c) -> a n^2 + b n + c
    order = n ** 3
    if order > MAX_ORDER:
        raise GroupError(f"heisenberg:{n} has order {order} > {MAX_ORDER}")
    idx = np.arange(n, dtype=np.int32)
    add, ab = _windows(n)[:n], np.multiply.outer(idx, idx)
    # high[a, b, a', b'] = (a+a') n^2 + (b+b') n; low[a, c, b', c'] = c+c'+ab'
    high = (add * n * n)[:, None, :, None] + (add * n)[None, :, None, :]
    low = (ab[:, None, :, None] + idx[:, None, None] + idx) % n
    # one broadcast sum on the axes (a, b, c, a', b', c') of the table
    mul = np.empty((n,) * 6, dtype=np.int32)
    np.add(high[:, :, None, :, :, None], low[:, None, :, None, :, :], out=mul)
    neg = -idx % n
    inv = (neg * n * n)[:, None, None] + (neg * n)[:, None] + (ab[:, :, None] - idx) % n
    gens = (n * n, n) if n > 1 else (0,)
    return FiniteGroup(order, mul.reshape(order, order), inv.ravel(), 0,
                       f"heisenberg:{n}", gens)


def _product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    order = g1.order * g2.order
    if order > MAX_ORDER:
        raise GroupError(f"product order {order} > {MAX_ORDER}")
    n1, n2 = g1.order, g2.order
    # (i, j)(i', j') = (i i', j j') on the axes (i, j, i', j') of the table
    mul = np.empty((n1, n2, n1, n2), dtype=np.int32)
    np.add((g1.mul * n2)[:, None, :, None], g2.mul[:, None, :], out=mul)
    inv = g1.inv[:, None] * n2 + g2.inv
    gens = tuple(int(g) * n2 for g in g1.generators) + tuple(
        int(g) for g in g2.generators
    )
    return FiniteGroup(order, mul.reshape(order, order), inv.ravel(), 0,
                       f"product:{g1.label},{g2.label}", gens,
                       lambda: _ProductSpectral(g1.spectral(), g2.spectral()))


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
        if (np.diff(np.sort(m)) == 0).any():
            raise GroupError("embedding map is not injective")
        if int(m[self.sub.identity]) != self.amb.identity:
            raise GroupError("embedding does not fix the identity")
        # m(a) m(b) = m(ab), compared in int32 slabs of _SLAB rows: no N x N temporary
        m32 = m.astype(np.int32)
        for r in range(0, len(m), _SLAB):
            rows = slice(r, r + _SLAB)
            image = self.amb.mul[m[rows]].take(m, axis=1)
            if not np.array_equal(m32.take(self.sub.mul[rows]), image):
                raise GroupError("embedding is not a homomorphism")

    def push(self, x: AlgebraElement) -> AlgebraElement:
        """Transport an element of the subgroup algebra into the ambient algebra."""
        if x.parent is not self.sub:
            raise GroupError("element does not live on the subgroup")
        coeffs = np.zeros(self.amb.order, dtype=complex)
        coeffs[self.map] = x.coeffs
        return AlgebraElement(self.amb, coeffs)


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
        orders = rest.split(",")
        if len(orders) != 2:
            raise GroupError(f"cyclic-in-cyclic needs two orders d,N, got {rest!r}")
        d, n = int(orders[0]), int(orders[1])
        if d < 1 or n < 1:
            raise GroupError(f"cyclic-in-cyclic orders must be >= 1, got {d},{n}")
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

