"""Core objects: pair 2-colorings of a complete graph, edge sets, and
homogeneous-set machinery.

A coloring on n labeled vertices assigns 0 or 1 to each of the n(n-1)/2
unordered pairs.  Pairs are indexed colexicographically:

    index{x, y} = y(y-1)/2 + x        for 0 <= x < y < n

so the restriction of a coloring to a prefix {0..m-1} is a prefix of its
bit sequence.  Colorings and edge sets are immutable and store their pair
sets as integer bitmasks (bit i = pair with index i).

Both also keep one neighbourhood mask per vertex (``Coloring.nbr``,
``EdgeSet.adj``: bit z of entry x is the pair {x, z}), built on first use,
so per-pair questions are a few integer operations.

A set H of at least 3 vertices is homogeneous when the coloring is
constant on the pairs inside H.  Two colorings are H-equivalent when they
have the same homogeneous sets; this only depends on the homogeneous
triples, which is what :func:`h_equivalent` compares.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import (
    BudgetError,
    DimensionMismatchError,
    InvalidPairError,
    InvalidSubsetError,
    TooSmallError,
)

__all__ = [
    "Coloring",
    "EdgeSet",
    "HomSet",
    "HomSignature",
    "TripleKind",
    "bits_of",
    "boolean_sum",
    "complement",
    "difference",
    "h_equivalent",
    "hom_sets",
    "hom_signature",
    "hom_triple_count",
    "hom_triple_counts",
    "pair_count",
    "pair_index",
    "restrict",
    "triple_count",
    "triples",
]


# ---------------------------------------------------------------------------
# pair / triple indexing


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def triple_count(n: int) -> int:
    return n * (n - 1) * (n - 2) // 6


def pair_index(x: int, y: int, n: int | None = None) -> int:
    """Colexicographic index of the pair {x, y}, requiring x < y.

    Bijective from pairs onto 0..n(n-1)/2 - 1 when vertices are in range.
    """
    if x == y:
        raise InvalidPairError(f"degenerate pair ({x}, {y})")
    if not 0 <= x < y:
        raise InvalidPairError(f"pair ({x}, {y}) must satisfy 0 <= x < y")
    if n is not None and y >= n:
        raise InvalidPairError(f"pair ({x}, {y}) out of range for n={n}")
    return y * (y - 1) // 2 + x


@lru_cache(maxsize=None)
def pairs_of(n: int) -> tuple[tuple[int, int], ...]:
    """All pairs on n vertices in colex (= index) order."""
    return tuple((x, y) for y in range(n) for x in range(y))


@lru_cache(maxsize=1)
def triples(n: int) -> tuple[tuple[int, int, int], ...]:
    """All triples x < y < z on n vertices in colex order."""
    return tuple(
        (x, y, z) for z in range(n) for y in range(z) for x in range(y)
    )


@lru_cache(maxsize=1)
def triple_pairs(n: int) -> tuple[tuple[int, int, int], ...]:
    """Per triple of ``triples(n)``, its pair indices ({x,y}, {x,z}, {y,z}).

    Built without ``triples(n)`` and from one int object per pair index:
    at n = 38 the table takes 0.6 MB, where fresh ints and the cached
    triples took 1.65 MB.  Only the last n's table is kept, so a sweep
    over n holds one; rebuilding one at n <= 9 takes microseconds."""
    # index[y][x] is pair_index(x, y)
    index = [list(range(y * (y - 1) // 2, y * (y + 1) // 2)) for y in range(n)]
    return tuple(
        (index[y][x], index[z][x], index[z][y])
        for z in range(n) for y in range(z) for x in range(y)
    )


def _norm_pair(pair: Sequence[int]) -> tuple[int, int]:
    x, y = pair
    if x == y:
        raise InvalidPairError(f"degenerate pair ({x}, {y})")
    return (x, y) if x < y else (y, x)


def bits_of(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _vertex_masks(n: int, bits: int) -> tuple[int, ...]:
    """Per vertex x, the mask of the z with pair {x, z} set in ``bits``.
    Row y below y is the slice of ``bits`` from y(y-1)/2; above, its transpose."""
    rows = [0] * n
    for y in range(1, n):
        low = bits >> (y * (y - 1) // 2) & ((1 << y) - 1)
        rows[y] |= low
        for x in bits_of(low):
            rows[x] |= 1 << y
    return tuple(rows)


# ---------------------------------------------------------------------------
# colorings


@dataclass(frozen=True)
class Coloring:
    """A total 2-coloring of the pairs on vertices 0..n-1.

    ``bits`` packs the n(n-1)/2 pair colors, bit i being the color of the
    pair with colex index i.
    """

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise TooSmallError(f"coloring needs n >= 2, got {self.n}")
        if self.bits < 0 or self.bits.bit_length() > pair_count(self.n):
            raise ValueError(
                f"bits out of range for n={self.n} ({pair_count(self.n)} pairs)"
            )

    # construction -----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Coloring":
        return cls(n, 0)

    @classmethod
    def all_one(cls, n: int) -> "Coloring":
        return cls(n, (1 << pair_count(n)) - 1)

    @classmethod
    def from_ones(cls, n: int, ones: Iterable[Sequence[int]]) -> "Coloring":
        bits = 0
        for pair in ones:
            x, y = _norm_pair(pair)
            bits |= 1 << pair_index(x, y, n)
        return cls(n, bits)

    # queries -----------------------------------------------------------

    @cached_property
    def nbr(self) -> tuple[int, ...]:
        """Per vertex x, the mask of the z with phi{x, z} = 1."""
        return _vertex_masks(self.n, self.bits)

    def get(self, x: int, y: int) -> int:
        x, y = (x, y) if x < y else (y, x)
        if not 0 <= x < y < self.n:
            pair_index(x, y, self.n)  # raises the error that names the fault
        return self.nbr[x] >> y & 1

    def ones(self) -> list[tuple[int, int]]:
        """Pairs colored 1, in colex order."""
        pairs = pairs_of(self.n)
        return [pairs[i] for i in bits_of(self.bits)]

    def complement(self) -> "Coloring":
        return Coloring(self.n, self.bits ^ ((1 << pair_count(self.n)) - 1))

    def __xor__(self, other: "Coloring") -> "Coloring":
        return boolean_sum(self, other)

    # serialization -----------------------------------------------------

    def to_json(self, form: str = "ones") -> dict:
        """JSON object, either the pair-list form or the hex bit-string form.

        Hex form packs bit i of the pair sequence into byte i // 8 at bit
        position i % 8 (little-endian within bytes).
        """
        if form == "ones":
            return {"n": self.n, "ones": [list(p) for p in self.ones()]}
        if form == "hex":
            nbytes = max(1, (pair_count(self.n) + 7) // 8)
            return {"n": self.n, "bits_hex": self.bits.to_bytes(nbytes, "little").hex()}
        raise ValueError(f"unknown serialization form {form!r}")

    @classmethod
    def from_json(cls, obj: dict) -> "Coloring":
        if not isinstance(obj, dict) or "n" not in obj:
            raise ValueError("coloring JSON must be an object with an 'n' field")
        n = obj["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"coloring 'n' must be a JSON integer, got {n!r}")
        if ("ones" in obj) == ("bits_hex" in obj):
            raise ValueError("coloring JSON needs exactly one of 'ones' and 'bits_hex'")
        if "bits_hex" in obj:
            bits = int.from_bytes(bytes.fromhex(obj["bits_hex"]), "little")
            return cls(n, bits)
        ones = obj["ones"]
        if not isinstance(ones, list):
            raise ValueError(f"coloring 'ones' must be a JSON array of pairs, got {ones!r}")
        for pair in ones:
            if not (
                isinstance(pair, list)
                and len(pair) == 2
                and all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
            ):
                raise ValueError(
                    f"coloring 'ones' entries must be pairs of JSON integers, got {pair!r}"
                )
        return cls.from_ones(n, ones)


def boolean_sum(phi: Coloring, psi: Coloring) -> Coloring:
    """Pairwise XOR; its 1-set is exactly where the colorings differ."""
    if phi.n != psi.n:
        raise DimensionMismatchError(f"n mismatch: {phi.n} != {psi.n}")
    return Coloring(phi.n, phi.bits ^ psi.bits)


def complement(phi: Coloring) -> Coloring:
    return phi.complement()


def restrict(phi: Coloring, vertices: Sequence[int]) -> Coloring:
    """Restriction of ``phi`` to an increasing vertex subset.

    Vertex ``vertices[i]`` of phi becomes vertex i of the result.
    """
    vs = list(vertices)
    if len(vs) < 2:
        raise TooSmallError("restriction needs at least 2 vertices")
    if len(set(vs)) != len(vs):
        raise InvalidSubsetError(f"duplicate vertices in {vs}")
    if any(b <= a for a, b in zip(vs, vs[1:])):
        raise InvalidSubsetError(f"subset {vs} must be strictly increasing")
    if vs[0] < 0 or vs[-1] >= phi.n:
        raise InvalidSubsetError(f"subset {vs} out of range for n={phi.n}")
    m = len(vs)
    bits = 0
    for j in range(m):
        for i in range(j):
            if phi.get(vs[i], vs[j]):
                bits |= 1 << pair_index(i, j)
    return Coloring(m, bits)


# ---------------------------------------------------------------------------
# edge sets


@dataclass(frozen=True)
class EdgeSet:
    """A subset of the unordered pairs on vertices 0..n-1, as a bitmask."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise TooSmallError(f"edge set needs n >= 2, got {self.n}")
        if self.mask < 0 or self.mask.bit_length() > pair_count(self.n):
            raise ValueError(f"mask out of range for n={self.n}")

    @classmethod
    def empty(cls, n: int) -> "EdgeSet":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "EdgeSet":
        return cls(n, (1 << pair_count(n)) - 1)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[Sequence[int]]) -> "EdgeSet":
        mask = 0
        for pair in pairs:
            x, y = _norm_pair(pair)
            mask |= 1 << pair_index(x, y, n)
        return cls(n, mask)

    @classmethod
    def ones_of(cls, phi: Coloring) -> "EdgeSet":
        """The edge set D1(phi) of pairs colored 1."""
        return cls(phi.n, phi.bits)

    def members(self) -> list[tuple[int, int]]:
        pairs = pairs_of(self.n)
        return [pairs[i] for i in bits_of(self.mask)]

    def __len__(self) -> int:
        return self.mask.bit_count()

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """Per vertex x, the mask of the z with {x, z} a member."""
        return _vertex_masks(self.n, self.mask)

    def __contains__(self, pair: Sequence[int]) -> bool:
        x, y = _norm_pair(pair)
        if y >= self.n:
            return False
        if x < 0:
            pair_index(x, y)  # raises the error that names the fault
        return bool(self.adj[x] >> y & 1)

    def __or__(self, other: "EdgeSet") -> "EdgeSet":
        if self.n != other.n:
            raise DimensionMismatchError(f"n mismatch: {self.n} != {other.n}")
        return EdgeSet(self.n, self.mask | other.mask)

    def __and__(self, other: "EdgeSet") -> "EdgeSet":
        if self.n != other.n:
            raise DimensionMismatchError(f"n mismatch: {self.n} != {other.n}")
        return EdgeSet(self.n, self.mask & other.mask)

    def complement(self) -> "EdgeSet":
        return EdgeSet(self.n, self.mask ^ ((1 << pair_count(self.n)) - 1))

    def indicator(self) -> Coloring:
        """The coloring whose 1-set is exactly this edge set."""
        return Coloring(self.n, self.mask)

    def within(self, vertices: Iterable[int]) -> "EdgeSet":
        """The sub-edge-set of members with both endpoints in ``vertices``."""
        # the pairs {x, y} with x < y, both in S, fill bits y(y-1)/2 + x
        inside = sum(1 << v for v in set(vertices) if 0 <= v < self.n)
        mask = 0
        for y in bits_of(inside):
            mask |= (inside & ((1 << y) - 1)) << (y * (y - 1) // 2)
        return EdgeSet(self.n, mask & self.mask)

    def vertices(self) -> list[int]:
        """Vertices incident to at least one member edge, ascending."""
        return [x for x, m in enumerate(self.adj) if m]


def difference(phi: Coloring, psi: Coloring) -> EdgeSet:
    """D(phi, psi): the pairs where the two colorings disagree."""
    return EdgeSet.ones_of(boolean_sum(phi, psi))


# ---------------------------------------------------------------------------
# homogeneous sets


class TripleKind(Enum):
    NON_HOM = 0
    HOM0 = 1
    HOM1 = 2


@dataclass(frozen=True)
class HomSignature:
    """Per-triple classification of a coloring.

    ``kinds`` holds one byte per triple in colex triple order: 0 for a
    non-homogeneous triple, 1 for homogeneous of color 0, 2 for color 1.
    """

    n: int
    kinds: bytes

    def __post_init__(self) -> None:
        if len(self.kinds) != triple_count(self.n):
            raise ValueError(
                f"signature needs {triple_count(self.n)} triple kinds, "
                f"got {len(self.kinds)}"
            )

    def kind(self, x: int, y: int, z: int) -> TripleKind:
        x, y, z = sorted((x, y, z))
        if x == y or y == z:
            raise InvalidSubsetError(f"triple ({x}, {y}, {z}) has repeats")
        idx = z * (z - 1) * (z - 2) // 6 + y * (y - 1) // 2 + x
        return TripleKind(self.kinds[idx])

    def hom_triples(self) -> list[tuple[int, int, int]]:
        ts = triples(self.n)
        return [ts[i] for i, k in enumerate(self.kinds) if k != 0]

    def projection(self) -> bytes:
        """Color-agnostic view: 1 per homogeneous triple, else 0."""
        return bytes(1 if k else 0 for k in self.kinds)

    def color_swapped(self) -> "HomSignature":
        swap = bytes({0: 0, 1: 2, 2: 1}[k] for k in self.kinds)
        return HomSignature(self.n, swap)


def hom_signature(phi: Coloring) -> HomSignature:
    """Classify every triple as NonHom / Hom0 / Hom1."""
    if phi.n < 3:
        raise TooSmallError(f"homogeneity needs n >= 3, got {phi.n}")
    bits = phi.bits
    out = bytearray()
    for x, y, z in triples(phi.n):
        a = (bits >> pair_index(x, y)) & 1
        b = (bits >> pair_index(x, z)) & 1
        c = (bits >> pair_index(y, z)) & 1
        out.append((2 if a else 1) if a == b == c else 0)
    return HomSignature(phi.n, bytes(out))


@dataclass(frozen=True)
class HomSet:
    vertices: tuple[int, ...]
    color: int


# The most maximal homogeneous sets ``hom_sets`` lists: their number grows
# up to 3^(n/3) (Moon-Moser), minutes and gigabytes at n = 64.
HOM_SETS_MAX = 1 << 18


def _color_masks(phi: Coloring, color: int) -> tuple[int, ...]:
    """Per vertex x, the mask of the z != x with phi{x, z} = ``color``."""
    if color:
        return phi.nbr
    full = (1 << phi.n) - 1
    return tuple(full ^ m ^ (1 << x) for x, m in enumerate(phi.nbr))


def hom_triple_count(phi: Coloring, color: int) -> int:
    """Number of homogeneous triples of ``color``.

    A triple x < y < z is homogeneous of color c exactly when z lies
    above y in the common c-neighbourhood of the c-pair {x, y}.
    """
    if phi.n < 3:
        raise TooSmallError(f"homogeneity needs n >= 3, got {phi.n}")
    masks = _color_masks(phi, color)
    count = 0
    for x, mx in enumerate(masks):
        for y in bits_of(mx >> (x + 1) << (x + 1)):
            count += ((mx & masks[y]) >> (y + 1)).bit_count()
    return count


def hom_triple_counts(phi: Coloring) -> tuple[int, int]:
    """Numbers of homogeneous triples of color 0 and of color 1."""
    return hom_triple_count(phi, 0), hom_triple_count(phi, 1)


def _maximal_cliques(adj: Sequence[int], min_size: int, found: list[tuple[int, ...]]) -> None:
    """Append, as ascending vertex tuples, the maximal cliques of at least
    ``min_size`` vertices of the graph with neighbourhood masks ``adj``.

    Bron-Kerbosch with Tomita pivoting: r is the clique so far, p the
    vertices that extend it, x those that extend it but were already
    tried; only vertices outside the pivot's neighbourhood are branched on.
    """
    r: list[int] = []

    def expand(p: int, x: int) -> None:
        if not p:
            if not x and len(r) >= min_size:
                if len(found) == HOM_SETS_MAX:
                    raise BudgetError(f"more than {HOM_SETS_MAX} maximal homogeneous sets")
                found.append(tuple(sorted(r)))
            return
        if len(r) + p.bit_count() < min_size:
            return  # every clique found below is too small
        best = -1
        rest = p | x
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            count = (p & adj[u]).bit_count()
            if count > best:
                best, pivot = count, u
            rest ^= low
        branch = p & ~adj[pivot]
        while branch:
            low = branch & -branch
            v = low.bit_length() - 1
            r.append(v)
            expand(p & adj[v], x & adj[v])
            r.pop()
            p ^= low
            x |= low
            branch ^= low

    expand((1 << len(adj)) - 1, 0)


def hom_sets(phi: Coloring, min_size: int = 3) -> list[HomSet]:
    """All maximal homogeneous sets of size >= min_size, with their color.

    Maximal homogeneous 1-sets are the maximal cliques of the 1-graph;
    0-sets are the maximal cliques of the complement.  Every homogeneous
    set is a subset of one of these.  Raises ``BudgetError`` when there
    are more than ``HOM_SETS_MAX`` of them.
    """
    if min_size < 3:
        raise TooSmallError(f"homogeneous sets have size >= 3, got {min_size}")
    if phi.n < 3:
        raise TooSmallError(f"homogeneity needs n >= 3, got {phi.n}")
    cliques: list[tuple[int, ...]] = []
    _maximal_cliques(_color_masks(phi, 0), min_size, cliques)
    zeros = len(cliques)
    _maximal_cliques(_color_masks(phi, 1), min_size, cliques)
    found = [HomSet(c, int(i >= zeros)) for i, c in enumerate(cliques)]
    found.sort(key=lambda h: (h.vertices, h.color))
    return found


def h_equivalent(phi: Coloring, psi: Coloring) -> bool:
    """Whether the two colorings have identical homogeneous sets.

    Equality of the homogeneous-triple families is equivalent to equality
    of the full families, so only triples are compared.
    """
    if phi.n != psi.n:
        raise DimensionMismatchError(f"n mismatch: {phi.n} != {psi.n}")
    if phi.n < 3:
        raise TooSmallError(f"H-equivalence needs n >= 3, got {phi.n}")
    from . import kernels

    return kernels.hom_projection_mask(phi.n, phi.bits) == kernels.hom_projection_mask(
        phi.n, psi.bits
    )


def iter_subsets_colex(universe: int, size: int) -> Iterator[int]:
    """Bitmasks of all ``size``-subsets of {0..universe-1} in colex order.

    Colex order on subsets coincides with numeric order on their masks;
    Gosper's hack walks same-popcount masks in increasing numeric order.
    """
    if size == 0:
        yield 0
        return
    if size > universe:
        return
    v = (1 << size) - 1
    limit = 1 << universe
    while v < limit:
        yield v
        c = v & -v
        r = v + c
        v = r | (((v ^ r) >> 2) // c)
