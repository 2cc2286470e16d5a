"""Bit-sliced batch kernels for exhaustive and sampled sweeps.

Colorings and difference sets are plain integers here (bit i = pair with
colex index i).  A batch of them is held as its columns: column i is an
int whose bit j is pair i of the j-th mask, so one int operation decides
a pair or a triple for the whole batch.  ``all_masks(n)`` is the batch of
every mask on n vertices (entry j is the mask j), and a single coloring
faces a batch as its constant columns (0 or the batch's full mask per
pair).  ``columns_of`` transposes any list of masks through one byte
image: each mask becomes a row of little-endian bytes, and pair i's
column is one stride slice down byte i >> 3 of every row, translated to
the ASCII digits of bit i & 7 and read by ``int(..., 2)``.  Past the
end of a batch every column reads 0, so a verdict or homogeneity column
there describes the all-zero entry and can be a negative int; callers
AND with the batch's full mask.

The two routes that must agree everywhere, each with one batch form and
one scalar reference:

* the local triple criterion (``valid_for_phi``; scalar
  ``reconstruct.is_valid_difference``): a flip set D is admissible iff
  every triple carrying exactly one D-edge sees the other two pairs in
  opposite colors, and every triple carrying two D-edges meeting at an
  apex sees the apex's two pairs in opposite colors; triples with zero
  or three D-edges are unconstrained;
* the signature route (``hom_projection_rows`` and its cached
  ``hom_projection_table``; scalar ``hom_projection_mask``): flip D and
  compare the homogeneous-triple sets directly.

These are kept as independent implementations on purpose.
``critical_rows`` is the batch form of ``critical.find_critical_pairs``
on the restriction to a vertex set.

Callers: the oracle suite, which sweeps both batch routes, a block of
colorings per call over ``index_columns`` in its exhaustive cross and
``columns_of`` in its random part; claws, which runs ``has_claw_mask``
on the ``columns_of`` of the difference sets the search finds; parity
and connectivity, which check one difference set against the
``columns_of`` of a batch of colorings with ``hom_projection_rows`` and
``valid_for_phi``; ``critical_rows``, which serves connectivity (on each
batch and on each component's vertices) and r-sweep (once on the
``columns_of`` of its whole sweep); ``coloring.h_equivalent``
(``hom_projection_mask``); and the pair-class search of ``reconstruct``
(``index_columns``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .coloring import pair_count, pair_index, triple_pairs

__all__ = [
    "all_masks",
    "columns_of",
    "constant_columns",
    "critical_rows",
    "has_claw_mask",
    "hom_projection_mask",
    "hom_projection_rows",
    "hom_projection_table",
    "index_columns",
    "valid_for_phi",
]


def hom_projection_mask(n: int, bits: int) -> int:
    """Bitmask over triples: 1 where the triple is homogeneous."""
    out = 0
    for t, (a, b, c) in enumerate(triple_pairs(n)):
        if (bits >> a) & 1 == (bits >> b) & 1 == (bits >> c) & 1:
            out |= 1 << t
    return out


@lru_cache(maxsize=None)
def index_columns(k: int) -> tuple[int, ...]:
    """The k columns of the batch of all 2^k masks of k bits, mask u as
    entry u: bit u of column i is bit i of u."""
    size = 1 << k
    columns = []
    for i in range(k):
        span = 2 << i
        column = ((1 << (1 << i)) - 1) << (1 << i)
        while span < size:
            column |= column << span
            span <<= 1
        columns.append(column)
    return tuple(columns)


def all_masks(n: int) -> tuple[int, ...]:
    """The P columns of the batch of every coloring/difference mask on n
    vertices, entry j being the mask j."""
    p = pair_count(n)
    if p > 24:
        raise MemoryError(f"refusing to materialize 2^{p} masks")
    return index_columns(p)


# per bit position b, the byte -> ASCII "0"/"1" table of that bit
_BIT_DIGITS = tuple(
    bytes(ord("1") if v >> b & 1 else ord("0") for v in range(256)) for b in range(8)
)


def columns_of(n: int, masks: Sequence[int]) -> tuple[int, ...]:
    """The P columns of a batch of pair masks, entry j being ``masks[j]``."""
    p = pair_count(n)
    if not masks:
        return (0,) * p
    # one little-endian row of bytes per mask, last mask first: byte i >> 3
    # of every row, read down the image, spells pair i's column top bit
    # first once each byte becomes the digit of its bit i & 7
    width = (p + 7) >> 3
    image = b"".join([m.to_bytes(width, "little") for m in reversed(masks)])
    return tuple(
        int(image[i >> 3 :: width].translate(_BIT_DIGITS[i & 7]), 2) for i in range(p)
    )


def constant_columns(n: int, bits: int, full: int) -> tuple[int, ...]:
    """One coloring repeated over a batch whose full mask is ``full``."""
    return tuple(full if bits >> i & 1 else 0 for i in range(pair_count(n)))


def hom_projection_rows(n: int, columns: Sequence[int]) -> tuple[int, ...]:
    """Per triple, its homogeneity over a batch: bit j is set iff the
    triple is homogeneous for entry j."""
    return tuple(
        ~((columns[a] ^ columns[b]) | (columns[a] ^ columns[c]))
        for a, b, c in triple_pairs(n)
    )


def valid_for_phi(n: int, phi: Sequence[int], masks: Sequence[int]) -> int:
    """Local-criterion verdicts for a batch of (phi, D) entries given as
    paired columns: bit j is set iff D_j is a valid difference of phi_j."""
    fail = 0
    for a, b, c in triple_pairs(n):
        xab, xac = masks[a] ^ masks[b], masks[a] ^ masks[c]
        # where D meets the triple in one or two pairs, exactly one pair
        # is the odd one out, and phi must color the other two apart
        apart = (
            (xab | (phi[a] ^ phi[b]))
            & (xac | (phi[a] ^ phi[c]))
            & ((xab ^ xac) | (phi[b] ^ phi[c]))
        )
        fail |= (xab | xac) & ~apart
    return ~fail


def critical_rows(
    n: int, columns: Sequence[int], vertices: Sequence[int]
) -> dict[tuple[int, int], int]:
    """Per pair x < y of the ascending ``vertices`` (at least 3), the
    entries of a batch whose restriction to ``vertices`` makes the pair
    critical: every other z of them sees x and y in opposite colors."""
    rows = {}
    for x, y in combinations(vertices, 2):
        critical = -1
        for z in vertices:
            if z != x and z != y:
                xz, yz = pair_index(*sorted((x, z))), pair_index(*sorted((y, z)))
                critical &= columns[xz] ^ columns[yz]
        rows[x, y] = critical
    return rows


@lru_cache(maxsize=None)
def hom_projection_table(n: int) -> tuple[int, ...]:
    """``hom_projection_rows`` of ``all_masks(n)``: per triple, the
    colorings that make it homogeneous (n <= 7)."""
    p = pair_count(n)
    if p > 21:
        raise MemoryError(f"projection table infeasible for n={n}")
    full = (1 << (1 << p)) - 1
    return tuple(row & full for row in hom_projection_rows(n, all_masks(n)))


@lru_cache(maxsize=None)
def _claw_patterns(n: int) -> tuple[tuple[int, ...], ...]:
    """Per leaves+apex choice, the pair indices of the leaves' triangle
    followed by those of the apex's three pairs to the leaves."""
    patterns = []
    for quad in combinations(range(n), 4):
        for apex in quad:
            leaves = [v for v in quad if v != apex]
            need = [pair_index(x, y) for x, y in combinations(leaves, 2)]
            forbid = [pair_index(*sorted((apex, v))) for v in leaves]
            patterns.append((*need, *forbid))
    return tuple(patterns)


def has_claw_mask(n: int, columns: Sequence[int]) -> int:
    """Bit j is set iff edge set j of the batch contains a claw (a
    triangle plus a vertex joined to none of it)."""
    out = 0
    for a, b, c, x, y, z in _claw_patterns(n):
        out |= columns[a] & columns[b] & columns[c] & ~(columns[x] | columns[y] | columns[z])
    return out
