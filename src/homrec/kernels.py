"""Vectorized bit kernels for exhaustive and sampled sweeps.

Colorings and difference sets are plain integers here (bit i = pair with
colex index i).  The two routes that must agree everywhere:

* the local triple criterion (``valid_for_phi`` / ``local_valid_rows``):
  a flip set D is admissible iff every triple carrying exactly one D-edge
  sees the other two pairs in opposite colors, and every triple carrying
  two D-edges meeting at an apex sees the apex's two pairs in opposite
  colors; triples with zero or three D-edges are unconstrained;
* the signature route (``hom_projection_*``): flip D and compare the
  homogeneous-triple sets directly.

These are kept as independent implementations on purpose.

Callers: the oracle and claws suites, which sweep both routes with numpy,
and ``coloring.h_equivalent``, which reads ``hom_projection_mask`` (plain
ints).  The exhaustive search of ``reconstruct`` uses none of them.  The
array kernels import numpy when they run, so importing this module leaves
numpy unloaded.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .coloring import pair_count, pair_index, triple_pairs

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "all_masks",
    "has_claw_mask",
    "hom_projection_mask",
    "hom_projection_rows",
    "hom_projection_table",
    "local_valid_rows",
    "unpack_masks",
    "valid_for_phi",
]


@lru_cache(maxsize=None)
def triple_pair_indices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-triple pair indices (a, b, c) = ({x,y}, {x,z}, {y,z}) as arrays."""
    import numpy as np

    a, b, c = np.array(triple_pairs(n), dtype=np.int64).reshape(-1, 3).T
    return a, b, c


def hom_projection_mask(n: int, bits: int) -> int:
    """Bitmask over triples: 1 where the triple is homogeneous."""
    out = 0
    for t, (a, b, c) in enumerate(triple_pairs(n)):
        if (bits >> a) & 1 == (bits >> b) & 1 == (bits >> c) & 1:
            out |= 1 << t
    return out


def unpack_masks(n: int, masks) -> np.ndarray:
    """(m, P) uint8 matrix of pair bits for a sequence of coloring masks."""
    import numpy as np

    p = pair_count(n)
    nbytes = max(1, (p + 7) // 8)
    masks = [int(m) for m in masks]
    buf = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    arr = np.frombuffer(buf, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(arr, axis=1, bitorder="little")[:, :p]


def hom_projection_rows(n: int, bit_rows: np.ndarray) -> np.ndarray:
    """(m, T) bool matrix: triple homogeneity per row of pair bits."""
    a, b, c = triple_pair_indices(n)
    fa = bit_rows[:, a]
    fb = bit_rows[:, b]
    fc = bit_rows[:, c]
    return (fa == fb) & (fb == fc)


def local_valid_rows(n: int, phi_rows: np.ndarray, d_rows: np.ndarray) -> np.ndarray:
    """Local-criterion verdicts for paired rows of phi bits and D bits."""
    a, b, c = triple_pair_indices(n)
    fa, fb, fc = phi_rows[:, a], phi_rows[:, b], phi_rows[:, c]
    da, db, dc = d_rows[:, a], d_rows[:, b], d_rows[:, c]
    fail = (
        ((da == db) & (dc != da) & (fa == fb))
        | ((da == dc) & (db != da) & (fa == fc))
        | ((db == dc) & (da != db) & (fb == fc))
    )
    return ~fail.any(axis=1)


def valid_for_phi(n: int, phi_bits: int, masks: np.ndarray) -> np.ndarray:
    """Local-criterion verdicts for one coloring against an array of D masks.

    ``masks`` must be an unsigned integer array wide enough for P bits.
    """
    import numpy as np

    trip = triple_pairs(n)
    ok = np.ones(masks.shape, dtype=bool)
    for a, b, c in trip:
        fa = (phi_bits >> a) & 1
        fb = (phi_bits >> b) & 1
        fc = (phi_bits >> c) & 1
        da = ((masks >> np.uint64(a)) & np.uint64(1)).astype(np.uint8)
        db = ((masks >> np.uint64(b)) & np.uint64(1)).astype(np.uint8)
        dc = ((masks >> np.uint64(c)) & np.uint64(1)).astype(np.uint8)
        if fa == fb == fc:
            # homogeneous triple: any 1- or 2-edge intersection with D breaks it
            bad = ~((da == db) & (db == dc))
        elif fa == fb:
            bad = (da == db) & (dc != da)
        elif fa == fc:
            bad = (da == dc) & (db != da)
        else:
            bad = (db == dc) & (da != db)
        ok &= ~bad
    return ok


def all_masks(n: int) -> np.ndarray:
    """All coloring/difference masks on n vertices as a uint64 array."""
    import numpy as np

    p = pair_count(n)
    if p > 24:
        raise MemoryError(f"refusing to materialize 2^{p} masks")
    return np.arange(1 << p, dtype=np.uint64)


@lru_cache(maxsize=None)
def hom_projection_table(n: int) -> np.ndarray:
    """Homogeneous-triple projection for every coloring mask (n <= 7)."""
    import numpy as np

    p = pair_count(n)
    if p > 21:
        raise MemoryError(f"projection table infeasible for n={n}")
    arr = np.arange(1 << p, dtype=np.uint64)
    table = np.zeros(1 << p, dtype=np.uint64)
    for t, (a, b, c) in enumerate(triple_pairs(n)):
        fa = (arr >> np.uint64(a)) & np.uint64(1)
        fb = (arr >> np.uint64(b)) & np.uint64(1)
        fc = (arr >> np.uint64(c)) & np.uint64(1)
        hom = (fa == fb) & (fb == fc)
        table |= hom.astype(np.uint64) << np.uint64(t)
    return table


@lru_cache(maxsize=None)
def _claw_patterns(n: int) -> tuple[tuple[int, int], ...]:
    """(need, forbid) pair-bit masks for every leaves+apex choice."""
    from itertools import combinations

    patterns = []
    for quad in combinations(range(n), 4):
        for apex in quad:
            leaves = [v for v in quad if v != apex]
            need = 0
            for i in range(3):
                for j in range(i + 1, 3):
                    x, y = sorted((leaves[i], leaves[j]))
                    need |= 1 << pair_index(x, y)
            forbid = 0
            for v in leaves:
                x, y = sorted((apex, v))
                forbid |= 1 << pair_index(x, y)
            patterns.append((need, forbid))
    return tuple(patterns)


def has_claw_mask(n: int, masks: np.ndarray) -> np.ndarray:
    """Whether each edge-set mask contains a claw (triangle + detached apex)."""
    import numpy as np

    out = np.zeros(masks.shape, dtype=bool)
    for need, forbid in _claw_patterns(n):
        need64 = np.uint64(need)
        forbid64 = np.uint64(forbid)
        out |= ((masks & need64) == need64) & ((masks & forbid64) == np.uint64(0))
    return out
