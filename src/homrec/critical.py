"""Critical pairs, critical cycles, B-sets, and flip reconstructions.

A pair {a, b} is critical when every external vertex sees a and b in
opposite colors; flipping it alone preserves all homogeneous sets.  A
critical cycle is a 4-cycle of pairs whose colors alternate, whose two
diagonals carry prescribed colors (two mirror-image prescriptions, called
the primary and alternate orientations here), and whose edges all satisfy
the external disagreement condition; flipping its four edges preserves
all homogeneous sets.

The B-set of a pair collects the external vertices that see both ends in
the same color: it is empty exactly for critical pairs, and has exactly
one member (the opposite corner) for pairs lying on a critical cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Optional, Sequence

from .coloring import Coloring, EdgeSet, bits_of, pairs_of
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InvalidPairError,
    InvalidSubsetError,
    TooSmallError,
)

__all__ = [
    "BSet",
    "CriticalCycleWitness",
    "Orientation",
    "b_set",
    "find_critical_cycles",
    "find_critical_pairs",
    "flip_reconstruction",
    "is_critical_cycle",
    "is_critical_pair",
    "pair_witness_json",
    "witness_json",
]


class Orientation(Enum):
    PRIMARY = "primary"
    ALTERNATE = "alternate"


@dataclass(frozen=True)
class BSet:
    pair: tuple[int, int]
    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class CriticalCycleWitness:
    """A 4-cycle witnessing non-reconstructibility.

    ``quad`` is the cyclic arrangement (a, b, c, d); ``edges`` holds the
    four cycle pairs {a,b}, {b,c}, {c,d}, {d,a}.  The two orientations
    prescribe opposite colors to both diagonals, so a single arrangement
    satisfies at most one of them.
    """

    quad: tuple[int, int, int, int]
    orientation: Orientation
    edges: EdgeSet


def _check_pair(phi: Coloring, pair: Sequence[int]) -> tuple[int, int]:
    x, y = pair
    if x == y:
        raise InvalidPairError(f"degenerate pair ({x}, {y})")
    if not (0 <= x < phi.n and 0 <= y < phi.n):
        raise InvalidPairError(f"pair ({x}, {y}) out of range for n={phi.n}")
    return (x, y) if x < y else (y, x)


def _b_mask(phi: Coloring, x: int, y: int) -> int:
    """B(x, y) as a vertex mask: the z that see x and y alike, bar x and y."""
    nbr = phi.nbr
    return ~(nbr[x] ^ nbr[y] | 1 << x | 1 << y) & ((1 << phi.n) - 1)


def b_set(phi: Coloring, pair: Sequence[int]) -> BSet:
    """External vertices that see both ends of the pair in the same color."""
    if phi.n < 3:
        raise TooSmallError(f"B-sets need n >= 3, got {phi.n}")
    x, y = _check_pair(phi, pair)
    return BSet((x, y), tuple(bits_of(_b_mask(phi, x, y))))


def is_critical_pair(phi: Coloring, pair: Sequence[int]) -> bool:
    return len(b_set(phi, pair)) == 0


def find_critical_pairs(phi: Coloring) -> list[tuple[int, int]]:
    """All critical pairs, in colex order."""
    if phi.n < 3:
        raise TooSmallError(f"criticality needs n >= 3, got {phi.n}")
    return [(x, y) for x, y in pairs_of(phi.n) if not _b_mask(phi, x, y)]


def _orientation_for(phi: Coloring, a: int, b: int, c: int, d: int) -> Optional[Orientation]:
    f = phi.get
    primary = (
        f(a, c) == f(b, c) == 1 - f(a, b)
        and f(b, d) == f(c, d) == 1 - f(b, c)
        and f(c, a) == f(d, a) == 1 - f(c, d)
    )
    alternate = (
        f(b, d) == f(a, d) == 1 - f(a, b)
        and f(a, c) == f(d, c) == 1 - f(a, d)
        and f(d, b) == f(c, b) == 1 - f(d, c)
    )
    if primary:
        return Orientation.PRIMARY
    if alternate:
        return Orientation.ALTERNATE
    return None


def is_critical_cycle(
    phi: Coloring, quad: Sequence[int], allow_vacuous: bool = False
) -> Optional[CriticalCycleWitness]:
    """Test the cyclic arrangement (a, b, c, d) for a critical cycle.

    Both orientations are tried; the external condition quantifies over
    vertices outside the quad.  At n = 4 that condition is vacuous and
    the quad coincides with flipping 4 of the 6 pairs, so n = 4 is
    refused unless ``allow_vacuous`` is set.
    """
    quad = tuple(quad)
    if len(set(quad)) != 4:
        raise InvalidSubsetError(f"quad {quad} has repeated vertices")
    if any(not 0 <= v < phi.n for v in quad):
        raise InvalidSubsetError(f"quad {quad} out of range for n={phi.n}")
    if phi.n < 5 and not allow_vacuous:
        raise TooSmallError(
            "critical cycles need n >= 5 (pass allow_vacuous=True to test n=4)"
        )
    a, b, c, d = quad
    orientation = _orientation_for(phi, a, b, c, d)
    if orientation is None:
        return None
    cycle_pairs = [(a, b), (b, c), (c, d), (d, a)]
    inside = 1 << a | 1 << b | 1 << c | 1 << d
    if any(_b_mask(phi, x, y) & ~inside for x, y in cycle_pairs):
        return None
    return CriticalCycleWitness(quad, orientation, EdgeSet.from_pairs(phi.n, cycle_pairs))


def find_critical_cycles(phi: Coloring) -> list[CriticalCycleWitness]:
    """All critical cycles, one witness per edge set.

    Each 4-subset {w < x < y < z} carries three distinct 4-cycles; each
    is tested once in its canonical arrangement (smallest vertex first,
    proceeding toward its smaller neighbor), which covers the whole
    dihedral orbit because reflections merely swap the two orientations.
    """
    if phi.n < 5:
        raise TooSmallError(f"critical-cycle scan needs n >= 5, got {phi.n}")
    found: list[CriticalCycleWitness] = []
    for w, x, y, z in combinations(range(phi.n), 4):
        for quad in ((w, x, y, z), (w, x, z, y), (w, y, x, z)):
            witness = is_critical_cycle(phi, quad)
            if witness is not None:
                found.append(witness)
    return found


def flip_reconstruction(phi: Coloring, diff: EdgeSet) -> Coloring:
    """The coloring that agrees with phi off ``diff`` and disagrees on it."""
    if diff.n != phi.n:
        raise DimensionMismatchError(f"n mismatch: {phi.n} != {diff.n}")
    if diff.mask == 0:
        raise DegenerateInputError("flip set must be nonempty")
    return Coloring(phi.n, phi.bits ^ diff.mask)


def pair_witness_json(pair: Sequence[int]) -> dict:
    x, y = sorted(pair)
    return {"kind": "critical_pair", "vertices": [x, y], "orientation": None}


def witness_json(witness: CriticalCycleWitness) -> dict:
    return {
        "kind": "critical_cycle",
        "vertices": list(witness.quad),
        "orientation": witness.orientation.value,
    }
