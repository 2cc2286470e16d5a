"""Deciding H-equivalence of flips, enumerating non-trivial
reconstructions, membership in the reconstructible class, and the minimal
reconstruction number r.

A reconstruction of phi is any coloring with the same homogeneous sets;
phi and its complement are the trivial ones.  Flipping phi on a pair set
D yields a reconstruction exactly when D passes a local test on triples
(``is_valid_difference``): a triple containing exactly one D-edge must see
its two other pairs in opposite phi-colors, a triple containing two
D-edges meeting at an apex must see the apex's two pairs in opposite
phi-colors, and triples with zero or three D-edges are unconstrained.
That criterion must agree with directly comparing homogeneous-triple
signatures; the test suite enforces the agreement exhaustively.

r(phi) is the least size of a non-empty, non-full valid difference; it
exists iff phi has a non-trivial reconstruction.

Every exhaustive question runs through one search.  A triple homogeneous
for phi must meet a valid difference in zero or three pairs, so merging
the pairs of each homogeneous triple (union-find) splits the pairs into
classes and every valid difference is a union of classes.  The search
expands each union of classes into a pair mask, tests the masks with the
local criterion (``kernels.valid_for_phi``) and orders the valid ones by
size, then colex.  It runs through n = 8 (28 pairs, so masks fit in
uint64); above that only the structural scans apply.

Membership takes the first witness among the critical pairs, the critical
cycles and the search; r takes the search (exhaustive mode) or the scans
(structural mode).  ``analyze`` computes each of these facts once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple, Optional

import numpy as np

from . import kernels
from .coloring import Coloring, EdgeSet, pair_count, pair_index, triples
from .critical import CriticalCycleWitness, find_critical_cycles, find_critical_pairs
from .errors import (
    BudgetError,
    DimensionMismatchError,
    NotApplicableError,
    PreconditionError,
    TooSmallError,
)
from .structure import Component, components

__all__ = [
    "Facts",
    "RMembership",
    "RValueReport",
    "ReconstructionWitness",
    "SearchMode",
    "Verdict",
    "analyze",
    "component_restriction_valid",
    "enumerate_reconstructions",
    "in_R",
    "is_valid_difference",
    "make_witness",
    "minimal_reconstructions",
    "r_value",
]

# The exhaustive ceiling: 28 pairs, so every flip set fits in a uint64 mask.
EXHAUSTIVE_MAX_N = 8
# The structural ceiling: one O(n^5) critical-cycle scan takes seconds at n = 60.
STRUCTURAL_MAX_N = 64
# Classes expanded per kernel call: at most 2^18 masks at a time.
_BLOCK_CLASSES = 18


class Verdict(Enum):
    IN_R = "in_R"
    NOT_IN_R = "not_in_R"
    UNKNOWN = "unknown"


class SearchMode(Enum):
    EXHAUSTIVE = "exhaustive"
    STRUCTURAL_ONLY = "structural"


@dataclass(frozen=True)
class ReconstructionWitness:
    difference: EdgeSet
    components: tuple[Component, ...]
    trivial: bool

    def size(self) -> int:
        return len(self.difference)


@dataclass(frozen=True)
class RMembership:
    verdict: Verdict
    witness: Optional[ReconstructionWitness]


@dataclass(frozen=True)
class RValueReport:
    """Result of a minimal-reconstruction search.

    ``r is None`` with ``complete`` means no non-trivial reconstruction
    exists (r is not applicable); ``r is None`` without ``complete``
    means the structural scan was inconclusive.
    """

    r: Optional[int]
    witnesses: tuple[ReconstructionWitness, ...]
    mode: SearchMode
    complete: bool

    @property
    def status(self) -> str:
        if self.r is not None:
            return "value"
        return "not_applicable" if self.complete else "unknown"

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "mode": self.mode.value,
            "complete": self.complete,
            "witnesses": [
                [list(p) for p in w.difference.members()] for w in self.witnesses
            ],
        }


def make_witness(phi: Coloring, diff: EdgeSet) -> ReconstructionWitness:
    full = (1 << pair_count(phi.n)) - 1
    return ReconstructionWitness(
        difference=diff,
        components=tuple(components(diff)),
        trivial=diff.mask in (0, full),
    )


def is_valid_difference(phi: Coloring, diff: EdgeSet) -> bool:
    """Whether flipping phi on ``diff`` preserves all homogeneous sets.

    Implemented by the local triple criterion; only triples touching a
    D-edge can impose a constraint, and for each D-edge the three kinds
    of such triples are three tests on the neighbourhood masks.
    """
    if phi.n != diff.n:
        raise DimensionMismatchError(f"n mismatch: {phi.n} != {diff.n}")
    if phi.n < 3:
        raise TooSmallError(f"validity needs n >= 3, got {phi.n}")
    nbr, adj = phi.nbr, diff.adj
    full = (1 << phi.n) - 1
    for x, y in diff.members():
        others = full ^ (1 << x | 1 << y)
        # exactly one D-edge {x,y}: z must see x and y in opposite colors
        if ~(nbr[x] ^ nbr[y]) & ~(adj[x] | adj[y]) & others:
            return False
        # D-edges {x,y} and {x,z} (not {y,z}) meet at apex x: phi{x,z} != phi{x,y}
        same_x = nbr[x] if nbr[x] >> y & 1 else ~nbr[x]
        if adj[x] & ~adj[y] & same_x & others:
            return False
        same_y = nbr[y] if nbr[y] >> x & 1 else ~nbr[y]
        if adj[y] & ~adj[x] & same_y & others:
            return False
    return True


def _pair_classes(phi: Coloring) -> list[int]:
    """Pair masks of the classes that phi's homogeneous triples merge,
    ordered by their lowest pair."""
    parent = list(range(pair_count(phi.n)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for x, y, z in triples(phi.n):
        if phi.get(x, y) == phi.get(x, z) == phi.get(y, z):
            a = find(pair_index(x, y))
            parent[find(pair_index(x, z))] = a
            parent[find(pair_index(y, z))] = a
    classes: dict[int, int] = {}
    for i in range(len(parent)):
        root = find(i)
        classes[root] = classes.get(root, 0) | 1 << i
    return list(classes.values())


def _reconstruction_masks(phi: Coloring) -> list[int]:
    """Every non-trivial valid difference of phi as a mask, in
    size-then-colex order (colex is numeric order within one size)."""
    if phi.n > EXHAUSTIVE_MAX_N:
        raise BudgetError(
            f"exhaustive search infeasible for n={phi.n} (ceiling n={EXHAUSTIVE_MAX_N})"
        )
    classes = _pair_classes(phi)
    block = np.zeros(1, dtype=np.uint64)
    for c in classes[:_BLOCK_CLASSES]:
        block = np.concatenate((block, block | np.uint64(c)))
    high = classes[_BLOCK_CLASSES:]
    full = (1 << pair_count(phi.n)) - 1
    found = []
    for k in range(1 << len(high)):
        offset = sum(c for i, c in enumerate(high) if k >> i & 1)
        masks = block | np.uint64(offset)
        ok = kernels.valid_for_phi(phi.n, phi.bits, masks)
        found.extend(m for m in masks[ok].tolist() if m not in (0, full))
    return sorted(found, key=lambda m: (m.bit_count(), m))


def enumerate_reconstructions(
    phi: Coloring, max_size: int | None = None
) -> Iterator[ReconstructionWitness]:
    """Yield every non-trivial valid difference in size-then-colex order."""
    if phi.n < 3:
        raise TooSmallError(f"enumeration needs n >= 3, got {phi.n}")
    for mask in _reconstruction_masks(phi):
        if max_size is not None and mask.bit_count() > max_size:
            break  # sorted by size: nothing smaller follows
        yield make_witness(phi, EdgeSet(phi.n, mask))


class Facts(NamedTuple):
    """What membership and r are read from, each computed at most once."""

    pairs: list[tuple[int, int]]
    cycles: list[CriticalCycleWitness]
    masks: Optional[list[int]]  # None: the search did not run


def _facts(phi: Coloring, mode: SearchMode, whole: bool) -> Facts:
    """Critical pairs, critical cycles (n >= 5) and the search (n <= 8).
    The cycle scan runs in full when ``whole`` (a report lists every
    cycle), else only when no critical pair exists; the search runs
    always in exhaustive mode, else only when neither scan found one."""
    masks = _reconstruction_masks(phi) if mode is SearchMode.EXHAUSTIVE else None
    pairs = find_critical_pairs(phi)
    cycles = find_critical_cycles(phi) if phi.n >= 5 and (whole or not pairs) else []
    if masks is None and not (pairs or cycles) and phi.n <= EXHAUSTIVE_MAX_N:
        masks = _reconstruction_masks(phi)
    return Facts(pairs, cycles, masks)


def _membership(phi: Coloring, facts: Facts) -> RMembership:
    """The first witness among critical pairs, critical cycles and the
    search; IN_R when the search found none, UNKNOWN when it did not run."""
    if facts.pairs:
        diff = EdgeSet.from_pairs(phi.n, facts.pairs[:1])
    elif facts.cycles:
        diff = facts.cycles[0].edges
    elif facts.masks:
        diff = EdgeSet(phi.n, facts.masks[0])
    else:
        return RMembership(Verdict.UNKNOWN if facts.masks is None else Verdict.IN_R, None)
    return RMembership(Verdict.NOT_IN_R, make_witness(phi, diff))


def _report(phi: Coloring, mode: SearchMode, facts: Facts) -> RValueReport:
    """r as ``r_value`` defines it, read off the search or the scans."""
    if mode is SearchMode.EXHAUSTIVE:
        r = facts.masks[0].bit_count() if facts.masks else None
        diffs = [EdgeSet(phi.n, m) for m in facts.masks if m.bit_count() == r]
        complete = True
    elif facts.pairs:
        r, complete = 1, True
        diffs = [EdgeSet.from_pairs(phi.n, [p]) for p in facts.pairs]
    elif facts.cycles:
        r, complete = 4, False
        diffs = [c.edges for c in facts.cycles]
    else:
        r, diffs, complete = None, [], False
    return RValueReport(r, tuple(make_witness(phi, d) for d in diffs), mode, complete)


def in_R(phi: Coloring) -> RMembership:
    """Decide whether the only reconstructions of phi are the trivial ones.

    Critical pairs and cycles are scanned first (sound shortcuts to
    NOT_IN_R); otherwise the difference space is searched exhaustively
    through n = 8, and the verdict is UNKNOWN above that.
    """
    if phi.n < 3:
        raise TooSmallError(f"membership needs n >= 3, got {phi.n}")
    return _membership(phi, _facts(phi, SearchMode.STRUCTURAL_ONLY, whole=False))


def r_value(phi: Coloring, mode: SearchMode = SearchMode.EXHAUSTIVE) -> RValueReport:
    """The minimal-reconstruction number and all its minimal witnesses.

    Exhaustive mode covers the whole difference space, through n = 8, and
    is complete.  Structural mode only scans critical pairs (r = 1,
    complete: the size-1 space is covered) and critical cycles (r = 4
    reported, not complete below the regime where the dichotomy theorems
    apply); with neither found it reports unknown.
    """
    if phi.n < 3:
        raise TooSmallError(f"r-value needs n >= 3, got {phi.n}")
    return _report(phi, mode, _facts(phi, mode, whole=False))


def analyze(phi: Coloring, mode: SearchMode) -> tuple[Facts, RMembership, RValueReport]:
    """Every critical pair and cycle, membership and the r report of phi
    from one pass: each scan and the search run at most once.  An IN_R
    verdict makes r not applicable, complete, in either mode."""
    facts = _facts(phi, mode, whole=True)
    membership = _membership(phi, facts)
    if membership.verdict is Verdict.IN_R:
        return facts, membership, RValueReport(None, (), mode, complete=True)
    return facts, membership, _report(phi, mode, facts)


def minimal_reconstructions(phi: Coloring) -> list[ReconstructionWitness]:
    """All witnesses of size r(phi), exhaustively established."""
    report = r_value(phi, SearchMode.EXHAUSTIVE)
    if report.r is None:
        raise NotApplicableError("coloring has only trivial reconstructions")
    return list(report.witnesses)


def component_restriction_valid(phi: Coloring, diff: EdgeSet, comp: Component) -> bool:
    """Whether the flip of ``diff`` cut down to one of its components is
    still valid.  For a valid ``diff`` this always holds; in particular a
    minimal witness can have only one component."""
    if not is_valid_difference(phi, diff):
        raise PreconditionError("difference set is not valid for the coloring")
    if comp not in components(diff):
        raise PreconditionError("component does not belong to the difference set")
    return is_valid_difference(phi, diff.within(comp.vertices))
