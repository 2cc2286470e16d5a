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
classes and every valid difference is a union of classes.  A
non-homogeneous triple whose pairs a, b share a color and c has the
other forbids exactly the unions that contain a and b but not c, or c
but neither a nor b.  One pass over the triples merges the homogeneous
ones, always under the least root, and keeps the others.  So each class
is rooted at its lowest pair, and one ascending pass over the pairs
numbers the classes by it; each kept triple then becomes its class
triple, repeats dropped.  The search evaluates those constraints on all
2^k unions of k classes at once, bit-sliced on Python ints (bit u of
class i's column is bit i of u: ``kernels.index_columns``), expands
only the surviving unions into pair masks and orders them by size, then
colex.
Nothing here depends on n: the search runs at any n when phi has at most
``_MAX_CLASSES`` classes; above that only the structural scans apply.

There is one decision procedure.  r takes the search wherever it ran,
else the scans, and says ``complete: false`` where they leave it open.
Membership is read off that report: phi is not in R exactly when r is
known, with its first minimal witness, and in R when r is not
applicable.  The critical-cycle scan runs only past the search, unless a
full report asks for it; ``analyze`` computes each fact once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple, Optional

from .coloring import Coloring, EdgeSet, pair_count, triple_pairs
from .critical import CriticalCycleWitness, find_critical_cycles, find_critical_pairs
from .errors import (
    BudgetError,
    DimensionMismatchError,
    NotApplicableError,
    PreconditionError,
    TooSmallError,
)
from .kernels import index_columns
from .structure import Component, components

__all__ = [
    "Facts",
    "RMembership",
    "RValueReport",
    "Verdict",
    "analyze",
    "component_restriction_valid",
    "enumerate_reconstructions",
    "in_R",
    "is_valid_difference",
    "minimal_reconstructions",
    "r_value",
]

# The largest n a coloring file or fixture may have.  It bounds building a
# coloring and the O(n^5) critical-cycle scan, which takes seconds at n = 60.
MAX_N = 64
# The search's budget: 2^18 unions of at most 18 pair classes.  It is the
# maximum over n <= 8, so every coloring there is searched.
_MAX_CLASSES = 18


class Verdict(Enum):
    IN_R = "in_R"
    NOT_IN_R = "not_in_R"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class RMembership:
    """Membership in R as read off the r report: NOT_IN_R with the first
    minimal witness when r is known, IN_R when r is not applicable."""

    verdict: Verdict
    witness: Optional[EdgeSet]


@dataclass(frozen=True)
class RValueReport:
    """Result of a minimal-reconstruction search.

    ``complete`` says whether r is established: by the search, or by a
    critical pair (r = 1).  ``r is None`` with ``complete`` means no
    non-trivial reconstruction exists (r is not applicable).  Past the
    search's reach a critical cycle gives r = 4 without ``complete``, and
    ``r is None`` without ``complete`` means the scans were inconclusive.
    It names no mode: ``analyze --json`` adds its deprecated label.
    """

    r: Optional[int]
    witnesses: tuple[EdgeSet, ...]
    complete: bool

    @property
    def status(self) -> str:
        if self.r is not None:
            return "value"
        return "not_applicable" if self.complete else "unknown"

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "complete": self.complete,
            "witnesses": [[list(p) for p in w.members()] for w in self.witnesses],
        }


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


def _search_space(phi: Coloring) -> tuple[list[int], set[tuple[int, int, int]]]:
    """One pass over phi's triples: the pair classes that its homogeneous
    triples merge, ordered by their lowest pair, and each non-homogeneous
    triple as its classes (p, q, r), those of its two pairs of one color
    (p <= q), then of its pair of the other, without repeats."""
    # a merge hangs every root under the least, so a pair's parent is a
    # lower pair and each class's root is its lowest pair
    parent = list(range(pair_count(phi.n)))
    bits = phi.bits
    mixed = []
    for a, b, c in triple_pairs(phi.n):
        fa = bits >> a & 1
        if fa == bits >> b & 1:
            if fa == bits >> c & 1:
                while a != parent[a]:
                    a = parent[a]
                while b != parent[b]:
                    b = parent[b]
                while c != parent[c]:
                    c = parent[c]
                parent[a] = parent[b] = parent[c] = min(a, b, c)
            else:
                mixed.append((a, b, c))
        elif fa == bits >> c & 1:
            mixed.append((a, c, b))
        else:
            mixed.append((b, c, a))
    # ascending, each pair's parent is numbered before it: a root opens
    # the next class, any other pair joins its parent's
    of_pair: list[int] = []
    classes: list[int] = []
    for i, up in enumerate(parent):
        if up == i:
            of_pair.append(len(classes))
            classes.append(1 << i)
        else:
            c = of_pair[up]
            of_pair.append(c)
            classes[c] |= 1 << i
    constraints = set()
    for x, y, z in mixed:
        p, q = of_pair[x], of_pair[y]
        constraints.add((p, q, of_pair[z]) if p <= q else (q, p, of_pair[z]))
    return classes, constraints


def _reconstruction_masks(phi: Coloring, space: Optional[tuple] = None) -> list[int]:
    """Every non-trivial valid difference of phi, searched in ``space`` (its
    ``_search_space``) if given, as masks in size-then-colex order."""
    classes, constraints = space or _search_space(phi)
    k = len(classes)
    if k > _MAX_CLASSES:
        raise BudgetError(f"search: {k} pair classes at n={phi.n}, more than {_MAX_CLASSES}")
    # a union breaks the triple when it takes p and q alike and r otherwise
    columns = index_columns(k)
    ok = (1 << (1 << k)) - 1
    for p, q, r in constraints:
        P = columns[p]
        ok &= (P ^ columns[q]) | ~(P ^ columns[r])
    # expand the surviving unions, bar the empty one (0) and the full one
    survivors = bin(ok)[:1:-1]
    full = (1 << k) - 1
    found = []
    u = survivors.find("1", 1, full)
    while u != -1:
        mask, rest = 0, u
        while rest:
            low = rest & -rest
            mask |= classes[low.bit_length() - 1]
            rest ^= low
        found.append(mask)
        u = survivors.find("1", u + 1, full)
    found.sort()  # colex, then (stable) by size
    found.sort(key=int.bit_count)
    return found


def enumerate_reconstructions(
    phi: Coloring, max_size: int | None = None
) -> Iterator[EdgeSet]:
    """Yield every non-trivial valid difference in size-then-colex order."""
    if phi.n < 3:
        raise TooSmallError(f"enumeration needs n >= 3, got {phi.n}")
    for mask in _reconstruction_masks(phi):
        if max_size is not None and mask.bit_count() > max_size:
            break  # sorted by size: nothing smaller follows
        yield EdgeSet(phi.n, mask)


class Facts(NamedTuple):
    """What membership and r are read from, each computed at most once."""

    pairs: list[tuple[int, int]]
    cycles: list[CriticalCycleWitness]
    masks: Optional[list[int]]  # None: the search did not run


def _facts(phi: Coloring, whole: bool) -> Facts:
    """Critical pairs; then, unless one answers and no full report
    (``whole``) is asked for, the search if the pair classes fit, and the
    critical cycles (n >= 5) if the report is whole or the search did not
    run: otherwise nothing reads them."""
    pairs = find_critical_pairs(phi)
    if pairs and not whole:
        return Facts(pairs, [], None)
    space = _search_space(phi)
    masks = _reconstruction_masks(phi, space) if len(space[0]) <= _MAX_CLASSES else None
    scan = phi.n >= 5 and (whole or masks is None)
    return Facts(pairs, find_critical_cycles(phi) if scan else [], masks)


def _membership(report: RValueReport) -> RMembership:
    """NOT_IN_R with the first minimal witness when r is known, IN_R when
    it is not applicable, else UNKNOWN."""
    if report.r is not None:
        return RMembership(Verdict.NOT_IN_R, report.witnesses[0])
    return RMembership(Verdict.IN_R if report.complete else Verdict.UNKNOWN, None)


def _report(phi: Coloring, facts: Facts) -> RValueReport:
    """r as ``r_value`` defines it, read off the search wherever it ran,
    else the scans."""
    if facts.masks is not None:
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
    return RValueReport(r, tuple(diffs), complete)


def in_R(phi: Coloring) -> RMembership:
    """Decide whether the only reconstructions of phi are the trivial ones.

    Read off ``r_value``'s report: NOT_IN_R with its first minimal
    witness when r is known, IN_R when r is not applicable, UNKNOWN when
    it is open.  A critical pair decides first; without one the search
    decides if phi's pair classes fit it, and only past it are critical
    cycles scanned (a sound shortcut to NOT_IN_R).
    """
    if phi.n < 3:
        raise TooSmallError(f"membership needs n >= 3, got {phi.n}")
    return _membership(_report(phi, _facts(phi, whole=False)))


def r_value(phi: Coloring) -> RValueReport:
    """The minimal-reconstruction number and all its minimal witnesses.

    A critical pair gives r = 1, complete: the size-1 space is covered.
    Without one, r is read from the search, complete, if the pair classes
    fit.  Past the search's reach it never raises: critical cycles give
    r = 4 with ``complete: false`` (the dichotomy theorems apply only at
    large n), and with none found r is unknown, also ``complete: false``.
    """
    if phi.n < 3:
        raise TooSmallError(f"r-value needs n >= 3, got {phi.n}")
    return _report(phi, _facts(phi, whole=False))


def analyze(phi: Coloring) -> tuple[Facts, RMembership, RValueReport]:
    """Every critical pair and cycle, membership and the r report of phi
    from one pass: each scan and the search run at most once, the search
    whenever the pair classes fit.  Membership is read off the r report."""
    facts = _facts(phi, whole=True)
    report = _report(phi, facts)
    return facts, _membership(report), report


def minimal_reconstructions(phi: Coloring) -> list[EdgeSet]:
    """All witnesses of size r(phi), from one search: ``BudgetError`` past
    its reach, ``NotApplicableError`` if phi has only trivial ones."""
    if phi.n < 3:
        raise TooSmallError(f"r-value needs n >= 3, got {phi.n}")
    masks = _reconstruction_masks(phi)
    if not masks:
        raise NotApplicableError("coloring has only trivial reconstructions")
    r = masks[0].bit_count()
    return [EdgeSet(phi.n, m) for m in masks if m.bit_count() == r]


def component_restriction_valid(phi: Coloring, diff: EdgeSet, comp: Component) -> bool:
    """Whether the flip of ``diff`` cut down to one of its components is
    still valid.  For a valid ``diff`` this always holds; in particular a
    minimal witness can have only one component."""
    if not is_valid_difference(phi, diff):
        raise PreconditionError("difference set is not valid for the coloring")
    if comp not in components(diff):
        raise PreconditionError("component does not belong to the difference set")
    return is_valid_difference(phi, diff.within(comp.vertices))
