"""Strong reconstructibility on finite truncations, the E_i property, the
finitistic characterization of non-reconstructibility, and the alpha
coloring.

A coloring has property E_i when every finite vertex set has an external
vertex joined to all of it in color i.  Strong reconstructibility asks
that every 4-set of vertices extend to a finite set whose restriction has
only trivial reconstructions; ``is_SR_finite`` is the explicit
finitization of that property, parameterized by the largest superset size
searched.  ``theorem63_condition_c`` searches for a 4-set F and a flip
set D inside F that stays admissible in every 7-set extension of F;
flipping D globally then produces a non-trivial reconstruction of the
whole coloring.

Condition (c) needs no 7-set to be built.  Let n >= 7 and D be pairs
inside F.  A triple that meets D lies inside F, the same for every 7-set
G containing F, or is {x, y, z} with {x, y} in D and z outside F; it
carries one D-edge and so asks that z is not in the B-set of {x, y}.
Every such z lies in some G, as n - 4 >= 3.  So D survives every 7-set
extension of F <=> D is valid on phi|F and every B(x, y), {x, y} in D,
lies inside F <=> D is a valid difference of phi.

The alpha coloring is determined by three interlocking rules (and a free
seed bit s = alpha{0,1}):

    alpha{0,1} = alpha{0,2} = 1 - alpha{1,2}
    alpha{k,k+1} = alpha{0,k+1} = 1 - alpha{0,k}   for k >= 2
    alpha{k,m} = 1 - alpha{0,k}                    for 1 <= k < m

Every truncation to {0..m-1} has the rolling critical pair {0, m-1},
which dies as soon as the next vertex appears, yet alpha has no critical
pair and no critical cycle as a whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Optional

from .coloring import Coloring, EdgeSet, hom_signature, iter_subsets_colex, pair_index, restrict
from .critical import b_set, find_critical_cycles, is_critical_pair
from .errors import (
    BudgetError,
    ConsistencyError,
    DegenerateInputError,
    InvalidSubsetError,
    PreconditionError,
    TooSmallError,
)
from .reconstruct import EXHAUSTIVE_MAX_N, Verdict, in_R, is_valid_difference

__all__ = [
    "AlphaReport",
    "SRReport",
    "Theorem63Witness",
    "alpha_coloring",
    "e_property_witness",
    "is_SR_finite",
    "theorem63_condition_c",
    "verify_alpha",
]


def _check_subset(n: int, verts: Iterable[int]) -> tuple[int, ...]:
    vs = tuple(verts)
    if len(set(vs)) != len(vs):
        raise InvalidSubsetError(f"duplicate vertices in {vs}")
    if any(not 0 <= v < n for v in vs):
        raise InvalidSubsetError(f"subset {vs} out of range for n={n}")
    return tuple(sorted(vs))


def e_property_witness(phi: Coloring, group: Iterable[int], color: int) -> Optional[int]:
    """Smallest vertex outside ``group`` joined to all of it in ``color``.

    Returns None when no such vertex exists; in particular when the group
    is the whole vertex set.
    """
    vs = _check_subset(phi.n, group)
    if not vs:
        raise DegenerateInputError("E_i query needs a nonempty vertex set")
    inside = set(vs)
    for z in range(phi.n):
        if z in inside:
            continue
        if all(phi.get(x, z) == color for x in vs):
            return z
    return None


# ---------------------------------------------------------------------------
# finite strong reconstructibility


@dataclass(frozen=True)
class SRReport:
    """Per-4-set search results for the finitized SR property.

    ``per_F`` maps each 4-set that found a qualifying superset to the
    smallest one (ordered by size, then lexicographically).  ``failing_F``
    is the first 4-set with no qualifying superset within the budget, and
    ``holds`` is true when there is none.  Verdicts on truncations do not
    decide the property for any infinite extension.
    """

    holds: bool
    max_g: int
    failing_F: Optional[tuple[int, int, int, int]]
    per_F: dict = field(default_factory=dict)


def is_SR_finite(phi: Coloring, max_g: int) -> SRReport:
    """For every 4-set F, search supersets G (|G| <= max_g, smallest
    first) whose restriction has only trivial reconstructions."""
    if phi.n < 4:
        raise TooSmallError(f"SR check needs n >= 4, got {phi.n}")
    if max_g < 4:
        raise PreconditionError(f"max_g must be at least 4, got {max_g}")
    if max_g > EXHAUSTIVE_MAX_N:
        raise BudgetError(f"max_g={max_g} above the exhaustive ceiling {EXHAUSTIVE_MAX_N}")
    memo: dict[tuple[int, ...], bool] = {}

    def reconstructible(g: tuple[int, ...]) -> bool:
        if g not in memo:
            memo[g] = in_R(restrict(phi, g)).verdict is Verdict.IN_R
        return memo[g]

    per_f: dict[tuple[int, int, int, int], tuple[int, ...]] = {}
    failing: Optional[tuple[int, int, int, int]] = None
    for f in combinations(range(phi.n), 4):
        rest = [v for v in range(phi.n) if v not in f]
        found: Optional[tuple[int, ...]] = None
        for size in range(4, min(max_g, phi.n) + 1):
            for extra in combinations(rest, size - 4):
                g = tuple(sorted(f + extra))
                if reconstructible(g):
                    found = g
                    break
            if found:
                break
        if found is not None:
            per_f[f] = found
        elif failing is None:
            failing = f
    return SRReport(failing is None, max_g, failing, per_f)


# ---------------------------------------------------------------------------
# the finitistic characterization


@dataclass(frozen=True)
class Theorem63Witness:
    """A 4-set F and a flip set D inside it that remains admissible for
    the restriction to every 7-set extension of F; by the lemma in the
    module docstring, D is then a valid difference of the whole coloring,
    and its global flip is a non-trivial reconstruction."""

    F: tuple[int, int, int, int]
    D: EdgeSet


def theorem63_condition_c(phi: Coloring) -> Optional[Theorem63Witness]:
    """First (F, D) such that D is a non-trivial valid difference for the
    restriction to F and stays valid for the restriction to every 7-set
    containing F; None when no pair survives.  F runs over the 4-sets in
    lexicographic order, D over 1 to 5 of F's pairs by size, then colex.

    By the lemma in the module docstring, D survives every 7-set exactly
    when it is a valid difference of phi, so pairs whose B-set leaves F
    are skipped before that single check.

    Asking for a reconstruction of each extension with the same
    difference set is equivalent to this, because the reconstruction is
    determined as the flip of D.
    """
    if phi.n < 7:
        raise TooSmallError(f"the characterization needs n >= 7, got {phi.n}")
    b_sets = {pair: frozenset(b_set(phi, pair).members) for pair in combinations(range(phi.n), 2)}
    for f in combinations(range(phi.n), 4):
        inside = frozenset(f)
        local = [(x, y) for y in f for x in f if x < y]  # colex, as the masks
        allowed = sum(1 << k for k, pair in enumerate(local) if b_sets[pair] <= inside)
        if not allowed:
            continue
        for size in range(1, 6):
            for mask in iter_subsets_colex(6, size):
                if mask & ~allowed:
                    continue
                diff = EdgeSet.from_pairs(
                    phi.n, [pair for k, pair in enumerate(local) if mask >> k & 1]
                )
                if is_valid_difference(phi, diff):
                    return Theorem63Witness(f, diff)
    return None


# ---------------------------------------------------------------------------
# the alpha coloring


def alpha_coloring(n: int, seed: int = 0) -> Coloring:
    """The coloring on {0..n-1} determined by the three alpha rules.

    ``seed`` is the free bit alpha{0,1}; the default 0 reproduces the
    reference drawing of the 6-vertex truncation.  The second and third
    rules overlap on pairs {k, k+1}; consistency is checked here rather
    than assumed.
    """
    if n < 3:
        raise TooSmallError(f"alpha needs n >= 3, got {n}")
    if seed not in (0, 1):
        raise PreconditionError(f"seed must be 0 or 1, got {seed}")
    spine = [0] * n  # spine[k] = alpha{0, k} for k >= 1
    spine[1] = seed
    if n > 2:
        spine[2] = seed
    for k in range(3, n):
        spine[k] = 1 - spine[k - 1]
    bits = 0
    for y in range(1, n):
        for x in range(y):
            color = spine[y] if x == 0 else 1 - spine[x]
            if color:
                bits |= 1 << pair_index(x, y)
    phi = Coloring(n, bits)
    # overlap of the second and third rules on {k, k+1}, and of the first
    # and third on {1, 2}
    for k in range(2, n - 1):
        if not phi.get(k, k + 1) == 1 - phi.get(0, k) == phi.get(0, k + 1):
            raise ConsistencyError(f"alpha rules disagree on pair ({k}, {k + 1})")
    if phi.get(1, 2) != 1 - phi.get(0, 1):
        raise ConsistencyError("alpha rules disagree on pair (1, 2)")
    return phi


@dataclass(frozen=True)
class AlphaReport:
    ok: bool
    nmax: int
    checks: int
    failures: tuple[str, ...]

    def lines(self) -> list[str]:
        out = [f"{'PASS' if self.ok else 'FAIL'} alpha checks "
               f"(nmax={self.nmax}, assertions={self.checks})"]
        out.extend(f"FAIL {msg}" for msg in self.failures)
        return out


def verify_alpha(nmax: int, seed: int = 0) -> AlphaReport:
    """Check the five structural assertion families on every truncation
    of alpha with 5 <= n <= nmax:

    (a) no critical cycles;
    (b) {0, n-1} is a critical pair;
    (c) pairs {0, y} with 3 <= y <= n-4 have y+1 and y+3 in their B-set;
    (d) pairs with both ends > 2 have 1 and 2 in their B-set;
    (e) triples {1, 2, z} with z > 2 are homogeneous.

    A failure signals an implementation bug, not a property of alpha, and
    is reported with its location.
    """
    if nmax < 8:
        raise TooSmallError(f"verify_alpha needs nmax >= 8, got {nmax}")
    failures: list[str] = []
    checks = 0
    for n in range(5, nmax + 1):
        phi = alpha_coloring(n, seed)
        checks += 1
        if find_critical_cycles(phi):
            failures.append(f"(a) n={n}: unexpected critical cycle")
        checks += 1
        if not is_critical_pair(phi, (0, n - 1)):
            failures.append(f"(b) n={n}: pair (0, {n - 1}) not critical")
        for y in range(3, n - 3):
            checks += 1
            members = b_set(phi, (0, y)).members
            if y + 1 not in members or y + 3 not in members:
                failures.append(f"(c) n={n}: B-set of (0, {y}) misses {y + 1} or {y + 3}")
        for x in range(3, n):
            for y in range(x + 1, n):
                checks += 1
                members = b_set(phi, (x, y)).members
                if 1 not in members or 2 not in members:
                    failures.append(f"(d) n={n}: B-set of ({x}, {y}) misses 1 or 2")
        sig = hom_signature(phi)
        for z in range(3, n):
            checks += 1
            if sig.kind(1, 2, z).value == 0:
                failures.append(f"(e) n={n}: triple (1, 2, {z}) not homogeneous")
    return AlphaReport(not failures, nmax, checks, tuple(failures))
