"""Named example colorings and deterministic generators.

The ``fig-*`` fixtures are small reference configurations exercising the
main phenomena: a critical pair, a critical cycle coexisting with a
critical pair, a coloring with a critical cycle but no critical pair, a
Boolean sum whose homogeneous triples carry both colors, and a coloring
with two critical cycles.  Where a configuration leaves some pair colors
unspecified, they default to 0 and the docstring says which; the featured
structure never depends on the defaulted values.

Every fixture is reproducible bit for bit: the random fixture uses the
stdlib Mersenne Twister with an explicit seed, and nothing else draws
randomness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .coloring import Coloring, EdgeSet, boolean_sum, pairs_of
from .errors import FixtureError
from .reconstruct import MAX_N
from .srcheck import alpha_coloring
from .structure import make_cycle_pair, make_path_pair

__all__ = [
    "Fixture",
    "fig_critical_cycle",
    "fig_critical_cycle_pair",
    "fig_critical_pair",
    "fig_homsum",
    "fig_homsum_pair",
    "fig_no_critical_pair",
    "fig_two_cycles",
    "fixture_names",
    "parse_fixture",
    "partition_coloring",
    "random_coloring",
]


def partition_coloring(n: int) -> Coloring:
    """Color 1 exactly on same-parity pairs: the two parity classes are
    the only homogeneous sets and every cross pair is critical."""
    if n < 2:
        raise FixtureError(f"partition fixture needs n >= 2, got {n}")
    return Coloring.from_ones(
        n, [(x, y) for x, y in pairs_of(n) if (y - x) % 2 == 0]
    )


def fig_critical_pair() -> Coloring:
    """Six vertices with {0, 1} critical.

    Specified pairs: {0,2},{0,4},{1,3},{1,5} get 1 and {0,3},{0,5},
    {1,2},{1,4} get 0, so vertices 2..5 each see 0 and 1 in opposite
    colors.  The pair {0,1} itself and all pairs inside {2,3,4,5} are
    unspecified and default to 0; criticality of {0,1} is insensitive to
    them.
    """
    return Coloring.from_ones(6, [(0, 2), (0, 4), (1, 3), (1, 5)])


def fig_critical_cycle() -> Coloring:
    """Six vertices with the critical cycle (0,1,2,3) and the critical
    pair {4, 5}.

    Specified 1-pairs: {0,1},{1,3},{2,3} inside the quad and {0,4},
    {2,4},{1,5},{3,5} toward the outside; specified 0-pairs: {0,3},
    {0,2},{1,2},{1,4},{3,4},{0,5},{2,5}.  The pair {4,5} is unspecified
    and defaults to 0; its criticality does not depend on its own color.
    """
    return Coloring.from_ones(
        6, [(0, 1), (1, 3), (2, 3), (0, 4), (2, 4), (1, 5), (3, 5)]
    )


def fig_critical_cycle_pair() -> tuple[Coloring, Coloring]:
    """The fixture above together with the reconstruction that flips the
    four cycle edges; the pair differs exactly on the quad's cycle."""
    phi = fig_critical_cycle()
    cycle = EdgeSet.from_pairs(6, [(0, 1), (1, 2), (2, 3), (0, 3)])
    return phi, Coloring(6, phi.bits ^ cycle.mask)


def fig_no_critical_pair(n: int = 6) -> Coloring:
    """A coloring with a critical cycle on (0,1,2,3) but no critical pair.

    On the square: 1-pairs {0,3},{1,3},{1,2} and 0-pairs {0,1},{0,2},
    {2,3}.  Every further vertex k >= 4 is joined in color 1 to 0, to 2,
    and to every other vertex >= 4, and in color 0 to 1 and 3.  Supported
    for 4 <= n <= 6 (the drawn truncation).
    """
    if not 4 <= n <= 6:
        raise FixtureError(f"fig-no-critical-pair supports 4 <= n <= 6, got {n}")
    ones: list[tuple[int, int]] = [(0, 3), (1, 3), (1, 2)]
    for k in range(4, n):
        ones += [(0, k), (2, k)]
        ones += [(j, k) for j in range(4, k)]
    return Coloring.from_ones(n, ones)


def fig_homsum() -> Coloring:
    """Five vertices: the triangle {0,1,2} is homogeneous of color 1, the
    triple {0,3,4} of color 0, and nothing else is homogeneous.  All ten
    pair colors are specified: 1 on {0,1},{0,2},{1,2},{2,3},{1,4}."""
    return Coloring.from_ones(5, [(0, 1), (0, 2), (1, 2), (2, 3), (1, 4)])


def fig_homsum_pair() -> tuple[Coloring, Coloring]:
    """An H-equivalent pair whose Boolean sum has homogeneous triples of
    both colors: {0,1,2} stays color 0 in the sum while {0,3,4} becomes
    color 1, so no single color dominates."""
    phi = fig_homsum()
    psi = Coloring.from_ones(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    return phi, psi


def fig_two_cycles() -> Coloring:
    """Eight vertices carrying exactly two critical cycles, on (0,1,2,3)
    and on (4,5,6,7).  All 28 pair colors are specified."""
    return Coloring.from_ones(
        8,
        [
            (0, 1), (1, 3), (2, 3),          # first quad
            (4, 5), (4, 6), (6, 7),          # second quad
            (2, 7), (0, 7), (0, 5), (2, 5),  # cross pairs, color 1
            (1, 4), (3, 4), (3, 6), (1, 6),
        ],
    )


def random_coloring(n: int, density: float, seed: int) -> Coloring:
    """Each pair independently 1 with probability ``density``; the stream
    is the Mersenne Twister seeded with ``seed``, consumed in colex pair
    order, so files regenerate identically."""
    if n < 2:
        raise FixtureError(f"random fixture needs n >= 2, got {n}")
    if not 0.0 <= density <= 1.0:
        raise FixtureError(f"density must be in [0, 1], got {density}")
    rng = random.Random(seed)
    bits = 0
    for i in range(len(pairs_of(n))):
        if rng.random() < density:
            bits |= 1 << i
    return Coloring(n, bits)


# ---------------------------------------------------------------------------
# the fixture registry used by the command line


@dataclass(frozen=True)
class Fixture:
    name: str
    phi: Coloring
    psi: Optional[Coloring] = None

    @property
    def is_pair(self) -> bool:
        return self.psi is not None

    def payload(self, form: str = "ones") -> dict:
        if self.psi is None:
            return self.phi.to_json(form)
        return {
            "n": self.phi.n,
            "phi": self.phi.to_json(form),
            "psi": self.psi.to_json(form),
            "sum": boolean_sum(self.phi, self.psi).to_json(form),
        }


def _size(name: str, value: int) -> int:
    # building a coloring sets bits on a growing int: superlinear in n
    if value > MAX_N:
        raise FixtureError(f"{name} takes a size of at most {MAX_N}, got {value}")
    return value


def _ints(name: str, counts: tuple[int, ...], args: list[str]) -> list[int]:
    """Integer arguments, as many as one of ``counts``; the first is a size."""
    if len(args) not in counts:
        raise FixtureError(f"{name} expects {counts[-1]} argument(s), got {len(args)}")
    try:
        values = [int(a) for a in args]
    except ValueError as exc:
        raise FixtureError(f"non-integer argument for {name}: {args}") from exc
    return [_size(name, values[0]), *values[1:]] if values else values


def _random_args(name: str, counts: tuple[int, ...], args: list[str]) -> tuple:
    if len(args) not in counts:
        raise FixtureError("random expects (n, density, seed)")
    return _size(name, int(args[0])), float(args[1]), int(args[2])


# Per fixture id: its argument forms, the argument counts it accepts (the
# last is the full form), the parser of its arguments and its builder,
# which returns phi or (phi, psi).
_FIXTURES = {
    "partition": ("partition(n)", (1,), _ints, partition_coloring),
    "fig-critical-pair": ("fig-critical-pair", (0,), _ints, fig_critical_pair),
    "fig-critical-cycle": ("fig-critical-cycle", (0,), _ints, fig_critical_cycle_pair),
    "fig-no-critical-pair": ("fig-no-critical-pair[(n)]", (0, 1), _ints, fig_no_critical_pair),
    "fig-homsum": ("fig-homsum", (0,), _ints, fig_homsum_pair),
    "fig-two-cycles": ("fig-two-cycles", (0,), _ints, fig_two_cycles),
    "alpha": ("alpha(n[,seed])", (1, 2), _ints, alpha_coloring),
    "path-pair": ("path-pair(m,c,phase)", (3,), _ints, make_path_pair),
    "cycle-pair": ("cycle-pair(m,c,phase)", (3,), _ints, make_cycle_pair),
    "random": ("random(n,density,seed)", (3,), _random_args, random_coloring),
}


def fixture_names() -> list[str]:
    return [forms for forms, _, _, _ in _FIXTURES.values()]


def parse_fixture(text: str) -> Fixture:
    """Build a fixture from its textual id, e.g. ``partition(6)`` or
    ``path-pair(6,1,0)`` or ``fig-homsum``."""
    text = text.strip()
    name, args = text, []
    if "(" in text:
        if not text.endswith(")"):
            raise FixtureError(f"malformed fixture id {text!r}")
        name, inner = text[:-1].split("(", 1)
        args = [a.strip() for a in inner.split(",")] if inner.strip() else []
    if name not in _FIXTURES:
        raise FixtureError(f"unknown fixture {name!r}")
    _, counts, parse, build = _FIXTURES[name]
    try:
        built = build(*parse(name, counts, args))
    except FixtureError:
        raise
    except (ValueError, TypeError) as exc:
        raise FixtureError(f"invalid parameters for {name}: {exc}") from exc
    return Fixture(text, *built) if isinstance(built, tuple) else Fixture(text, built)
