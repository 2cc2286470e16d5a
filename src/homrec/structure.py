"""Graph structure of edge sets: degrees, components, claw detection, the
parity laws that constrain a coloring along Boolean-sum components, and
generators for the canonical path/cycle component pairs.

Throughout, the edge set of interest is D1(phi + psi) for H-equivalent
colorings phi, psi: the set of pairs where the two colorings differ.  When
every homogeneous triple of the sum has color 0, each vertex meets at most
two difference edges and every component is a path or a cycle of even
length; along such a component the coloring is forced up to two free bits
(a color and a phase), which is exactly what the generators below produce.

Degrees, components and chordless paths read the vertex masks
``EdgeSet.adj``: a component is the mask closure of its lowest vertex,
its kind comes from popcounts, and paths and cycles are walked one lowest
unseen neighbour at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Iterator, Optional

from .coloring import (
    Coloring,
    EdgeSet,
    bits_of,
    boolean_sum,
    h_equivalent,
    hom_triple_count,
    pair_index,
    pairs_of,
)
from .errors import (
    InvalidLengthError,
    PreconditionError,
    TooSmallError,
)

__all__ = [
    "ClawWitness",
    "Component",
    "ComponentKind",
    "ParityReport",
    "check_parity_lemmas",
    "check_parity_paths",
    "components",
    "degree",
    "find_claw",
    "hom_color_uniform",
    "hom_partition",
    "make_cycle_pair",
    "make_path_pair",
    "to_dot",
]


class ComponentKind(Enum):
    PATH = "path"
    EVEN_CYCLE = "even_cycle"
    ODD_CYCLE = "odd_cycle"
    OTHER = "other"


@dataclass(frozen=True)
class Component:
    """A connected component of an edge set.

    For PATH kinds, ``vertices`` is the traversal from the smaller
    endpoint; for cycles it starts at the smallest vertex and proceeds
    toward its smaller neighbor; consecutive vertices (plus the closing
    edge for cycles) are exactly the component's edges.  OTHER components
    list their vertices in ascending order.
    """

    vertices: tuple[int, ...]
    kind: ComponentKind
    edge_count: int

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class ClawWitness:
    apex: int
    leaves: tuple[int, int, int]


def degree(edges: EdgeSet, x: int) -> int:
    """Number of member edges incident to x."""
    if not 0 <= x < edges.n:
        raise PreconditionError(f"vertex {x} out of range for n={edges.n}")
    return edges.adj[x].bit_count()


def components(edges: EdgeSet) -> list[Component]:
    """Connected components of the incident vertices, classified.

    Isolated vertices are excluded (a component has >= 2 vertices).
    Components are ordered by their smallest vertex.
    """
    adj = edges.adj
    left = sum(1 << x for x, m in enumerate(adj) if m)
    comps: list[Component] = []
    while left:
        # the closure of the lowest vertex not yet placed
        verts = frontier = left & -left
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & ~verts
            verts |= new
            frontier |= new
        left &= ~verts
        comps.append(_classify(verts, adj))
    return comps


def _classify(verts: int, adj: tuple[int, ...]) -> Component:
    degrees = [(adj[v].bit_count(), v) for v in bits_of(verts)]
    edge_count = sum(d for d, _ in degrees) // 2
    size = len(degrees)
    if max(degrees)[0] > 2:
        return Component(tuple(v for _, v in degrees), ComponentKind.OTHER, edge_count)
    if edge_count < size:
        # a path, from its smaller endpoint
        kind = ComponentKind.PATH
        start = min(v for d, v in degrees if d == 1)
    else:
        # a cycle, from its smallest vertex toward its smaller neighbor
        kind = ComponentKind.ODD_CYCLE if size % 2 else ComponentKind.EVEN_CYCLE
        start = degrees[0][1]
    order = [start]
    seen = 1 << start
    step = adj[start]
    while step:
        low = step & -step
        seen |= low
        order.append(low.bit_length() - 1)
        step = adj[order[-1]] & ~seen
    return Component(tuple(order), kind, edge_count)


def find_claw(edges: EdgeSet) -> Optional[ClawWitness]:
    """First claw in the edge set: a triangle whose three vertices are all
    non-adjacent to a fourth vertex, or None."""
    if edges.n < 4:
        raise TooSmallError(f"claw search needs n >= 4, got {edges.n}")
    for x, y, z in combinations(range(edges.n), 3):
        if (x, y) in edges and (x, z) in edges and (y, z) in edges:
            for w in range(edges.n):
                if w in (x, y, z):
                    continue
                if (w, x) not in edges and (w, y) not in edges and (w, z) not in edges:
                    return ClawWitness(apex=w, leaves=(x, y, z))
    return None


def hom_color_uniform(sigma: Coloring) -> Optional[int]:
    """The single color of sigma's homogeneous triples, or None if mixed.

    Returns 0 when sigma has no homogeneous triple at all: downstream
    hypotheses are phrased as "all homogeneous sets have color 0", which
    holds vacuously.
    """
    if not hom_triple_count(sigma, 1):
        return 0
    return None if hom_triple_count(sigma, 0) else 1


# ---------------------------------------------------------------------------
# parity laws along difference components


@dataclass(frozen=True)
class ParityViolation:
    lemma: str
    path: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class ParityReport:
    ok: bool
    components_checked: int
    paths_checked: int
    violation: Optional[ParityViolation]


def _chordless_paths(edges: EdgeSet) -> Iterator[tuple[int, ...]]:
    """All induced (chordless) paths with >= 2 edges, in both directions.

    A vertex sequence qualifies as a path on the edge set only when its
    induced edges are exactly the consecutive ones, so each extension
    vertex may be adjacent to nothing on the path but its last vertex:
    it steps outside ``near``, the neighbours of the vertices before it.
    """
    adj = edges.adj

    def extend(path: list[int], members: int, near: int) -> Iterator[tuple[int, ...]]:
        last = adj[path[-1]]
        step = last & ~members & ~near
        while step:
            low = step & -step
            step ^= low
            path.append(low.bit_length() - 1)
            if len(path) >= 3:
                yield tuple(path)
            yield from extend(path, members | low, near | last)
            path.pop()

    for start, m in enumerate(adj):
        if m:
            yield from extend([start], 1 << start, 0)


def check_parity_lemmas(phi: Coloring, psi: Coloring) -> ParityReport:
    """Check the three parity laws on every path of D1(phi + psi).

    For a path x0..xk on the difference set of an H-equivalent pair:

    * the first and last edges have different phi-colors iff k is even;
    * phi{x0,x2} = phi{x0,xk} iff k is even;
    * phi{x0,x2} = phi{xi,xi+2} = 1 - phi{xi,xi+3} = phi{xi+1,xi+3}.

    H-equivalence is a precondition and is checked; a violation of the
    laws themselves signals an implementation bug and is reported.
    """
    if not h_equivalent(phi, psi):
        raise PreconditionError("colorings are not H-equivalent")
    diff = EdgeSet.ones_of(boolean_sum(phi, psi))
    return check_parity_paths(phi, _chordless_paths(diff), len(components(diff)))


def check_parity_paths(
    phi: Coloring, paths: Iterable[tuple[int, ...]], components_checked: int
) -> ParityReport:
    """The parity laws of :func:`check_parity_lemmas` on phi along the
    given paths of a difference set with ``components_checked``
    components; the paths are read up to the first violation."""
    nbr = phi.nbr
    checked = 0
    for p in paths:
        checked += 1
        k = len(p) - 1
        even = k % 2 == 0
        if (nbr[p[0]] >> p[1] & 1 != nbr[p[-2]] >> p[-1] & 1) != even:
            return ParityReport(
                False,
                components_checked,
                checked,
                ParityViolation("endpoint-edges", p, "first/last edge parity law failed"),
            )
        base = nbr[p[0]] >> p[2] & 1
        if (base == nbr[p[0]] >> p[-1] & 1) != even:
            return ParityReport(
                False,
                components_checked,
                checked,
                ParityViolation("anchored-distance", p, "x0-x2 vs x0-xn law failed"),
            )
        for i in range(k - 2):
            if (
                nbr[p[i]] >> p[i + 2] & 1 != base
                or nbr[p[i]] >> p[i + 3] & 1 == base
                or nbr[p[i + 1]] >> p[i + 3] & 1 != base
            ):
                return ParityReport(
                    False,
                    components_checked,
                    checked,
                    ParityViolation("sliding-window", p, f"window i={i} failed"),
                )
    return ParityReport(True, components_checked, checked, None)


# ---------------------------------------------------------------------------
# the two-class partition along a component


def hom_partition(
    phi: Coloring, comp: Component
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Split a difference component into its two maximal homogeneous classes.

    The even and odd positions of the component traversal are each
    homogeneous for phi, share one color, and partition the component.
    Violations mean the component did not come from a qualifying pair and
    are reported as precondition errors.
    """
    if len(comp) < 6:
        raise TooSmallError(f"partition needs a component of >= 6 vertices, got {len(comp)}")
    if comp.kind not in (ComponentKind.PATH, ComponentKind.EVEN_CYCLE):
        raise PreconditionError(f"component kind {comp.kind.value} cannot carry the partition")
    h1 = comp.vertices[0::2]
    h2 = comp.vertices[1::2]
    c1 = _class_color(phi, h1)
    c2 = _class_color(phi, h2)
    if c1 is None or c2 is None or c1 != c2:
        raise PreconditionError("traversal classes are not homogeneous of one color")
    for cls, other in ((h1, h2), (h2, h1)):
        if any(all(phi.get(v, u) == c1 for u in cls) for v in other):
            raise PreconditionError("a traversal class is not maximal in the component")
    return h1, h2, c1


def _class_color(phi: Coloring, verts: tuple[int, ...]) -> Optional[int]:
    colors = {phi.get(x, y) for x, y in combinations(verts, 2)}
    if len(colors) != 1:
        return None
    return colors.pop()


# ---------------------------------------------------------------------------
# canonical component pairs


def _check_bits(**values: int) -> None:
    for name, value in values.items():
        if value not in (0, 1):
            raise PreconditionError(f"{name} must be 0 or 1, got {value}")


def _component_pair(m: int, c: int, phase: int, cycle: bool) -> tuple[Coloring, Coloring]:
    """The canonical pair whose difference is the path 0-1-...-(m-1), or
    with ``cycle`` the m-cycle: distances are measured along it, the edge
    {i, i+1 mod m} gets phase XOR (i mod 2) and is flipped in psi, and
    any other pair gets c at even distance, 1-c at odd."""
    bits = flip = 0
    for y in range(m):
        for x in range(y):
            d = min(y - x, m - (y - x)) if cycle else y - x
            bit = 1 << pair_index(x, y)
            if d == 1:
                flip |= bit
                color = phase ^ ((x if y - x == 1 else y) & 1)
            else:
                color = c if d % 2 == 0 else 1 - c
            if color:
                bits |= bit
    return Coloring(m, bits), Coloring(m, bits ^ flip)


def make_path_pair(m: int, c: int, phase: int) -> tuple[Coloring, Coloring]:
    """An H-equivalent pair whose difference is the path 0-1-...-(m-1).

    phi colors same-parity pairs c, odd-distance pairs at distance >= 3
    with 1-c, and the path edge {i, i+1} with phase XOR (i mod 2); psi is
    phi with every path edge flipped.
    """
    if m < 4:
        raise TooSmallError(f"path pair needs m >= 4, got {m}")
    _check_bits(c=c, phase=phase)
    return _component_pair(m, c, phase, cycle=False)


def make_cycle_pair(m: int, c: int, phase: int) -> tuple[Coloring, Coloring]:
    """As make_path_pair with distances measured along the m-cycle; the
    difference of the pair is the full cycle.  m must be even, >= 6."""
    if m % 2 or m < 6:
        raise InvalidLengthError(f"cycle pair needs even m >= 6, got {m}")
    _check_bits(c=c, phase=phase)
    return _component_pair(m, c, phase, cycle=True)


# ---------------------------------------------------------------------------
# DOT export


def to_dot(phi: Coloring, highlight: EdgeSet | None = None, name: str = "coloring") -> str:
    """Graphviz source: color-1 edges solid black, color-0 edges gray,
    highlighted edges bold.  Vertices and edges in ascending order."""
    if highlight is not None and highlight.n != phi.n:
        raise PreconditionError("highlight edge set lives on a different n")
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    for v in range(phi.n):
        lines.append(f"  {v};")
    for i, (x, y) in enumerate(pairs_of(phi.n)):
        attrs = ['color=black, style=solid' if (phi.bits >> i) & 1 else 'color=gray']
        if highlight is not None and (highlight.mask >> i) & 1:
            attrs.append("penwidth=2.5")
        lines.append(f"  {x} -- {y} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
