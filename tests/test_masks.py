"""The neighbourhood-mask layer against the scalar code it replaced.

Each reference below is the per-pair implementation the package used
before the masks: it reads pair colors straight from the colex bit
string, so it shares nothing with ``Coloring.nbr`` or ``EdgeSet.adj``.
"""

import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import homrec
from homrec import coloring, kernels
from homrec.coloring import (
    Coloring,
    EdgeSet,
    HomSet,
    hom_sets,
    hom_signature,
    hom_triple_counts,
    pair_count,
    pair_index,
    pairs_of,
)
from homrec.critical import (
    _orientation_for,
    b_set,
    find_critical_cycles,
    find_critical_pairs,
    is_critical_cycle,
)
from homrec.errors import BudgetError, InvalidPairError
from homrec.fixtures import random_coloring
from homrec.reconstruct import _reconstruction_masks, is_valid_difference
from homrec.structure import _chordless_paths, components, degree, hom_color_uniform


def _bit(bits: int, x: int, y: int) -> int:
    x, y = min(x, y), max(x, y)
    return bits >> pair_index(x, y) & 1


def _moon_moser(n: int) -> Coloring:
    """Color 1 exactly between different blocks of three: 3^(n/3)
    maximal homogeneous sets of color 1."""
    return Coloring.from_ones(n, [(x, y) for x, y in pairs_of(n) if x // 3 != y // 3])


def _colorings() -> list[Coloring]:
    out = [Coloring(n, b) for n in (3, 4, 5) for b in range(1 << pair_count(n))]
    for n in range(6, 41):
        out += [random_coloring(n, density, 1000 + n) for density in (0.2, 0.5, 0.8)]
    return out


COLORINGS = _colorings()
SMALL = [phi for phi in COLORINGS if phi.n <= 12]


# ---------------------------------------------------------------------------
# references


def _ref_hom_sets(phi: Coloring, min_size: int = 3) -> list[HomSet]:
    found = []
    for color in (0, 1):
        graph = nx.Graph()
        graph.add_nodes_from(range(phi.n))
        graph.add_edges_from(p for p in pairs_of(phi.n) if _bit(phi.bits, *p) == color)
        for clique in nx.find_cliques(graph):
            if len(clique) >= min_size:
                found.append(HomSet(tuple(sorted(clique)), color))
    found.sort(key=lambda h: (h.vertices, h.color))
    return found


def _ref_b_set(phi: Coloring, x: int, y: int) -> tuple[int, ...]:
    return tuple(
        z
        for z in range(phi.n)
        if z not in (x, y) and _bit(phi.bits, x, z) == _bit(phi.bits, y, z)
    )


def _ref_critical_cycles(phi: Coloring) -> list[tuple]:
    found = []
    for w, x, y, z in combinations(range(phi.n), 4):
        for quad in ((w, x, y, z), (w, x, z, y), (w, y, x, z)):
            orientation = _orientation_for(phi, *quad)
            if orientation is None:
                continue
            a, b, c, d = quad
            outside = [v for v in range(phi.n) if v not in quad]
            if all(
                _bit(phi.bits, p, v) != _bit(phi.bits, q, v)
                for p, q in ((a, b), (b, c), (c, d), (d, a))
                for v in outside
            ):
                found.append((quad, orientation))
    return found


def _ref_degree(edges: EdgeSet, x: int) -> int:
    return sum(1 for a, b in edges.members() if x in (a, b))


def _ref_chordless_paths(edges: EdgeSet) -> list[tuple[int, ...]]:
    adj: dict[int, list[int]] = {}
    for x, y in edges.members():
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)
    for nbrs in adj.values():
        nbrs.sort()
    out = []

    def extend(path: list[int], members: set[int]) -> None:
        for w in adj[path[-1]]:
            if w in members or any(_bit(edges.mask, w, u) for u in path[:-1]):
                continue
            path.append(w)
            members.add(w)
            if len(path) >= 3:
                out.append(tuple(path))
            extend(path, members)
            members.remove(w)
            path.pop()

    for start in sorted(adj):
        extend([start], {start})
    return out


def _ref_triple_counts(phi: Coloring) -> tuple[int, int]:
    kinds = hom_signature(phi).kinds
    return sum(k == 1 for k in kinds), sum(k == 2 for k in kinds)


def _ref_color_uniform(phi: Coloring) -> int | None:
    zeros, ones = _ref_triple_counts(phi)
    if zeros and ones:
        return None
    return 1 if ones else 0


# ---------------------------------------------------------------------------
# the masks and the scalar queries on them


def test_masks_and_lookups_match_the_bit_string():
    for phi in SMALL:
        edges = EdgeSet(phi.n, phi.bits)
        for x in range(phi.n):
            row = sum(_bit(phi.bits, x, z) << z for z in range(phi.n) if z != x)
            assert phi.nbr[x] == edges.adj[x] == row
        for x, y in pairs_of(phi.n):
            assert phi.get(x, y) == phi.get(y, x) == _bit(phi.bits, x, y)
            assert ((x, y) in edges) == ((y, x) in edges) == bool(_bit(phi.bits, x, y))
        assert edges.members() == [p for p in pairs_of(phi.n) if _bit(phi.bits, *p)]
        assert edges.vertices() == sorted({v for p in edges.members() for v in p})


def test_bad_pairs_raise_as_before():
    phi = Coloring.all_one(5)
    edges = EdgeSet.full(5)
    cases = [
        ((2, 2), "degenerate pair (2, 2)"),
        ((-1, 2), "pair (-1, 2) must satisfy 0 <= x < y"),
        ((2, -1), "pair (-1, 2) must satisfy 0 <= x < y"),
        ((1, 5), "pair (1, 5) out of range for n=5"),
        ((7, 1), "pair (1, 7) out of range for n=5"),
    ]
    for pair, message in cases:
        with pytest.raises(InvalidPairError) as exc:
            phi.get(*pair)
        assert str(exc.value) == message
    for pair in ((2, 2), (-1, 2), (2, -1)):
        with pytest.raises(InvalidPairError) as exc:
            pair in edges
        assert str(exc.value) == dict(cases)[pair]
    assert (1, 5) not in edges and (7, 1) not in edges


def test_b_sets_critical_pairs_and_cycles_match_the_scalar_scans():
    for phi in COLORINGS:
        for x, y in pairs_of(phi.n):
            assert b_set(phi, (y, x)).members == _ref_b_set(phi, x, y)
        expected = [p for p in pairs_of(phi.n) if not _ref_b_set(phi, *p)]
        assert find_critical_pairs(phi) == expected
    for phi in SMALL:
        if 5 <= phi.n <= 8:
            found = [(w.quad, w.orientation) for w in find_critical_cycles(phi)]
            assert found == _ref_critical_cycles(phi)


def test_critical_cycle_external_test_on_a_planted_cycle():
    # a critical cycle on (0, 1, 2, 3); breaking one outside color kills it
    phi = Coloring.from_ones(6, [(0, 1), (1, 3), (2, 3), (0, 4), (2, 4), (1, 5), (3, 5)])
    assert is_critical_cycle(phi, (0, 1, 2, 3)) is not None
    broken = Coloring(6, phi.bits ^ 1 << pair_index(1, 4))
    assert is_critical_cycle(broken, (0, 1, 2, 3)) is None


def test_structure_queries_match_the_scalar_references():
    for phi in SMALL:
        edges = EdgeSet(phi.n, phi.bits)
        assert [degree(edges, v) for v in range(phi.n)] == [
            _ref_degree(edges, v) for v in range(phi.n)
        ]
        assert hom_triple_counts(phi) == _ref_triple_counts(phi)
        assert hom_color_uniform(phi) == _ref_color_uniform(phi)
        if phi.n <= 6 or len(edges) <= 2 * phi.n:
            assert list(_chordless_paths(edges)) == _ref_chordless_paths(edges)
            assert sum(len(c) for c in components(edges)) == len(edges.vertices())
    for phi in COLORINGS:
        if phi.n > 12:
            assert hom_triple_counts(phi) == _ref_triple_counts(phi)


def test_chordless_paths_on_sparse_large_edge_sets():
    rng = random.Random(7)
    for n in (10, 16, 24):
        for _ in range(10):
            edges = EdgeSet.from_pairs(n, rng.sample(pairs_of(n), n))
            assert list(_chordless_paths(edges)) == _ref_chordless_paths(edges)


# ---------------------------------------------------------------------------
# maximal homogeneous sets


def test_hom_sets_match_networkx():
    for phi in COLORINGS:
        assert hom_sets(phi) == _ref_hom_sets(phi)
    for phi in SMALL[::7]:
        assert hom_sets(phi, min_size=4) == _ref_hom_sets(phi, min_size=4)
    moon_moser = _moon_moser(18)
    found = hom_sets(moon_moser)
    assert len(found) == 3**6 + 6
    assert found == _ref_hom_sets(moon_moser)


def test_hom_sets_bound(monkeypatch):
    phi = _moon_moser(12)  # 3^4 sets of color 1 and the four blocks of color 0
    count = len(hom_sets(phi))
    assert count == 85
    monkeypatch.setattr(coloring, "HOM_SETS_MAX", count)
    assert len(hom_sets(phi)) == count
    monkeypatch.setattr(coloring, "HOM_SETS_MAX", count - 1)
    with pytest.raises(BudgetError, match="more than 84 maximal homogeneous sets"):
        hom_sets(phi)


# ---------------------------------------------------------------------------
# the local criterion against the kernel sweep


def _check_validity(phi: Coloring, masks: list[int]) -> int:
    verdicts = kernels.valid_for_phi(phi.n, phi.bits, np.array(masks, dtype=np.uint64))
    for d, ok in zip(masks, verdicts.tolist()):
        assert is_valid_difference(phi, EdgeSet(phi.n, d)) == ok, (phi, d)
    return int(verdicts.sum())


def test_is_valid_difference_exhaustive_to_n4():
    for n in (3, 4):
        everything = list(range(1 << pair_count(n)))
        for phi in everything:
            _check_validity(Coloring(n, phi), everything)


def test_is_valid_difference_on_every_n5_coloring():
    rng = random.Random(5)
    masks = [rng.getrandbits(pair_count(5)) for _ in range(64)]
    valid = sum(_check_validity(Coloring(5, phi), masks) for phi in range(1 << pair_count(5)))
    assert valid > 0


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_is_valid_difference_on_seeded_colorings(n):
    rng = random.Random(60 + n)
    p = pair_count(n)
    valid = 0
    for _ in range(100):
        phi = Coloring(n, rng.getrandbits(p))
        masks = [rng.getrandbits(p) for _ in range(8)]
        masks += [sum(1 << i for i in rng.sample(range(p), rng.randint(1, 4))) for _ in range(8)]
        masks += [sum(1 << pair_index(*q) for q in find_critical_pairs(phi)[:k]) for k in (1, 2)]
        if n <= 8:
            masks += _reconstruction_masks(phi)[:8]
        valid += _check_validity(phi, [m for m in masks if m])
    assert valid > 0


# ---------------------------------------------------------------------------
# start-up


def test_cli_import_leaves_networkx_out():
    code = "import sys, homrec.cli; print('networkx' in sys.modules)"
    env = {"PYTHONPATH": str(Path(homrec.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"
