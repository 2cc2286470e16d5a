"""The neighbourhood-mask layer against the scalar code it replaced.

Each reference below is the per-pair implementation the package used
before the masks: it reads pair colors straight from the colex bit
string, so it shares nothing with ``Coloring.nbr`` or ``EdgeSet.adj``.
"""

import json
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest

import homrec
from homrec import coloring, kernels
from homrec.coloring import (
    Coloring,
    EdgeSet,
    HomSet,
    bits_of,
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
from homrec.structure import (
    ParityReport,
    ParityViolation,
    _chordless_paths,
    check_parity_paths,
    components,
    degree,
    hom_color_uniform,
)


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


def _ref_components(edges: EdgeSet) -> list[tuple[tuple[int, ...], str, int]]:
    """Per component, by its smallest vertex: its vertices (ascending for
    OTHER, else the walk from the smaller path end, or from the smallest
    cycle vertex toward its smaller neighbour), its kind and edge count."""
    adj: dict[int, list[int]] = {}
    for x, y in pairs_of(edges.n):
        if _bit(edges.mask, x, y):
            adj.setdefault(x, []).append(y)
            adj.setdefault(y, []).append(x)
    for nbrs in adj.values():
        nbrs.sort()
    seen: set[int] = set()
    out = []
    for start in sorted(adj):
        if start in seen:
            continue
        verts, stack = {start}, [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in verts:
                    verts.add(w)
                    stack.append(w)
        seen |= verts
        edge_count = sum(len(adj[v]) for v in verts) // 2
        if max(len(adj[v]) for v in verts) > 2:
            out.append((tuple(sorted(verts)), "other", edge_count))
            continue
        ends = sorted(v for v in verts if len(adj[v]) == 1)
        order = [ends[0] if ends else min(verts)]
        while len(order) < len(verts):
            order.append([w for w in adj[order[-1]] if w not in order][0])
        kind = "path" if ends else ("odd_cycle" if len(verts) % 2 else "even_cycle")
        out.append((tuple(order), kind, edge_count))
    return out


def _ref_within(edges: EdgeSet, vertices) -> int:
    vs = set(vertices)
    mask = 0
    for i, (x, y) in enumerate(pairs_of(edges.n)):
        if edges.mask >> i & 1 and x in vs and y in vs:
            mask |= 1 << i
    return mask


def _ref_parity_paths(phi: Coloring, paths, components_checked: int) -> ParityReport:
    """The parity laws read pair by pair through ``Coloring.get``."""
    checked = 0
    for p in paths:
        checked += 1
        k = len(p) - 1
        even = k % 2 == 0
        violation = None
        if (phi.get(p[0], p[1]) != phi.get(p[-2], p[-1])) != even:
            violation = ("endpoint-edges", "first/last edge parity law failed")
        elif (phi.get(p[0], p[2]) == phi.get(p[0], p[-1])) != even:
            violation = ("anchored-distance", "x0-x2 vs x0-xn law failed")
        elif k >= 3:
            base = phi.get(p[0], p[2])
            for i in range(k - 2):
                if (
                    phi.get(p[i], p[i + 2]) != base
                    or phi.get(p[i], p[i + 3]) != 1 - base
                    or phi.get(p[i + 1], p[i + 3]) != base
                ):
                    violation = ("sliding-window", f"window i={i} failed")
                    break
        if violation:
            lemma, detail = violation
            return ParityReport(
                False, components_checked, checked, ParityViolation(lemma, p, detail)
            )
    return ParityReport(True, components_checked, checked, None)


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


def _sparse_edge_sets() -> list[EdgeSet]:
    rng = random.Random(7)
    return [
        EdgeSet.from_pairs(n, rng.sample(pairs_of(n), n)) for n in (10, 16, 24) for _ in range(10)
    ]


def test_chordless_paths_on_sparse_large_edge_sets():
    for edges in _sparse_edge_sets():
        assert list(_chordless_paths(edges)) == _ref_chordless_paths(edges)


def _shape(edges: EdgeSet) -> list[tuple[tuple[int, ...], str, int]]:
    return [(c.vertices, c.kind.value, c.edge_count) for c in components(edges)]


def test_components_match_the_scalar_walk():
    """Every edge set at n <= 5, the seeded ones at n = 6-12 and the
    sparse ones at n = 10-24: vertices in traversal order, kind, edges."""
    for edges in [EdgeSet(phi.n, phi.bits) for phi in SMALL] + _sparse_edge_sets():
        assert _shape(edges) == _ref_components(edges), edges


def test_within_matches_the_pair_loop():
    rng = random.Random(11)
    for edges in [EdgeSet(phi.n, phi.bits) for phi in SMALL] + _sparse_edge_sets():
        n = edges.n
        if n <= 5:
            subsets = [list(bits_of(s)) for s in range(1 << n)]
        else:
            subsets = [rng.sample(range(n), rng.randint(0, n)) for _ in range(8)]
            subsets += [c.vertices for c in components(edges)]
        subsets += [[n - 1, 0, 0, n, n + 3, -1]]  # repeats and outsiders count for nothing
        for vs in subsets:
            assert edges.within(vs).mask == _ref_within(edges, vs), (edges, vs)


def test_parity_paths_match_the_scalar_laws():
    """Every n = 5 coloring against the paths of each of its valid
    difference sets (the laws hold) and of one seeded other edge set
    (most break one)."""
    rng = random.Random(5)
    broken = 0
    for bits in range(1 << pair_count(5)):
        phi = Coloring(5, bits)
        for d in _reconstruction_masks(phi) + [rng.getrandbits(pair_count(5))]:
            diff = EdgeSet(5, d)
            paths = list(_chordless_paths(diff))
            count = len(components(diff))
            report = check_parity_paths(phi, paths, count)
            assert report == _ref_parity_paths(phi, paths, count), (bits, d)
            broken += not report.ok
    assert broken > 0


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
    full = (1 << len(masks)) - 1
    phi_cols = kernels.constant_columns(phi.n, phi.bits, full)
    verdicts = kernels.valid_for_phi(phi.n, phi_cols, kernels.columns_of(phi.n, masks)) & full
    for j, d in enumerate(masks):
        assert is_valid_difference(phi, EdgeSet(phi.n, d)) == bool(verdicts >> j & 1), (phi, d)
    return verdicts.bit_count()


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


def test_theorem63_leaves_concurrent_futures_out(tmp_path):
    # theorem63 runs in the calling thread, whatever the environment holds,
    # so no thread pool is ever imported
    out = tmp_path / "theorem63.json"
    code = """
import sys, homrec.cli
argv = ["verify", "theorem63", "--samples", "2", "--json", "--out", sys.argv[1]]
assert homrec.cli.main(argv) == 0
print("concurrent.futures" in sys.modules)
"""
    env = {"PYTHONPATH": str(Path(homrec.__file__).parents[1]), "HOMREC_THREADS": "8"}
    run = subprocess.run(
        [sys.executable, "-c", code, str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"
    assert json.loads(out.read_text())["suite"] == "theorem63"


def test_commands_leave_numpy_out(tmp_path):
    """generate, analyze (auto and exhaustive, n = 8), export-dot and the
    oracle and claws suites run without loading numpy."""
    code = """
import sys, homrec.cli
path, out = sys.argv[1:]
for argv in (
    ["generate", "partition(8)", "--out", path],
    ["analyze", path, "--json", "--out", out],
    ["analyze", path, "--json", "--mode", "exhaustive", "--out", out],
    ["export-dot", path, "--out", out],
    ["verify", "oracle", "--samples", "20", "--json", "--out", out],
    ["verify", "claws", "--n", "4", "--json", "--out", out],
):
    assert homrec.cli.main(argv) == 0, argv
print("numpy" in sys.modules)
"""
    argv = [sys.executable, "-c", code, str(tmp_path / "p8.json"), str(tmp_path / "out")]
    env = {"PYTHONPATH": str(Path(homrec.__file__).parents[1])}
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
