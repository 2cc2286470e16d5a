"""Edge-set structure: components, claws, parity laws, component pairs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homrec.coloring import Coloring, EdgeSet, boolean_sum, difference, h_equivalent
from homrec.errors import (
    InvalidLengthError,
    PreconditionError,
    TooSmallError,
)
from homrec.fixtures import fig_homsum_pair
from homrec.structure import (
    ClawWitness,
    ComponentKind,
    ParityReport,
    ParityViolation,
    check_parity_lemmas,
    check_parity_paths,
    components,
    degree,
    find_claw,
    hom_color_uniform,
    hom_partition,
    make_cycle_pair,
    make_path_pair,
    to_dot,
)

# the drawn 6-vertex path pair: same-parity triangles color 1, long odd
# pairs color 0, path edges alternating starting with {0,1} colored 1
FIG_PATH_PHI = Coloring.from_ones(
    6, [(0, 1), (2, 3), (4, 5), (0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5)]
)
FIG_PATH_PSI = Coloring.from_ones(
    6, [(1, 2), (3, 4), (0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5)]
)
# the drawn 6-cycle pair: as above plus the closing edge {5,0} flipped in psi
FIG_CYCLE_PHI = FIG_PATH_PHI
FIG_CYCLE_PSI = Coloring.from_ones(
    6, [(1, 2), (3, 4), (0, 5), (0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5)]
)


# ---------------------------------------------------------------------------
# degree and components


def test_degree_examples():
    assert degree(EdgeSet.empty(4), 2) == 0
    path = EdgeSet.from_pairs(4, [(0, 1), (1, 2)])
    assert degree(path, 1) == 2
    phi, psi = fig_homsum_pair()
    diff = difference(phi, psi)
    assert degree(diff, 0) == 2  # edges {0,4} and {0,3}


def test_components_single_edge():
    comps = components(EdgeSet.from_pairs(4, [(0, 1)]))
    assert len(comps) == 1
    assert comps[0].vertices == (0, 1)
    assert comps[0].kind is ComponentKind.PATH
    assert comps[0].edge_count == 1


def test_components_four_cycle():
    comps = components(EdgeSet.from_pairs(5, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    assert len(comps) == 1
    assert comps[0].kind is ComponentKind.EVEN_CYCLE
    assert comps[0].vertices == (0, 1, 2, 3)
    assert comps[0].edge_count == 4


def test_components_cycle_plus_pair():
    # the two-component difference of the critical-cycle configuration
    diff = EdgeSet.from_pairs(6, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)])
    comps = components(diff)
    assert [(c.vertices, c.kind) for c in comps] == [
        ((0, 1, 2, 3), ComponentKind.EVEN_CYCLE),
        ((4, 5), ComponentKind.PATH),
    ]


def test_components_triangle_is_odd_cycle():
    comps = components(EdgeSet.from_pairs(4, [(0, 1), (1, 2), (0, 2)]))
    assert comps[0].kind is ComponentKind.ODD_CYCLE


def test_components_star_is_other():
    comps = components(EdgeSet.from_pairs(5, [(0, 1), (0, 2), (0, 3)]))
    assert comps[0].kind is ComponentKind.OTHER
    assert comps[0].vertices == (0, 1, 2, 3)


def test_components_exclude_isolated_vertices_and_sort():
    diff = EdgeSet.from_pairs(7, [(5, 6), (1, 2)])
    comps = components(diff)
    assert [c.vertices for c in comps] == [(1, 2), (5, 6)]


def test_path_traversal_starts_at_smaller_endpoint():
    comps = components(EdgeSet.from_pairs(6, [(3, 1), (1, 5), (5, 0)]))
    assert comps[0].vertices == (0, 5, 1, 3)


@given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=12))
@settings(max_examples=100)
def test_degree_le2_graphs_decompose_into_paths_and_cycles(raw):
    # any graph with max degree <= 2 splits into paths and cycles
    rng = random.Random(17)
    deg = [0] * 8
    pairs = []
    for a, b in sorted(raw):
        if a == b:
            continue
        if deg[a] < 2 and deg[b] < 2:
            pairs.append((a, b))
            deg[a] += 1
            deg[b] += 1
    rng.shuffle(pairs)
    for comp in components(EdgeSet.from_pairs(8, pairs)):
        assert comp.kind is not ComponentKind.OTHER
        # traversal consistency: consecutive vertices are edges
        es = EdgeSet.from_pairs(8, pairs)
        for u, v in zip(comp.vertices, comp.vertices[1:]):
            assert (u, v) in es


# ---------------------------------------------------------------------------
# claws


def test_find_claw_triangle_plus_isolated():
    es = EdgeSet.from_pairs(4, [(0, 1), (1, 2), (0, 2)])
    assert find_claw(es) == ClawWitness(apex=3, leaves=(0, 1, 2))


def test_find_claw_absent_on_cycle():
    assert find_claw(EdgeSet.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])) is None


def test_find_claw_too_small():
    with pytest.raises(TooSmallError):
        find_claw(EdgeSet.empty(3))


# ---------------------------------------------------------------------------
# uniform hom color


def test_hom_color_uniform_examples(homsum_pair):
    assert hom_color_uniform(Coloring.zero(4)) == 0
    assert hom_color_uniform(boolean_sum(*homsum_pair)) is None
    path = EdgeSet.from_pairs(6, [(i, i + 1) for i in range(5)]).indicator()
    assert hom_color_uniform(path) == 0
    assert hom_color_uniform(Coloring.all_one(4)) == 1


# ---------------------------------------------------------------------------
# parity laws


def test_parity_laws_on_drawn_path_pair():
    assert set(difference(FIG_PATH_PHI, FIG_PATH_PSI).members()) == {
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5)
    }
    report = check_parity_lemmas(FIG_PATH_PHI, FIG_PATH_PSI)
    assert report.ok and report.components_checked == 1


def test_parity_laws_on_drawn_cycle_pair():
    report = check_parity_lemmas(FIG_CYCLE_PHI, FIG_CYCLE_PSI)
    assert report.ok


def test_parity_laws_on_generated_pair():
    report = check_parity_lemmas(*make_path_pair(10, 1, 0))
    # every sub-path of >= 2 edges of the 10-vertex path, both directions
    assert report.ok and report.paths_checked == 2 * sum(range(1, 9))


def test_parity_paths_stop_at_the_first_violation():
    # on the all-zero coloring a 2-edge path has equal end edges
    report = check_parity_paths(Coloring.zero(4), [(0, 1, 2), (1, 2, 3)], 1)
    assert report == ParityReport(
        False,
        1,
        1,
        ParityViolation("endpoint-edges", (0, 1, 2), "first/last edge parity law failed"),
    )


def test_parity_requires_h_equivalence():
    with pytest.raises(PreconditionError):
        check_parity_lemmas(Coloring.zero(4), Coloring.from_ones(4, [(0, 1)]))


# ---------------------------------------------------------------------------
# component partition


def test_hom_partition_path6():
    phi, psi = make_path_pair(6, 1, 0)
    comp = components(difference(phi, psi))[0]
    assert hom_partition(phi, comp) == ((0, 2, 4), (1, 3, 5), 1)


def test_hom_partition_cycle6():
    phi, psi = make_cycle_pair(6, 1, 0)
    comp = components(difference(phi, psi))[0]
    h1, h2, color = hom_partition(phi, comp)
    assert set(h1) == {0, 2, 4} and set(h2) == {1, 3, 5} and color == 1


def test_hom_partition_path8_color0():
    phi, psi = make_path_pair(8, 0, 1)
    comp = components(difference(phi, psi))[0]
    h1, h2, color = hom_partition(phi, comp)
    assert len(h1) == 4 and len(h2) == 4 and color == 0


def test_hom_partition_too_small():
    phi, psi = make_path_pair(4, 0, 0)
    comp = components(difference(phi, psi))[0]
    with pytest.raises(TooSmallError):
        hom_partition(phi, comp)


def test_hom_partition_rejects_foreign_component():
    # an arbitrary path component of a coloring that does not satisfy the
    # forced structure
    comp = components(EdgeSet.from_pairs(6, [(i, i + 1) for i in range(5)]))[0]
    with pytest.raises(PreconditionError):
        hom_partition(Coloring.zero(6), comp)


# ---------------------------------------------------------------------------
# generators


def test_make_path_pair_matches_drawing():
    phi, psi = make_path_pair(6, 1, 1)
    assert (phi, psi) == (FIG_PATH_PHI, FIG_PATH_PSI)
    # the other phase gives the same unordered pair
    phi0, psi0 = make_path_pair(6, 1, 0)
    assert {phi0, psi0} == {FIG_PATH_PHI, FIG_PATH_PSI}


@pytest.mark.parametrize("make", [make_path_pair, make_cycle_pair])
def test_pair_generators_take_only_0_and_1(make):
    for c in (0, 1):
        for phase in (0, 1):
            assert h_equivalent(*make(8, c, phase))
    for c, phase in ((2, 0), (0, 5), (-1, 0), (1, -1)):
        with pytest.raises(PreconditionError, match="must be 0 or 1"):
            make(8, c, phase)


def test_make_cycle_pair_matches_drawing():
    phi, psi = make_cycle_pair(6, 1, 1)
    assert (phi, psi) == (FIG_CYCLE_PHI, FIG_CYCLE_PSI)


def test_make_path_pair_m4_forced_values():
    # the two non-adjacent constraints force {0,2},{1,3} to c and {0,3}
    # to 1-c; with c=0, phase=0 the ones are {1,2} and {0,3}
    phi, psi = make_path_pair(4, 0, 0)
    assert set(phi.ones()) == {(1, 2), (0, 3)}
    assert h_equivalent(phi, psi)


@given(st.integers(4, 11), st.integers(0, 1), st.integers(0, 1))
@settings(max_examples=40)
def test_make_path_pair_contract(m, c, phase):
    phi, psi = make_path_pair(m, c, phase)
    assert h_equivalent(phi, psi)
    assert set(difference(phi, psi).members()) == {(i, i + 1) for i in range(m - 1)}


@given(st.integers(3, 6).map(lambda k: 2 * k), st.integers(0, 1), st.integers(0, 1))
@settings(max_examples=40)
def test_make_cycle_pair_contract(m, c, phase):
    phi, psi = make_cycle_pair(m, c, phase)
    assert h_equivalent(phi, psi)
    expected = {tuple(sorted((i, (i + 1) % m))) for i in range(m)}
    assert set(difference(phi, psi).members()) == expected


def test_generator_input_validation():
    with pytest.raises(TooSmallError):
        make_path_pair(3, 0, 0)
    with pytest.raises(InvalidLengthError):
        make_cycle_pair(5, 0, 0)
    with pytest.raises(InvalidLengthError):
        make_cycle_pair(4, 0, 0)


# ---------------------------------------------------------------------------
# DOT export


def test_to_dot_deterministic_shape():
    phi = Coloring.from_ones(3, [(0, 1)])
    out = to_dot(phi, highlight=EdgeSet.from_pairs(3, [(0, 1)]))
    assert out == (
        "graph coloring {\n"
        "  node [shape=circle];\n"
        "  0;\n  1;\n  2;\n"
        "  0 -- 1 [color=black, style=solid, penwidth=2.5];\n"
        "  0 -- 2 [color=gray];\n"
        "  1 -- 2 [color=gray];\n"
        "}\n"
    )
