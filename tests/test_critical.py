"""Critical pairs, critical cycles, B-sets, flips."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homrec.coloring import (
    Coloring,
    EdgeSet,
    h_equivalent,
    pair_count,
    pair_index,
    pairs_of,
    restrict,
)
from homrec.critical import (
    Orientation,
    b_set,
    find_critical_cycles,
    find_critical_pairs,
    flip_reconstruction,
    is_critical_cycle,
    is_critical_pair,
    pair_witness_json,
    witness_json,
)
from homrec.errors import (
    DegenerateInputError,
    InvalidPairError,
    InvalidSubsetError,
    TooSmallError,
)
from homrec.fixtures import fig_critical_cycle, fig_no_critical_pair, fig_two_cycles
from homrec.srcheck import alpha_coloring


def colorings(n: int):
    return st.integers(0, (1 << pair_count(n)) - 1).map(lambda b: Coloring(n, b))


# ---------------------------------------------------------------------------
# B-sets


def test_b_set_partition_cross_pair_empty(partition6):
    assert b_set(partition6, (0, 1)).members == ()


def test_b_set_no_critical_pair_figure(no_critical_pair6):
    # vertex 3 is the only one seeing 0 and 1 alike in the drawn coloring
    assert b_set(no_critical_pair6, (0, 1)).members == (3,)


def test_b_set_alpha_third_rule():
    members = b_set(alpha_coloring(12), (4, 7)).members
    assert 1 in members and 2 in members


def test_b_set_validation():
    with pytest.raises(InvalidPairError):
        b_set(Coloring.zero(4), (2, 2))
    with pytest.raises(InvalidPairError):
        b_set(Coloring.zero(4), (0, 9))
    with pytest.raises(TooSmallError):
        b_set(Coloring.zero(2), (0, 1))


# ---------------------------------------------------------------------------
# critical pairs


def test_pcrit_figure_pair_is_critical(pcrit):
    assert is_critical_pair(pcrit, (0, 1))


def test_critical_cycle_figure_has_critical_pair(critical_cycle_coloring):
    assert is_critical_pair(critical_cycle_coloring, (4, 5))


def test_no_critical_pair_figure_has_none(no_critical_pair6):
    assert find_critical_pairs(no_critical_pair6) == []


def test_partition_has_all_cross_pairs(partition6):
    found = find_critical_pairs(partition6)
    assert len(found) == 9
    assert all((x + y) % 2 == 1 for x, y in found)


def test_alpha_truncations_roll_a_critical_pair():
    for n in range(5, 13):
        assert (0, n - 1) in find_critical_pairs(alpha_coloring(n))


def test_all_zero_has_no_critical_pairs():
    assert find_critical_pairs(Coloring.zero(6)) == []


@given(colorings(6))
@settings(max_examples=60)
def test_criticality_is_complement_invariant(phi):
    assert find_critical_pairs(phi) == find_critical_pairs(phi.complement())


@given(colorings(5))
@settings(max_examples=80)
def test_critical_pair_iff_single_flip_reconstructs(phi):
    for pair in pairs_of(5):
        flipped = flip_reconstruction(phi, EdgeSet.from_pairs(5, [pair]))
        assert is_critical_pair(phi, pair) == h_equivalent(phi, flipped)


# ---------------------------------------------------------------------------
# critical cycles


def test_critical_cycle_figure_primary(critical_cycle_coloring):
    w = is_critical_cycle(critical_cycle_coloring, (0, 1, 2, 3))
    assert w is not None and w.orientation is Orientation.PRIMARY
    assert set(w.edges.members()) == {(0, 1), (1, 2), (2, 3), (0, 3)}
    # the implied fourth relation of the primary orientation
    phi = critical_cycle_coloring
    assert phi.get(3, 1) == phi.get(0, 1) == 1 - phi.get(3, 0)


def test_critical_cycle_figure_psi_alternate(critical_cycle_pair):
    _, psi = critical_cycle_pair
    w = is_critical_cycle(psi, (0, 1, 2, 3))
    assert w is not None and w.orientation is Orientation.ALTERNATE


def test_no_critical_pair_figure_cycle_is_alternate(no_critical_pair6):
    phi = no_critical_pair6
    # the primary orientation fails on its first relation
    assert phi.get(0, 2) != phi.get(1, 2)
    w = is_critical_cycle(phi, (0, 1, 2, 3))
    assert w is not None and w.orientation is Orientation.ALTERNATE


def test_all_zero_has_no_cycle():
    assert is_critical_cycle(Coloring.zero(6), (0, 1, 2, 3)) is None


def test_is_critical_cycle_validation():
    with pytest.raises(InvalidSubsetError):
        is_critical_cycle(Coloring.zero(6), (0, 1, 2, 2))
    with pytest.raises(TooSmallError):
        is_critical_cycle(Coloring.zero(4), (0, 1, 2, 3))


def test_two_cycles_figure(two_cycles):
    found = find_critical_cycles(two_cycles)
    assert [(w.quad, w.orientation) for w in found] == [
        ((0, 1, 2, 3), Orientation.PRIMARY),
        ((4, 5, 6, 7), Orientation.ALTERNATE),
    ]


def test_alpha_has_no_critical_cycles():
    assert find_critical_cycles(alpha_coloring(20)) == []


def test_partition_has_no_critical_cycles(partition6):
    assert find_critical_cycles(partition6) == []
    # same-parity pairs have large B-sets, cross pairs empty ones
    for pair in pairs_of(6):
        assert len(b_set(partition6, pair)) in (0, 4)


def _planted_cycle(n: int, seed: int) -> Coloring:
    """A seeded coloring with a critical cycle a-b-c-d planted in the
    primary orientation on a seeded quad: every outside vertex sees the
    quad as u, 1 - u, u, 1 - u; the other pairs are random."""
    rng = random.Random(seed * 1_000_003 + n)
    bits = rng.getrandbits(pair_count(n))
    a, b, c, d = rng.sample(range(n), 4)
    u = rng.getrandbits(1)
    colors = {(a, b): u, (b, c): 1 - u, (c, d): u, (d, a): 1 - u, (a, c): 1 - u, (b, d): u}
    for z in set(range(n)) - {a, b, c, d}:
        v = rng.getrandbits(1)
        colors.update({(z, a): v, (z, b): 1 - v, (z, c): v, (z, d): 1 - v})
    for (x, y), color in colors.items():
        i = pair_index(*sorted((x, y)))
        bits = bits & ~(1 << i) | color << i
    return Coloring(n, bits)


def test_pairs_on_found_cycles_have_singleton_b_sets(two_cycles, no_critical_pair6):
    """The lemma the cycle scan can rest on: the B-set of each edge of a
    critical cycle is one of the cycle's two other corners."""
    every5 = (Coloring(5, bits) for bits in range(1 << pair_count(5)))
    planted = [_planted_cycle(n, seed) for n in range(6, 11) for seed in range(20)]
    seeded = [phi for n in range(6, 11) for phi in _seeded(n, 60, 12)]
    assert all(find_critical_cycles(phi) for phi in planted)
    witnesses = 0
    for phi in (two_cycles, no_critical_pair6, *every5, *planted, *seeded):
        for w in find_critical_cycles(phi):
            witnesses += 1
            for x, y in w.edges.members():
                (corner,) = b_set(phi, (x, y)).members
                assert corner in set(w.quad) - {x, y}, (phi, w.quad, (x, y))
    assert witnesses >= 72 + len(planted)


# the scan of the quads that contain the last vertex

FIGURES = {
    "fig-critical-cycle": fig_critical_cycle(),
    "fig-two-cycles": fig_two_cycles(),
    "fig-no-critical-pair(6)": fig_no_critical_pair(6),
}


def _seeded(n: int, count: int, seed: int) -> list[Coloring]:
    rng = random.Random(seed * 1_000_003 + n)
    return [Coloring(n, rng.getrandbits(pair_count(n))) for _ in range(count)]


def _last_quads(phi: Coloring) -> list:
    return [w for w in find_critical_cycles(phi) if phi.n - 1 in w.quad]


@pytest.mark.parametrize(
    "phis",
    [
        [Coloring(5, bits) for bits in range(1 << pair_count(5))],
        [phi for n in (6, 7, 8, 9) for phi in _seeded(n, 60, 12)],
        list(FIGURES.values()),
    ],
    ids=["n5-all", "n6-9-seeded", "figures"],
)
def test_last_only_scan_is_the_full_scan_filtered_to_the_last_vertex(phis):
    kept = dropped = 0
    for phi in phis:
        full = find_critical_cycles(phi)
        last = find_critical_cycles(phi, last_only=True)
        assert last == [w for w in full if phi.n - 1 in w.quad]
        kept += len(last)
        dropped += len(full) - len(last)
    # the filter keeps some witnesses and drops others
    assert kept and dropped


def _extensions(phi: Coloring):
    """phi extended by one vertex n, joined to the others in all 2^n ways."""
    for row in range(1 << phi.n):
        psi = Coloring(phi.n + 1, phi.bits | row << pair_count(phi.n))
        assert restrict(psi, range(phi.n)) == phi
        yield psi


@pytest.mark.parametrize(
    "phi", [*FIGURES.values(), alpha_coloring(7)], ids=[*FIGURES, "alpha(7)"]
)
def test_a_critical_cycle_avoiding_the_last_vertex_is_one_of_the_restriction(phi):
    own = {(w.quad, w.orientation) for w in find_critical_cycles(phi)}
    survived = died = 0
    for psi in _extensions(phi):
        full = find_critical_cycles(psi)
        avoiding = {(w.quad, w.orientation) for w in full if phi.n not in w.quad}
        assert avoiding <= own
        survived += len(avoiding)
        died += len(own - avoiding)
        if not own:
            # so a cycle-free restriction leaves only the last vertex's quads
            assert full == find_critical_cycles(psi, last_only=True)
    assert survived and died if own else not survived


# ---------------------------------------------------------------------------
# flips


def test_flip_single_critical_pair_is_reconstruction(partition6):
    pair = find_critical_pairs(partition6)[0]
    psi = flip_reconstruction(partition6, EdgeSet.from_pairs(6, [pair]))
    assert h_equivalent(partition6, psi)


def test_flip_cycle_of_ncp_figure_is_nontrivial_reconstruction(no_critical_pair6):
    cycle = find_critical_cycles(no_critical_pair6)[0].edges
    psi = flip_reconstruction(no_critical_pair6, cycle)
    assert h_equivalent(no_critical_pair6, psi)
    assert psi != no_critical_pair6
    assert psi != no_critical_pair6.complement()


def test_flip_everything_is_complement():
    phi = Coloring.from_ones(5, [(0, 1), (2, 4)])
    assert flip_reconstruction(phi, EdgeSet.full(5)) == phi.complement()


def test_flip_rejects_empty():
    with pytest.raises(DegenerateInputError):
        flip_reconstruction(Coloring.zero(4), EdgeSet.empty(4))


# ---------------------------------------------------------------------------
# witness serialization


def test_witness_json_forms(two_cycles):
    assert pair_witness_json((3, 1)) == {
        "kind": "critical_pair",
        "vertices": [1, 3],
        "orientation": None,
    }
    w = find_critical_cycles(two_cycles)[0]
    assert witness_json(w) == {
        "kind": "critical_cycle",
        "vertices": [0, 1, 2, 3],
        "orientation": "primary",
    }
