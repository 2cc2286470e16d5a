"""Validity of flips, enumeration, membership, and the r function."""

import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homrec import kernels
from homrec.coloring import (
    Coloring,
    EdgeSet,
    difference,
    h_equivalent,
    iter_subsets_colex,
    pair_count,
)
from homrec.critical import find_critical_cycles, find_critical_pairs
from homrec.errors import (
    BudgetError,
    DimensionMismatchError,
    NotApplicableError,
    PreconditionError,
)
from homrec.fixtures import fig_critical_cycle
from homrec.reconstruct import (
    SearchMode,
    Verdict,
    component_restriction_valid,
    enumerate_reconstructions,
    in_R,
    is_valid_difference,
    minimal_reconstructions,
    r_value,
)
from homrec.srcheck import alpha_coloring
from homrec.structure import components


def colorings(n: int):
    return st.integers(0, (1 << pair_count(n)) - 1).map(lambda b: Coloring(n, b))


def edge_sets(n: int):
    return st.integers(0, (1 << pair_count(n)) - 1).map(lambda b: EdgeSet(n, b))


# ---------------------------------------------------------------------------
# validity


def test_empty_and_full_differences_are_valid():
    phi = Coloring.from_ones(5, [(0, 1), (2, 3)])
    assert is_valid_difference(phi, EdgeSet.empty(5))
    assert is_valid_difference(phi, EdgeSet.full(5))


def test_homsum_difference_is_valid(homsum_pair):
    phi, psi = homsum_pair
    diff = difference(phi, psi)
    # the triple {0,3,4} carries three difference edges and is unconstrained
    assert diff.within([0, 3, 4]).members() == [(0, 3), (0, 4), (3, 4)]
    assert is_valid_difference(phi, diff)


def test_validity_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        is_valid_difference(Coloring.zero(4), EdgeSet.empty(5))


@given(st.integers(4, 8).flatmap(lambda n: st.tuples(colorings(n), edge_sets(n))))
@settings(max_examples=150)
def test_local_criterion_agrees_with_signature_oracle(pair):
    phi, diff = pair
    psi = Coloring(phi.n, phi.bits ^ diff.mask)
    assert is_valid_difference(phi, diff) == h_equivalent(phi, psi)


@given(st.integers(4, 6).flatmap(lambda n: st.tuples(colorings(n), edge_sets(n))))
@settings(max_examples=100)
def test_validity_symmetries(pair):
    phi, diff = pair
    verdict = is_valid_difference(phi, diff)
    assert verdict == is_valid_difference(phi.complement(), diff)
    flipped = Coloring(phi.n, phi.bits ^ diff.mask)
    assert verdict == is_valid_difference(flipped, diff)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_all_zero_is_empty():
    assert list(enumerate_reconstructions(Coloring.zero(5))) == []


def test_enumerate_partition_size1(partition6):
    found = list(enumerate_reconstructions(partition6, max_size=1))
    assert len(found) == 9
    assert all(w.size() == 1 and not w.trivial for w in found)


def test_enumerate_ncp_figure_size4(no_critical_pair6):
    found = list(enumerate_reconstructions(no_critical_pair6, max_size=4))
    assert all(w.size() == 4 for w in found)  # nothing smaller exists
    cycles = {frozenset(w.difference.members()) for w in found}
    assert frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}) in cycles


def test_enumeration_order_is_size_then_colex(partition6):
    masks = [w.difference.mask for w in enumerate_reconstructions(partition6, max_size=5)]
    keyed = [(m.bit_count(), m) for m in masks]
    assert keyed == sorted(keyed)


# ---------------------------------------------------------------------------
# membership


def test_all_zero_is_reconstructible():
    member = in_R(Coloring.zero(5))
    assert member.verdict is Verdict.IN_R and member.witness is None


def test_alpha_truncations_are_not_reconstructible():
    for n in range(5, 13):
        member = in_R(alpha_coloring(n))
        assert member.verdict is Verdict.NOT_IN_R
        assert not member.witness.trivial


def test_homsum_not_in_R_with_small_witness(homsum_pair):
    member = in_R(homsum_pair[0])
    assert member.verdict is Verdict.NOT_IN_R
    assert member.witness.size() <= 5


def test_in_R_large_n_without_structure_is_unknown():
    assert in_R(Coloring.zero(9)).verdict is Verdict.UNKNOWN


# ---------------------------------------------------------------------------
# r values


def test_r_partition(partition6):
    report = r_value(partition6)
    assert report.r == 1 and len(report.witnesses) == 9 and report.complete
    assert report.status == "value"


def test_r_ncp_figure(no_critical_pair6):
    report = r_value(no_critical_pair6)
    assert report.r == 4
    assert [w.difference.members() for w in report.witnesses] == [
        [(0, 1), (1, 2), (0, 3), (2, 3)]
    ]


def test_r_critical_cycle_figure(critical_cycle_coloring):
    report = r_value(critical_cycle_coloring)
    assert report.r == 1
    assert [w.difference.members() for w in report.witnesses] == [[(4, 5)]]


def test_r_not_applicable_for_reconstructible():
    report = r_value(Coloring.zero(5))
    assert report.r is None and report.complete and report.status == "not_applicable"


def test_r_structural_modes(partition6, no_critical_pair6):
    rep = r_value(partition6, SearchMode.STRUCTURAL_ONLY)
    assert rep.r == 1 and rep.complete and len(rep.witnesses) == 9
    rep = r_value(no_critical_pair6, SearchMode.STRUCTURAL_ONLY)
    assert rep.r == 4 and not rep.complete
    rep = r_value(Coloring.zero(6), SearchMode.STRUCTURAL_ONLY)
    assert rep.r is None and not rep.complete and rep.status == "unknown"


def test_r_exhaustive_refuses_large_n():
    with pytest.raises(BudgetError):
        r_value(Coloring.zero(9))
    with pytest.raises(BudgetError):
        list(enumerate_reconstructions(Coloring.zero(9), max_size=1))
    report = r_value(Coloring.zero(8))  # n = 8 is within the exhaustive ceiling
    assert report.r is None and report.complete


def test_r_report_json(partition6):
    payload = r_value(partition6).to_json()
    assert payload["r"] == 1 and payload["complete"] is True
    assert payload["mode"] == "exhaustive"
    assert [[0, 1]] in payload["witnesses"]


def test_minimal_reconstructions(partition6, critical_cycle_coloring):
    assert [w.difference.members() for w in minimal_reconstructions(partition6)] == [
        [(x, y)] for (x, y) in
        [(0, 1), (1, 2), (0, 3), (2, 3), (1, 4), (3, 4), (0, 5), (2, 5), (4, 5)]
    ]
    assert len(minimal_reconstructions(critical_cycle_coloring)) == 1
    with pytest.raises(NotApplicableError):
        minimal_reconstructions(Coloring.zero(5))


# ---------------------------------------------------------------------------
# component restrictions


def test_component_restriction_on_two_component_difference():
    phi = fig_critical_cycle()
    diff = EdgeSet.from_pairs(6, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)])
    assert is_valid_difference(phi, diff)
    for comp in components(diff):
        assert component_restriction_valid(phi, diff, comp)


def test_component_restriction_validations(partition6):
    diff = EdgeSet.from_pairs(6, [(0, 1)])
    foreign = components(EdgeSet.from_pairs(6, [(2, 3)]))[0]
    with pytest.raises(PreconditionError):
        component_restriction_valid(partition6, diff, foreign)
    invalid = EdgeSet.from_pairs(6, [(0, 2)])
    comp = components(invalid)[0]
    with pytest.raises(PreconditionError):
        component_restriction_valid(partition6, invalid, comp)


@given(colorings(6))
@settings(max_examples=30)
def test_every_component_restriction_of_valid_difference_is_valid(phi):
    for w in enumerate_reconstructions(phi, max_size=6):
        for comp in w.components:
            assert component_restriction_valid(phi, w.difference, comp)


@given(colorings(6))
@settings(max_examples=30)
def test_minimal_witnesses_are_connected(phi):
    member = in_R(phi)
    if member.verdict is Verdict.NOT_IN_R:
        for w in minimal_reconstructions(phi):
            assert len(w.components) == 1


# ---------------------------------------------------------------------------
# the pair-class search against a full valid_for_phi sweep


@lru_cache(maxsize=None)
def _space(n: int):
    """All masks in size-then-colex order (a stable sort by size keeps
    the numeric order within one size)."""
    return np.array(sorted(range(1 << pair_count(n)), key=int.bit_count), dtype=np.uint64)


def _check_against_sweep(phi: Coloring) -> None:
    ordered = _space(phi.n)
    full = (1 << pair_count(phi.n)) - 1
    valid = ordered[kernels.valid_for_phi(phi.n, phi.bits, ordered)].tolist()
    swept = [m for m in valid if m not in (0, full)]
    r = swept[0].bit_count() if swept else None

    report = r_value(phi)
    assert report.r == r and report.complete
    assert [w.difference.mask for w in report.witnesses] == [
        m for m in swept if m.bit_count() == r
    ]
    assert [w.difference.mask for w in enumerate_reconstructions(phi)] == swept

    pairs = find_critical_pairs(phi)
    cycles = find_critical_cycles(phi) if phi.n >= 5 else []
    if pairs:
        expected = (Verdict.NOT_IN_R, EdgeSet.from_pairs(phi.n, [pairs[0]]).mask)
    elif cycles:
        expected = (Verdict.NOT_IN_R, cycles[0].edges.mask)
    elif swept:
        expected = (Verdict.NOT_IN_R, swept[0])
    else:
        expected = (Verdict.IN_R, None)
    member = in_R(phi)
    assert (member.verdict, member.witness and member.witness.difference.mask) == expected


@pytest.mark.parametrize("n", [4, 5])
def test_search_matches_sweep_exhaustively(n):
    for bits in range(1 << pair_count(n)):
        _check_against_sweep(Coloring(n, bits))


@pytest.mark.parametrize("n, samples", [(6, 200), (7, 25)])
def test_search_matches_sweep_on_samples(n, samples):
    rng = random.Random(n)
    for _ in range(samples):
        _check_against_sweep(Coloring(n, rng.getrandbits(pair_count(n))))


def _two_k4() -> Coloring:
    blocks = ((0, 1, 2, 3), (4, 5, 6, 7))
    return Coloring.from_ones(8, [(x, y) for b in blocks for x in b for y in b if x < y])


@pytest.mark.parametrize(
    "phi",
    [_two_k4(), *(Coloring(8, random.Random(s).getrandbits(28)) for s in range(4))],
)
def test_search_at_n8(phi):
    report = r_value(phi)
    member = in_R(phi)
    assert report.complete
    assert (member.verdict is Verdict.IN_R) == (report.r is None)
    for w in report.witnesses:
        assert w.size() == report.r and not w.trivial
        assert is_valid_difference(phi, w.difference)
        assert h_equivalent(phi, Coloring(8, phi.bits ^ w.difference.mask))
    # brute force: nothing valid below r, exactly the witnesses at r (and
    # nothing up to size 3 when r does not exist)
    top = 3 if report.r is None else report.r
    for size in range(1, top + 1):
        masks = np.fromiter(iter_subsets_colex(28, size), dtype=np.uint64)
        hits = masks[kernels.valid_for_phi(8, phi.bits, masks)].tolist()
        if size < top or report.r is None:
            assert hits == []
        else:
            assert hits == [w.difference.mask for w in report.witnesses]
