"""Core coloring machinery: indexing, sums, restriction, homogeneity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homrec import kernels
from homrec.coloring import (
    Coloring,
    EdgeSet,
    TripleKind,
    boolean_sum,
    h_equivalent,
    hom_sets,
    hom_signature,
    iter_subsets_colex,
    pair_count,
    pair_index,
    restrict,
)
from homrec.errors import (
    DimensionMismatchError,
    InvalidPairError,
    InvalidSubsetError,
    TooSmallError,
)
from homrec.fixtures import fig_critical_cycle, fig_no_critical_pair, fig_homsum_pair
from homrec.srcheck import alpha_coloring


def colorings(n: int):
    return st.integers(0, (1 << pair_count(n)) - 1).map(lambda b: Coloring(n, b))


# ---------------------------------------------------------------------------
# pair indexing


def test_pair_index_known_values():
    assert pair_index(0, 1) == 0
    assert pair_index(0, 2) == 1
    assert pair_index(3, 5) == 13


def test_pair_index_bijective_for_n6():
    idx = [pair_index(x, y, 6) for y in range(6) for x in range(y)]
    assert idx == list(range(15))


def test_pair_index_rejects_bad_pairs():
    with pytest.raises(InvalidPairError):
        pair_index(2, 2)
    with pytest.raises(InvalidPairError):
        pair_index(3, 1)
    with pytest.raises(InvalidPairError):
        pair_index(0, 6, n=6)


def test_subsets_colex_is_numeric_order():
    masks = list(iter_subsets_colex(5, 3))
    assert masks == sorted(masks)
    assert len(masks) == 10
    assert masks[0] == 0b111


# ---------------------------------------------------------------------------
# coloring construction and sums


def test_coloring_validates_size():
    with pytest.raises(TooSmallError):
        Coloring(1, 0)
    with pytest.raises(ValueError):
        Coloring(3, 1 << 3)
    with pytest.raises(ValueError):
        Coloring(3, -1)
    with pytest.raises(ValueError):
        EdgeSet(3, 1 << 3)
    # the bound is checked on the bit length, never by building 2^pairs
    assert Coloring(10**9, 1).n == EdgeSet(10**9, 1).n == 10**9


def test_boolean_sum_self_is_zero():
    phi = Coloring.from_ones(4, [(0, 1), (2, 3)])
    assert boolean_sum(phi, phi) == Coloring.zero(4)


def test_boolean_sum_with_complement_is_all_one():
    phi = Coloring.from_ones(4, [(0, 1), (1, 3)])
    assert boolean_sum(phi, phi.complement()) == Coloring.all_one(4)


def test_boolean_sum_of_homsum_pair_matches_drawing():
    phi, psi = fig_homsum_pair()
    expected = {(0, 4), (3, 4), (0, 3), (2, 3), (1, 4)}
    assert set(boolean_sum(phi, psi).ones()) == expected


def test_boolean_sum_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        boolean_sum(Coloring.zero(4), Coloring.zero(5))


@given(colorings(5))
def test_complement_involution(phi):
    assert phi.complement().complement() == phi


# ---------------------------------------------------------------------------
# restriction


def test_restrict_full_set_is_identity():
    phi = Coloring.from_ones(5, [(0, 1), (2, 4)])
    assert restrict(phi, range(5)) == phi


def test_restrict_alpha_prefix_consistency():
    assert restrict(alpha_coloring(8), range(6)) == alpha_coloring(6)


def test_restrict_critical_cycle_to_quad():
    phi = fig_critical_cycle()
    sub = restrict(phi, [0, 1, 2, 3])
    assert set(sub.ones()) == {(0, 1), (1, 3), (2, 3)}


def test_restrict_rejects_bad_subsets():
    phi = Coloring.zero(5)
    with pytest.raises(TooSmallError):
        restrict(phi, [2])
    with pytest.raises(InvalidSubsetError):
        restrict(phi, [1, 1, 3])
    with pytest.raises(InvalidSubsetError):
        restrict(phi, [3, 1])
    with pytest.raises(InvalidSubsetError):
        restrict(phi, [0, 7])


# ---------------------------------------------------------------------------
# homogeneous signatures


def test_hom_signature_all_one():
    sig = hom_signature(Coloring.all_one(4))
    assert all(TripleKind(k) is TripleKind.HOM1 for k in sig.kinds)
    assert sig.kind(0, 1, 2) is TripleKind.HOM1
    assert len(sig.hom_triples()) == 4


def test_hom_signature_homsum_phi():
    phi, _ = fig_homsum_pair()
    sig = hom_signature(phi)
    assert sig.kind(0, 1, 2) is TripleKind.HOM1
    assert sig.kind(0, 3, 4) is TripleKind.HOM0
    assert len(sig.hom_triples()) == 2


def test_hom_signature_partition_parity(partition6):
    sig = hom_signature(partition6)
    assert sig.kind(0, 2, 4) is TripleKind.HOM1
    assert sig.kind(1, 3, 5) is TripleKind.HOM1
    assert len(sig.hom_triples()) == 2
    assert sig.kind(0, 1, 2) is TripleKind.NON_HOM


def test_hom_signature_too_small():
    with pytest.raises(TooSmallError):
        hom_signature(Coloring.zero(2))


@given(colorings(5))
def test_complement_swaps_signature_colors(phi):
    assert hom_signature(phi.complement()) == hom_signature(phi).color_swapped()


@given(colorings(6), st.sets(st.integers(0, 5), min_size=3, max_size=6))
@settings(max_examples=60)
def test_restrict_commutes_with_signature(phi, verts):
    vs = sorted(verts)
    sub_sig = hom_signature(restrict(phi, vs))
    full_sig = hom_signature(phi)
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            for k in range(j + 1, len(vs)):
                assert sub_sig.kind(i, j, k) == full_sig.kind(vs[i], vs[j], vs[k])


# ---------------------------------------------------------------------------
# maximal homogeneous sets


def test_hom_sets_all_zero():
    sets = hom_sets(Coloring.zero(5))
    assert [(h.vertices, h.color) for h in sets] == [((0, 1, 2, 3, 4), 0)]


def test_hom_sets_partition(partition6):
    sets = hom_sets(partition6)
    assert [(h.vertices, h.color) for h in sets] == [
        ((0, 2, 4), 1),
        ((1, 3, 5), 1),
    ]


def test_hom_sets_no_critical_pair_figure():
    found = {(h.vertices, h.color) for h in hom_sets(fig_no_critical_pair(6))}
    assert ((0, 4, 5), 1) in found
    assert ((2, 4, 5), 1) in found


def test_hom_sets_min_size_validation():
    with pytest.raises(TooSmallError):
        hom_sets(Coloring.zero(5), min_size=2)


# ---------------------------------------------------------------------------
# H-equivalence


@given(colorings(6))
def test_complement_is_h_equivalent(phi):
    assert h_equivalent(phi, phi.complement())


def test_homsum_pair_is_h_equivalent(homsum_pair):
    assert h_equivalent(*homsum_pair)


def test_single_edge_breaks_h_equivalence():
    assert not h_equivalent(Coloring.zero(4), Coloring.from_ones(4, [(0, 1)]))


def test_h_equivalent_validations():
    with pytest.raises(DimensionMismatchError):
        h_equivalent(Coloring.zero(4), Coloring.zero(5))
    with pytest.raises(TooSmallError):
        h_equivalent(Coloring.zero(2), Coloring.zero(2))


def test_sum_preserves_shared_homogeneous_triples_exhaustive_n4():
    # triples homogeneous for both colorings stay homogeneous for the sum;
    # H-equivalence holds exactly when the sum absorbs both hom families
    table = kernels.hom_projection_table(4)
    masks = kernels.all_masks(4)
    for phi in range(1 << 6):
        sums = table[np.bitwise_xor(masks, np.uint64(phi))]
        both = table[phi] & table
        assert not np.any(both & ~sums)
        equiv = table == table[phi]
        either = table[phi] | table
        assert np.array_equal(equiv, (either & ~sums) == 0)


def test_sum_preserves_shared_homogeneous_triples_exhaustive_n5():
    table = kernels.hom_projection_table(5)
    masks = kernels.all_masks(5)
    for phi in range(1 << 10):
        sums = table[np.bitwise_xor(masks, np.uint64(phi))]
        assert not np.any((table[phi] & table) & ~sums)
        equiv = table == table[phi]
        assert np.array_equal(equiv, ((table[phi] | table) & ~sums) == 0)


# ---------------------------------------------------------------------------
# serialization


def test_serialization_known_forms():
    phi = Coloring.from_ones(4, [(0, 1), (2, 3)])
    assert phi.to_json() == {"n": 4, "ones": [[0, 1], [2, 3]]}
    hexform = phi.to_json("hex")
    assert set(hexform) == {"n", "bits_hex"}
    assert Coloring.from_json(hexform) == phi


@given(colorings(7))
def test_serialization_round_trip(phi):
    assert Coloring.from_json(phi.to_json()) == phi
    assert Coloring.from_json(phi.to_json("hex")) == phi


def test_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        Coloring.from_json({"n": 4})
    with pytest.raises(ValueError):
        Coloring.from_json([1, 2])
    for n in (4.7, "7", True, None):
        with pytest.raises(ValueError):
            Coloring.from_json({"n": n, "ones": []})


def test_edge_set_members_round_trip():
    es = EdgeSet.from_pairs(5, [(3, 1), (0, 4)])
    assert es.members() == [(1, 3), (0, 4)]
    assert (1, 3) in es and (3, 1) in es and (0, 1) not in es
    assert len(es) == 2
    assert es.within([0, 1, 4]).members() == [(0, 4)]
