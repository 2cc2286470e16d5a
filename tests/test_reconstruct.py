"""Validity of flips, enumeration, membership, and the r function."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homrec import kernels, reconstruct
from homrec.coloring import (
    Coloring,
    EdgeSet,
    bits_of,
    difference,
    h_equivalent,
    iter_subsets_colex,
    pair_count,
    pair_index,
)
from homrec.critical import find_critical_cycles, find_critical_pairs
from homrec.errors import (
    BudgetError,
    DimensionMismatchError,
    NotApplicableError,
    PreconditionError,
)
from homrec.fixtures import (
    fig_critical_cycle,
    fig_two_cycles,
    partition_coloring,
    random_coloring,
)
from homrec.reconstruct import (
    RMembership,
    Verdict,
    _reconstruction_masks,
    _search_space,
    analyze,
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
    assert all(len(w) == 1 for w in found)


def test_enumerate_ncp_figure_size4(no_critical_pair6):
    found = list(enumerate_reconstructions(no_critical_pair6, max_size=4))
    assert all(len(w) == 4 for w in found)  # nothing smaller exists
    cycles = {frozenset(w.members()) for w in found}
    assert frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}) in cycles


def test_enumeration_order_is_size_then_colex(partition6):
    masks = [w.mask for w in enumerate_reconstructions(partition6, max_size=5)]
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
        assert 0 < len(member.witness) < pair_count(n)


def test_homsum_not_in_R_with_small_witness(homsum_pair):
    member = in_R(homsum_pair[0])
    assert member.verdict is Verdict.NOT_IN_R
    assert len(member.witness) <= 5


def test_in_R_large_n_without_structure_is_unknown():
    # 20 pair classes, more than the search takes, and no critical pair or cycle
    phi = Coloring(12, 0x1572EAAB75DCAAD43)
    assert len(_search_space(phi)[0]) == 20
    assert not find_critical_pairs(phi) and not find_critical_cycles(phi)
    assert in_R(phi) == RMembership(Verdict.UNKNOWN, None)


def test_membership_witness_is_the_first_minimal_witness():
    # fig-two-cycles relabelled by 0,1,2,7,3,4,5,6: no critical pair, and
    # the first critical cycle scanned is not the colex-first witness
    phi = Coloring(8, 0x5D2AB51)
    facts, membership, report = analyze(phi)
    assert not facts.pairs and facts.cycles[0].quad == (0, 1, 2, 7)
    assert membership == RMembership(Verdict.NOT_IN_R, report.witnesses[0])
    assert report.witnesses[0].members() == [(3, 4), (4, 5), (3, 6), (5, 6)]
    assert in_R(phi) == membership


@pytest.mark.parametrize(
    "phi, scans",
    [
        (random_coloring(30, 0.5, 11), 0),  # the search decides
        (partition_coloring(12), 0),  # a critical pair decides
        (Coloring(12, 0x3D2E359AE5EB2D69C), 1),  # 19 classes, one cycle: r = 4
        (Coloring(12, 0x1572EAAB75DCAAD43), 1),  # 20 classes, no cycle: unknown
    ],
)
def test_cycles_are_scanned_only_past_the_search(monkeypatch, phi, scans):
    calls = []

    def counted(phi):
        calls.append(phi)
        return find_critical_cycles(phi)

    monkeypatch.setattr(reconstruct, "find_critical_cycles", counted)
    for decide in (in_R, r_value):
        calls.clear()
        decide(phi)
        assert len(calls) == scans, decide.__name__
    calls.clear()
    analyze(phi)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# r values


def test_r_partition(partition6):
    report = r_value(partition6)
    assert report.r == 1 and len(report.witnesses) == 9 and report.complete
    assert report.status == "value"


def test_r_ncp_figure(no_critical_pair6):
    report = r_value(no_critical_pair6)
    assert report.r == 4
    assert [w.members() for w in report.witnesses] == [
        [(0, 1), (1, 2), (0, 3), (2, 3)]
    ]


def test_r_critical_cycle_figure(critical_cycle_coloring):
    report = r_value(critical_cycle_coloring)
    assert report.r == 1
    assert [w.members() for w in report.witnesses] == [[(4, 5)]]


def test_r_not_applicable_for_reconstructible():
    report = r_value(Coloring.zero(5))
    assert report.r is None and report.complete and report.status == "not_applicable"


def test_r_structural_modes(partition6, no_critical_pair6):
    """r = 1 from the critical pairs, else from the search where the pair
    classes fit; only past them from the critical cycles (r = 4,
    incomplete), or unknown.  r_value never raises past the search."""
    rep = r_value(partition6)
    assert rep.r == 1 and rep.complete and len(rep.witnesses) == 9
    rep = r_value(no_critical_pair6)
    assert rep.r == 4 and rep.complete
    assert list(rep.witnesses) == minimal_reconstructions(no_critical_pair6)
    rep = r_value(Coloring.zero(6))
    assert rep.r is None and rep.complete and rep.status == "not_applicable"
    # 19 pair classes, one critical cycle and no critical pair
    phi = Coloring(12, 0x3D2E359AE5EB2D69C)
    assert len(_search_space(phi)[0]) == 19
    rep = r_value(phi)
    assert rep.r == 4 and not rep.complete and len(rep.witnesses) == 1
    # 20 pair classes, no critical pair or cycle
    rep = r_value(Coloring(12, 0x1572EAAB75DCAAD43))
    assert rep.r is None and not rep.complete and rep.status == "unknown"


def test_structural_r_without_scan_witness_reads_the_search():
    # no critical pair or cycle: the search finds r = 7
    phi = Coloring(6, 0x195B)
    facts, membership, report = analyze(phi)
    assert not facts.pairs and not facts.cycles
    assert membership.verdict is Verdict.NOT_IN_R
    assert report.r == 7 and report.complete and len(report.witnesses) == 2
    assert report == r_value(phi)


def test_r_exhaustive_refuses_large_n():
    """Past the search's reach only the exhaustive listings refuse; r_value
    reads r = 1 from the critical pairs."""
    phi = partition_coloring(9)  # 22 pair classes
    with pytest.raises(BudgetError, match="22 pair classes at n=9, more than 18"):
        minimal_reconstructions(phi)
    with pytest.raises(BudgetError, match="22 pair classes"):
        list(enumerate_reconstructions(phi, max_size=1))
    report = r_value(phi)
    assert report.r == 1 and report.complete
    assert [w.members() for w in report.witnesses] == [
        [p] for p in find_critical_pairs(phi)
    ]
    # one pair class: the search runs above n = 8
    report = r_value(Coloring.zero(9))
    assert report.r is None and report.complete
    assert in_R(Coloring.zero(9)) == RMembership(Verdict.IN_R, None)
    with pytest.raises(NotApplicableError):
        minimal_reconstructions(Coloring.zero(9))


def test_r_report_json(partition6):
    payload = r_value(partition6).to_json()
    assert payload["r"] == 1 and payload["complete"] is True
    assert "mode" not in payload  # the CLI labels its reports, not r_value
    assert [[0, 1]] in payload["witnesses"]


def test_minimal_reconstructions(partition6, critical_cycle_coloring):
    assert [w.members() for w in minimal_reconstructions(partition6)] == [
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
        for comp in components(w):
            assert component_restriction_valid(phi, w, comp)


@given(colorings(6))
@settings(max_examples=30)
def test_minimal_witnesses_are_connected(phi):
    member = in_R(phi)
    if member.verdict is Verdict.NOT_IN_R:
        for w in minimal_reconstructions(phi):
            assert len(components(w)) == 1


# ---------------------------------------------------------------------------
# the pair-class search against a full valid_for_phi sweep


def _valid_among(phi: Coloring, masks: list[int]) -> list[int]:
    """The masks that ``kernels.valid_for_phi`` passes, in their order."""
    full = (1 << len(masks)) - 1
    phi_cols = kernels.constant_columns(phi.n, phi.bits, full)
    ok = kernels.valid_for_phi(phi.n, phi_cols, kernels.columns_of(phi.n, masks)) & full
    return [masks[j] for j in bits_of(ok)]


def _check_against_sweep(phi: Coloring) -> None:
    p = pair_count(phi.n)
    batch = (1 << (1 << p)) - 1  # entry D is the mask D
    phi_cols = kernels.constant_columns(phi.n, phi.bits, batch)
    ok = kernels.valid_for_phi(phi.n, phi_cols, kernels.all_masks(phi.n)) & batch
    full = (1 << p) - 1
    # size-then-colex order; colex is numeric order within one size
    swept = sorted((m for m in bits_of(ok) if m not in (0, full)), key=lambda m: (m.bit_count(), m))
    r = swept[0].bit_count() if swept else None

    report = r_value(phi)
    assert report.r == r and report.complete
    assert [w.mask for w in report.witnesses] == [m for m in swept if m.bit_count() == r]
    assert [w.mask for w in enumerate_reconstructions(phi)] == swept

    # membership is read off the report: its witness is the first minimal one
    expected = (Verdict.NOT_IN_R, swept[0]) if swept else (Verdict.IN_R, None)
    member = in_R(phi)
    assert (member.verdict, member.witness and member.witness.mask) == expected


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
        assert 0 < len(w) == report.r < 28
        assert is_valid_difference(phi, w)
        assert h_equivalent(phi, Coloring(8, phi.bits ^ w.mask))
    # brute force: nothing valid below r, exactly the witnesses at r (and
    # nothing up to size 3 when r does not exist)
    top = 3 if report.r is None else report.r
    for size in range(1, top + 1):
        hits = _valid_among(phi, list(iter_subsets_colex(28, size)))
        if size < top or report.r is None:
            assert hits == []
        else:
            assert hits == [w.mask for w in report.witnesses]


# ---------------------------------------------------------------------------
# the bit-sliced search against the retired class-union expansion


def _ref_pair_classes(phi: Coloring) -> list[int]:
    """The pair classes from a union-find of the test's own: per triple
    x < y < z whose three pairs share a color, merge the three pairs."""
    parent = list(range(pair_count(phi.n)))

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for x, y, z in combinations(range(phi.n), 3):
        a, b, c = pair_index(x, y), pair_index(x, z), pair_index(y, z)
        if phi.bits >> a & 1 == phi.bits >> b & 1 == phi.bits >> c & 1:
            parent[find(b)] = find(a)
            parent[find(c)] = find(a)
    classes: dict[int, int] = {}
    for i in range(len(parent)):
        classes[find(i)] = classes.get(find(i), 0) | 1 << i
    return list(classes.values())


def _expanded_masks(phi: Coloring) -> list[int]:
    """The search as it was: expand every union of pair classes into a
    pair mask and test them all with ``kernels.valid_for_phi``."""
    block = [0]
    for c in _ref_pair_classes(phi):
        block += [m | c for m in block]
    full = (1 << pair_count(phi.n)) - 1
    found = [m for m in _valid_among(phi, block) if m not in (0, full)]
    return sorted(found, key=lambda m: (m.bit_count(), m))


def test_bit_sliced_search_matches_expansion_at_n6():
    # phi and its complement carry the same constraints (checked below),
    # so the colorings with pair 0 colored 0 cover every n = 6 coloring
    for bits in range(0, 1 << pair_count(6), 2):
        phi = Coloring(6, bits)
        assert _reconstruction_masks(phi) == _expanded_masks(phi), hex(bits)


def test_pair_classes_match_the_reference_union_find():
    for n in (3, 4, 5):
        for bits in range(1 << pair_count(n)):
            phi = Coloring(n, bits)
            assert _search_space(phi)[0] == _ref_pair_classes(phi), (n, bits)
    for n in (6, 7, 8):
        rng = random.Random(90 + n)
        for _ in range(200):
            phi = Coloring(n, rng.getrandbits(pair_count(n)))
            assert _search_space(phi)[0] == _ref_pair_classes(phi), (n, phi.bits)


def _ref_constraints(phi: Coloring) -> set[tuple[int, int, int]]:
    """Per non-homogeneous triple, the classes of ``_ref_pair_classes``
    of its two pairs of one color (ascending), then of its odd pair."""
    of_pair = {}
    for c, members in enumerate(_ref_pair_classes(phi)):
        for i in bits_of(members):
            of_pair[i] = c
    constraints = set()
    for x, y, z in combinations(range(phi.n), 3):
        pairs = [pair_index(x, y), pair_index(x, z), pair_index(y, z)]
        ones = [i for i in pairs if phi.bits >> i & 1]
        zeros = [i for i in pairs if not phi.bits >> i & 1]
        if ones and zeros:
            (u, v), (w,) = (ones, zeros) if len(ones) == 2 else (zeros, ones)
            p, q = sorted((of_pair[u], of_pair[v]))
            constraints.add((p, q, of_pair[w]))
    return constraints


def test_constraints_match_the_reference_classes():
    for n in (3, 4, 5):
        for bits in range(1 << pair_count(n)):
            phi = Coloring(n, bits)
            assert _search_space(phi)[1] == _ref_constraints(phi), (n, bits)
    for n in (6, 7, 8):
        rng = random.Random(95 + n)
        for _ in range(200):
            phi = Coloring(n, rng.getrandbits(pair_count(n)))
            assert _search_space(phi)[1] == _ref_constraints(phi), (n, phi.bits)


def _eighteen_classes() -> Coloring:
    """An extension of an atlas 7-vertex graph with 18 pair classes."""
    return Coloring(8, 0xD4AC625)


@pytest.mark.parametrize(
    "phi",
    [
        partition_coloring(8),
        fig_two_cycles(),
        _eighteen_classes(),
        *(Coloring(7, random.Random(70 + s).getrandbits(21)) for s in range(40)),
        *(Coloring(8, random.Random(80 + s).getrandbits(28)) for s in range(40)),
    ],
)
def test_bit_sliced_search_matches_expansion(phi):
    assert _reconstruction_masks(phi) == _expanded_masks(phi)


def test_search_is_complement_symmetric():
    for n in (4, 5, 6, 7, 8):
        rng = random.Random(100 + n)
        for _ in range(50):
            phi = Coloring(n, rng.getrandbits(pair_count(n)))
            assert _reconstruction_masks(phi) == _reconstruction_masks(phi.complement())


def test_eighteen_classes_is_the_n8_maximum():
    """Every 8-vertex graph, up to isomorphism, extends one of the atlas's
    7-vertex graphs by an eighth vertex, so 1044 * 2^7 colorings cover n = 8."""
    import networkx as nx

    counts: dict[int, int] = {}
    for graph in nx.graph_atlas_g():
        if graph.number_of_nodes() != 7:
            continue
        base = sum(1 << pair_index(min(e), max(e)) for e in graph.edges())
        for joined in range(1 << 7):
            k = len(_search_space(Coloring(8, base | joined << pair_count(7)))[0])
            counts[k] = counts.get(k, 0) + 1
    assert sum(counts.values()) == 1044 << 7
    assert max(counts) == reconstruct._MAX_CLASSES == 18
    assert counts[18] == 28
    for phi in (partition_coloring(8), _eighteen_classes()):
        assert len(_search_space(phi)[0]) == 18


def test_search_refuses_more_classes_than_its_ceiling(monkeypatch):
    monkeypatch.setattr(reconstruct, "_MAX_CLASSES", 17)
    with pytest.raises(BudgetError, match="18 pair classes at n=8, more than 17"):
        _reconstruction_masks(partition_coloring(8))
    phi = partition_coloring(7)
    assert len(_search_space(phi)[0]) <= 17
    assert _reconstruction_masks(phi) == _expanded_masks(phi)


def _with_critical_square(phi: Coloring) -> Coloring:
    """phi with a critical cycle planted on (0, 1, 2, 3): the square of
    fig-no-critical-pair, and every other vertex joined to 0 and 2 in one
    color and to 1 and 3 in the other."""
    bits = phi.bits
    square = ((0, 1, 0), (1, 2, 1), (2, 3, 0), (0, 3, 1), (0, 2, 0), (1, 3, 1))
    joins = [(x, z, phi.get(0, z) ^ (x & 1)) for z in range(4, phi.n) for x in (1, 2, 3)]
    for x, y, color in square + tuple(joins):
        i = pair_index(x, y)
        bits = bits & ~(1 << i) | color << i
    return Coloring(phi.n, bits)


def test_search_beyond_n8_agrees_with_both_routes_and_the_scans():
    """Above n = 8 the search runs wherever the pair classes fit: each of
    its witnesses passes the local criterion and the signature route, its
    size-1 witnesses are the critical pairs, each critical cycle is a
    size-4 witness, and a cycle without a critical pair makes r = 4."""
    phis = []
    for n in range(9, 17):
        for density in (0.3, 0.5, 0.7):
            for seed in range(4):
                phi = random_coloring(n, density, seed)
                phis += [phi, _with_critical_square(phi)]
    searched = r4 = 0
    for phi in phis:
        space = _search_space(phi)
        if len(space[0]) > reconstruct._MAX_CLASSES:
            continue
        searched += 1
        masks = _reconstruction_masks(phi, space)
        for mask in masks:
            assert is_valid_difference(phi, EdgeSet(phi.n, mask)), (phi.n, hex(phi.bits))
            assert h_equivalent(phi, Coloring(phi.n, phi.bits ^ mask)), (phi.n, hex(phi.bits))
        pairs = find_critical_pairs(phi)
        singles = [m for m in masks if m.bit_count() == 1]
        assert singles == [EdgeSet.from_pairs(phi.n, [p]).mask for p in pairs]
        cycles = find_critical_cycles(phi)
        fours = {m for m in masks if m.bit_count() == 4}
        assert all(c.edges.mask in fours for c in cycles), (phi.n, hex(phi.bits))
        if cycles and not pairs:
            assert masks[0].bit_count() == 4
            r4 += 1
    assert searched >= 180 and r4 >= 80, (searched, r4)
