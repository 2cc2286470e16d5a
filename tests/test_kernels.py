"""Agreement of the bit-sliced batch kernels with the scalar references."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from homrec import kernels
from homrec.coloring import Coloring, EdgeSet, hom_signature, pair_count, restrict
from homrec.critical import find_critical_pairs
from homrec.reconstruct import is_valid_difference
from homrec.structure import find_claw


def _verdicts(verdict: int, size: int) -> list[bool]:
    return [bool(verdict >> j & 1) for j in range(size)]


def _masks(n: int, min_size: int = 0):
    return st.lists(st.integers(0, (1 << pair_count(n)) - 1), min_size=min_size, max_size=30)


@given(st.integers(3, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << pair_count(n)) - 1))
))
@settings(max_examples=120)
def test_hom_projection_mask_matches_signature(case):
    n, bits = case
    mask = kernels.hom_projection_mask(n, bits)
    proj = hom_signature(Coloring(n, bits)).projection()
    assert [(mask >> t) & 1 for t in range(len(proj))] == list(proj)


@given(st.integers(4, 7).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << pair_count(n)) - 1), _masks(n, 1))
))
@settings(max_examples=60)
def test_valid_for_phi_matches_scalar(case):
    """One coloring, as its constant columns, against a batch of D."""
    n, phi_bits, d_masks = case
    phi = Coloring(n, phi_bits)
    full = (1 << len(d_masks)) - 1
    phi_cols = kernels.constant_columns(n, phi_bits, full)
    fast = kernels.valid_for_phi(n, phi_cols, kernels.columns_of(n, d_masks))
    slow = [is_valid_difference(phi, EdgeSet(n, d)) for d in d_masks]
    assert _verdicts(fast, len(d_masks)) == slow


@given(st.integers(4, 9).flatmap(lambda n: st.tuples(st.just(n), _masks(n), _masks(n))))
@settings(max_examples=60)
def test_valid_for_phi_on_paired_columns(case):
    """A batch of (phi, D) entries, each with its own coloring."""
    n, phis, ds = case
    size = min(len(phis), len(ds))
    phis, ds = phis[:size], ds[:size]
    fast = kernels.valid_for_phi(n, kernels.columns_of(n, phis), kernels.columns_of(n, ds))
    slow = [is_valid_difference(Coloring(n, p), EdgeSet(n, d)) for p, d in zip(phis, ds)]
    assert _verdicts(fast, size) == slow


@given(st.integers(3, 9).flatmap(lambda n: st.tuples(st.just(n), _masks(n))))
@settings(max_examples=60)
def test_hom_projection_rows_match_mask(case):
    n, masks = case
    rows = kernels.hom_projection_rows(n, kernels.columns_of(n, masks))
    for j, bits in enumerate(masks):
        expected = kernels.hom_projection_mask(n, bits)
        assert sum((row >> j & 1) << t for t, row in enumerate(rows)) == expected


def test_hom_projection_table_matches_mask():
    for n in (3, 4, 5):
        table = kernels.hom_projection_table(n)
        for bits in range(1 << pair_count(n)):
            assert sum((row >> bits & 1) << t for t, row in enumerate(table)) == (
                kernels.hom_projection_mask(n, bits)
            )


def test_hom_projection_table_spot_values():
    table = kernels.hom_projection_table(5)
    assert len(table) == 10
    for row in table:
        assert row & 1  # all-zero: every triple homogeneous
        assert row >> ((1 << 10) - 1) == 1  # all-one likewise; no bit above it
    assert all(row >= 0 for row in table)


def _columns_by_bit(n: int, masks) -> tuple[int, ...]:
    """Column i of a batch built one bit at a time: bit j is bit i of
    ``masks[j]``."""
    return tuple(
        sum((m >> i & 1) << j for j, m in enumerate(masks)) for i in range(pair_count(n))
    )


def test_columns_of_round_trip():
    for n, masks in (
        (6, [0, 1, (1 << 15) - 1, 0b101010101010101]),
        (4, [0b101101]),
        (9, [(1 << 36) - 1, 0, 1 << 35]),
        (5, []),
    ):
        columns = kernels.columns_of(n, masks)
        assert len(columns) == pair_count(n)
        back = [sum((col >> j & 1) << i for i, col in enumerate(columns)) for j in range(len(masks))]
        assert back == masks
        assert all(col >> len(masks) == 0 for col in columns)
    # every n = 3..9, so that P (3 to 36 pairs) crosses the byte edges at
    # 8, 16, 24 and 32
    rng = random.Random(87)
    for n in range(3, 10):
        p = pair_count(n)
        top = 1 << p - 1
        for masks in (
            [],
            [rng.getrandbits(p)],
            [top, top | 1, (1 << p) - 1, 0, top],
            [rng.getrandbits(p) for _ in range(2000)],
        ):
            assert kernels.columns_of(n, masks) == _columns_by_bit(n, masks), (n, len(masks))


def test_index_columns_enumerate_every_mask():
    for k in range(11):
        columns = kernels.index_columns(k)
        assert len(columns) == k
        for u in range(1 << k):
            assert [col >> u & 1 for col in columns] == [u >> i & 1 for i in range(k)]
        assert all(col >> (1 << k) == 0 for col in columns)
    assert kernels.all_masks(5) == kernels.index_columns(10)


def test_claw_table_matches_scalar_search():
    """Every edge set on five vertices."""
    clawed = kernels.has_claw_mask(5, kernels.all_masks(5))
    for mask in range(1 << 10):
        assert bool(clawed >> mask & 1) == (find_claw(EdgeSet(5, mask)) is not None), mask


@given(st.integers(3, 8).flatmap(lambda n: st.tuples(
    st.just(n), _masks(n), st.sets(st.integers(0, n - 1), min_size=3, max_size=n)
)))
@settings(max_examples=60)
def test_critical_rows_match_the_scalar_scan(case):
    """Criticality on the restriction to a vertex set, and on all of them."""
    n, masks, subset = case
    columns = kernels.columns_of(n, masks)
    for verts in (tuple(sorted(subset)), tuple(range(n))):
        rows = kernels.critical_rows(n, columns, verts)
        for j, bits in enumerate(masks):
            local = find_critical_pairs(restrict(Coloring(n, bits), verts))
            expected = {(verts[x], verts[y]) for x, y in local}
            assert {pair for pair, row in rows.items() if row >> j & 1} == expected


def test_kernels_on_an_empty_batch():
    """Past the end of a batch every column reads 0: the all-zero entry,
    a valid difference of the all-zero coloring with every triple
    homogeneous and no claw."""
    for n in (4, 6, 9):
        empty = kernels.columns_of(n, [])
        assert empty == (0,) * pair_count(n)
        assert kernels.valid_for_phi(n, empty, empty) == -1
        assert set(kernels.hom_projection_rows(n, empty)) == {-1}
        assert kernels.has_claw_mask(n, empty) == 0
