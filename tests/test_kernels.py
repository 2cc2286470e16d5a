"""Agreement of the vectorized kernels with the scalar implementations."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from homrec import kernels
from homrec.coloring import Coloring, EdgeSet, hom_signature, pair_count
from homrec.reconstruct import is_valid_difference
from homrec.structure import find_claw


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
    lambda n: st.tuples(
        st.just(n),
        st.integers(0, (1 << pair_count(n)) - 1),
        st.lists(st.integers(0, (1 << pair_count(n)) - 1), min_size=1, max_size=20),
    )
))
@settings(max_examples=60)
def test_valid_for_phi_matches_scalar(case):
    n, phi_bits, d_masks = case
    phi = Coloring(n, phi_bits)
    fast = kernels.valid_for_phi(n, phi_bits, np.array(d_masks, dtype=np.uint64))
    slow = [is_valid_difference(phi, EdgeSet(n, d)) for d in d_masks]
    assert fast.tolist() == slow


@given(st.lists(st.integers(0, (1 << 15) - 1), min_size=1, max_size=30))
@settings(max_examples=40)
def test_local_valid_rows_matches_scalar(masks):
    n = 6
    phis = masks
    ds = list(reversed(masks))
    phi_rows = kernels.unpack_masks(n, phis)
    d_rows = kernels.unpack_masks(n, ds)
    fast = kernels.local_valid_rows(n, phi_rows, d_rows)
    slow = [
        is_valid_difference(Coloring(n, p), EdgeSet(n, d)) for p, d in zip(phis, ds)
    ]
    assert fast.tolist() == slow


def test_unpack_masks_round_trip():
    masks = [0, 1, (1 << 15) - 1, 0b101010101010101]
    rows = kernels.unpack_masks(6, masks)
    back = [int(sum(int(b) << i for i, b in enumerate(row))) for row in rows]
    assert back == masks


@given(st.integers(0, (1 << 10) - 1))
@settings(max_examples=200)
def test_claw_table_matches_scalar_search(mask):
    table_says = bool(kernels.has_claw_mask(5, np.array([mask], dtype=np.uint64))[0])
    scalar_says = find_claw(EdgeSet(5, mask)) is not None
    assert table_says == scalar_says


def test_hom_projection_table_spot_values():
    table = kernels.hom_projection_table(5)
    assert int(table[0]) == (1 << 10) - 1  # all-zero: every triple homogeneous
    assert int(table[(1 << 10) - 1]) == (1 << 10) - 1
