"""The alpha coloring, the E_i property, finite SR, and the 4-set/7-set
characterization of non-reconstructibility."""

import subprocess
import sys
from pathlib import Path

import pytest

import homrec

from homrec.coloring import Coloring, h_equivalent, restrict
from homrec.errors import (
    BudgetError,
    DegenerateInputError,
    InvalidSubsetError,
    PreconditionError,
    TooSmallError,
)
from homrec.fixtures import partition_coloring
from homrec.critical import flip_reconstruction
from homrec.srcheck import (
    alpha_coloring,
    e_property_witness,
    is_SR_finite,
    theorem63_condition_c,
    verify_alpha,
)


# ---------------------------------------------------------------------------
# alpha


def test_alpha_seed1_spine_alternates():
    phi = alpha_coloring(8, seed=1)
    assert phi.get(1, 2) == 0  # forced opposite to the seed
    assert [phi.get(0, k) for k in range(1, 6)] == [1, 1, 0, 1, 0]


def test_alpha_seeds_are_complementary():
    assert alpha_coloring(9, seed=1) == alpha_coloring(9, seed=0).complement()


def test_alpha_matches_reference_drawing():
    expected = Coloring.from_ones(
        6,
        [(1, 2), (0, 3), (1, 3), (2, 3), (1, 4), (2, 4), (0, 5), (1, 5), (2, 5), (4, 5)],
    )
    assert alpha_coloring(6) == expected


def test_alpha_restriction_consistency():
    big = alpha_coloring(20)
    for m in range(3, 21):
        assert restrict(big, range(m)) == alpha_coloring(m)


def test_alpha_validation():
    with pytest.raises(TooSmallError):
        alpha_coloring(2)
    with pytest.raises(PreconditionError):
        alpha_coloring(6, seed=2)


_CORRUPT_ALPHA = """
import homrec.srcheck as s
from homrec.coloring import Coloring, pair_index
from homrec.errors import ConsistencyError

assert False, "python -O strips this line"
s.Coloring = lambda n, bits: Coloring(n, bits ^ 1 << pair_index(2, 3))
try:
    s.alpha_coloring(6)
except ConsistencyError as exc:
    print("raised:", exc)
"""


def test_alpha_consistency_check_survives_optimize():
    # pair {2, 3} is corrupted as alpha_coloring builds the coloring; its
    # consistency check must still fire when python -O strips asserts
    env = {"PYTHONPATH": str(Path(homrec.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_ALPHA],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "raised: alpha rules disagree on pair (2, 3)\n"


def test_verify_alpha_passes():
    report = verify_alpha(20)
    assert report.ok and not report.failures
    assert report.checks > 1000
    assert report.lines()[0].startswith("PASS")


def test_verify_alpha_specific_families():
    # the rolling pair at n=6 and the cycle-free scan at n=8 are part of
    # the checked families; spot-check them directly
    from homrec.critical import find_critical_cycles, is_critical_pair

    assert is_critical_pair(alpha_coloring(6), (0, 5))
    assert find_critical_cycles(alpha_coloring(8)) == []


def test_verify_alpha_needs_enough_vertices():
    with pytest.raises(TooSmallError):
        verify_alpha(7)


# ---------------------------------------------------------------------------
# E_i witnesses


def test_e_property_all_one():
    z = e_property_witness(Coloring.all_one(6), (0, 1), 1)
    assert z == 2


def test_e_property_alpha_fails_both_colors():
    phi = alpha_coloring(20)
    assert e_property_witness(phi, (1, 2, 3), 0) is None
    assert e_property_witness(phi, (1, 2, 3), 1) is None


def test_e_property_partition(partition6):
    assert e_property_witness(partition6, (0, 2), 1) == 4


def test_e_property_full_set_has_no_witness():
    assert e_property_witness(Coloring.all_one(4), (0, 1, 2, 3), 1) is None


def test_e_property_validation():
    with pytest.raises(DegenerateInputError):
        e_property_witness(Coloring.zero(4), (), 0)
    with pytest.raises(InvalidSubsetError):
        e_property_witness(Coloring.zero(4), (0, 9), 0)


# ---------------------------------------------------------------------------
# finite SR


def test_sr_all_zero_holds():
    report = is_SR_finite(Coloring.zero(7), 5)
    assert report.holds and report.failing_F is None
    # every 4-set is itself reconstructible, so it is its own superset
    assert report.per_F[(0, 1, 2, 3)] == (0, 1, 2, 3)
    assert len(report.per_F) == 35


def test_sr_partition_fails_on_mixed_4sets():
    report = is_SR_finite(partition_coloring(8), 6)
    assert not report.holds
    assert report.failing_F == (0, 1, 2, 3)
    # only the two parity-pure 4-sets extend to a reconstructible
    # restriction: any mixed set keeps a cross critical pair in every
    # superset
    assert set(report.per_F) == {(0, 2, 4, 6), (1, 3, 5, 7)}


def test_sr_alpha10_fails_exactly_on_sets_containing_0():
    report = is_SR_finite(alpha_coloring(10), 7)
    assert not report.holds
    assert report.failing_F == (0, 1, 2, 3)
    # every superset of a 4-set containing 0 keeps the critical pair
    # {0, max}; all other 4-sets find a reconstructible restriction
    assert all(0 not in f for f in report.per_F)
    assert len(report.per_F) == 126
    assert report.per_F[(1, 2, 4, 6)] == (1, 2, 4, 6)  # an all-one restriction


def _has_finite_e_property(phi, color, up_to):
    from itertools import combinations

    return all(
        e_property_witness(phi, f, color) is not None
        for size in range(1, up_to + 1)
        for f in combinations(range(phi.n), size)
    )


def test_e_property_implies_finite_sr():
    # a coloring whose every small vertex set has a monochromatic
    # extension vertex is strongly reconstructible at that scale
    for phi, color in ((Coloring.all_one(7), 1), (Coloring.zero(7), 0)):
        assert _has_finite_e_property(phi, color, up_to=4)
        assert is_SR_finite(phi, 5).holds


def test_e_property_implication_on_alpha_and_partition():
    # contrapositive instances: both fail the E property and fail SR
    for phi in (partition_coloring(8), alpha_coloring(8)):
        assert not _has_finite_e_property(phi, 0, up_to=4)
        assert not _has_finite_e_property(phi, 1, up_to=4)
        assert not is_SR_finite(phi, 6).holds


def test_sr_validation():
    with pytest.raises(TooSmallError):
        is_SR_finite(Coloring.zero(3), 5)
    with pytest.raises(BudgetError):
        is_SR_finite(Coloring.zero(7), 8)
    with pytest.raises(PreconditionError):
        is_SR_finite(Coloring.zero(7), 3)


# ---------------------------------------------------------------------------
# the 4-set/7-set characterization


def test_theorem63_partition_witness():
    w = theorem63_condition_c(partition_coloring(8))
    assert w is not None
    assert w.F == (0, 1, 2, 3)
    assert w.D.members() == [(0, 1)]
    assert w.checked_Gs == 4  # C(4, 3) extensions


def test_theorem63_alpha10_boundary_witness():
    # within the truncation nothing can kill the critical pair {0, 9}:
    # the vertex that would is outside the ground set, so a witness at
    # the boundary legitimately survives
    w = theorem63_condition_c(alpha_coloring(10))
    assert w is not None
    assert w.F == (0, 1, 2, 9)
    assert w.D.members() == [(0, 9)]


def test_theorem63_all_zero_has_no_witness():
    assert theorem63_condition_c(Coloring.zero(8)) is None


def test_theorem63_witness_flips_to_reconstruction():
    for phi in (partition_coloring(8), alpha_coloring(9), alpha_coloring(10)):
        w = theorem63_condition_c(phi)
        if w is None:
            continue
        psi = flip_reconstruction(phi, w.D)
        assert h_equivalent(phi, psi)
        assert psi != phi and psi != phi.complement()


def test_theorem63_needs_seven_vertices():
    with pytest.raises(TooSmallError):
        theorem63_condition_c(Coloring.zero(6))
