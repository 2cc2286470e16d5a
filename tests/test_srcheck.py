"""The alpha coloring, the E_i property, finite SR, and the 4-set/7-set
characterization of non-reconstructibility."""

import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import homrec
from homrec import reconstruct
from homrec.coloring import (
    Coloring,
    EdgeSet,
    h_equivalent,
    iter_subsets_colex,
    pair_count,
    pair_index,
    restrict,
)
from homrec.errors import (
    BudgetError,
    DegenerateInputError,
    InvalidSubsetError,
    PreconditionError,
    TooSmallError,
)
from homrec.fixtures import fig_two_cycles, partition_coloring, random_coloring
from homrec.critical import find_critical_cycles, flip_reconstruction
from homrec.reconstruct import is_valid_difference
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


def _alpha_reports(monkeypatch, family, nmax: int):
    """verify_alpha with ``family(n)`` as alpha(n): the report with its own
    scans, the report with a full scan at every n, and per n whether its
    own scan of check (a) took only the last vertex's quads."""
    original = homrec.srcheck.find_critical_cycles
    short = {}

    def recording(phi, *, last_only=False):
        short[phi.n] = last_only
        return original(phi, last_only=last_only)

    monkeypatch.setattr(homrec.srcheck, "alpha_coloring", lambda n, seed=0: family(n))
    monkeypatch.setattr(homrec.srcheck, "find_critical_cycles", recording)
    own = verify_alpha(nmax)
    monkeypatch.setattr(
        homrec.srcheck, "find_critical_cycles", lambda phi, *, last_only=False: original(phi)
    )
    return own, verify_alpha(nmax), short


def _cycle_failures(report) -> list[str]:
    return [msg for msg in report.failures if msg.startswith("(a)")]


# alpha(6) extended by vertex 6, joined in color 1 to 3 and 4 only, has the
# critical cycle 0-4-6-5; each later vertex z keeps it, seeing 0 and 6 in
# color 0 and 4 and 5 in color 1 (and the rest in color 0)
_PLANTED = Coloring(7, alpha_coloring(6).bits | 0b11000 << pair_count(6))
_KEEPER = 1 << 4 | 1 << 5


def _planted(n: int) -> Coloring:
    """alpha(n) up to n = 6, then _PLANTED and its extensions."""
    if n < 7:
        return alpha_coloring(n)
    rows = sum(_KEEPER << pair_count(z) for z in range(7, n))
    return Coloring(n, _PLANTED.bits | rows)


def test_verify_alpha_scans_only_the_new_quads_of_a_cycle_free_prefix(monkeypatch):
    own, full, short = _alpha_reports(monkeypatch, alpha_coloring, 20)
    assert own == full and own.ok
    assert short == {n: n > 5 for n in range(5, 21)}


def test_verify_alpha_rescans_in_full_after_a_critical_cycle(monkeypatch):
    assert [w.quad for w in find_critical_cycles(_planted(7))] == [(0, 4, 6, 5)]
    for n in range(8, 13):
        assert restrict(_planted(n), range(n - 1)) == _planted(n - 1)
    own, full, short = _alpha_reports(monkeypatch, _planted, 12)
    assert own == full
    # the cycle appears at n = 7, found among that truncation's new quads,
    # and persists while avoiding every later vertex
    assert _cycle_failures(own) == [
        f"(a) n={n}: unexpected critical cycle" for n in range(7, 13)
    ]
    assert short == {n: n in (6, 7) for n in range(5, 13)}


def test_verify_alpha_rescans_in_full_when_the_prefix_breaks(monkeypatch):
    def family(n: int) -> Coloring:
        # alpha(8) replaced by a coloring whose prefix is not alpha(7) and
        # whose critical cycle avoids vertex 7
        return _planted(8) if n == 8 else alpha_coloring(n)

    assert restrict(family(8), range(7)) != family(7)
    own, full, short = _alpha_reports(monkeypatch, family, 12)
    assert own == full
    assert _cycle_failures(own) == ["(a) n=8: unexpected critical cycle"]
    assert short == {n: n not in (5, 8, 9) for n in range(5, 13)}


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


def test_sr_takes_supersets_beyond_eight():
    # restrictions above 8 vertices are decided too; a smallest qualifying
    # superset never exceeds 7 here, so the search up to all of phi agrees
    for phi in (alpha_coloring(10), partition_coloring(9), partition_coloring(10)):
        big, small = is_SR_finite(phi, phi.n), is_SR_finite(phi, 7)
        assert big.max_g == phi.n
        assert (big.holds, big.failing_F, big.per_F) == (small.holds, small.failing_F, small.per_F)


def test_sr_refuses_a_restriction_of_unknown_membership(monkeypatch):
    # with the search's budget cut to 2 classes, alpha(8) reaches a
    # restriction with 3 classes and no critical pair or cycle: its
    # membership is unknown, which must not count as "not reconstructible"
    monkeypatch.setattr(reconstruct, "_MAX_CLASSES", 2)
    with pytest.raises(BudgetError, match=r"restriction to \(1, 2, 3, 4, 5\) has 3 pair classes"):
        is_SR_finite(alpha_coloring(8), 6)


def _has_finite_e_property(phi, color, up_to):
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
    assert is_SR_finite(Coloring.zero(9), 9).holds  # no ceiling on max_g
    with pytest.raises(PreconditionError):
        is_SR_finite(Coloring.zero(7), 3)


# ---------------------------------------------------------------------------
# the 4-set/7-set characterization


def test_theorem63_partition_witness():
    w = theorem63_condition_c(partition_coloring(8))
    assert w is not None
    assert w.F == (0, 1, 2, 3)
    assert w.D.members() == [(0, 1)]


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


# ---------------------------------------------------------------------------
# condition (c) against the literal 7-set extension loop


def _survives_every_7set(phi, f, pairs_in_f):
    """Reference: D is valid on the restriction to every 7-set G >= F."""
    rest = [v for v in range(phi.n) if v not in f]
    for extra in combinations(rest, 3):
        g = tuple(sorted(f + extra))
        at = {v: k for k, v in enumerate(g)}
        embedded = EdgeSet.from_pairs(7, [(at[x], at[y]) for x, y in pairs_in_f])
        if not is_valid_difference(restrict(phi, g), embedded):
            return False
    return True


def _flip_sets_inside(f):
    """The 62 non-empty proper D inside F, by size then colex, as
    (mask on phi|F, pairs of phi)."""
    for size in range(1, 6):
        for mask in iter_subsets_colex(6, size):
            yield mask, [
                (f[i], f[j])
                for i in range(4)
                for j in range(i + 1, 4)
                if (mask >> pair_index(i, j)) & 1
            ]


def _reference_condition_c(phi):
    """The 7-set extension loop that condition (c) states literally:
    first (F, D) with D valid on phi|F and on every 7-set containing F."""
    for f in combinations(range(phi.n), 4):
        phi_f = restrict(phi, f)
        for mask, pairs_in_f in _flip_sets_inside(f):
            if is_valid_difference(phi_f, EdgeSet(4, mask)) and _survives_every_7set(
                phi, f, pairs_in_f
            ):
                return f, EdgeSet.from_pairs(phi.n, pairs_in_f)
    return None


def _seeded_colorings(n, count, seed):
    rng = random.Random(seed)
    return [Coloring(n, rng.getrandbits(pair_count(n))) for _ in range(count)]


def test_seven_set_survival_is_global_validity():
    # the lemma: for n >= 7, D inside F survives every 7-set extension of
    # F exactly when D is a valid difference of phi; n = 7 alone would
    # prove nothing, since phi is its only 7-set
    rng = random.Random(63)
    survivors = checked = 0
    for n in (8, 9, 10):
        phis = _seeded_colorings(n, 3, 630 + n) + [partition_coloring(n), alpha_coloring(n)]
        for phi in phis:
            for _ in range(3):
                f = tuple(sorted(rng.sample(range(n), 4)))
                phi_f = restrict(phi, f)
                for mask, pairs_in_f in _flip_sets_inside(f):
                    literal = is_valid_difference(
                        phi_f, EdgeSet(4, mask)
                    ) and _survives_every_7set(phi, f, pairs_in_f)
                    assert literal == is_valid_difference(
                        phi, EdgeSet.from_pairs(n, pairs_in_f)
                    ), (phi, f, pairs_in_f)
                    checked += 1
                    survivors += literal
    assert checked == 45 * 62
    assert survivors > 0


def test_condition_c_matches_the_seven_set_loop():
    inputs = [partition_coloring(8), alpha_coloring(9), alpha_coloring(10)]
    # a critical cycle, whose pairs each have a one-vertex B-set inside F
    inputs.append(fig_two_cycles())
    # {1, 2} and {0, 3} are critical, {0, 1} and {0, 2} are not: the colex
    # order of F's pairs picks D = {1, 2}, a lexicographic one {0, 3}
    inputs.append(Coloring(8, 0x87554D6))
    for n in (8, 9, 10):
        for k, density in enumerate((0.2, 0.5, 0.8)):
            inputs += [random_coloring(n, density, 1000 * n + 10 * k + i) for i in range(3)]
    found = 0
    for phi in inputs:
        w = theorem63_condition_c(phi)
        assert (w and (w.F, w.D)) == _reference_condition_c(phi), phi
        found += w is not None
    # the five fixed inputs have witnesses; so do some random inputs, not all
    assert 5 < found < len(inputs)
