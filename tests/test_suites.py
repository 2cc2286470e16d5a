"""Verification suites: reduced-scale passes, thread determinism, the
counterexamples a failing suite reports, and parity and connectivity at
default scale."""

import json

import pytest

from homrec import kernels, suites
from homrec.coloring import Coloring, EdgeSet, pair_count, pair_index
from homrec.errors import ConsistencyError
from homrec.structure import (
    ParityReport,
    ParityViolation,
    _chordless_paths,
    check_parity_lemmas,
    check_parity_paths,
    components,
)
from homrec.suites import (
    SUITES,
    _sample_masks,
    _valid_masks_by_phi,
    run_suite,
    suite_claws,
    suite_oracle,
)

SMALL_SCALES = {
    "oracle": dict(samples=200),
    "claws": {},
    "parity": dict(max_m=6),
    "partition-theorem": dict(ms=(6, 8)),
    "r-sweep": dict(samples=60),
    "connectivity": dict(samples=60),
    "alpha": dict(nmax=10),
    "theorem63": dict(samples=5),
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes_at_small_scale(name):
    result = run_suite(name, **SMALL_SCALES[name])
    assert result.ok, result.failures
    assert result.cases > 0
    assert result.name == name


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("nope")


@pytest.mark.parametrize("name", ["oracle", "r-sweep", "connectivity", "theorem63"])
def test_suite_output_independent_of_threads(name, monkeypatch):
    payloads = []
    for threads in ("1", "2", "8"):
        monkeypatch.setenv("HOMREC_THREADS", threads)
        result = run_suite(name, **SMALL_SCALES[name])
        payloads.append(json.dumps(result.to_json(), sort_keys=True))
    assert payloads[0] == payloads[1] == payloads[2]


def test_suite_output_stable_across_runs(monkeypatch):
    monkeypatch.setenv("HOMREC_THREADS", "4")
    a = run_suite("r-sweep", samples=40)
    b = run_suite("r-sweep", samples=40)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


# ---------------------------------------------------------------------------
# failing runs: a local kernel with a few verdicts inverted


def _entries(columns, value: int) -> int:
    """The entries of a batch whose mask is ``value`` (non-zero)."""
    found = -1
    for i, column in enumerate(columns):
        found &= column if value >> i & 1 else ~column
    return found


def _invert_verdicts(monkeypatch, targets) -> None:
    """Invert ``kernels.valid_for_phi`` on the (n, phi, D) entries in
    ``targets``, wherever a batch puts them."""
    original = kernels.valid_for_phi

    def patched(n, phi, masks):
        verdict = original(n, phi, masks)
        for m, phi_bits, d in targets:
            if m == n:
                verdict ^= _entries(phi, phi_bits) & _entries(masks, d)
        return verdict

    monkeypatch.setattr(kernels, "valid_for_phi", patched)


def test_oracle_names_the_least_difference_of_the_first_coloring(monkeypatch):
    # for phi = 0x5 the least D (0x3) is the D of neither the least
    # phi ^ D (0x1, from D = 0x4) nor the greatest (0xd, from D = 0x8)
    targets = [(4, 0x9, 0x6), (4, 0x5, 0x6), (4, 0x5, 0x8), (4, 0x5, 0x4), (4, 0x5, 0x3)]
    _invert_verdicts(monkeypatch, targets)
    result = suite_oracle(n_exhaustive=4, random_ns=(), samples=0)
    assert not result.ok
    assert result.stats["mismatches"] == 5
    assert result.failures == ["n=4 phi=0x5 D=0x3", "n=4 phi=0x9 D=0x6"]


def test_oracle_names_the_first_disagreeing_sample(monkeypatch):
    phis, ds = _sample_masks(6, 20, 9), _sample_masks(6, 20, 10)
    assert len(set(zip(phis, ds))) == 20 and all(phis) and all(ds)
    _invert_verdicts(monkeypatch, [(6, phis[11], ds[11]), (6, phis[4], ds[4])])
    result = suite_oracle(n_exhaustive=3, random_ns=(7, 6), samples=20, seed=9)
    assert not result.ok
    assert result.stats["mismatches"] == 2
    assert result.failures == [f"n=6 phi={phis[4]:#x} D={ds[4]:#x}"]


def test_claws_names_the_least_clawed_difference(monkeypatch):
    passing = suite_claws(5)
    # a triangle on 0, 1, 2 without vertex 3, alone and with the pair {3, 4}
    triangle = sum(1 << pair_index(x, y) for x, y in ((0, 1), (0, 2), (1, 2)))
    _invert_verdicts(monkeypatch, [(5, 0x1, triangle | 1 << pair_index(3, 4)), (5, 0x1, triangle)])
    result = suite_claws(5)
    assert not result.ok
    assert result.cases == passing.cases + 2
    assert result.stats["distinct_valid_differences"] == (
        passing.stats["distinct_valid_differences"] + 2
    )
    assert result.failures == ["n=5 D=0x7 contains a claw", "n=5 D=0x207 contains a claw"]


# ---------------------------------------------------------------------------
# parity and connectivity: per-D facts are shared, per-(phi, D) checks are not


def test_parity_and_connectivity_at_default_scale():
    assert run_suite("parity").to_json() == {
        "suite": "parity",
        "ok": True,
        "cases": 8592,
        "scale": {"n": 5, "max_m": 12},
        "stats": {},
        "failures": [],
    }
    assert run_suite("connectivity").to_json() == {
        "suite": "connectivity",
        "ok": True,
        "cases": 11314,
        "scale": {
            "n_exhaustive": 5,
            "n_sampled": 6,
            "samples": 1000,
            "seed": 9,
            "max_size_sampled": 8,
        },
        "stats": {"uniform_color_cases": 6850},
        "failures": [],
    }


def test_parity_wrapper_matches_the_laws_over_shared_paths():
    shared = {}
    for phi_bits, valid in _valid_masks_by_phi(5, range(1 << pair_count(5))):
        phi = Coloring(5, phi_bits)
        for d in valid:
            if d not in shared:
                diff = EdgeSet(5, d)
                shared[d] = (tuple(_chordless_paths(diff)), len(components(diff)))
            paths, count = shared[d]
            assert check_parity_lemmas(phi, Coloring(5, phi_bits ^ d)) == check_parity_paths(
                phi, paths, count
            )


@pytest.mark.parametrize(
    "name, scale",
    [("parity", dict(n=4, max_m=6)), ("connectivity", dict(n_exhaustive=4, samples=0))],
)
def test_search_consistency_error_names_its_case(name, scale, monkeypatch):
    # the all-zero coloring has no non-trivial valid difference at all
    original = suites._reconstruction_masks
    monkeypatch.setattr(suites, "_reconstruction_masks", lambda phi: original(phi) + [0x1])
    with pytest.raises(ConsistencyError, match=r"^n=4 phi=0x0 D=0x1: the search returned"):
        run_suite(name, **scale)


def _owners(d: int) -> list[int]:
    return [phi for phi, valid in _valid_masks_by_phi(5, range(1 << pair_count(5))) if d in valid]


def test_parity_names_only_the_coloring_whose_law_fails(monkeypatch):
    # D = {01, 04} is a path of every one of its 32 colorings; the law is
    # broken for the second of them only
    phi_bits, d = 0x2B, 0x41
    owners = _owners(d)
    assert len(owners) == 32 and owners[0] < phi_bits < owners[-1]
    paths = tuple(_chordless_paths(EdgeSet(5, d)))
    original = suites.check_parity_paths

    def patched(phi, given, count):
        if phi.bits == phi_bits and given == paths:
            return ParityReport(False, count, 1, ParityViolation("endpoint-edges", paths[0], ""))
        return original(phi, given, count)

    monkeypatch.setattr(suites, "check_parity_paths", patched)
    result = run_suite("parity", max_m=6)
    assert not result.ok
    assert result.failures == [f"n=5 phi={phi_bits:#x} D={d:#x} lemma=endpoint-edges"]


def test_connectivity_names_only_the_coloring_whose_restriction_fails(monkeypatch):
    # D = {12, 03} has two one-edge components; the restriction to its
    # first, {03}, is rejected for the second of its 32 colorings only
    phi_bits, d, first = 0xD6, 0xC, 0x8
    owners = _owners(d)
    assert len(owners) == 32 and owners[0] < phi_bits < owners[-1]
    original = suites.is_valid_difference
    last = [None]

    def patched(phi, edges):
        # {03} is a valid difference in its own right: reject it only where
        # it is asked right after D's own check, as D's restriction
        asked, last[0] = last[0], (phi.bits, edges.mask)
        if last[0] == (phi_bits, first) and asked == (phi_bits, d):
            return False
        return original(phi, edges)

    monkeypatch.setattr(suites, "is_valid_difference", patched)
    result = run_suite("connectivity", samples=0)
    assert not result.ok
    assert result.failures == [f"n=5 phi={phi_bits:#x} D={d:#x}: component restriction invalid"]
