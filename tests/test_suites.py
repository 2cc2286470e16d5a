"""Verification suites: reduced-scale passes, same-seed stability, the
counterexamples a failing suite reports, claws against the brute-force
sweep, parity and connectivity at default scale, and their batch route
against the scalar checks."""

import json
from itertools import islice

import pytest

from homrec import kernels, suites
from homrec.coloring import (
    Coloring,
    EdgeSet,
    bits_of,
    h_equivalent,
    pair_count,
    pair_index,
    restrict,
)
from homrec.critical import find_critical_pairs
from homrec.errors import ConsistencyError
from homrec.reconstruct import _reconstruction_masks, is_valid_difference
from homrec.structure import (
    ParityReport,
    ParityViolation,
    _chordless_paths,
    check_parity_lemmas,
    check_parity_paths,
    components,
    hom_color_uniform,
)
from homrec.suites import (
    SUITES,
    _sample_masks,
    run_suite,
    suite_claws,
    suite_oracle,
)

def _valid_masks_by_phi(n: int, phis) -> list[tuple[int, list[int]]]:
    """(phi, its non-trivial valid difference masks in numeric order) per
    coloring, one search each: the reference for the suites' searches,
    which complementary colorings share."""
    return [(phi, sorted(_reconstruction_masks(Coloring(n, phi)))) for phi in phis]


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


def test_suite_output_stable_across_runs():
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


def test_oracle_names_failures_across_block_edges(monkeypatch):
    # n = 5 crosses blocks of 32 colorings: 0x1f ends the first block and
    # 0x20 starts the second.  For 0x20 the least D (0x3) is not the D of
    # the least phi ^ D (0x1, from D = 0x21).
    targets = [(5, 0x3FF, 0x1), (5, 0x20, 0x21), (5, 0x20, 0x3), (5, 0x1F, 0x100)]
    _invert_verdicts(monkeypatch, targets)
    result = suite_oracle(n_exhaustive=5, random_ns=(), samples=0)
    assert not result.ok
    assert result.stats["mismatches"] == 4
    assert result.failures == [
        "n=5 phi=0x1f D=0x100",
        "n=5 phi=0x20 D=0x3",
        "n=5 phi=0x3ff D=0x1",
    ]


def test_oracle_names_the_first_five_failing_colorings(monkeypatch):
    phis = [0x3E0, 0x1F, 0x41, 0x20, 0x40, 0x3F, 0x21]
    _invert_verdicts(monkeypatch, [(5, phi, 0x5) for phi in phis])
    result = suite_oracle(n_exhaustive=5, random_ns=(), samples=0)
    assert result.stats["mismatches"] == 7
    assert result.failures == [
        f"n=5 phi={phi:#x} D=0x5" for phi in (0x1F, 0x20, 0x21, 0x3F, 0x40)
    ]


def test_oracle_names_the_first_disagreeing_sample(monkeypatch):
    phis, ds = _sample_masks(6, 20, 9), _sample_masks(6, 20, 10)
    assert len(set(zip(phis, ds))) == 20 and all(phis) and all(ds)
    _invert_verdicts(monkeypatch, [(6, phis[11], ds[11]), (6, phis[4], ds[4])])
    result = suite_oracle(n_exhaustive=3, random_ns=(7, 6), samples=20, seed=9)
    assert not result.ok
    assert result.stats["mismatches"] == 2
    assert result.failures == [f"n=6 phi={phis[4]:#x} D={ds[4]:#x}"]


_TRIANGLE = sum(1 << pair_index(x, y) for x, y in ((0, 1), (0, 2), (1, 2)))


def _inject_differences(monkeypatch, masks) -> None:
    """Append ``masks`` to the search's valid differences of phi = 0x1."""
    original = suites._reconstruction_masks

    def patched(phi):
        return original(phi) + masks if phi.bits == 0x1 else original(phi)

    monkeypatch.setattr(suites, "_reconstruction_masks", patched)


def test_claws_names_the_least_clawed_difference(monkeypatch):
    passing = suite_claws(5)
    # a triangle on 0, 1, 2 without vertex 3, alone and with the pair {3, 4}
    _inject_differences(monkeypatch, [_TRIANGLE | 1 << pair_index(3, 4), _TRIANGLE])
    result = suite_claws(5)
    assert not result.ok
    # an injected D counts for 0x1 and for its complement
    assert result.cases == passing.cases + 4
    assert result.stats["distinct_valid_differences"] == (
        passing.stats["distinct_valid_differences"] + 2
    )
    assert result.failures == ["n=5 D=0x7 contains a claw", "n=5 D=0x207 contains a claw"]


def test_claws_checks_the_complement_pattern(monkeypatch):
    # D holds every pair but the triangle on 0, 1, 2: D has no claw, and
    # its complement, the triangle, has one
    _inject_differences(monkeypatch, [_TRIANGLE ^ 0x3FF])
    assert suite_claws(5).failures == ["n=5 D=0x3f8 contains a claw"]


def _claws_by_sweep(n: int) -> dict:
    """The claws suite's JSON from a sweep of every coloring against every
    difference set with the local criterion: the reference for the suite,
    which reads the pair-class search."""
    p = pair_count(n)
    full = (1 << (1 << p)) - 1
    masks = kernels.all_masks(n)
    cases = valid = 0
    for phi in range(1 << p):
        ok = kernels.valid_for_phi(n, kernels.constant_columns(n, phi, full), masks) & full
        valid |= ok
        cases += ok.bit_count()
    clawed = valid & (
        kernels.has_claw_mask(n, masks) | kernels.has_claw_mask(n, [full ^ m for m in masks])
    )
    return {
        "suite": "claws",
        "ok": not clawed,
        "cases": cases,
        "scale": {"n": n},
        "stats": {"distinct_valid_differences": valid.bit_count()},
        "failures": [f"n={n} D={d:#x} contains a claw" for d in islice(bits_of(clawed), 5)],
    }


@pytest.mark.parametrize("n", [4, 5])
def test_claws_matches_the_sweep(n):
    assert suite_claws(n).to_json() == _claws_by_sweep(n)


def test_claws_searches_one_coloring_per_complementary_pair(monkeypatch):
    searched = []
    original = suites._reconstruction_masks

    def counting(phi):
        searched.append(phi.bits)
        return original(phi)

    def sweeping(*args):
        raise AssertionError("claws swept")

    monkeypatch.setattr(suites, "_reconstruction_masks", counting)
    monkeypatch.setattr(kernels, "valid_for_phi", sweeping)
    monkeypatch.setattr(kernels, "all_masks", sweeping)
    monkeypatch.setattr(suites, "run_sharded", sweeping)
    assert suite_claws(5).ok
    assert searched == list(range(1 << (pair_count(5) - 1)))


# ---------------------------------------------------------------------------
# parity and connectivity: one D against a batch of colorings, failures
# still named case by case


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


def test_complementary_colorings_have_the_same_search_results():
    for n, phis in [(5, range(1 << pair_count(5)))] + [
        (n, _sample_masks(n, 30, 12)) for n in (6, 7, 8)
    ]:
        for bits in phis:
            phi = Coloring(n, bits)
            assert _reconstruction_masks(phi) == _reconstruction_masks(phi.complement())


def test_complement_shared_computes_once_per_complementary_pair(monkeypatch):
    top = (1 << pair_count(4)) - 1
    a, b = 0x05, 0x2A
    phis = [a, top ^ a, a, b, top ^ a, b]
    calls = []
    original = suites._reconstruction_masks

    def counting(phi):
        calls.append(phi.bits)
        return original(phi)

    monkeypatch.setattr(suites, "_reconstruction_masks", counting)
    shared = list(suites._searches(4, phis))
    assert shared == [(phi, original(Coloring(4, phi))) for phi in phis]
    # a result is kept only for a complement still to come, not for repeats
    assert calls == [a, b, b]


def test_owner_batches_search_each_complementary_pair_once(monkeypatch):
    searched = []
    original = suites._reconstruction_masks

    def counting(phi):
        searched.append(phi.bits)
        return original(phi)

    monkeypatch.setattr(suites, "_reconstruction_masks", counting)
    list(suites._owner_batches(5, range(1 << pair_count(5))))
    assert searched == list(range(512))
    # complements meet only within a batch: of [0, 600), those in [424, 600)
    # pair up; [600, 1024) holds no complementary pair
    searched.clear()
    monkeypatch.setattr(suites, "_BATCH", 600)
    list(suites._owner_batches(5, range(1 << pair_count(5))))
    assert searched == list(range(512)) + list(range(600, 1024))


def _minimal_witnesses(n: int, phis) -> list[tuple[int, list[int]]]:
    """(phi, its minimal non-trivial valid differences) per coloring that
    has any."""
    found = []
    for phi, valid in _valid_masks_by_phi(n, phis):
        if valid:
            r = min(d.bit_count() for d in valid)
            found.append((phi, [d for d in valid if d.bit_count() == r]))
    return found


def test_r_sweep_reads_critical_pairs_from_one_batch(monkeypatch):
    # phi's bit is cleared from every critical-pair row of the n = 5 batch,
    # so only phi is named; its complement keeps its own bit
    top = (1 << pair_count(5)) - 1
    witnessed = _minimal_witnesses(5, range(1 << pair_count(5)))
    phi = next(phi for phi, minimal in witnessed if minimal[0].bit_count() == 1)  # r = 1
    asked = []
    original = kernels.critical_rows

    def patched(n, columns, vertices):
        asked.append((n, tuple(vertices)))
        rows = original(n, columns, vertices)
        return {pair: row & ~(1 << phi) for pair, row in rows.items()} if n == 5 else rows

    monkeypatch.setattr(suites.kernels, "critical_rows", patched)
    result = run_suite("r-sweep", samples=0)
    assert result.failures == [f"n=5 phi={phi:#x}: r=1 but critical pair False"]
    assert dict(witnessed)[top ^ phi][0].bit_count() == 1  # r = 1, not named
    assert asked == [(5, tuple(range(5))), (6, tuple(range(6)))]


def test_r_sweep_checks_each_minimal_witness_once(monkeypatch):
    # D = {01} is patched to fall apart; every coloring it is a minimal
    # witness of is named, in scan order, from one components call
    d = 0x1
    witnessed = _minimal_witnesses(5, range(1 << pair_count(5)))
    owners = [phi for phi, minimal in witnessed if d in minimal]
    asked = []
    original = suites.components

    def patched(diff):
        asked.append(diff.mask)
        return original(diff) * 2 if diff.mask == d else original(diff)

    monkeypatch.setattr(suites, "components", patched)
    result = run_suite("r-sweep", samples=0)
    assert len(owners) > 5
    assert result.failures == [
        f"n=5 phi={phi:#x} minimal witness {d:#x} disconnected" for phi in owners[:5]
    ]
    assert sorted(asked) == sorted({m for _, minimal in witnessed for m in minimal})


def test_alpha_suite_builds_each_truncation_once(monkeypatch):
    built = []
    original = suites.alpha_coloring

    def counting(n: int, seed: int = 0):
        built.append(n)
        return original(n, seed)

    monkeypatch.setattr(suites, "alpha_coloring", counting)
    assert run_suite("alpha", nmax=12).ok
    assert built == list(range(3, 13))


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


def _scalar_breaks(monkeypatch, lemma: str, hit) -> None:
    """Patch the suite's scalar parity check to report ``lemma`` broken
    wherever ``hit(phi_bits, paths)`` holds."""
    original = suites.check_parity_paths

    def patched(phi, paths, count):
        paths = tuple(paths)
        if hit(phi.bits, paths):
            return ParityReport(False, count, 1, ParityViolation(lemma, paths[0], "patched"))
        return original(phi, paths, count)

    monkeypatch.setattr(suites, "check_parity_paths", patched)


def _flag_one_case(monkeypatch, phi_bits: int, d: int) -> tuple:
    """Make the batch route flag (phi, D) alone; return D's paths."""
    paths = tuple(_chordless_paths(EdgeSet(5, d)))
    terms = tuple(map(suites._path_terms, paths))
    original = suites._parity_violations

    def patched(columns, given):
        broken = original(columns, given)
        return broken | _entries(columns, phi_bits) if given == terms else broken

    monkeypatch.setattr(suites, "_parity_violations", patched)
    return paths


def test_parity_names_only_the_coloring_whose_law_fails(monkeypatch):
    # D = {01, 04} is a path of every one of its 32 colorings; the batch
    # route flags, and the scalar check breaks a law for, the second of
    # them only
    phi_bits, d = 0x2B, 0x41
    owners = _owners(d)
    assert len(owners) == 32 and owners[0] < phi_bits < owners[-1]
    paths = _flag_one_case(monkeypatch, phi_bits, d)
    _scalar_breaks(
        monkeypatch, "endpoint-edges", lambda bits, given: (bits, given) == (phi_bits, paths)
    )
    result = run_suite("parity", max_m=6)
    assert not result.ok
    assert result.failures == [f"n=5 phi={phi_bits:#x} D={d:#x} lemma=endpoint-edges"]


def test_parity_raises_on_a_flag_the_scalar_check_does_not_confirm(monkeypatch):
    # every law holds for each owner of D = {01, 04}; the batch flags one
    phi_bits, d = 0x2B, 0x41
    _flag_one_case(monkeypatch, phi_bits, d)
    message = rf"^n=5 phi={phi_bits:#x} D={d:#x}: the batch flags a parity law that holds$"
    with pytest.raises(ConsistencyError, match=message):
        run_suite("parity", max_m=6)


def test_connectivity_names_only_the_coloring_whose_restriction_fails(monkeypatch):
    # D = {12, 03} has two one-edge components; the restriction to its
    # first, {03}, is rejected for the second of its 32 colorings only
    phi_bits, d, first = 0xD6, 0xC, 0x8
    owners = _owners(d)
    assert len(owners) == 32 and owners[0] < phi_bits < owners[-1]
    original = kernels.valid_for_phi
    last = [None]

    def patched(n, phi, masks):
        verdict = original(n, phi, masks)
        # {03} is a valid difference in its own right: reject it only where
        # it is asked right after D's own check, as D's restriction (each
        # check asks one difference set of every entry alike)
        asked, last[0] = last[0], sum(1 << i for i, column in enumerate(masks) if column)
        if n == 5 and (asked, last[0]) == (d, first):
            verdict ^= _entries(phi, phi_bits)
        return verdict

    monkeypatch.setattr(kernels, "valid_for_phi", patched)
    result = run_suite("connectivity", samples=0)
    assert not result.ok
    assert result.failures == [f"n=5 phi={phi_bits:#x} D={d:#x}: component restriction invalid"]


@pytest.mark.parametrize("batch", [suites._BATCH, 3])
def test_parity_reports_the_first_failing_cases_in_scan_order(batch, monkeypatch):
    # the batch route flags, and the scalar check breaks a law for, every
    # case where phi colors pair 3 with 1 and D has a single path (in its
    # two directions); the first five such cases span three colorings, and
    # with three colorings per batch, batches
    original = suites._parity_violations

    def patched(columns, given):
        broken = original(columns, given)
        return broken | columns[3] if len(given) == 2 else broken

    monkeypatch.setattr(suites, "_BATCH", batch)
    monkeypatch.setattr(suites, "_parity_violations", patched)
    _scalar_breaks(
        monkeypatch, "anchored-distance", lambda bits, paths: bits >> 3 & 1 and len(paths) == 2
    )
    expected = [
        f"n=5 phi={phi:#x} D={d:#x} lemma=anchored-distance"
        for phi, valid in _valid_masks_by_phi(5, range(1 << pair_count(5)))
        if phi >> 3 & 1
        for d in valid
        if len(tuple(_chordless_paths(EdgeSet(5, d)))) == 2
    ]
    assert len({message.split()[1] for message in expected[:5]}) == 3
    assert run_suite("parity", max_m=6).failures == expected[:5]


def test_connectivity_names_the_owners_of_a_misshapen_difference(monkeypatch):
    # a shape law fails for D = {01, 04} alone, so for each of its owners
    d = 0x41
    original = suites._difference_facts

    def patched(n, mask):
        uniform, shape, parts = original(n, mask)
        return (True, ("degree > 2",), parts) if (n, mask) == (5, d) else (uniform, shape, parts)

    monkeypatch.setattr(suites, "_difference_facts", patched)
    result = run_suite("connectivity", samples=0)
    assert result.failures == [f"n=5 phi={phi:#x} D={d:#x}: degree > 2" for phi in _owners(d)[:5]]


@pytest.mark.parametrize("batch", [suites._BATCH, 3])
def test_connectivity_reports_the_first_failing_cases_in_scan_order(batch, monkeypatch):
    # every pair is critical on every restriction and nowhere globally, so
    # each difference edge of a component of 3 or more vertices is flagged
    original = kernels.critical_rows

    def patched(n, columns, vertices):
        # the suite asks the whole vertex range for global criticality
        rows = original(n, columns, vertices)
        return {pair: 0 if isinstance(vertices, range) else -1 for pair in rows}

    monkeypatch.setattr(suites, "_BATCH", batch)
    monkeypatch.setattr(kernels, "critical_rows", patched)
    expected = []
    for phi, valid in _valid_masks_by_phi(5, range(1 << pair_count(5))):
        for d in valid:
            diff = EdgeSet(5, d)
            for comp in components(diff):
                if len(comp.vertices) >= 3:
                    expected += [
                        f"n=5 phi={phi:#x} D={d:#x}: pair ({x},{y}) critical locally only"
                        for x, y in diff.within(comp.vertices).members()
                    ]
        if len(expected) >= 5:
            break
    assert run_suite("connectivity", samples=0).failures == expected[:5]


# ---------------------------------------------------------------------------
# the batch route of parity and connectivity against the scalar checks

_SAMPLED = _sample_masks(6, 40, 9)
AGREEMENT = pytest.mark.parametrize(
    "n, phis",
    [
        (3, range(1 << 3)),
        (4, range(1 << 6)),
        (5, range(1 << 10)),
        (6, _SAMPLED),
        (6, []),
        (6, _SAMPLED[:10] + _SAMPLED[4:8] + _SAMPLED[:2]),
        (6, _SAMPLED[:8] + [0x7FFF ^ m for m in _SAMPLED[:8]] + _SAMPLED[2:4]),
    ],
    ids=["n3", "n4", "n5", "n6-samples", "n6-no-samples", "n6-repeated", "n6-complements"],
)


def _cases(n: int, phis, max_size=None) -> set[tuple[int, int]]:
    """(index, D) of every case of a scan case by case."""
    return {
        (i, d)
        for i, (_, valid) in enumerate(_valid_masks_by_phi(n, phis))
        for d in valid
        if max_size is None or d.bit_count() <= max_size
    }


def _checked(n: int, chunk, d: int, own: int) -> list[int]:
    """The entries of a batch to hold against the scalar checks: D's
    owners, and of the others all but at n = 5, where one in 29 is."""
    stride = 29 if n == 5 else 1
    return [j for j in range(len(chunk)) if own >> j & 1 or (j + d) % stride == 0]


@AGREEMENT
def test_parity_batch_route_matches_the_scalar_checks(n, phis, monkeypatch):
    monkeypatch.setattr(suites, "_BATCH", 300)  # several batches at n = 5
    owned, lemmas = set(), set()
    for lo, chunk, d, own, moved, broken in suites._parity_outcomes(n, phis):
        owned.update((lo + j, d) for j in range(len(chunk)) if own >> j & 1)
        diff = EdgeSet(n, d)
        paths, count = tuple(_chordless_paths(diff)), len(components(diff))
        for j in _checked(n, chunk, d, own):
            phi = Coloring(n, chunk[j])
            equivalent = h_equivalent(phi, Coloring(n, chunk[j] ^ d))
            assert (moved >> j & 1) == (not equivalent)
            report = check_parity_paths(phi, paths, count)
            assert (broken >> j & 1) == (not report.ok)
            if not report.ok:
                lemmas.add(report.violation.lemma)
    assert owned == _cases(n, phis)
    if n == 5:
        assert lemmas == {"endpoint-edges", "anchored-distance", "sliding-window"}


@AGREEMENT
def test_connectivity_batch_route_matches_the_scalar_checks(n, phis, monkeypatch):
    monkeypatch.setattr(suites, "_BATCH", 300)  # several batches at n = 5
    max_size = 8 if n == 6 else None
    owned = set()
    flagged = 0
    for lo, chunk, d, own, valid, uniform, checks in suites._connectivity_outcomes(
        n, phis, max_size
    ):
        owned.update((lo + j, d) for j in range(len(chunk)) if own >> j & 1)
        diff = EdgeSet(n, d)
        comps = components(diff)
        assert uniform == (hom_color_uniform(diff.indicator()) == 0)
        # D's shape laws come first and, failing, fail for every coloring
        shape = suites._difference_facts(n, d)[1] if uniform else ()
        assert checks[: len(shape)] == [(-1, problem) for problem in shape]
        for j in _checked(n, chunk, d, own):
            phi = Coloring(n, chunk[j])
            assert (valid >> j & 1) == is_valid_difference(phi, diff)
            critical = find_critical_pairs(phi)
            expected = []
            for comp in comps:
                verts = tuple(sorted(comp.vertices))
                part = diff.within(verts)
                if len(comps) > 1:
                    invalid = not is_valid_difference(phi, part)
                    expected.append((invalid, "component restriction invalid"))
                if len(verts) < 3:
                    continue
                local = find_critical_pairs(restrict(phi, verts))
                for x, y in part.members():
                    only = (verts.index(x), verts.index(y)) in local and (x, y) not in critical
                    expected.append((only, f"pair ({x},{y}) critical locally only"))
            actual = [(bool(fails >> j & 1), problem) for fails, problem in checks[len(shape) :]]
            assert actual == expected
            flagged += sum(failed for failed, _ in expected)
    assert owned == _cases(n, phis, max_size)
    if n == 5:
        assert flagged
