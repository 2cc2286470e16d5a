"""Acceptance criteria.

One test per criterion, each printing a PASS/FAIL line (visible with
``pytest -s`` or in captured output).  Scales and tolerances are fixed
here; the headline dichotomy (r is 1 or 4) is proved only for vertex
sets far beyond exhaustive reach, so acceptance rests on the oracle
equivalence, exhaustive small-n sweeps, and the worked examples.
"""

import json
import time

from homrec.coloring import boolean_sum, h_equivalent
from homrec.critical import Orientation, find_critical_cycles, find_critical_pairs
from homrec.fixtures import (
    fig_critical_cycle,
    fig_homsum_pair,
    fig_no_critical_pair,
    fig_two_cycles,
    partition_coloring,
)
from homrec.reconstruct import r_value
from homrec.structure import hom_color_uniform
from homrec.suites import run_suite


def _report(num: int, ok: bool, message: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {message}")
    assert ok, message


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    result = run_suite("oracle", n_exhaustive=5, random_ns=(6, 7, 8, 9), samples=10_000)
    elapsed = time.monotonic() - start
    ok = result.ok and result.stats["mismatches"] == 0 and elapsed < 120.0
    _report(
        1,
        ok,
        f"oracle equivalence: {result.cases} cases "
        f"(2^20 exhaustive at n=5, 10^4 random at n=6..9), "
        f"{result.stats['mismatches']} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_claw_freeness():
    result = run_suite("claws", n=5)
    _report(
        2,
        result.ok,
        f"claw-freeness: {result.cases} H-equivalent pairs, "
        f"{result.stats['distinct_valid_differences']} distinct differences, "
        "no claw in any difference or its complement pattern",
    )


def test_criterion_3_degree_bound_and_components():
    result = run_suite("connectivity", n_exhaustive=5, samples=1000)
    _report(
        3,
        result.ok,
        f"degree/component structure: {result.cases} valid differences "
        f"({result.stats['uniform_color_cases']} under the uniform-color "
        "hypothesis), max degree 2, only paths and even cycles",
    )


def test_criterion_4_r_sweep():
    result = run_suite("r-sweep", n_exhaustive=5, samples=1000)
    dist = result.stats["distribution"]
    ok = result.ok and "r=2" not in dist
    _report(
        4,
        ok,
        f"r-sweep: {result.cases} colorings, distribution {dist}, "
        "no r=2, r=1 iff critical pair, minimal witnesses connected",
    )


def test_criterion_5_worked_examples():
    problems = []

    part = partition_coloring(6)
    if len(find_critical_pairs(part)) != 9 or r_value(part).r != 1:
        problems.append("partition(6) expected 9 critical pairs and r=1")

    ncp = fig_no_critical_pair(6)
    cycles = find_critical_cycles(ncp)
    if find_critical_pairs(ncp) != []:
        problems.append("fig-no-critical-pair expected no critical pair")
    if len(cycles) != 1 or cycles[0].quad != (0, 1, 2, 3) or cycles[
        0
    ].orientation is not Orientation.ALTERNATE:
        problems.append("fig-no-critical-pair expected one alternate cycle on (0,1,2,3)")
    if r_value(ncp).r != 4:
        problems.append("fig-no-critical-pair expected r=4")

    if len(find_critical_cycles(fig_two_cycles())) != 2:
        problems.append("fig-two-cycles expected exactly 2 critical cycles")

    cc = fig_critical_cycle()
    if (4, 5) not in find_critical_pairs(cc):
        problems.append("fig-critical-cycle expected critical pair (4,5)")
    cc_cycles = find_critical_cycles(cc)
    if not any(w.quad == (0, 1, 2, 3) for w in cc_cycles):
        problems.append("fig-critical-cycle expected a cycle on (0,1,2,3)")
    if r_value(cc).r != 1:
        problems.append("fig-critical-cycle expected r=1")

    phi, psi = fig_homsum_pair()
    if not h_equivalent(phi, psi) or hom_color_uniform(boolean_sum(phi, psi)) is not None:
        problems.append("fig-homsum expected H-equivalence with mixed sum colors")

    _report(5, not problems, "worked examples exact values" + (
        "" if not problems else ": " + "; ".join(problems)
    ))


def test_criterion_6_hom_partition_theorem():
    result = run_suite("partition-theorem", ms=(6, 8, 10, 12))
    _report(
        6,
        result.ok,
        f"two-class partition: {result.cases} generated pairs "
        "(paths and cycles, m=6..12, all colors and phases), "
        "exactly two maximal classes of one color each time",
    )


def test_criterion_7_alpha():
    result = run_suite("alpha", nmax=20)
    _report(
        7,
        result.ok,
        f"alpha coloring: {result.cases} assertions "
        "(five families for 5<=n<=20, drawing match, restriction consistency)",
    )


def test_criterion_8_finitistic_characterization():
    result = run_suite("theorem63", ns=(7, 8, 9), samples=34)
    ok = result.ok and result.cases >= 103  # 102 sampled + 2 fixtures + 1 recheck
    _report(
        8,
        ok,
        f"4-set/7-set witnesses: {result.cases} colorings examined, "
        f"{result.stats['witnesses_found']} witnesses, every one flips to a "
        "non-trivial reconstruction",
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


def test_criterion_9_determinism():
    mismatched = []
    for name, scale in SMALL_SCALES.items():
        first, rerun = (json.dumps(run_suite(name, **scale).to_json()) for _ in range(2))
        if first != rerun:
            mismatched.append(name)
    _report(
        9,
        not mismatched,
        "determinism: every suite byte-identical on a same-seed rerun"
        + ("" if not mismatched else f"; mismatches in {mismatched}"),
    )
