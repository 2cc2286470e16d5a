"""Fixture colorings: frozen edge lists and the registry."""

import pytest

from homrec.coloring import boolean_sum
from homrec.errors import FixtureError
from homrec.fixtures import (
    fig_critical_cycle,
    fig_critical_cycle_pair,
    fig_critical_pair,
    fig_homsum,
    fig_homsum_pair,
    fig_no_critical_pair,
    fig_two_cycles,
    fixture_names,
    parse_fixture,
    partition_coloring,
    random_coloring,
)


def test_partition_edges():
    ones = set(partition_coloring(6).ones())
    assert ones == {(0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5)}


def test_fig_critical_pair_edges():
    ones = set(fig_critical_pair().ones())
    assert ones == {(0, 2), (0, 4), (1, 3), (1, 5)}


def test_fig_critical_cycle_edges():
    ones = set(fig_critical_cycle().ones())
    assert ones == {(0, 1), (1, 3), (2, 3), (0, 4), (2, 4), (1, 5), (3, 5)}


def test_fig_critical_cycle_pair_differs_on_cycle():
    phi, psi = fig_critical_cycle_pair()
    assert set(boolean_sum(phi, psi).ones()) == {(0, 1), (1, 2), (2, 3), (0, 3)}


def test_fig_no_critical_pair_edges():
    ones = set(fig_no_critical_pair(6).ones())
    assert ones == {
        (0, 3), (1, 3), (1, 2),
        (0, 4), (2, 4), (0, 5), (2, 5), (4, 5),
    }
    assert set(fig_no_critical_pair(4).ones()) == {(0, 3), (1, 3), (1, 2)}
    with pytest.raises(FixtureError):
        fig_no_critical_pair(7)


def test_fig_homsum_edges():
    phi, psi = fig_homsum_pair()
    assert phi == fig_homsum()
    assert set(phi.ones()) == {(0, 1), (0, 2), (1, 2), (2, 3), (1, 4)}
    assert set(psi.ones()) == {(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)}


def test_fig_two_cycles_edges():
    ones = set(fig_two_cycles().ones())
    assert len(ones) == 14
    assert {(0, 1), (1, 3), (2, 3), (4, 5), (4, 6), (6, 7)} <= ones


def test_random_coloring_deterministic():
    a = random_coloring(6, 0.5, 42)
    b = random_coloring(6, 0.5, 42)
    assert a == b
    assert random_coloring(6, 0.5, 43) != a
    assert random_coloring(6, 0.0, 1).bits == 0
    assert random_coloring(6, 1.0, 1).bits == (1 << 15) - 1
    with pytest.raises(FixtureError):
        random_coloring(6, 1.5, 1)


def test_parse_fixture_single_and_pair():
    fx = parse_fixture("partition(6)")
    assert not fx.is_pair and fx.phi == partition_coloring(6)
    fx = parse_fixture("path-pair(6,1,0)")
    assert fx.is_pair
    payload = fx.payload()
    assert set(payload) == {"n", "phi", "psi", "sum"}
    fx = parse_fixture("alpha(9,1)")
    assert fx.phi.get(0, 1) == 1
    fx = parse_fixture("random(6,0.5,42)")
    assert fx.phi == random_coloring(6, 0.5, 42)
    fx = parse_fixture("fig-no-critical-pair")
    assert fx.phi.n == 6


def test_parse_fixture_rejects_garbage():
    for bad in ("nope", "partition", "partition(a)", "partition(6", "random(6,0.5)"):
        with pytest.raises(FixtureError):
            parse_fixture(bad)


# every fixture with sample arguments, every arity and range error, bad
# numbers, a malformed, an unknown and a padded id: (n, phi, psi) or the
# message of the FixtureError
PARSED = [
    ("partition(6)", (6, 0x2952, None)),
    ("fig-critical-pair", (6, 0x852, None)),
    ("fig-critical-cycle", (6, 0x2971, 0x295c)),
    ("fig-no-critical-pair", (6, 0x555c, None)),
    ("fig-no-critical-pair(5)", (5, 0x15c, None)),
    ("fig-homsum", (5, 0xa7, 0x24f)),
    ("fig-two-cycles", (8, 0x8ad56b1, None)),
    ("alpha(9)", (9, 0x56aeb5dbc, None)),
    ("alpha(9,1)", (9, 0xa9514a243, None)),
    ("path-pair(6,1,0)", (6, 0x2b56, 0x6973)),
    ("cycle-pair(8,0,1)", (8, 0xa8554a9, 0x2b5168c)),
    ("random(6,0.5,42)", (6, 0x378e, None)),
    ("partition()", "partition expects 1 argument(s), got 0"),
    ("partition(6,1)", "partition expects 1 argument(s), got 2"),
    ("fig-critical-pair(1)", "fig-critical-pair expects 0 argument(s), got 1"),
    ("fig-critical-cycle(1)", "fig-critical-cycle expects 0 argument(s), got 1"),
    ("fig-no-critical-pair(4,5)", "fig-no-critical-pair expects 1 argument(s), got 2"),
    ("fig-homsum(1)", "fig-homsum expects 0 argument(s), got 1"),
    ("fig-two-cycles(1)", "fig-two-cycles expects 0 argument(s), got 1"),
    ("alpha()", "alpha expects 2 argument(s), got 0"),
    ("alpha(9,1,2)", "alpha expects 2 argument(s), got 3"),
    ("path-pair(6,1)", "path-pair expects 3 argument(s), got 2"),
    ("cycle-pair(6,1,0,0)", "cycle-pair expects 3 argument(s), got 4"),
    ("random(6,0.5)", "random expects (n, density, seed)"),
    ("partition(65)", "partition takes a size of at most 64, got 65"),
    ("partition(1)", "partition fixture needs n >= 2, got 1"),
    ("fig-no-critical-pair(7)", "fig-no-critical-pair supports 4 <= n <= 6, got 7"),
    ("fig-no-critical-pair(3)", "fig-no-critical-pair supports 4 <= n <= 6, got 3"),
    ("alpha(65)", "alpha takes a size of at most 64, got 65"),
    ("path-pair(65,1,0)", "path-pair takes a size of at most 64, got 65"),
    ("path-pair(6,2,0)", "invalid parameters for path-pair: c must be 0 or 1, got 2"),
    ("cycle-pair(6,-1,0)", "invalid parameters for cycle-pair: c must be 0 or 1, got -1"),
    (
        "cycle-pair(5,0,0)",
        "invalid parameters for cycle-pair: cycle pair needs even m >= 6, got 5",
    ),
    ("random(65,0.5,1)", "random takes a size of at most 64, got 65"),
    ("random(1,0.5,1)", "random fixture needs n >= 2, got 1"),
    ("random(6,1.5,1)", "density must be in [0, 1], got 1.5"),
    ("random(6,x,1)", "invalid parameters for random: could not convert string to float: 'x'"),
    (
        "random(x,0.5,1)",
        "invalid parameters for random: invalid literal for int() with base 10: 'x'",
    ),
    ("partition(1e2)", "non-integer argument for partition: ['1e2']"),
    ("alpha(a)", "non-integer argument for alpha: ['a']"),
    ("partition(6", "malformed fixture id 'partition(6'"),
    ("bogus(1)", "unknown fixture 'bogus'"),
    ("  partition( 6 ) ", (6, 0x2952, None)),
]


def test_parse_fixture_outcomes_are_pinned():
    assert len(PARSED) == 43
    outcomes = []
    for text, _ in PARSED:
        try:
            fx = parse_fixture(text)
        except FixtureError as exc:
            outcomes.append((text, str(exc)))
        else:
            psi = None if fx.psi is None else fx.psi.bits
            outcomes.append((text, (fx.phi.n, fx.phi.bits, psi)))
    assert outcomes == PARSED
    # every listed fixture is among those built
    built = {text.split("(")[0].strip() for text, outcome in PARSED if isinstance(outcome, tuple)}
    assert built == {name.split("(")[0].split("[")[0] for name in fixture_names()}
