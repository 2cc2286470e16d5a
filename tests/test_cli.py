"""Command-line behavior: subcommands, exit codes, round trips."""

import json
import random
import sys
import time

import pytest

from homrec import reconstruct
from homrec.cli import _analysis, main
from homrec.coloring import HOM_SETS_MAX, Coloring, pair_count
from homrec.critical import find_critical_cycles, find_critical_pairs, witness_json
from homrec.fixtures import partition_coloring, random_coloring
from homrec.reconstruct import RValueReport, SearchMode, Verdict, in_R, r_value


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_partition(tmp_path, capsys):
    out = tmp_path / "p6.json"
    code, _, _ = run(capsys, "generate", "partition(6)", "--out", str(out))
    assert code == 0
    assert Coloring.from_json(json.loads(out.read_text())) == partition_coloring(6)


def test_generate_random_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "generate", "random(6,0.5,42)", "--out", str(a))[0] == 0
    assert run(capsys, "generate", "random(6,0.5,42)", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert Coloring.from_json(json.loads(a.read_text())) == random_coloring(6, 0.5, 42)


def test_generate_pair_fixture_payload(tmp_path, capsys):
    out = tmp_path / "pair.json"
    code, _, _ = run(capsys, "generate", "path-pair(6,1,0)", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"n", "phi", "psi", "sum"}
    phi = Coloring.from_json(payload["phi"])
    psi = Coloring.from_json(payload["psi"])
    total = Coloring.from_json(payload["sum"])
    assert (phi.bits ^ psi.bits) == total.bits


def test_generate_unknown_fixture_exits_2(capsys):
    code, _, err = run(capsys, "generate", "bogus(1)")
    assert code == 2 and "unknown fixture" in err


@pytest.mark.parametrize(
    "fixture", ["partition(65)", "alpha(65,1)", "path-pair(65,1,0)", "random(65,0.5,1)"]
)
def test_generate_rejects_size_above_the_structural_ceiling(capsys, fixture):
    code, stdout, err = run(capsys, "generate", fixture)
    assert code == 2 and stdout == "" and "at most 64, got 65" in err


def test_generate_takes_size_at_the_structural_ceiling(capsys):
    code, stdout, _ = run(capsys, "generate", "random(64,0.5,1)")
    assert code == 0 and json.loads(stdout)["n"] == 64


def test_analyze_partition_values(tmp_path, capsys):
    out = tmp_path / "p6.json"
    run(capsys, "generate", "partition(6)", "--out", str(out))
    code, stdout, _ = run(capsys, "analyze", str(out), "--json")
    assert code == 0
    report = json.loads(stdout)
    assert report["schema_version"] == 1
    assert len(report["critical_pairs"]) == 9
    assert report["critical_cycles"] == []
    assert report["membership"]["verdict"] == "not_in_R"
    assert report["r_report"]["r"] == 1
    assert len(report["r_report"]["witnesses"]) == 9


def test_analyze_ncp_figure(tmp_path, capsys):
    out = tmp_path / "ncp.json"
    run(capsys, "generate", "fig-no-critical-pair", "--out", str(out))
    code, stdout, _ = run(capsys, "analyze", str(out), "--json")
    report = json.loads(stdout)
    assert code == 0
    assert report["critical_pairs"] == []
    assert [w["vertices"] for w in report["critical_cycles"]] == [[0, 1, 2, 3]]
    assert report["critical_cycles"][0]["orientation"] == "alternate"
    assert report["r_report"]["r"] == 4


def test_analyze_alpha12_structural(tmp_path, capsys):
    out = tmp_path / "a12.json"
    run(capsys, "generate", "alpha(12)", "--out", str(out))
    code, stdout, _ = run(capsys, "analyze", str(out), "--json")
    report = json.loads(stdout)
    assert code == 0
    assert [0, 11] in report["critical_pairs"]
    assert report["critical_cycles"] == []
    assert report["membership"]["verdict"] == "not_in_R"
    assert report["r_report"]["mode"] == "structural"


def test_analyze_round_trip_is_idempotent(tmp_path, capsys):
    src = tmp_path / "two.json"
    run(capsys, "generate", "fig-two-cycles", "--out", str(src))
    code, stdout, _ = run(capsys, "analyze", str(src), "--json")
    assert code == 0
    payload = json.loads(stdout)["coloring"]
    assert payload == json.loads(src.read_text())


def test_analyze_pair_member(tmp_path, capsys):
    src = tmp_path / "pair.json"
    run(capsys, "generate", "fig-homsum", "--out", str(src))
    code, stdout, _ = run(capsys, "analyze", str(src), "--json", "--member", "sum")
    assert code == 0
    assert json.loads(stdout)["n"] == 5


def test_analyze_human_readable(tmp_path, capsys):
    src = tmp_path / "cc.json"
    run(capsys, "generate", "fig-critical-cycle", "--out", str(src))
    code, stdout, _ = run(capsys, "analyze", str(src))
    assert code == 0
    assert "critical pairs      1" in stdout
    assert "r                   1" in stdout


def test_analyze_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2 and "JSON" in err
    missing = tmp_path / "missing.json"
    assert run(capsys, "analyze", str(missing))[0] == 2
    notcol = tmp_path / "notcol.json"
    notcol.write_text('{"foo": 3}')
    assert run(capsys, "analyze", str(notcol))[0] == 2


def test_analyze_rejects_non_integer_n(tmp_path, capsys):
    for n in ("4.7", '"7"', "true"):
        src = tmp_path / "bad_n.json"
        src.write_text('{"n": %s, "ones": []}' % n)
        code, stdout, err = run(capsys, "analyze", str(src))
        assert code == 2 and stdout == "" and "integer" in err


def test_analyze_structural_in_R_report_agrees_with_membership(tmp_path, capsys):
    # no critical pair or cycle, so structural r alone would be unknown;
    # the search that settles membership also settles r
    src = tmp_path / "r7.json"
    run(capsys, "generate", "random(7,0.5,1)", "--out", str(src))
    code, stdout, _ = run(capsys, "analyze", str(src), "--json", "--mode", "structural")
    assert code == 0
    report = json.loads(stdout)
    assert report["membership"] == {"verdict": "in_R", "witness": None}
    assert report["r_report"] == {
        "r": None, "mode": "structural", "complete": True, "witnesses": []
    }
    code, stdout, _ = run(capsys, "analyze", str(src), "--mode", "structural")
    assert "r                   not applicable (mode=structural, complete=True)" in stdout


_FACTS = ("find_critical_pairs", "find_critical_cycles", "_reconstruction_masks")


@pytest.fixture
def fact_calls(monkeypatch):
    """Counts calls to each fact under every name the package binds it to."""
    calls = dict.fromkeys(_FACTS, 0)
    for name in _FACTS:
        original = getattr(reconstruct, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "homrec"]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "n, mode",
    [(200, "structural"), (200, "exhaustive"), (200, "auto"), (65, "structural"), (9, "exhaustive")],
)
def test_analyze_rejects_n_above_the_mode_ceiling(tmp_path, capsys, fact_calls, n, mode):
    src = tmp_path / "big.json"
    src.write_text('{"n": %d, "ones": []}' % n)
    code, stdout, err = run(capsys, "analyze", str(src), "--mode", mode)
    assert code == 2 and stdout == "" and f"n={n}" in err
    assert fact_calls == dict.fromkeys(_FACTS, 0)


@pytest.mark.parametrize(
    "fixture, flags",
    [
        ("random(7,0.5,1)", ()),  # no critical structure
        ("partition(7)", ()),
        ("random(12,0.5,3)", ("--mode", "structural")),
    ],
)
def test_analyze_computes_each_fact_once(tmp_path, capsys, fact_calls, fixture, flags):
    src = tmp_path / "phi.json"
    run(capsys, "generate", fixture, "--out", str(src))
    assert run(capsys, "analyze", str(src), "--json", *flags)[0] == 0
    assert all(count <= 1 for count in fact_calls.values())
    assert fact_calls["find_critical_cycles"] == 1


def _expected_analysis(actual: dict, phi: Coloring, mode: str) -> dict:
    search = SearchMode(mode)
    cycles = find_critical_cycles(phi) if phi.n >= 5 else []
    membership = in_R(phi)
    report = r_value(phi, search)
    if membership.verdict is Verdict.IN_R:
        report = RValueReport(None, (), search, complete=True)
    witness = membership.witness
    return {
        **actual,
        "critical_pairs": [list(p) for p in find_critical_pairs(phi)],
        "critical_cycles": [witness_json(w) for w in cycles],
        "membership": {
            "verdict": membership.verdict.value,
            "witness": witness and [list(p) for p in witness.difference.members()],
        },
        "r_report": report.to_json(),
    }


def _seeded(n: int, count: int) -> list[Coloring]:
    rng = random.Random(100 + n)
    return [Coloring(n, rng.getrandbits(pair_count(n))) for _ in range(count)]


@pytest.mark.parametrize(
    "phis",
    [
        pytest.param([Coloring(5, b) for b in range(1 << pair_count(5))], id="all-n5"),
        pytest.param(_seeded(6, 50), id="n6"),
        pytest.param(_seeded(7, 20), id="n7"),
        pytest.param(_seeded(8, 4), id="n8"),
    ],
)
def test_single_pass_equals_public_api(phis):
    for phi in phis:
        for mode in ("exhaustive", "structural"):
            actual = _analysis(phi, mode)
            assert actual == _expected_analysis(actual, phi, mode)


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--n", "2"),
        ("oracle", "--n", "7"),
        ("claws", "--n", "2"),
        ("claws", "--n", "3"),
        ("parity", "--n", "2"),
        ("r-sweep", "--n", "7"),
        ("connectivity", "--n", "2"),
        ("oracle", "--samples", "-5"),
        ("r-sweep", "--samples", "-1"),
        ("connectivity", "--samples", "100001"),
        ("theorem63", "--samples", "-1"),
        ("theorem63", "--samples", "1001"),
        ("alpha", "--nmax", "41"),
        ("parity", "--max-m", "5"),
        ("parity", "--max-m", "41"),
    ],
)
def test_verify_rejects_out_of_range_scale(capsys, argv):
    code, stdout, err = run(capsys, "verify", *argv)
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and argv[1] in err


@pytest.mark.parametrize(
    "argv",
    [("partition-theorem", "--n", "5"), ("claws", "--samples", "3"), ("alpha", "--seed", "1")],
)
def test_verify_rejects_flag_the_suite_does_not_take(capsys, argv):
    code, stdout, err = run(capsys, "verify", *argv)
    assert code == 2 and stdout == ""
    assert err == f"error: {argv[0]} does not take {argv[1]}\n"


def test_verify_pass_and_json(capsys):
    code, stdout, _ = run(capsys, "verify", "alpha", "--nmax", "10")
    assert code == 0 and stdout.startswith("PASS alpha")
    code, stdout, _ = run(capsys, "verify", "alpha", "--nmax", "10", "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["ok"] is True and payload["suite"] == "alpha"


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_export_dot(tmp_path, capsys):
    src = tmp_path / "p.json"
    run(capsys, "generate", "partition(4)", "--out", str(src))
    code, stdout, _ = run(capsys, "export-dot", str(src), "--highlight", "0-2")
    assert code == 0
    assert stdout.startswith("graph coloring {")
    assert "0 -- 2 [color=black, style=solid, penwidth=2.5];" in stdout
    for bad in ("0:2", "a-b"):
        code, stdout, err = run(capsys, "export-dot", str(src), "--highlight", bad)
        assert code == 2 and stdout == "" and "bad highlight pair" in err


def test_export_dot_rejects_n_above_the_structural_ceiling(tmp_path, capsys):
    src = tmp_path / "big.json"
    src.write_text('{"n": 65, "ones": []}')
    code, stdout, err = run(capsys, "export-dot", str(src))
    assert code == 2 and stdout == "" and "n=65" in err


@pytest.mark.parametrize("command", ["analyze", "export-dot"])
def test_member_must_name_a_coloring_in_the_file(tmp_path, capsys, command):
    single = tmp_path / "single.json"
    run(capsys, "generate", "partition(6)", "--out", str(single))
    pair = tmp_path / "pair.json"
    payload = json.loads(run(capsys, "generate", "fig-homsum")[1])
    del payload["sum"]
    pair.write_text(json.dumps(payload))
    for path, member, message in [
        (pair, "sum", "has no member 'sum'"),
        (pair, "bogus", "must be phi/psi/sum"),
        (single, "psi", "--member psi needs a pair file"),
        (single, "sum", "--member sum needs a pair file"),
        (single, "bogus", "--member bogus needs a pair file"),
    ]:
        code, stdout, err = run(capsys, command, str(path), "--member", member)
        assert code == 2 and stdout == "" and message in err
    for path, member in [(pair, "phi"), (pair, "psi"), (single, "phi")]:
        assert run(capsys, command, str(path), "--member", member)[0] == 0


def test_analyze_stops_at_the_bound_on_maximal_hom_sets(tmp_path, capsys, fact_calls):
    # color 1 between blocks of three: 3^14 maximal homogeneous sets at n = 42
    src = tmp_path / "moon_moser.json"
    ones = [[x, y] for y in range(42) for x in range(y) if x // 3 != y // 3]
    src.write_text(json.dumps({"n": 42, "ones": ones}))
    start = time.perf_counter()
    code, stdout, err = run(capsys, "analyze", str(src), "--json")
    assert code == 2 and stdout == ""
    assert f"more than {HOM_SETS_MAX} maximal homogeneous sets" in err
    assert time.perf_counter() - start < 30
    assert fact_calls == dict.fromkeys(_FACTS, 0)  # refused before any scan
