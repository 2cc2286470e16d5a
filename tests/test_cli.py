"""Command-line behavior: subcommands, exit codes, round trips."""

import json

import pytest

from homrec.cli import main
from homrec.coloring import Coloring
from homrec.fixtures import partition_coloring, random_coloring


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


def test_analyze_rejects_negative_budget(tmp_path, capsys):
    src = tmp_path / "p6.json"
    run(capsys, "generate", "partition(6)", "--out", str(src))
    code, stdout, err = run(capsys, "analyze", str(src), "--budget", "-5")
    assert code == 2 and stdout == "" and "budget" in err


@pytest.mark.parametrize(
    "fixture, verdict",
    [("random(7,0.5,1)", "in_R"), ("random(6,0.5,12)", "not_in_R")],
)
def test_analyze_budget_defers_to_complete_r_report(tmp_path, capsys, fixture, verdict):
    # neither coloring has a critical pair or cycle, so a budget of 1000
    # leaves in_R undecided; the complete exhaustive r search decides it
    src = tmp_path / "phi.json"
    run(capsys, "generate", fixture, "--out", str(src))
    code, budgeted, _ = run(capsys, "analyze", str(src), "--json", "--budget", "1000")
    assert code == 0
    report = json.loads(budgeted)
    assert report["r_report"]["complete"] is True
    assert report["membership"]["verdict"] == verdict
    if verdict == "not_in_R":
        assert report["membership"]["witness"] == report["r_report"]["witnesses"][0]
    assert budgeted == run(capsys, "analyze", str(src), "--json")[1]


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
    code, _, _ = run(capsys, "export-dot", str(src), "--highlight", "0:2")
    assert code == 2
