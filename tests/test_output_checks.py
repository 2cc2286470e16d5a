"""The benchmark's output checks pass on ``analyze --json`` reports.

The benchmark counts an operation as failed when ``perfbench/checks.py``
finds a problem with its output, so a report change that those checks
reject would surface only as a failed-operation rate there.  This runs
the same checks on reports of small colorings, labelled exhaustive, and
on structural fixtures.  The benchmark's tracer wraps package functions
by name, so every name it lists must still resolve."""

import ast
import importlib
import importlib.util
import json
import random
from pathlib import Path

import pytest

from homrec import cli, suites
from homrec.cli import main
from homrec.coloring import Coloring, pair_count
from homrec.fixtures import parse_fixture

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_checks", _PERFBENCH / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


def _seeded(n: int, count: int) -> list[Coloring]:
    rng = random.Random(n)
    return [Coloring(n, rng.getrandbits(pair_count(n))) for _ in range(count)]


def _problems(phi: Coloring, mode: str, tmp_path, capsys) -> list[str]:
    path = tmp_path / "coloring.json"
    path.write_text(json.dumps(phi.to_json()), encoding="utf-8")
    flags = ["--mode", "structural"] if mode == "structural" else []
    assert main(["analyze", str(path), "--json", *flags]) == 0
    return checks.check_analyze(phi, capsys.readouterr().out.encode(), mode)


@pytest.mark.parametrize(
    "phis",
    [
        pytest.param(
            [Coloring(n, b) for n in (3, 4) for b in range(1 << pair_count(n))], id="all-n3-n4"
        ),
        *(pytest.param(_seeded(n, 100), id=f"n{n}") for n in (6, 7, 8)),
        # fig-two-cycles relabelled: the membership witness is the second cycle
        pytest.param([Coloring(8, 0x5D2AB51)], id="two-cycles-relabelled"),
    ],
)
def test_exhaustive_reports_pass_the_checks(phis, tmp_path, capsys):
    for phi in phis:
        assert _problems(phi, "exhaustive", tmp_path, capsys) == [], hex(phi.bits)


@pytest.mark.parametrize("fixture", ["alpha(17)", "partition(12)", "random(12,0.5,3)"])
def test_structural_reports_pass_the_checks(fixture, tmp_path, capsys):
    phi = parse_fixture(fixture).phi
    assert _problems(phi, "structural", tmp_path, capsys) == []


def test_every_name_the_tracer_wraps_resolves():
    # the tracer looks each (module, function) up with no default, so a
    # name gone from the package breaks every traced run
    tree = ast.parse((_PERFBENCH / "tracing.py").read_text())
    listed = {
        node.targets[0].id if isinstance(node, ast.Assign) else node.target.id: node.value
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
    }
    targets = ast.literal_eval(listed["_TARGETS"])
    assert targets
    for module, function in targets:
        assert callable(getattr(importlib.import_module(f"homrec.{module}"), function))
    assert set(ast.literal_eval(listed["SUITE_NAMES"])) == set(suites.SUITES)
    assert set(cli._SUITE_FLAGS) == set(suites.SUITES)
