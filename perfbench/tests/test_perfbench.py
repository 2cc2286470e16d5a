"""Tests of the benchmark itself: seeded inputs, tracing, output checks.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads
from homrec import cli, parallel, reconstruct, suites
from homrec.coloring import Coloring

BENCH = Path(__file__).resolve().parent.parent


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*.json"))}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed_and_differ_between_seeds(tmp_path, workload):
    a = workloads.build(workload, 5, tmp_path / "a")
    b = workloads.build(workload, 5, tmp_path / "b")
    c = workloads.build(workload, 6, tmp_path / "c")
    assert [op.name for op in a.ops] == [op.name for op in b.ops]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [op.name for op in a.ops] != [op.name for op in c.ops]


def test_exact_n7_batch_is_stratified(tmp_path):
    batch = workloads.build("exact-n7", 3, tmp_path)
    cut_short = 0
    for op in batch.ops:
        phi = Coloring.from_json(json.loads(Path(op.input).read_text()))
        cut_short += workloads._has_critical_structure(phi)
    assert cut_short == len(batch.ops) - len(workloads.EXACT_FULL_SWEEP_DENSITIES)


def test_theorem63_sweep_count_mirrors_the_suite_sampling():
    for suite_seed in (1, 9, 474354):
        expected = sum(
            not workloads._has_critical_structure(Coloring(7, bits))
            for bits in suites._sample_masks(7, workloads.THEOREM63_SAMPLES, suite_seed)
        )
        assert workloads._theorem63_full_sweeps(suite_seed) == expected


def _small_batch(tmp_path: Path) -> workloads.Batch:
    """A quick batch that still reaches every traced layer kind."""
    from homrec import fixtures

    ops = []
    for i, (fid, flags) in enumerate(
        [
            ("fig-no-critical-pair(6)", ["--json"]),
            ("random(12,0.5,3)", ["--json", "--mode", "structural"]),
        ]
    ):
        path = tmp_path / f"{i}.json"
        workloads._write_fixture(fixtures, fid, path)
        out = str(tmp_path / f"out{i}.json")
        ops.append(workloads.Op(fid, "analyze", ("analyze", str(path), *flags, "--out", out), out, str(path), True))
    for j, argv in enumerate(
        [["verify", "claws", "--n", "4", "--json"], ["verify", "alpha", "--nmax", "8", "--json"]]
    ):
        out = str(tmp_path / f"verify{j}.json")
        ops.append(workloads.Op(" ".join(argv), "verify", (*argv, "--out", out), out))
    return workloads.Batch("test", tuple(ops), ops[0])


def test_tracing_leaves_outputs_unchanged_and_is_removed(tmp_path):
    batch = _small_batch(tmp_path)
    originals = {
        "cli": cli.find_critical_cycles,
        "reconstruct": reconstruct.find_critical_cycles,
        "suites.in_R": suites.in_R,
        "SUITES": suites.SUITES["alpha"],
        "kernels": reconstruct.kernels.valid_for_phi,
    }
    untraced = run.run_batch(cli, batch)

    tracer = tracing.Tracer()
    with tracer.installed():
        # every binding is wrapped, not only the defining module's
        assert getattr(cli.find_critical_cycles, tracing._MARK, False)
        assert getattr(reconstruct.find_critical_cycles, tracing._MARK, False)
        assert getattr(suites.in_R, tracing._MARK, False)
        assert getattr(suites.SUITES["alpha"], tracing._MARK, False)
        traced = run.run_batch(cli, batch, tracer)
    spans = tracer.take()

    assert tracing.leftover_wrappers() == []
    assert cli.find_critical_cycles is originals["cli"]
    assert reconstruct.find_critical_cycles is originals["reconstruct"]
    assert suites.in_R is originals["suites.in_R"]
    assert suites.SUITES["alpha"] is originals["SUITES"]
    assert reconstruct.kernels.valid_for_phi is originals["kernels"]
    assert untraced.digest(batch) == traced.digest(batch)

    names = {s.name for s in spans}
    assert {"cli.main", "kernels.valid_for_phi", "critical.find_critical_cycles", "suites.alpha"} <= names
    for shard in (s for s in spans if s.name == "parallel.shard"):
        assert shard.parent.name == "parallel.run_sharded"
        assert shard.op == shard.parent.op
    assert all(s.op is not None for s in spans)

    m = tracing.summarize(spans, {1}, parallel.thread_count())
    assert set(m) | {"trace.wall_untraced_s", "trace.wall_traced_s", "trace.overhead_s"} == {
        name for name, _ in tracing.PER_LAYER
    }
    assert m["critical.cycle_scans_per_op"] == 3  # the random structural input
    assert m["suites.alpha.busy_ms"] > 0
    assert m["parallel.run_sharded.calls"] >= 1


def test_self_time_subtracts_overlapping_children():
    parent = tracing.Span("p", None, 0)
    parent.start, parent.end = 0, 100
    kids = []
    for lo, hi in ((10, 40), (30, 60), (90, 120)):
        kid = tracing.Span("k", parent, 0)
        kid.start, kid.end = lo, hi
        kids.append(kid)
    assert tracing._covered_ns(parent, kids) == 60


def _analyze(tmp_path: Path, phi: Coloring, mode: str = "exhaustive") -> bytes:
    src = tmp_path / "in.json"
    src.write_text(json.dumps(phi.to_json()))
    out = tmp_path / "out.json"
    assert cli.main(["analyze", str(src), "--json", "--mode", mode, "--out", str(out)]) == 0
    return out.read_bytes()


def test_checker_accepts_real_reports(tmp_path):
    from homrec.fixtures import fig_critical_pair, fig_no_critical_pair

    for phi in (fig_critical_pair(), fig_no_critical_pair(6)):
        assert checks.check_analyze(phi, _analyze(tmp_path, phi), "exhaustive") == []


def test_checker_rejects_corrupted_witness(tmp_path):
    from homrec.fixtures import fig_critical_pair

    phi = fig_critical_pair()
    report = json.loads(_analyze(tmp_path, phi))
    good = report["r_report"]["witnesses"][0]
    assert good == [[0, 1]]
    report["r_report"]["witnesses"][0] = [[0, 2]]
    problems = checks.check_analyze(phi, json.dumps(report).encode(), "exhaustive")
    assert any("local criterion" in p for p in problems)
    assert any("homogeneous sets" in p for p in problems)

    report["r_report"]["witnesses"][0] = []
    problems = checks.check_analyze(phi, json.dumps(report).encode(), "exhaustive")
    assert any("trivial" in p for p in problems)


def test_checker_rejects_verdict_contradicting_r(tmp_path):
    from homrec.fixtures import fig_critical_pair

    phi = fig_critical_pair()
    report = json.loads(_analyze(tmp_path, phi))
    assert report["r_report"]["r"] == 1
    report["membership"] = {"verdict": "in_R", "witness": None}
    problems = checks.check_analyze(phi, json.dumps(report).encode(), "exhaustive")
    assert any("contradicts" in p for p in problems)


def test_checker_rejects_wrong_critical_pair(tmp_path):
    from homrec.fixtures import fig_critical_pair

    phi = fig_critical_pair()
    report = json.loads(_analyze(tmp_path, phi))
    report["critical_pairs"].append([2, 3])
    problems = checks.check_analyze(phi, json.dumps(report).encode(), "exhaustive")
    assert any("B-set" in p for p in problems)


def test_checker_rejects_failed_suite():
    bad = json.dumps({"suite": "claws", "ok": False, "cases": 3, "failures": ["x"]}).encode()
    assert checks.check_verify("claws", bad)
    good = json.dumps({"suite": "claws", "ok": True, "cases": 3, "failures": []}).encode()
    assert checks.check_verify("claws", good) == []


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-n7", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
