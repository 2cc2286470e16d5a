"""Seeded inputs and operation batches for the benchmark's workloads.

A workload is a fixed batch of ``homrec`` command lines.  Coloring inputs
are fixture ids (the ids ``homrec generate`` accepts), built with
``homrec.fixtures.parse_fixture`` and written as coloring JSON during
set-up; the timed operations see only those files and their argv.  The
same seed gives byte-identical files and argv; other seeds give other
random colorings and suite seeds.

The batches are stratified so that their cost does not swing with the
seed: the seed picks *which* random colorings are used, never how many of
each kind or at which size.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("exact-n7", "structural-large", "suites")

# exact-n7: random colorings that take the full-sweep path of in_R (no
# critical pair or cycle), one per density, plus random colorings whose
# critical pair or cycle cuts in_R short.
EXACT_FULL_SWEEP_DENSITIES = (0.3, 0.5, 0.7)
EXACT_CUT_SHORT_RANDOM = 2

# structural-large: random colorings this large have no critical pair or
# cycle, so every analyze runs the cycle scan three times; alpha and
# partition have critical pairs.  The random ones share one size so that
# the median operation is one of them.
STRUCTURAL_RANDOM_NS = (30, 30, 30)
STRUCTURAL_ALPHA_N = 38
STRUCTURAL_PARTITION_N = 34

# suites: every suite, with the sampled parts cut down so that a batch
# takes about 7 s instead of 15 s and a run repeats each operation often
# enough for its fastest latency to be steady; the exhaustive n=5 sweeps
# keep their default scale.  theorem63's n=7 samples each cost a full
# in_R sweep unless a critical pair or cycle cuts it short, so the suite
# seed is drawn until exactly THEOREM63_FULL_SWEEPS of them take the sweep.
THEOREM63_SAMPLES = 4
THEOREM63_FULL_SWEEPS = 3
SUITE_SAMPLES = {"oracle": 2000, "r-sweep": 200, "connectivity": 200, "theorem63": THEOREM63_SAMPLES}
SEEDED_SUITES = ("oracle", "r-sweep", "connectivity", "theorem63")
SUITE_ORDER = (
    "oracle",
    "claws",
    "parity",
    "partition-theorem",
    "r-sweep",
    "connectivity",
    "alpha",
    "theorem63",
)


@dataclass(frozen=True)
class Op:
    """One timed operation: ``homrec.cli.main(argv)``."""

    name: str  # stable label; part of the output digest
    kind: str  # "analyze" or "verify"
    argv: tuple[str, ...]
    out: str  # file the command writes
    input: str | None = None  # coloring file read by analyze
    random_input: bool = False  # seeded random coloring


@dataclass(frozen=True)
class Batch:
    workload: str
    ops: tuple[Op, ...]
    warmup: Op


def _write_fixture(fixtures, fixture_id: str, path: Path) -> None:
    phi = fixtures.parse_fixture(fixture_id).phi
    path.write_text(json.dumps(phi.to_json(), sort_keys=True) + "\n", encoding="utf-8")


def _has_critical_structure(phi) -> bool:
    from homrec import critical

    return bool(critical.find_critical_pairs(phi)) or bool(
        phi.n >= 5 and critical.find_critical_cycles(phi)
    )


def _exact_n7_ids(fixtures, rng: random.Random) -> list[tuple[str, bool]]:
    """(fixture id, is random) for the exact-n7 batch."""
    chosen: list[tuple[str, bool]] = []
    for density in EXACT_FULL_SWEEP_DENSITIES:
        while True:
            fid = f"random(7,{density},{rng.randrange(10**6)})"
            if not _has_critical_structure(fixtures.parse_fixture(fid).phi):
                chosen.append((fid, True))
                break
    short = 0
    while short < EXACT_CUT_SHORT_RANDOM:
        fid = f"random(7,0.5,{rng.randrange(10**6)})"
        if _has_critical_structure(fixtures.parse_fixture(fid).phi):
            chosen.append((fid, True))
            short += 1
    chosen += [
        (f"alpha(7,{rng.randrange(2)})", False),
        ("partition(7)", False),
        ("fig-no-critical-pair(6)", False),
    ]
    return chosen


def _structural_ids(rng: random.Random) -> list[tuple[str, bool]]:
    chosen = [(f"random({n},0.5,{rng.randrange(10**6)})", True) for n in STRUCTURAL_RANDOM_NS]
    chosen += [
        (f"alpha({STRUCTURAL_ALPHA_N},{rng.randrange(2)})", False),
        (f"partition({STRUCTURAL_PARTITION_N})", False),
    ]
    return chosen


def _theorem63_full_sweeps(suite_seed: int) -> int:
    """How many of theorem63's n=7 samples reach in_R's full sweep.  The
    samples are drawn the way ``suites`` draws them: a Mersenne Twister
    seeded with ``seed * 1_000_003 + n``, one ``getrandbits`` per coloring."""
    from homrec.coloring import Coloring, pair_count

    rng = random.Random(suite_seed * 1_000_003 + 7)
    return sum(
        not _has_critical_structure(Coloring(7, rng.getrandbits(pair_count(7))))
        for _ in range(THEOREM63_SAMPLES)
    )


def _suite_argv(suite: str, suite_seed: int) -> list[str]:
    argv = ["verify", suite, "--json"]
    if suite in SUITE_SAMPLES:
        argv += ["--samples", str(SUITE_SAMPLES[suite])]
    if suite in SEEDED_SUITES:
        argv += ["--seed", str(suite_seed)]
    return argv


def build(workload: str, seed: int, workdir: Path) -> Batch:
    """Generate the workload's inputs under ``workdir`` and return its batch."""
    from homrec import fixtures

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    inputs = workdir / "inputs"
    outs = workdir / "out"
    inputs.mkdir(parents=True, exist_ok=True)
    outs.mkdir(parents=True, exist_ok=True)

    ops: list[Op] = []
    if workload == "suites":
        suite_seed = rng.randrange(10**6)
        while _theorem63_full_sweeps(suite_seed) != THEOREM63_FULL_SWEEPS:
            suite_seed = rng.randrange(10**6)
        for i, suite in enumerate(SUITE_ORDER):
            argv = _suite_argv(suite, suite_seed)
            out = str(outs / f"{i}.json")
            ops.append(Op(" ".join(argv), "verify", tuple(argv + ["--out", out]), out))
    else:
        if workload == "exact-n7":
            ids, flags = _exact_n7_ids(fixtures, rng), ["--json"]
        else:
            ids, flags = _structural_ids(rng), ["--json", "--mode", "structural"]
        for i, (fid, is_random) in enumerate(ids):
            path = inputs / f"{i}.json"
            _write_fixture(fixtures, fid, path)
            out = str(outs / f"{i}.json")
            argv = ["analyze", str(path), *flags, "--out", out]
            ops.append(Op(f"analyze {fid}", "analyze", tuple(argv), out, str(path), is_random))

    warm_in = inputs / "warmup.json"
    _write_fixture(fixtures, f"random(6,0.5,{rng.randrange(10**6)})", warm_in)
    warm_out = str(outs / "warmup.json")
    warmup = Op("warmup", "analyze", ("analyze", str(warm_in), "--json", "--out", warm_out), warm_out, str(warm_in))

    return Batch(workload, tuple(ops), warmup)
