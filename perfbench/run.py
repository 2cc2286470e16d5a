"""Benchmark for homrec: one closed-loop caller runs a workload's batch of
``homrec`` commands back to back, in process, through
``homrec.cli.main(argv)`` (the code path of the ``homrec`` console
script), checks every output, and prints named metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-n7 --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced batches and prints the per-layer metrics (see
``tracing.py``).  The program is imported from ``src/`` of the checkout;
without it the benchmark exits with status 2 and prints no result.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md in this
directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Set-up (fresh interpreter, import, input generation, warm-up) is timed
# in this many fresh processes per run, one after each batch while they
# last; setup_s is their median.
SETUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

_ANALYZE_MODE = {"exact-n7": "exhaustive", "structural-large": "structural"}


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import ``homrec.cli`` from this checkout's ``src/``, and only there."""
    package = SRC / "homrec"
    if not (package / "cli.py").is_file():
        raise ProgramMissing(f"no homrec sources at {package}")
    sys.path.insert(0, str(SRC))
    from homrec import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"homrec was imported from {cli.__file__}, not {package}")
    return cli


def invoke(cli, argv) -> object:
    """Run one command; return its exit code, or why it did not finish."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected the command line
        return f"exit {exc.code}"
    except Exception as exc:  # a crashing operation is counted as failed
        return f"raised {exc!r}"


def setup(cli, workload: str, seed: int, workdir: Path, tracer=None) -> workloads.Batch:
    """Generate the inputs and warm up with one small analyze."""
    if tracer is None:
        batch = workloads.build(workload, seed, workdir)
    else:
        with tracer.installed():
            batch = workloads.build(workload, seed, workdir)
    code = invoke(cli, batch.warmup.argv)
    if code != 0:
        raise RuntimeError(f"warm-up failed: {code}")
    return batch


@dataclass
class BatchRun:
    wall_s: float
    latencies_ms: list[float]
    codes: list[object]
    outputs: list[bytes | None]

    def digest(self, batch: workloads.Batch) -> str:
        h = hashlib.sha256()
        for op, code, out in zip(batch.ops, self.codes, self.outputs):
            h.update(f"{op.name}\0{code}\0".encode())
            h.update(out if out is not None else b"<no output>")
            h.update(b"\0")
        return h.hexdigest()


def run_batch(cli, batch: workloads.Batch, tracer=None) -> BatchRun:
    for op in batch.ops:
        Path(op.out).unlink(missing_ok=True)
    latencies, codes = [], []
    start = time.perf_counter()
    for i, op in enumerate(batch.ops):
        t0 = time.perf_counter()
        if tracer is None:
            code = invoke(cli, op.argv)
        else:
            with tracer.operation(i):
                code = invoke(cli, op.argv)
        latencies.append((time.perf_counter() - t0) * 1e3)
        codes.append(code)
    wall = time.perf_counter() - start
    outputs = []
    for op in batch.ops:
        path = Path(op.out)
        outputs.append(path.read_bytes() if path.is_file() else None)
    return BatchRun(wall, latencies, codes, outputs)


class Checker:
    """Checks each distinct output once; batches repeat the same ones."""

    def __init__(self, batch: workloads.Batch) -> None:
        import checks
        from homrec.coloring import Coloring

        self._checks = checks
        self._batch = batch
        self._phis = [
            Coloring.from_json(json.loads(Path(op.input).read_text(encoding="utf-8")))
            if op.kind == "analyze"
            else None
            for op in batch.ops
        ]
        self._memo: dict[tuple, list[str]] = {}

    def problems(self, i: int, code, output: bytes | None) -> list[str]:
        key = (i, code, output)
        if key not in self._memo:
            op = self._batch.ops[i]
            if code != 0:
                found = [f"exit status {code}"]
            elif output is None:
                found = ["wrote no output"]
            elif op.kind == "analyze":
                found = self._checks.check_analyze(
                    self._phis[i], output, _ANALYZE_MODE[self._batch.workload]
                )
            else:
                found = self._checks.check_verify(op.argv[1], output)
            self._memo[key] = found
        return self._memo[key]


def input_counts(batch: workloads.Batch, run: BatchRun) -> dict:
    """Exact counts of the input properties that decide which path runs."""
    parsed = []
    for op, out in zip(batch.ops, run.outputs):
        try:
            parsed.append((op, json.loads(out)))
        except (TypeError, ValueError):
            continue  # counted as a failed operation elsewhere
    if batch.workload == "suites":
        return {"cases": {res["suite"]: res["cases"] for _, res in parsed}}
    counts: dict[str, int] = {}

    def bump(key: str) -> None:
        counts[key] = counts.get(key, 0) + 1

    for _, rep in parsed:
        pairs, cycles = rep["critical_pairs"], rep["critical_cycles"]
        if batch.workload == "exact-n7":
            if pairs or cycles:
                bump("cut_short")
            elif rep["membership"]["verdict"] == "in_R":
                bump("reconstructible_full_sweep")
            else:
                bump("not_reconstructible_full_sweep")
        else:
            if pairs:
                bump("critical_pair")
            if cycles:
                bump("critical_cycle")
            if not pairs and not cycles:
                bump("neither")
    return counts


def time_setup(workload: str, seed: int) -> float:
    """Wall time of set-up in a fresh process, interpreter start included.
    The wait blocks until the child exits: ``subprocess.run`` with a
    timeout polls every 50 ms, which would round the time up to that
    step.  A timer kills a child that hangs instead."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.DEVNULL) as child:
        watchdog = threading.Timer(120, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)
    return elapsed


def run_metadata(seed: int) -> dict:
    import networkx
    import numpy
    from homrec import parallel

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "HOMREC_THREADS": os.environ.get("HOMREC_THREADS"),
        "thread_count": parallel.thread_count(),
        "seed": seed,
        "src_lines": src_lines,
    }


def batch_time_s(runs: list[BatchRun]) -> float:
    """Time to finish the batch, each operation taken at its median
    latency over the runs, so a burst of machine noise during one batch
    does not decide the figure."""
    return sum(statistics.median(op) for op in zip(*(run.latencies_ms for run in runs))) / 1e3


def measure(cli, batch, seconds: int, tracer=None, between=None):
    """Run batches for about ``seconds`` of batch time (at least one
    batch): a step starts only if it is expected to end less than half a
    step past ``seconds``.  With a tracer, each step is an untraced batch
    followed by a traced one, and each traced batch is summarized into
    per-layer metrics.  ``between`` is called after each step, outside
    the measured time."""
    from homrec import parallel

    threads = parallel.thread_count()
    # cycle scans per op are averaged over the seeded random colorings, or
    # over every operation where there are none
    scan_ops = {i for i, op in enumerate(batch.ops) if op.random_input} or set(range(len(batch.ops)))
    untraced, traced, summaries = [], [], []
    measured = step = 0.0
    while not untraced or measured + step / 2 < seconds:
        start = time.perf_counter()
        untraced.append(run_batch(cli, batch))
        if tracer is not None:
            with tracer.installed():
                traced.append(run_batch(cli, batch, tracer))
            summaries.append(tracing.summarize(tracer.take(), scan_ops, threads))
        step = time.perf_counter() - start
        measured += step
        if between is not None:
            between()
    return untraced, traced, summaries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        cli = load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            setup(cli, args.workload, args.seed, workdir)
            return 0
        return _run(cli, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def _run(cli, args, workdir: Path) -> int:
    tracer = tracing.Tracer() if args.trace else None
    batch = setup(cli, args.workload, args.seed, workdir, tracer)
    setup_spans = tracer.take() if tracer else []
    setups: list[float] = []

    def spread_setups() -> None:
        # fresh-process set-ups are spread over the run, not bunched at its end
        if tracer is None and len(setups) < SETUP_REPEATS:
            setups.append(time_setup(args.workload, args.seed))

    untraced, traced, summaries = measure(cli, batch, args.seconds, tracer, spread_setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while tracer is None and len(setups) < SETUP_REPEATS:
        spread_setups()

    runs = untraced + traced
    checker = Checker(batch)
    failed, notes = 0, []
    for run in runs:
        for i, (code, out) in enumerate(zip(run.codes, run.outputs)):
            found = checker.problems(i, code, out)
            if found:
                failed += 1
                notes += [f"{batch.ops[i].name}: {p}" for p in found]
    digests = {run.digest(batch) for run in runs}
    leftovers = tracing.leftover_wrappers()
    attempted = len(runs) * len(batch.ops)
    correct = failed == 0 and len(digests) == 1 and not leftovers

    latencies = [ms for run in untraced for ms in run.latencies_ms]
    print(f"homrec benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("meta: " + json.dumps(run_metadata(args.seed), sort_keys=True))
    print("inputs: " + json.dumps(input_counts(batch, runs[0]), sort_keys=True))
    print("digest: " + (f"sha256:{digests.pop()}" if len(digests) == 1 else f"MISMATCH {sorted(digests)}"))
    print(f"batches: {len(untraced)} untraced, {len(traced)} traced; {len(batch.ops)} operations per batch")
    print(f"failed_share: {failed / attempted} ({failed} of {attempted})")
    for note in sorted(set(notes))[:20]:
        print(f"  failure: {note}")
    if leftovers:
        print(f"  tracing wrappers left installed: {leftovers}")

    if tracer is None:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": batch_time_s(untraced),
            "op_p50_ms": statistics.median(latencies),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
        print(f"setup_s samples: {setups}")
        print(f"whole-batch wall times: {[run.wall_s for run in untraced]}")
        for run in untraced:
            print(f"  latencies (ms): {[round(ms, 1) for ms in run.latencies_ms]}")
        print(f"op_p50_ms samples: {len(latencies)}")
    else:
        values = tracing.median_metrics(summaries)
        values["fixtures.busy_ms"] = tracing.summarize(setup_spans, set(), 1)["fixtures.busy_ms"]
        wall_untraced = batch_time_s(untraced)
        wall_traced = batch_time_s(traced)
        values["trace.wall_untraced_s"] = wall_untraced
        values["trace.wall_traced_s"] = wall_traced
        values["trace.overhead_s"] = wall_traced - wall_untraced
        units = dict(tracing.PER_LAYER)
    for name, unit in units.items():
        print(f"{name:45s} {values[name]} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
