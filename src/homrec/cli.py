"""Command line interface.

Subcommands:

* ``generate``    write a named fixture as coloring JSON;
* ``analyze``     report homogeneous structure, critical pairs/cycles,
                  reconstructibility, and the minimal-reconstruction
                  number of a coloring file;
* ``verify``      run a named verification suite at a chosen scale;
* ``export-dot``  render a coloring file as Graphviz source.

Exit codes: 0 success / suite passed, 1 suite failed, 2 bad input or
usage.  Machine output is versioned JSON (schema_version); everything
printed to stdout is deterministic for fixed inputs, seeds, and scales.
Every suite runs in the calling thread.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .coloring import Coloring, EdgeSet, hom_sets, hom_triple_counts
from .critical import witness_json
from .errors import BudgetError, HomrecError
from .fixtures import fixture_names, parse_fixture
from .reconstruct import MAX_N, analyze
from .structure import to_dot
from .suites import SUITES, run_suite

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise HomrecError(f"cannot write {out}: {exc}") from exc


def _load_coloring(path: str, member: str) -> Coloring:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise HomrecError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: also an int over the digit limit
        raise HomrecError(f"{path} is not valid JSON: {exc}") from exc
    if isinstance(obj, dict) and {"phi", "psi"} <= set(obj):
        if member not in ("phi", "psi", "sum"):
            raise HomrecError(f"pair file member must be phi/psi/sum, got {member!r}")
        if member not in obj:
            raise HomrecError(f"{path} has no member {member!r}")
        obj = obj[member]
    elif member != "phi":
        raise HomrecError(f"{path} holds one coloring; --member {member} needs a pair file")
    n = obj.get("n") if isinstance(obj, dict) else None
    if isinstance(n, int) and n > MAX_N:
        raise BudgetError(f"{path}: coloring files take n <= {MAX_N}, got n={n}")
    try:
        return Coloring.from_json(obj)
    except (HomrecError, ValueError, TypeError, KeyError) as exc:
        raise HomrecError(f"{path} is not a coloring file: {exc}") from exc


def cmd_generate(args: argparse.Namespace) -> int:
    fixture = parse_fixture(args.fixture)
    _write(_dump(fixture.payload("hex" if args.hex else "ones")), args.out)
    return EXIT_OK


def _analysis(phi: Coloring, mode: str) -> dict:
    """The analysis report.  ``mode`` only labels the r report: structural
    when asked for or when the search did not run, else exhaustive."""
    maximal = hom_sets(phi)  # first: it is the part that can exceed its bound
    facts, membership, report = analyze(phi)
    label = "structural" if mode == "structural" or facts.masks is None else "exhaustive"
    return {
        "schema_version": SCHEMA_VERSION,
        "n": phi.n,
        "coloring": phi.to_json(),
        "hom": {
            "triples": sum(hom_triple_counts(phi)),
            "maximal_sets": [{"vertices": list(h.vertices), "color": h.color} for h in maximal],
        },
        "critical_pairs": [list(p) for p in facts.pairs],
        "critical_cycles": [witness_json(w) for w in facts.cycles],
        "membership": {
            "verdict": membership.verdict.value,
            "witness": (
                [list(p) for p in membership.witness.members()] if membership.witness else None
            ),
        },
        "r_report": {**report.to_json(), "mode": label},
    }


def _analysis_lines(report: dict) -> list[str]:
    hom = report["hom"]
    rrep = report["r_report"]
    lines = [
        f"vertices            {report['n']}",
        f"homogeneous triples {hom['triples']}",
        "maximal hom sets    "
        + (
            "; ".join(
                f"{tuple(h['vertices'])} color {h['color']}" for h in hom["maximal_sets"]
            )
            or "none"
        ),
        f"critical pairs      {len(report['critical_pairs'])}"
        + (f"  {report['critical_pairs']}" if report["critical_pairs"] else ""),
        f"critical cycles     {len(report['critical_cycles'])}"
        + (
            "  "
            + "; ".join(
                f"{tuple(w['vertices'])} [{w['orientation']}]"
                for w in report["critical_cycles"]
            )
            if report["critical_cycles"]
            else ""
        ),
        f"membership          {report['membership']['verdict']}",
        f"r                   {_r_text(rrep)} (mode={rrep['mode']}, complete={rrep['complete']})",
        f"minimal witnesses   {len(rrep['witnesses'])}",
    ]
    return lines


def _r_text(rrep: dict) -> str:
    if rrep["r"] is not None:
        return str(rrep["r"])
    return "not applicable" if rrep["complete"] else "unknown"


def cmd_analyze(args: argparse.Namespace) -> int:
    phi = _load_coloring(args.path, args.member)
    report = _analysis(phi, args.mode)
    if args.json:
        _write(_dump(report), args.out)
    else:
        _write("\n".join(_analysis_lines(report)) + "\n", args.out)
    return EXIT_OK


# Per suite: suite keyword -> (command-line flag, allowed (lo, hi) or None).
# The oracle's exhaustive --n crosses every coloring with every flip set,
# 2^(2P) pairs, so --n stops at 6 vertices.  There, at default scale
# otherwise, oracle takes 6.9-8.1 s, parity 1.8-2.1 s, connectivity
# 3.1-3.3 s, r-sweep 1.4-1.5 s and claws 0.9-1.1 s, and alpha at --nmax 40
# takes 1.1-2.2 s, at 17-26 MB (whole process, one to five runs each,
# 2-vCPU VM, Python 3.11).  The other ceilings keep a run in minutes.
_N = ("n", (3, 6))
_SAMPLES = ("samples", (0, 100_000))
_SEED = ("seed", None)
_SUITE_FLAGS = {
    "oracle": {"n_exhaustive": _N, "samples": _SAMPLES, "seed": _SEED},
    "claws": {"n": ("n", (4, 6))},
    "parity": {"n": _N, "max_m": ("max_m", (6, 40))},
    "partition-theorem": {},
    "r-sweep": {"n_exhaustive": _N, "samples": _SAMPLES, "seed": _SEED},
    "connectivity": {"n_exhaustive": _N, "samples": _SAMPLES, "seed": _SEED},
    "alpha": {"nmax": ("nmax", (8, 40))},
    "theorem63": {"samples": ("samples", (0, 1_000)), "seed": _SEED},
}
_SCALE_FLAGS = sorted({flag for flags in _SUITE_FLAGS.values() for flag, _ in flags.values()})


def cmd_verify(args: argparse.Namespace) -> int:
    taken = {flag: (key, bounds) for key, (flag, bounds) in _SUITE_FLAGS[args.suite].items()}
    kwargs = {}
    for flag in _SCALE_FLAGS:
        value = getattr(args, flag)
        if value is None:
            continue
        option = "--" + flag.replace("_", "-")
        if flag not in taken:
            raise HomrecError(f"{args.suite} does not take {option}")
        key, bounds = taken[flag]
        if bounds is not None and not bounds[0] <= value <= bounds[1]:
            raise HomrecError(
                f"{args.suite}: {option} must be in {bounds[0]}..{bounds[1]}, got {value}"
            )
        kwargs[key] = value
    result = run_suite(args.suite, **kwargs)
    if args.json:
        payload = {"schema_version": SCHEMA_VERSION, **result.to_json()}
        _write(_dump(payload), args.out)
    else:
        _write("\n".join(result.lines()) + "\n", args.out)
    return EXIT_OK if result.ok else EXIT_VERIFY_FAILED


def _parse_highlight(n: int, text: str) -> EdgeSet:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            x, y = (int(end) for end in chunk.split("-"))
        except ValueError as exc:
            raise HomrecError(f"bad highlight pair {chunk!r}; use like 0-1,2-3") from exc
        pairs.append((x, y))
    return EdgeSet.from_pairs(n, pairs)


def cmd_export_dot(args: argparse.Namespace) -> int:
    phi = _load_coloring(args.path, args.member)
    highlight = _parse_highlight(phi.n, args.highlight) if args.highlight else None
    _write(to_dot(phi, highlight), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homrec",
        description="analyze and verify reconstruction of pair colorings "
        "from their homogeneous sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a named fixture as JSON")
    gen.add_argument("fixture", help="fixture id, one of: " + ", ".join(fixture_names()))
    gen.add_argument("--out", default=None, help="output path (default stdout)")
    gen.add_argument("--hex", action="store_true", help="hex bit-string form")
    gen.set_defaults(func=cmd_generate)

    ana = sub.add_parser("analyze", help="analyze a coloring file")
    ana.add_argument("path")
    ana.add_argument("--json", action="store_true", help="machine-readable output")
    ana.add_argument(
        "--mode",
        choices=("auto", "exhaustive", "structural"),
        default="auto",
        help="deprecated, kept for one release: it only names the r report's "
        "mode (structural if given as structural or if the pair classes do not "
        "fit the search, exhaustive otherwise) and never changes the analysis, "
        f"which takes n <= {MAX_N}",
    )
    ana.add_argument("--member", default="phi", help="member of a pair file (phi/psi/sum)")
    ana.add_argument("--out", default=None)
    ana.set_defaults(func=cmd_analyze)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=sorted(SUITES))
    ver.add_argument("--n", type=int, default=None, help="exhaustive vertex count")
    ver.add_argument("--samples", type=int, default=None)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--nmax", type=int, default=None, help="alpha truncation bound")
    ver.add_argument("--max-m", dest="max_m", type=int, default=None)
    ver.add_argument("--json", action="store_true")
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify)

    dot = sub.add_parser("export-dot", help="render a coloring as Graphviz source")
    dot.add_argument("path")
    dot.add_argument("--highlight", default=None, help="bold edges, e.g. 0-1,1-2")
    dot.add_argument("--member", default="phi")
    dot.add_argument("--out", default=None)
    dot.set_defaults(func=cmd_export_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HomrecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
