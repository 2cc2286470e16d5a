"""Output checks: an operation fails unless its output passes these.

Every witness an ``analyze`` report names (the membership witness, each
minimal witness, each critical pair and each critical cycle) is checked by
both independent routes: the scalar local criterion
``reconstruct.is_valid_difference`` and ``coloring.h_equivalent`` between
the input and the flipped coloring.  A report must also not contradict
itself.  A ``verify`` run must exit 0 with ``ok: true``.
"""

from __future__ import annotations

import json

from homrec.coloring import Coloring, EdgeSet, h_equivalent, pair_count
from homrec.critical import b_set
from homrec.reconstruct import is_valid_difference


class _WitnessChecker:
    def __init__(self, phi: Coloring) -> None:
        self.phi = phi
        self.full = (1 << pair_count(phi.n)) - 1
        self._seen: dict[int, list[str]] = {}

    def __call__(self, pairs, label: str) -> list[str]:
        try:
            diff = EdgeSet.from_pairs(self.phi.n, pairs)
        except (ValueError, TypeError, IndexError) as exc:
            return [f"{label}: not a pair set ({exc})"]
        if diff.mask not in self._seen:
            problems = []
            if diff.mask in (0, self.full):
                problems.append("trivial")
            else:
                if not is_valid_difference(self.phi, diff):
                    problems.append("fails the local criterion")
                if not h_equivalent(self.phi, Coloring(self.phi.n, self.phi.bits ^ diff.mask)):
                    problems.append("its flip changes the homogeneous sets")
            self._seen[diff.mask] = problems
        return [f"{label} {pairs}: {p}" for p in self._seen[diff.mask]]


def _cycle_pairs(quad) -> list[list[int]]:
    a, b, c, d = quad
    return [[a, b], [b, c], [c, d], [d, a]]


def check_analyze(phi: Coloring, output: bytes, mode: str) -> list[str]:
    """Problems with one ``analyze --json`` report of ``phi``."""
    try:
        report = json.loads(output)
        rrep = report["r_report"]
        verdict = report["membership"]["verdict"]
        r, complete = rrep["r"], rrep["complete"]
        if Coloring.from_json(report["coloring"]) != phi:
            return ["report describes another coloring"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]

    problems: list[str] = []
    witness = _WitnessChecker(phi)
    if rrep["mode"] != mode:
        problems.append(f"search mode {rrep['mode']!r}, expected {mode!r}")
    if mode == "exhaustive" and not complete:
        problems.append("exhaustive search reported incomplete")

    membership_witness = report["membership"]["witness"]
    if verdict == "not_in_R" and membership_witness is None:
        problems.append("not_in_R without a witness")
    if membership_witness is not None:
        problems += witness(membership_witness, "membership witness")

    if r is not None and not rrep["witnesses"]:
        problems.append(f"r = {r} without a minimal witness")
    for w in rrep["witnesses"]:
        problems += witness(w, "minimal witness")
        if r is not None and len(w) != r:
            problems.append(f"minimal witness {w} has size {len(w)}, r = {r}")

    # membership and r must tell the same story
    if verdict == "in_R" and not (r is None and complete):
        problems.append(f"verdict in_R contradicts r = {r}, complete = {complete}")
    if r is None and complete and verdict != "in_R":
        problems.append(f"r not applicable (complete) contradicts verdict {verdict}")

    for pair in report["critical_pairs"]:
        if b_set(phi, pair).members:
            problems.append(f"critical pair {pair} has a non-empty B-set")
        problems += witness([pair], "critical pair")
    for cycle in report["critical_cycles"]:
        problems += witness(_cycle_pairs(cycle["vertices"]), "critical cycle")
    return problems


def check_verify(suite: str, output: bytes) -> list[str]:
    """Problems with one ``verify <suite> --json`` result."""
    try:
        result = json.loads(output)
    except ValueError as exc:
        return [f"malformed result: {exc!r}"]
    problems = []
    if result.get("suite") != suite:
        problems.append(f"result names suite {result.get('suite')!r}")
    if result.get("ok") is not True:
        problems.append(f"suite not ok: {result.get('failures')}")
    if not isinstance(result.get("cases"), int) or result["cases"] < 1:
        problems.append(f"no cases run: {result.get('cases')!r}")
    return problems
