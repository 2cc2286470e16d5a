"""Named verification suites.

Each suite checks one family of structural laws at a configurable scale
and returns a :class:`SuiteResult` whose serialized form is deterministic:
every suite runs in the calling thread, and runs with the same seed are
byte-identical.
Failures carry the first counterexample found in scan order.  The oracle
sweeps the bit-sliced batch kernels of ``kernels`` (one int per pair, one
bit per case): the one brute-force sweep left, kept to cross-check the
two validity routes.  The others read the pair-class search of
``reconstruct`` or the scalar checks.  Parity and connectivity meet each
D under many colorings, so they group the search's cases by D over
batches of colorings and check D against all of its owners in a batch at
once: each check on the coloring is one expression over the batch's pair
columns, one bit per coloring.  What depends on D alone (its paths,
components and shape) is worked out once per D and run.  r-sweep reads
which colorings have a critical pair from one ``critical_rows`` call on
the columns of its whole sweep, a route independent of the search it
checks them against.  A coloring and its complement have the same
homogeneous triples, so the same valid differences: claws searches one
coloring of each complementary pair, r-sweep searches once for each
complementary pair of its sweep, and parity and connectivity once for
each complementary pair that meets within a batch.  Failures are named
in the order of a scan case by case: coloring, then D, then check.

Suites:

* ``oracle``             local flip criterion == homogeneous-signature
                         comparison, exhaustive at small n plus random
                         batches at larger n;
* ``claws``              no difference set of an H-equivalent pair, nor
                         its complement pattern, contains a claw;
* ``parity``             the path parity laws hold along every
                         difference component;
* ``partition-theorem``  generated path/cycle pairs split into exactly
                         two maximal homogeneous classes of one color;
* ``r-sweep``            r is never 2, r = 1 iff a critical pair exists,
                         minimal witnesses are connected; reports the
                         empirical r distribution;
* ``connectivity``       every component restriction of a valid
                         difference stays valid; degree <= 2 and
                         path/even-cycle shape under the uniform-color
                         hypothesis; criticality is local;
* ``alpha``              the alpha coloring's assertion families and
                         restriction consistency;
* ``theorem63``          every (F, D) witness of condition (c), a flip
                         set inside a 4-set that is a valid difference of
                         the whole coloring, globally flips to a
                         non-trivial reconstruction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache
from itertools import islice
from typing import Optional

from . import kernels
from .coloring import (
    Coloring,
    EdgeSet,
    bits_of,
    difference,
    h_equivalent,
    hom_sets,
    pair_count,
    pair_index,
)
from .critical import flip_reconstruction
from .errors import ConsistencyError, HomrecError
from .fixtures import partition_coloring
from .parallel import run_sharded
from .reconstruct import Verdict, _reconstruction_masks, in_R
from .srcheck import Theorem63Witness, alpha_coloring, theorem63_condition_c, verify_alpha
from .structure import (
    ComponentKind,
    _chordless_paths,
    check_parity_lemmas,
    components,
    hom_partition,
    make_cycle_pair,
    make_path_pair,
)

__all__ = ["SUITES", "SuiteResult", "run_suite", "suite_names"]

_MAX_FAILURES = 5

# the oracle's exhaustive cross decides 2^_CROSS_BITS (phi, D) cases per
# kernel call, so a block's columns stay 4 KB ints
_CROSS_BITS = 15


@dataclass
class SuiteResult:
    name: str
    ok: bool
    cases: int
    scale: dict
    stats: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "ok": self.ok,
            "cases": self.cases,
            "scale": self.scale,
            "stats": self.stats,
            "failures": self.failures,
        }

    def lines(self) -> list[str]:
        verdict = "PASS" if self.ok else "FAIL"
        scale = " ".join(f"{k}={v}" for k, v in sorted(self.scale.items()))
        out = [f"{verdict} {self.name} cases={self.cases} {scale}".rstrip()]
        for key in sorted(self.stats):
            out.append(f"  {key}: {self.stats[key]}")
        out.extend(f"  counterexample: {f}" for f in self.failures)
        return out


def _sample_masks(n: int, count: int, seed: int) -> list[int]:
    rng = random.Random(seed * 1_000_003 + n)
    p = pair_count(n)
    return [rng.getrandbits(p) for _ in range(count)]


# ---------------------------------------------------------------------------
# oracle


def suite_oracle(
    n_exhaustive: int = 5,
    random_ns: tuple[int, ...] = (6, 7, 8, 9),
    samples: int = 10_000,
    seed: int = 9,
) -> SuiteResult:
    scale = {
        "n_exhaustive": n_exhaustive,
        "random_ns": list(random_ns),
        "samples": samples,
        "seed": seed,
    }
    failures: list[str] = []
    cases = 0

    # exhaustive cross: every coloring against every difference set, a
    # block of 2^s colorings per kernel call.  Entry t * 2^P + psi of the
    # block from ``first`` stands for phi = first + t and D = phi ^ psi, so
    # the signature side reads the table: psi matches phi where every
    # triple's homogeneity does.
    n = n_exhaustive
    p = pair_count(n)
    size, every = 1 << p, (1 << (1 << p)) - 1
    s = max(0, min(_CROSS_BITS - p, p))
    index = kernels.index_columns(p + s)
    full = (1 << (size << s)) - 1
    # per triple, its table row as bytes (a bit test costs no shift of the
    # row) and the colorings where the triple is not, and is, homogeneous
    rows = [
        (hom.to_bytes(size >> 3, "little"), (hom ^ every, hom))
        for hom in kernels.hom_projection_table(n)
    ]

    def matches(phi: int) -> bytes:
        sig = every
        byte, bit = phi >> 3, phi & 7
        for row, homogeneous in rows:
            sig &= homogeneous[row[byte] >> bit & 1]
        return sig.to_bytes(size >> 3, "little")

    mismatches = 0
    for first in range(0, size, 1 << s):
        phi_cols = index[p:] + kernels.constant_columns(n, first, full)[s:]
        diffs = [psi ^ phi for psi, phi in zip(index, phi_cols)]
        local = kernels.valid_for_phi(n, phi_cols, diffs)
        sig = int.from_bytes(b"".join(map(matches, range(first, first + (1 << s)))), "little")
        diff = (local ^ sig) & full
        mismatches += diff.bit_count()
        while diff and len(failures) < _MAX_FAILURES:
            # the entries of the least coloring left, then its least D:
            # from the top pair down, keep D's bit 0 wherever one allows it
            t = ((diff & -diff).bit_length() - 1) >> p
            bad = diff & every << (t << p)
            diff ^= bad
            for d_col in reversed(diffs):
                bad = bad & ~d_col or bad
            d = (first + t) ^ ((bad.bit_length() - 1) & (size - 1))
            failures.append(f"n={n} phi={first + t:#x} D={d:#x}")
    cases += (1 << p) ** 2

    # random paired batches at larger n
    random_cases = {}
    for n in random_ns:
        phis = _sample_masks(n, samples, seed)
        ds = _sample_masks(n, samples, seed + 1)
        phi_cols = kernels.columns_of(n, phis)
        d_cols = kernels.columns_of(n, ds)
        local = kernels.valid_for_phi(n, phi_cols, d_cols)
        psi_cols = [f ^ d for f, d in zip(phi_cols, d_cols)]
        sig = -1
        for a, b in zip(
            kernels.hom_projection_rows(n, phi_cols), kernels.hom_projection_rows(n, psi_cols)
        ):
            sig &= ~(a ^ b)
        diff = (local ^ sig) & ((1 << samples) - 1)
        if diff:
            i = (diff & -diff).bit_length() - 1
            mismatches += diff.bit_count()
            failures.append(f"n={n} phi={phis[i]:#x} D={ds[i]:#x}")
        random_cases[str(n)] = samples
        cases += samples

    return SuiteResult(
        "oracle",
        mismatches == 0,
        cases,
        scale,
        {"mismatches": mismatches, "random_cases": random_cases},
        failures[:_MAX_FAILURES],
    )


def _searches(n: int, phis):
    """(phi, its non-trivial valid differences) for each coloring of
    ``phis`` in order.  A coloring and its complement have the same valid
    differences, so one search serves both; a result is kept only while
    the complement it stands for is still to come."""
    top = (1 << pair_count(n)) - 1
    last = {phi: j for j, phi in enumerate(phis)}
    kept: dict[int, list[int]] = {}
    for j, phi in enumerate(phis):
        found = kept.pop(phi) if phi in kept else _reconstruction_masks(Coloring(n, phi))
        if last.get(phi ^ top, -1) > j:
            kept[phi ^ top] = found
        yield phi, found


# ---------------------------------------------------------------------------
# claws


def suite_claws(n: int = 5) -> SuiteResult:
    scale = {"n": n}
    p = pair_count(n)
    # a coloring and its complement, which flips the top pair, have the same
    # valid differences: a search counts for both, with the trivial D (+ 2)
    pair_counts, distinct = 0, {0, (1 << p) - 1}
    for phi in range(1 << (p - 1)):
        found = _reconstruction_masks(Coloring(n, phi))
        pair_counts += 2 * (len(found) + 2)
        distinct.update(found)
    ds = sorted(distinct)
    columns = kernels.columns_of(n, ds)
    complements = [((1 << len(ds)) - 1) ^ c for c in columns]
    clawed = kernels.has_claw_mask(n, columns) | kernels.has_claw_mask(n, complements)
    first = islice(bits_of(clawed), _MAX_FAILURES)
    failures = [f"n={n} D={ds[j]:#x} contains a claw" for j in first]
    return SuiteResult(
        "claws",
        not clawed,
        pair_counts,
        scale,
        {"distinct_valid_differences": len(ds)},
        failures,
    )


# ---------------------------------------------------------------------------
# parity and connectivity: each difference set D against a batch of the
# colorings that own it, one bit per coloring

# colorings per batch; each batch keeps one owner mask per D, so this bounds
# the grouping (n = 6 has about 4000 distinct D and 2^15 colorings)
_BATCH = 4096


def _owner_batches(n: int, phis, max_size: Optional[int] = None):
    """The colorings ``phis`` in batches of at most ``_BATCH``, each as its
    first index in ``phis``, its colorings, their pair columns and, per
    non-trivial valid difference D (of at most ``max_size`` pairs) of an
    entry, the mask of the entries that own D.  Complementary entries of a
    batch share one search."""
    for lo in range(0, len(phis), _BATCH):
        chunk = phis[lo : lo + _BATCH]
        owners: dict[int, int] = {}
        for j, (_, nontrivial) in enumerate(_searches(n, chunk)):
            for d in nontrivial:
                if max_size is None or d.bit_count() <= max_size:
                    owners[d] = owners.get(d, 0) | 1 << j
        yield lo, chunk, kernels.columns_of(n, chunk), owners


class _FirstCases:
    """The first ``_MAX_FAILURES`` flagged (phi, D) cases of batched checks,
    in the order of a scan case by case: coloring index, then D, then the
    order of the checks within a case."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.found: list[tuple[tuple[int, int, int], str]] = []

    def add(self, lo: int, chunk, d: int, rank: int, entries: int, note: str) -> None:
        # a later entry of one check cannot come before its first ones
        for j in islice(bits_of(entries), _MAX_FAILURES):
            message = f"n={self.n} phi={chunk[j]:#x} D={d:#x}{note}"
            self.found.append(((lo + j, d, rank), message))
        if entries:
            self.found = sorted(self.found)[:_MAX_FAILURES]

    def messages(self) -> list[str]:
        return [message for _, message in self.found]


# ---------------------------------------------------------------------------
# parity

_LAWS = ("endpoint-edges", "anchored-distance", "sliding-window")


def _path_terms(p: tuple[int, ...]) -> tuple:
    """The pair indices the parity laws read along the path p with k
    edges: -1 when k is odd (else 0), its end edges, {x0,x2} and
    {x0,xk}, and per window x_i..x_{i+3} the pairs {x_i,x_{i+2}},
    {x_i,x_{i+3}} and {x_{i+1},x_{i+3}}."""

    def ix(x: int, y: int) -> int:
        return pair_index(x, y) if x < y else pair_index(y, x)

    k = len(p) - 1
    windows = tuple(
        (ix(p[i], p[i + 2]), ix(p[i], p[i + 3]), ix(p[i + 1], p[i + 3])) for i in range(k - 2)
    )
    return -(k % 2), ix(p[0], p[1]), ix(p[-2], p[-1]), ix(p[0], p[2]), ix(p[0], p[-1]), windows


def _parity_violations(columns, paths) -> tuple[int, int, int]:
    """Batch form of ``structure.check_parity_paths``: per law of
    ``_LAWS``, the entries whose first violation along ``paths`` (each
    given by its ``_path_terms``, in order, each law in turn) breaks that
    law."""
    first = [0, 0, 0]
    broken = 0
    for odd, head, tail, near, far, windows in paths:
        base = columns[near]
        window = 0
        for i, j, m in windows:
            window |= (columns[i] ^ base) | ~(columns[j] ^ base) | (columns[m] ^ base)
        laws = (
            # the end edges differ iff k is even
            ~(columns[head] ^ columns[tail] ^ odd),
            # phi{x0,x2} = phi{x0,xk} iff k is even
            base ^ columns[far] ^ odd,
            window,
        )
        for i, fails in enumerate(laws):
            fails &= ~broken
            first[i] |= fails
            broken |= fails
    return first[0], first[1], first[2]


def _parity_outcomes(n: int, phis):
    """The batch route of the parity suite.  Per batch of ``phis`` and per
    D that an entry owns: the batch's first index and colorings, D, its
    owner mask, the entries phi for which phi ^ D is not H-equivalent to
    phi, and per law of ``_LAWS`` the entries that break it first.  Every
    entry of a batch is checked; the suite reads the owners."""
    terms = cache(_path_terms)  # one per path, shared by the D that have it
    paths_of: dict[int, tuple[tuple, ...]] = {}  # per D, its paths' terms
    for lo, chunk, columns, owners in _owner_batches(n, phis):
        full = (1 << len(chunk)) - 1
        rows = kernels.hom_projection_rows(n, columns)
        for d in sorted(owners):
            flipped = kernels.hom_projection_rows(
                n, [c ^ full if d >> i & 1 else c for i, c in enumerate(columns)]
            )
            moved = 0
            for a, b in zip(rows, flipped):
                moved |= a ^ b
            if d not in paths_of:
                paths_of[d] = tuple(map(terms, _chordless_paths(EdgeSet(n, d))))
            laws = _parity_violations(columns, paths_of[d])
            yield lo, chunk, d, owners[d], moved, laws


def suite_parity(n: int = 5, max_m: int = 12) -> SuiteResult:
    scale = {"n": n, "max_m": max_m}
    cases = 0
    first, invalid = _FirstCases(n), _FirstCases(n)
    for lo, chunk, d, own, moved, laws in _parity_outcomes(n, range(1 << pair_count(n))):
        cases += own.bit_count()
        invalid.add(lo, chunk, d, 0, own & moved, ": the search returned invalid D")
        for lemma, broken in zip(_LAWS, laws):
            first.add(lo, chunk, d, 0, own & broken, f" lemma={lemma}")
    if invalid.found:
        raise ConsistencyError(invalid.messages()[0])

    failures = first.messages()
    for m in range(6, max_m + 1, 2):
        for make in (make_path_pair, make_cycle_pair):
            for c in (0, 1):
                for phase in (0, 1):
                    cases += 1
                    report = check_parity_lemmas(*make(m, c, phase))
                    if not report.ok and len(failures) < _MAX_FAILURES:
                        failures.append(f"{make.__name__}({m},{c},{phase})")

    return SuiteResult("parity", not failures, cases, scale, {}, failures)


# ---------------------------------------------------------------------------
# partition theorem


def suite_partition_theorem(ms: tuple[int, ...] = (6, 8, 10, 12)) -> SuiteResult:
    scale = {"ms": list(ms)}
    failures: list[str] = []
    cases = 0
    for m in ms:
        for make, label in ((make_path_pair, "path"), (make_cycle_pair, "cycle")):
            for c in (0, 1):
                for phase in (0, 1):
                    cases += 1
                    tag = f"{label}({m},{c},{phase})"
                    phi, psi = make(m, c, phase)
                    if not h_equivalent(phi, psi):
                        failures.append(f"{tag}: pair not H-equivalent")
                        continue
                    comp = components(difference(phi, psi))
                    if len(comp) != 1:
                        failures.append(f"{tag}: difference not connected")
                        continue
                    try:
                        h1, h2, color = hom_partition(phi, comp[0])
                    except HomrecError as exc:
                        failures.append(f"{tag}: {exc}")
                        continue
                    if color != c or set(h1) | set(h2) != set(range(m)):
                        failures.append(f"{tag}: wrong classes or color")
                        continue
                    maximal = {(h.vertices, h.color) for h in hom_sets(phi)}
                    if maximal != {(h1, c), (h2, c)}:
                        failures.append(f"{tag}: classes are not the two maximal sets")
    return SuiteResult(
        "partition-theorem", not failures, cases, scale, {}, failures[:_MAX_FAILURES]
    )


# ---------------------------------------------------------------------------
# r sweep


def suite_r_sweep(
    n_exhaustive: int = 5, n_sampled: int = 6, samples: int = 1000, seed: int = 9
) -> SuiteResult:
    scale = {
        "n_exhaustive": n_exhaustive,
        "n_sampled": n_sampled,
        "samples": samples,
        "seed": seed,
    }
    failures: list[str] = []
    distribution: dict[str, int] = {}
    cases = 0

    def sweep(n: int, phis) -> None:
        nonlocal cases
        connected: dict[int, bool] = {}  # per minimal witness D
        paired = 0  # the entries with a critical pair
        for row in kernels.critical_rows(n, kernels.columns_of(n, phis), range(n)).values():
            paired |= row
        for j, (phi_bits, nontrivial) in enumerate(_searches(n, phis)):
            has_pair = bool(paired >> j & 1)
            cases += 1
            if not nontrivial:
                distribution["in_R"] = distribution.get("in_R", 0) + 1
                if has_pair and len(failures) < _MAX_FAILURES:
                    failures.append(f"n={n} phi={phi_bits:#x}: critical pair but in R")
                continue
            r = nontrivial[0].bit_count()
            key = f"r={r}"
            distribution[key] = distribution.get(key, 0) + 1
            if r == 2 and len(failures) < _MAX_FAILURES:
                failures.append(f"n={n} phi={phi_bits:#x}: r = 2")
            if (r == 1) != has_pair and len(failures) < _MAX_FAILURES:
                failures.append(
                    f"n={n} phi={phi_bits:#x}: r={r} but critical pair {has_pair}"
                )
            # the minimal witnesses lead the search's size-then-colex order
            for d in nontrivial:
                if d.bit_count() != r:
                    break
                if d not in connected:
                    connected[d] = len(components(EdgeSet(n, d))) == 1
                if not connected[d] and len(failures) < _MAX_FAILURES:
                    failures.append(
                        f"n={n} phi={phi_bits:#x} minimal witness {d:#x} disconnected"
                    )

    sweep(n_exhaustive, range(1 << pair_count(n_exhaustive)))
    sweep(n_sampled, _sample_masks(n_sampled, samples, seed))
    ordered = {k: distribution[k] for k in sorted(distribution)}
    return SuiteResult(
        "r-sweep", not failures, cases, scale, {"distribution": ordered}, failures
    )


# ---------------------------------------------------------------------------
# connectivity


def suite_connectivity(
    n_exhaustive: int = 5,
    n_sampled: int = 6,
    samples: int = 1000,
    seed: int = 9,
    max_size_sampled: int = 8,
) -> SuiteResult:
    scale = {
        "n_exhaustive": n_exhaustive,
        "n_sampled": n_sampled,
        "samples": samples,
        "seed": seed,
        "max_size_sampled": max_size_sampled,
    }
    failures: list[str] = []
    cases = 0
    uniform_cases = 0

    def examine(n: int, phis, max_size: Optional[int]) -> None:
        nonlocal cases, uniform_cases
        first, invalid = _FirstCases(n), _FirstCases(n)
        for lo, chunk, d, own, valid, uniform, checks in _connectivity_outcomes(n, phis, max_size):
            cases += own.bit_count()
            if uniform:
                uniform_cases += own.bit_count()
            invalid.add(lo, chunk, d, 0, own & ~valid, ": the search returned invalid D")
            for rank, (entries, problem) in enumerate(checks):
                first.add(lo, chunk, d, rank, own & entries, f": {problem}")
        if invalid.found:
            raise ConsistencyError(invalid.messages()[0])
        failures.extend(first.messages())

    examine(n_exhaustive, range(1 << pair_count(n_exhaustive)), None)
    examine(n_sampled, _sample_masks(n_sampled, samples, seed), max_size_sampled)
    return SuiteResult(
        "connectivity",
        not failures,
        cases,
        scale,
        {"uniform_color_cases": uniform_cases},
        failures[:_MAX_FAILURES],
    )


def _connectivity_outcomes(n: int, phis, max_size: Optional[int]):
    """The batch route of the connectivity suite.  Per batch of ``phis``
    and per D (of at most ``max_size`` pairs) that an entry owns: the
    batch's first index and colorings, D, its owner mask, the entries of
    which D is a valid difference, whether D's indicator is color-0
    uniform, and the other checks of a case in order, each as (the entries
    it fails for, the problem).  Every entry of a batch is checked; the
    suite reads the owners."""
    facts: dict[int, tuple] = {}
    for lo, chunk, columns, owners in _owner_batches(n, phis, max_size):
        full = (1 << len(chunk)) - 1
        critical = kernels.critical_rows(n, columns, range(n))
        # per vertex set: pair criticality on the restriction to it
        local: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
        for d in sorted(owners):
            if d not in facts:
                facts[d] = _difference_facts(n, d)
            uniform, shape, parts = facts[d]
            valid = kernels.valid_for_phi(n, columns, kernels.constant_columns(n, d, full))
            checks = [(-1, problem) for problem in shape] if uniform else []
            for part, verts, pairs in parts:
                # a lone component's restriction is D itself, checked above
                if len(parts) > 1:
                    part_columns = kernels.constant_columns(n, part, full)
                    part_valid = kernels.valid_for_phi(n, columns, part_columns)
                    checks.append((~part_valid, "component restriction invalid"))
                # criticality is local: a difference edge critical on its
                # component's restriction is critical globally
                if len(verts) < 3:
                    continue
                if verts not in local:
                    local[verts] = kernels.critical_rows(n, columns, verts)
                for x, y in pairs:
                    only = local[verts][x, y] & ~critical[x, y]
                    checks.append((only, f"pair ({x},{y}) critical locally only"))
            yield lo, chunk, d, owners[d], valid, uniform, checks


def _difference_facts(n: int, d: int) -> tuple:
    """What connectivity checks of D alone: whether D's indicator (the sum
    phi + psi) has only color-0 homogeneous triples, the shape laws that
    then fail, and per component its restriction's mask, its sorted
    vertices and its member pairs."""
    diff = EdgeSet(n, d)
    comps = components(diff)
    # the sum has a color-1 homogeneous triple iff D has a triangle
    uniform = not any(diff.adj[x] & diff.adj[y] for x, y in diff.members())
    shape: tuple[str, ...] = ()
    if uniform:
        if any(m.bit_count() > 2 for m in diff.adj):
            shape += ("degree > 2",)
        bad_kind = [
            c.kind for c in comps if c.kind not in (ComponentKind.PATH, ComponentKind.EVEN_CYCLE)
        ]
        if bad_kind:
            shape += (f"component {bad_kind[0].value}",)
    parts = []
    for comp in comps:
        verts = tuple(sorted(comp.vertices))
        part = diff.within(verts)
        parts.append((part.mask, verts, tuple(part.members())))
    return uniform, shape, tuple(parts)


def _note(failures: list[str], message: str) -> None:
    if len(failures) < _MAX_FAILURES:
        failures.append(message)


# ---------------------------------------------------------------------------
# alpha


def suite_alpha(nmax: int = 20) -> SuiteResult:
    scale = {"nmax": nmax}
    failures: list[str] = []
    report = verify_alpha(nmax)
    cases = report.checks
    failures.extend(report.failures[:_MAX_FAILURES])

    # the 6-vertex truncation, edge for edge
    expected = Coloring.from_ones(
        6,
        [(1, 2), (0, 3), (1, 3), (2, 3), (1, 4), (2, 4), (0, 5), (1, 5), (2, 5), (4, 5)],
    )
    alphas = {m: alpha_coloring(m) for m in range(3, nmax + 1)}
    cases += 1
    if alphas[6] != expected:
        _note(failures, "alpha(6) differs from the reference drawing")

    # restriction consistency: alpha(m) is a prefix of alpha(n), so its
    # pairs are those of colex index below C(m, 2)
    for n, big in alphas.items():
        for m in range(3, n + 1):
            cases += 1
            if big.bits & ((1 << pair_count(m)) - 1) != alphas[m].bits:
                _note(failures, f"alpha({m}) is not the prefix of alpha({n})")
    return SuiteResult("alpha", not failures, cases, scale, {}, failures)


# ---------------------------------------------------------------------------
# theorem63


def suite_theorem63(
    ns: tuple[int, ...] = (7, 8, 9), samples: int = 100, seed: int = 9
) -> SuiteResult:
    scale = {"ns": list(ns), "samples": samples, "seed": seed}
    failures: list[str] = []
    cases = 0
    witnesses = 0

    inputs: list[tuple[str, Coloring]] = [
        ("partition(8)", partition_coloring(8)),
        ("alpha(9)", alpha_coloring(9)),
    ]
    for n in ns:
        for i, bits in enumerate(_sample_masks(n, samples, seed)):
            inputs.append((f"random(n={n},i={i})", Coloring(n, bits)))

    def examine(
        item: tuple[str, Coloring],
    ) -> tuple[Optional[Theorem63Witness], Optional[bool], Optional[str]]:
        tag, phi = item
        witness = theorem63_condition_c(phi)
        # below the regime where the dichotomy theorems hold, a witness is
        # sufficient but not necessary for non-reconstructibility; tally the
        # converse empirically where membership is exhaustively decidable
        not_in_r = in_R(phi).verdict is Verdict.NOT_IN_R if phi.n <= 7 else None
        if witness is None:
            return (witness, not_in_r, None)
        psi = flip_reconstruction(phi, witness.D)
        ok = h_equivalent(phi, psi) and psi != phi and psi != phi.complement()
        return (witness, not_in_r, None if ok else f"{tag}: witness flip not a reconstruction")

    not_in_r_n7 = 0
    not_in_r_n7_with_witness = 0
    results = run_sharded(examine, inputs)
    for witness, not_in_r, problem in results:
        cases += 1
        if witness is not None:
            witnesses += 1
        if not_in_r:
            not_in_r_n7 += 1
            if witness is not None:
                not_in_r_n7_with_witness += 1
        if problem:
            _note(failures, problem)

    # the partition fixture, the first input, must produce a surviving witness
    first = results[0][0]
    cases += 1
    if first is None or first.F != (0, 1, 2, 3) or first.D.members() != [(0, 1)]:
        _note(failures, "partition(8): expected witness F=(0,1,2,3), D={(0,1)}")

    return SuiteResult(
        "theorem63",
        not failures,
        cases,
        scale,
        {
            "witnesses_found": witnesses,
            "non_reconstructible_at_n7": not_in_r_n7,
            "non_reconstructible_at_n7_with_witness": not_in_r_n7_with_witness,
        },
        failures,
    )


SUITES = {
    "oracle": suite_oracle,
    "claws": suite_claws,
    "parity": suite_parity,
    "partition-theorem": suite_partition_theorem,
    "r-sweep": suite_r_sweep,
    "connectivity": suite_connectivity,
    "alpha": suite_alpha,
    "theorem63": suite_theorem63,
}


def suite_names() -> list[str]:
    return sorted(SUITES)


def run_suite(name: str, **kwargs) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {suite_names()}")
    return SUITES[name](**kwargs)
