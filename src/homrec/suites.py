"""Named verification suites.

Each suite checks one family of structural laws at a configurable scale
and returns a :class:`SuiteResult` whose serialized form is deterministic:
independent of thread count and identical across runs with the same seed.
Failures carry the first counterexample found in scan order.  The oracle
and claws suites sweep the bit-sliced batch kernels of ``kernels`` (one
int per pair, one bit per case); the others read the pair-class search
of ``reconstruct`` or the scalar checks.  Parity and connectivity meet
each difference set D under many colorings; within one run they work
out what depends on D alone (its components, paths and shape) once per
D, and every check that involves the coloring once per case.

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
    restrict,
)
from .critical import find_critical_pairs, flip_reconstruction
from .errors import ConsistencyError, HomrecError
from .fixtures import partition_coloring
from .parallel import run_sharded, shard_ranges
from .reconstruct import Verdict, _reconstruction_masks, in_R, is_valid_difference
from .srcheck import alpha_coloring, theorem63_condition_c, verify_alpha
from .structure import (
    ComponentKind,
    _chordless_paths,
    check_parity_lemmas,
    check_parity_paths,
    components,
    degree,
    hom_color_uniform,
    hom_partition,
    make_cycle_pair,
    make_path_pair,
)

__all__ = ["SUITES", "SuiteResult", "run_suite", "suite_names"]

_MAX_FAILURES = 5


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

    # exhaustive cross: every coloring against every difference set.  The
    # batch entry psi stands for D = phi ^ psi, so the signature side reads
    # the table: psi matches phi where every triple's homogeneity does.
    p = pair_count(n_exhaustive)
    full = (1 << (1 << p)) - 1
    masks = kernels.all_masks(n_exhaustive)
    table = kernels.hom_projection_table(n_exhaustive)

    def cross_shard(rng: range) -> tuple[int, list[str]]:
        bad: list[str] = []
        mism = 0
        for phi in rng:
            phi_cols = kernels.constant_columns(n_exhaustive, phi, full)
            diffs = [m ^ f for m, f in zip(masks, phi_cols)]
            local = kernels.valid_for_phi(n_exhaustive, phi_cols, diffs)
            sig = full
            for hom in table:
                sig &= hom if hom >> phi & 1 else ~hom
            diff = (local ^ sig) & full
            if diff:
                mism += diff.bit_count()
                # the least D: from the top pair down, keep D's bit 0
                # (psi's bit equal to phi's) wherever an entry allows it
                for d_col in reversed(diffs):
                    diff = diff & ~d_col or diff
                d = phi ^ (diff.bit_length() - 1)
                bad.append(f"n={n_exhaustive} phi={phi:#x} D={d:#x}")
        return mism, bad

    shard_results = run_sharded(cross_shard, shard_ranges(1 << p, 128))
    mismatches = sum(m for m, _ in shard_results)
    for _, bad in shard_results:
        failures.extend(bad)
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


def _valid_masks_by_phi(n: int, phis) -> list[tuple[int, list[int]]]:
    """(phi, its non-trivial valid difference masks in numeric order) for
    each coloring, from the pair-class search."""
    return [(phi, sorted(_reconstruction_masks(Coloring(n, phi)))) for phi in phis]


# ---------------------------------------------------------------------------
# claws


def suite_claws(n: int = 5) -> SuiteResult:
    scale = {"n": n}
    p = pair_count(n)
    full = (1 << (1 << p)) - 1
    masks = kernels.all_masks(n)

    def shard(rng: range) -> tuple[int, int]:
        seen = count = 0
        for phi in rng:
            ok = kernels.valid_for_phi(n, kernels.constant_columns(n, phi, full), masks) & full
            seen |= ok
            count += ok.bit_count()
        return count, seen

    pair_counts = valid_union = 0
    for count, seen in run_sharded(shard, shard_ranges(1 << p, 128)):
        pair_counts += count
        valid_union |= seen

    clawed = valid_union & (
        kernels.has_claw_mask(n, masks) | kernels.has_claw_mask(n, [full ^ m for m in masks])
    )
    failures = [f"n={n} D={d:#x} contains a claw" for d in islice(bits_of(clawed), _MAX_FAILURES)]
    return SuiteResult(
        "claws",
        not clawed,
        pair_counts,
        scale,
        {"distinct_valid_differences": valid_union.bit_count()},
        failures,
    )


# ---------------------------------------------------------------------------
# parity


def suite_parity(n: int = 5, max_m: int = 12) -> SuiteResult:
    scale = {"n": n, "max_m": max_m}
    failures: list[str] = []
    cases = 0
    # by D's mask: its component count and chordless paths
    paths_of: dict[int, tuple[int, tuple[tuple[int, ...], ...]]] = {}
    for phi_bits, valid in _valid_masks_by_phi(n, range(1 << pair_count(n))):
        phi = Coloring(n, phi_bits)
        for d in valid:
            cases += 1
            if not h_equivalent(phi, Coloring(n, phi_bits ^ d)):
                raise ConsistencyError(
                    f"n={n} phi={phi_bits:#x} D={d:#x}: the search returned invalid D"
                )
            if d not in paths_of:
                diff = EdgeSet(n, d)
                paths_of[d] = (len(components(diff)), tuple(_chordless_paths(diff)))
            count, paths = paths_of[d]
            report = check_parity_paths(phi, paths, count)
            if not report.ok and len(failures) < _MAX_FAILURES:
                failures.append(
                    f"n={n} phi={phi_bits:#x} D={d:#x} lemma={report.violation.lemma}"
                )

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
        for phi_bits, nontrivial in _valid_masks_by_phi(n, phis):
            cases += 1
            phi = Coloring(n, phi_bits)
            has_pair = bool(find_critical_pairs(phi))
            if not nontrivial:
                distribution["in_R"] = distribution.get("in_R", 0) + 1
                if has_pair and len(failures) < _MAX_FAILURES:
                    failures.append(f"n={n} phi={phi_bits:#x}: critical pair but in R")
                continue
            r = min(d.bit_count() for d in nontrivial)
            key = f"r={r}"
            distribution[key] = distribution.get(key, 0) + 1
            if r == 2 and len(failures) < _MAX_FAILURES:
                failures.append(f"n={n} phi={phi_bits:#x}: r = 2")
            if (r == 1) != has_pair and len(failures) < _MAX_FAILURES:
                failures.append(
                    f"n={n} phi={phi_bits:#x}: r={r} but critical pair {has_pair}"
                )
            for d in nontrivial:
                if d.bit_count() != r:
                    continue
                if len(components(EdgeSet(n, d))) != 1 and len(failures) < _MAX_FAILURES:
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
        facts: dict[int, tuple] = {}
        for phi_bits, valid in _valid_masks_by_phi(n, phis):
            phi = Coloring(n, phi_bits)
            critical = set(find_critical_pairs(phi))
            # critical pairs of phi restricted to a vertex set, in its positions
            local_critical: dict[tuple[int, ...], set[tuple[int, int]]] = {}
            for d in valid:
                if max_size is not None and d.bit_count() > max_size:
                    continue
                cases += 1
                if d not in facts:
                    facts[d] = _difference_facts(n, d)
                diff, uniform, shape, parts = facts[d]
                if not is_valid_difference(phi, diff):
                    raise ConsistencyError(
                        f"n={n} phi={phi_bits:#x} D={d:#x}: the search returned invalid D"
                    )
                if uniform:
                    uniform_cases += 1
                    for problem in shape:
                        _note(failures, f"n={n} phi={phi_bits:#x} D={d:#x}: {problem}")
                for part, verts, pairs in parts:
                    # a lone component's restriction is D itself, valid above
                    if len(parts) > 1 and not is_valid_difference(phi, part):
                        _note(
                            failures,
                            f"n={n} phi={phi_bits:#x} D={d:#x}: component restriction invalid",
                        )
                    # criticality is local: a difference edge critical on its
                    # component's restriction is critical globally
                    if len(verts) < 3:
                        continue
                    if verts not in local_critical:
                        local_critical[verts] = set(find_critical_pairs(restrict(phi, verts)))
                    for i, j in pairs:
                        if (i, j) in local_critical[verts] and (verts[i], verts[j]) not in critical:
                            _note(
                                failures,
                                f"n={n} phi={phi_bits:#x} D={d:#x}: "
                                f"pair ({verts[i]},{verts[j]}) critical locally only",
                            )

    examine(n_exhaustive, range(1 << pair_count(n_exhaustive)), None)
    examine(n_sampled, _sample_masks(n_sampled, samples, seed), max_size_sampled)
    return SuiteResult(
        "connectivity",
        not failures,
        cases,
        scale,
        {"uniform_color_cases": uniform_cases},
        failures,
    )


def _difference_facts(n: int, d: int) -> tuple:
    """What connectivity checks of D alone: its edge set, whether D's
    indicator (the sum phi + psi) has only color-0 homogeneous triples,
    the shape laws that then fail, and per component its restriction,
    sorted vertices and member pairs as positions among those vertices."""
    diff = EdgeSet(n, d)
    comps = components(diff)
    uniform = hom_color_uniform(diff.indicator()) == 0
    shape: tuple[str, ...] = ()
    if uniform:
        if any(degree(diff, v) > 2 for v in range(n)):
            shape += ("degree > 2",)
        bad_kind = [
            c.kind for c in comps if c.kind not in (ComponentKind.PATH, ComponentKind.EVEN_CYCLE)
        ]
        if bad_kind:
            shape += (f"component {bad_kind[0].value}",)
    parts = []
    for comp in comps:
        verts = tuple(sorted(comp.vertices))
        part = diff if len(comps) == 1 else diff.within(verts)
        pos = {v: i for i, v in enumerate(verts)}
        parts.append((part, verts, tuple((pos[x], pos[y]) for x, y in part.members())))
    return diff, uniform, shape, tuple(parts)


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
    cases += 1
    if alpha_coloring(6) != expected:
        _note(failures, "alpha(6) differs from the reference drawing")

    # restriction consistency: alpha(m) is a prefix of alpha(n)
    for n in range(3, nmax + 1):
        big = alpha_coloring(n)
        for m in range(3, n + 1):
            cases += 1
            if restrict(big, list(range(m))) != alpha_coloring(m):
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

    def examine(item: tuple[str, Coloring]) -> tuple[str, bool, Optional[bool], Optional[str]]:
        tag, phi = item
        witness = theorem63_condition_c(phi)
        # below the regime where the dichotomy theorems hold, a witness is
        # sufficient but not necessary for non-reconstructibility; tally the
        # converse empirically where membership is exhaustively decidable
        not_in_r = in_R(phi).verdict is Verdict.NOT_IN_R if phi.n <= 7 else None
        if witness is None:
            return (tag, False, not_in_r, None)
        psi = flip_reconstruction(phi, witness.D)
        ok = h_equivalent(phi, psi) and psi != phi and psi != phi.complement()
        return (tag, True, not_in_r, None if ok else f"{tag}: witness flip not a reconstruction")

    not_in_r_n7 = 0
    not_in_r_n7_with_witness = 0
    for tag, found, not_in_r, problem in run_sharded(examine, inputs):
        cases += 1
        if found:
            witnesses += 1
        if not_in_r:
            not_in_r_n7 += 1
            if found:
                not_in_r_n7_with_witness += 1
        if problem:
            _note(failures, problem)

    # the partition fixture must produce a surviving witness
    first = theorem63_condition_c(partition_coloring(8))
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
