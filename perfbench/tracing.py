"""Spans around calls into ``homrec``'s layers, recorded from outside.

The package carries no probes.  ``Tracer.install`` replaces each traced
function by a wrapper under every name it is bound to: the defining
module's attribute, each ``from .x import f`` copy in another module of
the package, and entries of module-level registries such as
``suites.SUITES``.  ``Tracer.uninstall`` puts the originals back.

A span records its name, start, end, parent span and operation id.  Each
thread keeps its own stack of open spans; a shard that
``parallel.run_sharded`` hands to a worker thread opens its span under the
``run_sharded`` span that spawned it.  ``summarize`` turns one batch's
spans into the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from math import comb
from typing import Callable, Iterable

_MARK = "__perfbench_wrapper__"

# (defining module, function) for every traced function; spans are named
# "<module>.<function>".
_TARGETS: tuple[tuple[str, str], ...] = (
    ("kernels", "valid_for_phi"),
    ("kernels", "all_masks"),
    ("kernels", "hom_projection_mask"),
    ("kernels", "hom_projection_rows"),
    ("kernels", "hom_projection_table"),
    ("kernels", "has_claw_mask"),
    ("reconstruct", "in_R"),
    ("reconstruct", "r_value"),
    ("reconstruct", "is_valid_difference"),
    ("critical", "find_critical_cycles"),
    ("critical", "find_critical_pairs"),
    ("critical", "b_set"),
    ("coloring", "hom_sets"),
    ("coloring", "hom_signature"),
    ("coloring", "h_equivalent"),
    ("coloring", "restrict"),
    ("srcheck", "theorem63_condition_c"),
    ("srcheck", "verify_alpha"),
    ("structure", "components"),
    ("structure", "check_parity_lemmas"),
    ("parallel", "run_sharded"),
    ("cli", "main"),
    ("fixtures", "parse_fixture"),
)

SUITE_NAMES = (
    "oracle",
    "claws",
    "parity",
    "partition-theorem",
    "r-sweep",
    "connectivity",
    "alpha",
    "theorem63",
)

# Every per-layer metric, in print order, with its unit.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("kernels.valid_for_phi.calls", "count"),
    ("kernels.valid_for_phi.masks", "count"),
    ("kernels.valid_for_phi.busy_ms", "ms"),
    ("kernels.valid_for_phi.ns_per_mask", "ns"),
    ("kernels.all_masks.busy_ms", "ms"),
    ("kernels.signature.busy_ms", "ms"),
    ("kernels.has_claw_mask.busy_ms", "ms"),
    ("reconstruct.in_R.calls", "count"),
    ("reconstruct.in_R.busy_ms", "ms"),
    ("reconstruct.in_R.self_ms", "ms"),
    ("reconstruct.in_R.sweeps", "count"),
    ("reconstruct.in_R.shortcut_hits", "count"),
    ("reconstruct.r_value.calls", "count"),
    ("reconstruct.r_value.busy_ms", "ms"),
    ("reconstruct.r_value.self_ms", "ms"),
    ("reconstruct.is_valid_difference.calls", "count"),
    ("reconstruct.is_valid_difference.busy_ms", "ms"),
    ("critical.find_critical_cycles.calls", "count"),
    ("critical.find_critical_cycles.busy_ms", "ms"),
    ("critical.find_critical_cycles.quads", "count"),
    ("critical.cycle_scans_per_op", "count"),
    ("critical.find_critical_pairs.calls", "count"),
    ("critical.find_critical_pairs.busy_ms", "ms"),
    ("critical.b_set.busy_ms", "ms"),
    ("coloring.hom_sets.busy_ms", "ms"),
    ("coloring.hom_signature.busy_ms", "ms"),
    ("coloring.h_equivalent.calls", "count"),
    ("coloring.h_equivalent.busy_ms", "ms"),
    ("coloring.restrict.calls", "count"),
    ("srcheck.theorem63_condition_c.calls", "count"),
    ("srcheck.theorem63_condition_c.busy_ms", "ms"),
    ("srcheck.theorem63_condition_c.self_ms", "ms"),
    ("srcheck.verify_alpha.busy_ms", "ms"),
    ("structure.components.calls", "count"),
    ("structure.components.busy_ms", "ms"),
    ("structure.check_parity_lemmas.calls", "count"),
    ("structure.check_parity_lemmas.busy_ms", "ms"),
    ("parallel.run_sharded.calls", "count"),
    ("parallel.run_sharded.shards", "count"),
    ("parallel.run_sharded.busy_ms", "ms"),
    ("parallel.threads", "count"),
    ("parallel.efficiency", "ratio"),
    *((f"suites.{s}.busy_ms", "ms") for s in SUITE_NAMES),
    ("cli.self_ms", "ms"),
    ("fixtures.busy_ms", "ms"),
    ("trace.wall_untraced_s", "s"),
    ("trace.wall_traced_s", "s"),
    ("trace.overhead_s", "s"),
)

_SIGNATURE_ROUTES = (
    "kernels.hom_projection_mask",
    "kernels.hom_projection_rows",
    "kernels.hom_projection_table",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name: str, parent: "Span | None", op) -> None:
        self.name = name
        self.parent = parent
        self.op = op
        self.start = 0
        self.end = 0
        self.attrs: dict | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start


def _arg(args: tuple, kwargs: dict, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _note_masks(args, kwargs, result) -> dict:
    return {"masks": len(_arg(args, kwargs, 2, "masks"))}


def _note_quads(args, kwargs, result) -> dict:
    return {"quads": 3 * comb(_arg(args, kwargs, 0, "phi").n, 4)}


def _note_verdict(args, kwargs, result) -> dict:
    return {"verdict": result.verdict.value}


def _note_shards(args, kwargs, result) -> dict:
    return {"shards": len(_arg(args, kwargs, 1, "shards"))}


_NOTES: dict[str, Callable] = {
    "kernels.valid_for_phi": _note_masks,
    "critical.find_critical_cycles": _note_quads,
    "reconstruct.in_R": _note_verdict,
    "parallel.run_sharded": _note_shards,
}


def _homrec_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "homrec" or name.startswith("homrec.")]


def _bindings(modules: Iterable):
    """Every (namespace, key, label) of the package: module attributes and
    the entries of module-level dicts such as ``suites.SUITES``."""
    for module in modules:
        space = vars(module)
        for key, value in list(space.items()):
            yield space, key, f"{module.__name__}.{key}"
            if isinstance(value, dict) and not key.startswith("__"):
                for k in list(value):
                    yield value, k, f"{module.__name__}.{key}[{k!r}]"


class Tracer:
    """Records spans while installed; ``take`` hands them over."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._patched: list[tuple[dict, object, object]] = []
        self.spans: list[Span] = []
        self.current_op = None

    # recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name: str, fn, args, kwargs, parent: Span | None = None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(name, parent, parent.op if parent is not None else self.current_op)
        if name == "parallel.run_sharded":
            args = (self._shard_fn(args[0], span), *args[1:])
        stack.append(span)
        span.start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(span)
        note = _NOTES.get(name)
        if note is not None:
            span.attrs = note(args, kwargs, result)
        return result

    def _shard_fn(self, fn, parent: Span):
        def shard(item):
            return self._call("parallel.shard", fn, (item,), {}, parent=parent)

        return shard

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    @contextmanager
    def operation(self, op_id):
        self.current_op = op_id
        try:
            yield
        finally:
            self.current_op = None

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    # patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        from homrec import cli, suites  # noqa: F401  (imports every traced module)

        modules = _homrec_modules()
        targets = [(f"{mod}.{fn}", getattr(sys.modules[f"homrec.{mod}"], fn)) for mod, fn in _TARGETS]
        targets += [(f"suites.{name}", suites.SUITES[name]) for name in SUITE_NAMES]
        wrappers = {id(original): (original, self._wrap(name, original)) for name, original in targets}
        for space, key, _label in list(_bindings(modules)):
            original, wrapper = wrappers.get(id(space[key]), (None, None))
            if space[key] is original:
                space[key] = wrapper
                self._patched.append((space, key, original))

    def uninstall(self) -> None:
        while self._patched:
            space, key, original = self._patched.pop()
            space[key] = original

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def leftover_wrappers() -> list[str]:
    """Names in the package still bound to a tracing wrapper."""
    return [label for space, key, label in _bindings(_homrec_modules()) if getattr(space[key], _MARK, False)]


# ---------------------------------------------------------------------------
# per-layer summary


def _covered_ns(span: Span, children: list[Span]) -> int:
    """Length of the part of ``span`` that its children's intervals cover."""
    covered = 0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def summarize(spans: list[Span], scan_ops: set, threads: int) -> dict[str, float]:
    """Per-layer metrics of one traced stretch of work.  ``scan_ops`` are
    the operation ids over which ``critical.cycle_scans_per_op`` averages.
    The ``trace.*`` metrics compare whole batches and are left to the
    caller."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)

    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    attrs: dict[str, int] = defaultdict(int)
    sweeps = shortcut_hits = scans_on_scan_ops = 0
    for s in spans:
        calls[s.name] += 1
        ancestor = s.parent
        while ancestor is not None and ancestor.name != s.name:
            ancestor = ancestor.parent
        if ancestor is None:  # outermost span of its name: no double count
            busy[s.name] += s.duration
        kids = children.get(id(s), [])
        self_ns[s.name] += s.duration - _covered_ns(s, kids)
        if s.attrs:
            for key, value in s.attrs.items():
                if isinstance(value, int):
                    attrs[f"{s.name}.{key}"] += value
        if s.name == "reconstruct.in_R":
            if any(k.name == "kernels.valid_for_phi" for k in kids):
                sweeps += 1
            elif (s.attrs or {}).get("verdict") == "not_in_R" and not any(k.name.startswith("kernels.") for k in kids):
                shortcut_hits += 1
        if s.name == "critical.find_critical_cycles" and s.op in scan_ops:
            scans_on_scan_ops += 1

    def ms(ns: int) -> float:
        return ns / 1e6

    vfp_busy = busy["kernels.valid_for_phi"]
    vfp_masks = attrs["kernels.valid_for_phi.masks"]
    sharded = busy["parallel.run_sharded"]
    m: dict[str, float] = {
        "kernels.valid_for_phi.calls": calls["kernels.valid_for_phi"],
        "kernels.valid_for_phi.masks": vfp_masks,
        "kernels.valid_for_phi.busy_ms": ms(vfp_busy),
        "kernels.valid_for_phi.ns_per_mask": vfp_busy / vfp_masks if vfp_masks else 0.0,
        "kernels.all_masks.busy_ms": ms(busy["kernels.all_masks"]),
        "kernels.signature.busy_ms": ms(sum(busy[n] for n in _SIGNATURE_ROUTES)),
        "kernels.has_claw_mask.busy_ms": ms(busy["kernels.has_claw_mask"]),
        "reconstruct.in_R.sweeps": sweeps,
        "reconstruct.in_R.shortcut_hits": shortcut_hits,
        "critical.find_critical_cycles.quads": attrs["critical.find_critical_cycles.quads"],
        "critical.cycle_scans_per_op": scans_on_scan_ops / len(scan_ops) if scan_ops else 0.0,
        "coloring.restrict.calls": calls["coloring.restrict"],
        "parallel.run_sharded.shards": attrs["parallel.run_sharded.shards"],
        "parallel.threads": threads,
        "parallel.efficiency": (busy["parallel.shard"] / (sharded * threads)) if sharded else 0.0,
        "cli.self_ms": ms(self_ns["cli.main"]),
        "fixtures.busy_ms": ms(busy["fixtures.parse_fixture"]),
    }
    for suite in SUITE_NAMES:
        m[f"suites.{suite}.busy_ms"] = ms(busy[f"suites.{suite}"])
    for key, _unit in PER_LAYER:
        if key in m:
            continue
        layer, _, stat = key.rpartition(".")
        if layer == "trace":
            continue
        if stat == "calls":
            m[key] = calls[layer]
        elif stat == "busy_ms":
            m[key] = ms(busy[layer])
        elif stat == "self_ms":
            m[key] = ms(self_ns[layer])
    return m


def median_metrics(summaries: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in summaries) for key in summaries[0]}
