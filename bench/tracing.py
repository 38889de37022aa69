"""Span recording around tpack's layer entry points, from outside the package.

A ``Tracer`` replaces each traced function with a wrapper in every tpack
namespace that holds it (``harness``, ``t3local`` and ``structure`` re-import
solver names with ``from ... import``), records one span per call (one per
``next()`` for generators), and restores the originals on ``uninstall``.
Spans stay in memory as ``(layer, start, end, parent)`` tuples; self time is
a span's duration minus the time its direct children cover.

Entry points are looked up by name when the tracer is installed.  A missing
name (private helpers such as ``_candidate_embeddings`` are expected to be
replaced) marks its layer absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from collections import defaultdict

# (module, function, layer) for every traced entry point.  A layer's self
# time, reported as ``<layer>_s``, sums the self time of all its spans.
TRACED = (
    ("constructions", "random_digraph_out_or_in", "constructions.gen"),
    ("constructions", "random_digraph_min_semidegree", "constructions.gen"),
    ("constructions", "random_digraph_total_min_degree", "constructions.gen"),
    ("harness", "iter_min_semidegree_hosts", "harness.hostiter"),
    ("harness", "iter_out_or_in_hosts", "harness.hostiter"),
    ("harness", "_t3_first_fit", "harness.first_fit"),
    ("harness", "sweep_semidegree", "harness.sweep_self"),
    ("harness", "sweep_out_or_in", "harness.sweep_self"),
    ("harness", "sweep_total_degree_kr", "harness.sweep_self"),
    ("harness", "sweep_total_degree_c3", "harness.sweep_self"),
    ("cli", "main", "cli.self"),
    ("solver", "_candidate_embeddings", "solver.enum"),
    ("solver", "find_perfect_family_packing", "solver.search"),
    ("solver", "verify_packing", "solver.verify"),
    ("t3local", "t3_pack", "t3local.t3_pack"),
    ("structure", "extremal_c3_pack", "structure.extremal"),
    ("core", "load_digraph_text", "core.parse"),
)

MODULES = (
    "core", "constructions", "solver", "t3local", "turan", "complexes",
    "absorbing", "structure", "harness", "cli",
)

# counters reported per op; ``<layer>_calls`` counts calls of that layer
COUNTS = (
    "constructions.gen_calls", "harness.hosts", "harness.first_fit_calls",
    "solver.enum_calls", "solver.candidates", "solver.rsets_scanned",
    "solver.nodes", "solver.packed", "solver.exhausted_none",
    "solver.budget_exceeded", "solver.verify_calls", "t3local.t3_pack_calls",
    "t3local.swaps", "structure.extremal_calls", "structure.stage_failed",
)


def _count_result(counts, layer, args, result):
    """Layer counters read from a call's arguments and result."""
    counts[layer + "_calls"] += 1
    if layer == "harness.first_fit":
        counts["harness.first_fit_hits"] += bool(result)
    elif layer == "solver.enum":
        g, fam = args[0], args[1]
        counts["solver.candidates"] += len(result[0])
        counts["solver.rsets_scanned"] += math.comb(g.n, fam[0].n)
    elif layer == "solver.search":
        counts["solver.nodes"] += result.nodes
        counts["solver." + result.verdict.replace("-", "_")] += 1
    elif layer == "t3local.t3_pack":
        counts["t3local.swaps"] += len(result[1].steps)


class Tracer:
    """Installs span-recording wrappers; collects spans and counters."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        modules = {m: importlib.import_module("tpack." + m) for m in MODULES}
        namespaces = [importlib.import_module("tpack")] + list(modules.values())
        self.absent = []
        for mod, name, layer in TRACED:
            orig = getattr(modules[mod], name, None)
            if orig is None:
                self.absent.append(f"{mod}.{name}")
                continue
            wrapper = self._wrap(orig, layer)
            for ns in namespaces:
                if ns.__dict__.get(name) is orig:
                    self._saved.append((ns, name, orig))
                    setattr(ns, name, wrapper)

    def uninstall(self) -> None:
        for ns, name, orig in reversed(self._saved):
            setattr(ns, name, orig)
        self._saved = []

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, layer: str, start: float, parent: int) -> None:
        self.spans[idx] = (layer, start, time.perf_counter(), parent)
        self._stack.pop()

    def _wrap(self, fn, layer: str):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer)

        def traced(*args, **kwargs):
            idx, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "StageFailed":
                    self.counts["structure.stage_failed"] += 1
                raise
            finally:
                self._close(idx, layer, start, parent)
            _count_result(self.counts, layer, args, result)
            return result

        return traced

    def _wrap_generator(self, fn, layer: str):
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx, parent = self._open()
                start = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(idx, layer, start, parent)
                self.counts["harness.hosts"] += 1
                yield item

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per layer over every recorded span."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict = defaultdict(float)
        for i, (layer, start, end, _) in enumerate(self.spans):
            out[layer] += (end - start) - child[i]
        return dict(out)

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op layer metrics over ``ops`` traced operations."""
        selfs = self.self_times()
        c = self.counts
        per_op = {f"{layer}_s": selfs.get(layer, 0.0) / ops for _, _, layer in TRACED}
        per_op.update({name: c[name] / ops for name in COUNTS})
        ff, scanned = c["harness.first_fit_calls"], c["solver.rsets_scanned"]
        per_op["harness.first_fit_hit_rate"] = c["harness.first_fit_hits"] / ff if ff else 0.0
        per_op["solver.candidate_yield"] = c["solver.candidates"] / scanned if scanned else 0.0
        per_op["trace.absent_layers"] = len(self.absent)
        return per_op
