"""Layered set systems whose i-edges are the i-sets spanning part of a pattern.

The top layer's matchings are exactly the pattern packings of the host, which
makes the layered view a convenient place to check degree-sequence thresholds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    Digraph,
    DomainError,
    InvariantViolation,
    Tournament,
    _first_per_class,
    at_least,
    bits,
    copy_masks,
    mask_of,
    spans_copy,
)
from .solver import DEFAULT_BUDGET, Packing, max_disjoint_sets


@dataclass(frozen=True)
class Complex:
    """Downward-closed layers of vertex-set masks; layer i holds i-sets."""

    n: int
    k: int
    layers: tuple[frozenset[int], ...]

    def __post_init__(self):
        if len(self.layers) != self.k + 1:
            raise DomainError(f"expected {self.k + 1} layers, got {len(self.layers)}")
        for i, layer in enumerate(self.layers):
            for m in layer:
                if m.bit_count() != i:
                    raise DomainError(f"layer {i} holds a {m.bit_count()}-set")

    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.layers)

    def edges(self, i: int) -> list[tuple[int, ...]]:
        """Layer i edges as sorted vertex tuples, in lexicographic order."""
        return sorted(tuple(bits(m)) for m in self.layers[i])


def subtournaments_by_size(t: Tournament) -> list[list[Digraph]]:
    """Induced subtournaments of t, one per isomorphism class, indexed by order."""
    return [_first_per_class(t.induced(sub)[0] for sub in itertools.combinations(range(t.n), i))
            for i in range(t.n + 1)]


def build_complex(g: Digraph, t: Tournament) -> Complex:
    """Layer i collects every i-set spanning some order-i subtournament of t."""
    subs = subtournaments_by_size(t)
    layers: list[frozenset[int]] = [frozenset({0})]
    for i in range(1, t.n + 1):
        found: set[int] = set()
        for pat in subs[i]:
            found |= copy_masks(g, pat)
        layers.append(frozenset(found))
    return Complex(g.n, t.n, tuple(layers))


def is_downward_closed(c: Complex) -> bool:
    for i in range(1, c.k + 1):
        below = c.layers[i - 1]
        for m in c.layers[i]:
            for v in bits(m):
                if m ^ (1 << v) not in below:
                    return False
    return True


def degree_sequence(c: Complex) -> tuple[int, ...]:
    """Per-layer minimum up-degrees (delta_0 .. delta_{k-1}).

    delta_0 counts the 1-edges; delta_i is the minimum, over i-edges, of the
    number of (i+1)-edges extending them.  An empty layer contributes 0 and
    forces every layer above it to be empty too.
    """
    out = [len(c.layers[1])]
    for i in range(1, c.k):
        layer, above = c.layers[i], c.layers[i + 1]
        if not layer:
            if above:
                raise InvariantViolation(f"layer {i} empty but layer {i + 1} is not")
            out.append(0)
            continue
        best = None
        for m in layer:
            d = sum(1 for up in above if up & m == m)
            if best is None or d < best:
                best = d
        out.append(best)
    return tuple(out)


def check_matching_threshold(c: Complex, eps: float) -> tuple[bool, int | None]:
    """Degree sequence against (n, (1 - 1/k - eps)n, ..., (1/k - eps)n).

    Returns (holds, first failing layer index or None).  eps must lie in
    [0, 1): past that every bound below layer 0 is negative.
    """
    if not 0 <= eps < 1:
        raise DomainError(f"eps must lie in [0, 1), got {eps}")
    degs = degree_sequence(c)
    n, k = c.n, c.k
    for i, d in enumerate(degs):
        bound = n if i == 0 else (1 - i / k - eps) * n
        if not at_least(d, bound):
            return False, i
    return True, None


def top_layer_matching(c: Complex, mode: str = "greedy",
                       budget: int = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
    """Disjoint top-layer edges: greedy gives a maximal set, exact a maximum one."""
    edges = c.edges(c.k)
    if mode == "greedy":
        used = 0
        out = []
        for e in edges:
            m = mask_of(e)
            if not m & used:
                used |= m
                out.append(e)
        return out
    if mode == "exact":
        masks, complete = max_disjoint_sets(c.n, [mask_of(e) for e in edges], budget)
        if not complete:
            raise InvariantViolation("exact matching search ran out of budget")
        return sorted(tuple(bits(m)) for m in masks)
    raise DomainError(f"unknown matching mode {mode!r}")


def matching_to_packing(g: Digraph, t: Tournament, matching) -> Packing:
    """Lift top-layer matching edges to pattern embeddings in the host."""
    elements = []
    for e in matching:
        emb = spans_copy(g, e, t)
        if emb is None:
            raise DomainError(f"set {tuple(e)} does not span the pattern")
        elements.append(emb)
    return Packing(g.n, tuple(elements))


def packing_to_matching(packing: Packing) -> list[tuple[int, ...]]:
    return [tuple(sorted(e.image)) for e in packing.elements]
