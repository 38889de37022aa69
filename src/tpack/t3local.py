"""Transitive-triangle factors under the per-vertex two-thirds degree condition.

Pipeline: strip arcs down to a locally minimal subdigraph that still satisfies
the condition, take a perfect triangle packing of the underlying graph as a
mixed seed, then convert cyclic elements into transitive ones by local swap
moves that rebuild six vertices as two transitive triangles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    Digraph,
    DomainError,
    Embedding,
    InvariantViolation,
    Tournament,
    bits,
    ceil_frac,
    mask_of,
    spans_copy,
)
from .solver import (
    DEFAULT_BUDGET,
    PACKED,
    Packing,
    find_perfect_packing,
)

_T3 = Tournament.transitive(3)
_C3 = Tournament.cyclic_triangle()


def two_thirds_threshold(n: int) -> int:
    """Smallest integer degree meeting the 2n/3 bound."""
    return ceil_frac(2 * n, 3)


def minimize_arcs_two_thirds(g: Digraph) -> Digraph:
    """Greedy arc removal to a local minimum preserving the two-thirds condition.

    Scans arcs in lexicographic order and removes each arc whose removal
    keeps every vertex at outdegree or indegree >= t = ceil(2n/3).  One pass
    reaches the minimum: an arc is kept only while its tail or its head is at
    its bound, and degrees only fall, so a kept arc never becomes removable
    and a second pass would remove nothing.  Within row u only dout[u] and
    the heads' indegrees change, so each row is cut as a mask of the heads
    that can spare an in-arc: all of them when din[u] >= t, else the lowest
    dout[u] - t, as the ascending scan would.  Raises DomainError when g
    violates the condition.
    """
    n = g.n
    t = two_thirds_threshold(n)
    rows = [g.out_mask(v) for v in range(n)]
    cols = [g.in_mask(v) for v in range(n)]
    dout = [row.bit_count() for row in rows]
    din = [col.bit_count() for col in cols]
    if not all(a >= t or b >= t for a, b in zip(dout, din)):
        raise DomainError("input violates the two-thirds out-or-in condition")
    heads = mask_of(v for v in range(n) if dout[v] >= t or din[v] > t)
    for u in range(n):
        cut = rows[u] & heads
        if din[u] < t:
            cut = mask_of(itertools.islice(bits(cut), dout[u] - t))
        rows[u] ^= cut
        dout[u] -= cut.bit_count()
        for v in bits(cut):
            cols[v] ^= 1 << u
            din[v] -= 1
            if din[v] == t and dout[v] < t:
                heads ^= 1 << v
        if dout[u] < t and din[u] <= t:
            heads &= ~(1 << u)
    return Digraph._from_rows(n, rows, cols)


def _element_is_cyclic(e: Embedding) -> bool:
    return e.pattern._out == _C3._out


def _embed_triple(h: Digraph, triple) -> Embedding:
    """Triple to a transitive element if possible, else cyclic."""
    e = spans_copy(h, triple, _T3)
    if e is None:
        e = spans_copy(h, triple, _C3)
    if e is None:
        raise InvariantViolation(f"triple {tuple(triple)} spans no triangle tournament")
    return e


@dataclass(frozen=True)
class SwapStep:
    rule: str
    removed: tuple[Embedding, ...]
    inserted: tuple[Embedding, ...]


@dataclass(frozen=True)
class SwapTrace:
    steps: tuple[SwapStep, ...]


class SwapNotFound(InvariantViolation):
    """No cyclic element admits a move; the two-thirds precondition should rule this out."""


def _transitive_count(elements) -> int:
    return sum(0 if _element_is_cyclic(e) else 1 for e in elements)


def swap_c3(g: Digraph, packing: Packing, idx: int) -> tuple[Packing, SwapStep] | None:
    """One local move removing the cyclic element at idx, or None if stuck.

    Either the element's own triple spans a transitive triangle in g, or some
    other element exchanges vertices with it: an element whose triple trades
    at least 7 arcs with the cycle yields a vertex fully joined to it plus a
    common neighbour for the remaining two, letting the six vertices be
    rebuilt as two transitive triangles.
    """
    if not 0 <= idx < len(packing.elements):
        raise DomainError(f"element index {idx} out of range")
    cyc = packing.elements[idx]
    if not _element_is_cyclic(cyc):
        raise DomainError(f"element {idx} is not a cyclic triangle")
    triple = tuple(sorted(cyc.image))

    direct = spans_copy(g, triple, _T3)
    if direct is not None:
        elements = list(packing.elements)
        elements[idx] = direct
        step = SwapStep("in-place", (cyc,), (direct,))
        return Packing(g.n, tuple(elements)), step

    for j, other in enumerate(packing.elements):
        if j == idx:
            continue
        omask = other.vertex_mask
        for rule, rows in (("rebuild-out", g._out), ("rebuild-in", g._in)):
            if sum((rows[x] & omask).bit_count() for x in triple) < 7:
                continue
            rebuilt = _rebuild_pair(g, triple, omask, rows)
            if rebuilt is None:
                continue
            elements = [e for k, e in enumerate(packing.elements) if k not in (idx, j)]
            elements.extend(rebuilt)
            step = SwapStep(rule, (cyc, other), tuple(rebuilt))
            return Packing(g.n, tuple(elements)), step
    return None


def _rebuild_pair(g: Digraph, triple, omask: int, rows):
    """Split the six vertices into two transitive triangles, lowest indices first.

    rows, g's out-rows or in-rows, is the direction in which the cycle's
    vertices must be joined to the partner triple omask.
    """
    for x in triple:
        if (rows[x] & omask).bit_count() != 3:
            continue
        y, z = (w for w in triple if w != x)
        for tstar in bits(omask & rows[y] & rows[z]):
            rest = tuple(bits(omask ^ 1 << tstar))
            first = spans_copy(g, (y, z, tstar), _T3)
            second = spans_copy(g, (x,) + rest, _T3)
            if first is not None and second is not None:
                return (first, second)
    return None


def t3_pack(g: Digraph, budget: int = DEFAULT_BUDGET) -> tuple[Packing, SwapTrace]:
    """Perfect transitive-triangle packing under the two-thirds condition.

    minimize_arcs_two_thirds refuses a host that violates the condition.
    Raises SwapNotFound if the swap loop ever sticks, which the degree
    argument rules out for valid inputs; treat an occurrence as a bug report.
    """
    n = g.n
    if n % 3:
        raise DomainError(f"3 must divide the host order, got {n}")
    if n == 0:
        return Packing(0, ()), SwapTrace(())

    h = minimize_arcs_two_thirds(g)
    under = h.underlying()
    if under.min_degree() < two_thirds_threshold(n):
        raise InvariantViolation("minimized digraph lost the underlying degree bound")
    seed_cert = find_perfect_packing(under, Digraph.complete(3), budget)
    if seed_cert.verdict != PACKED:
        raise InvariantViolation(
            f"no perfect triangle packing of the underlying graph ({seed_cert.verdict})"
        )

    elements = [_embed_triple(h, sorted(e.image)) for e in seed_cert.packing.elements]
    steps: list[SwapStep] = []
    packing = Packing(n, tuple(elements))
    guard = n
    while True:
        cyc_idx = next(
            (i for i, e in enumerate(packing.elements) if _element_is_cyclic(e)), None
        )
        if cyc_idx is None:
            break
        before = _transitive_count(packing.elements)
        moved = swap_c3(h, packing, cyc_idx)
        if moved is None:
            raise SwapNotFound(
                f"cyclic element {sorted(packing.elements[cyc_idx].image)} admits no move"
            )
        packing, step = moved
        steps.append(step)
        if _transitive_count(packing.elements) <= before:
            raise InvariantViolation("swap did not increase the transitive count")
        guard -= 1
        if guard < 0:
            raise InvariantViolation("swap loop exceeded its step bound")
    return packing, SwapTrace(tuple(steps))
