"""Density and degree dichotomies: find a complete r-set, a pattern copy, or a
large independent set, each with an inspectable certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Digraph,
    DomainError,
    Embedding,
    FLOAT_SLACK,
    Graph,
    InvariantViolation,
    Tournament,
    at_least,
    bits,
    copy_masks,
    mask_of,
    min_semidegree,
    spans_copy,
)


def _find_clique(graph: Graph, size: int, cand_mask: int | None = None) -> tuple[int, ...] | None:
    """Lex-least clique of the given size within cand_mask, or None."""
    if size == 0:
        return ()
    if cand_mask is None:
        cand_mask = (1 << graph.n) - 1

    def extend(chosen: list[int], cand: int) -> tuple[int, ...] | None:
        if len(chosen) == size:
            return tuple(chosen)
        if len(chosen) + cand.bit_count() < size:
            return None
        v = (cand & -cand).bit_length() - 1
        chosen.append(v)
        hit = extend(chosen, cand & graph.adj_mask(v))
        if hit is not None:
            return hit
        chosen.pop()
        return extend(chosen, cand ^ (1 << v))

    return extend([], cand_mask)


def density_precondition_holds(g: Digraph, r: int) -> bool:
    """Exact integer check of e(G) > (1 - 1/(r-1)) n^2 / 2 + C(n,2)."""
    if r < 2:
        raise DomainError("need r >= 2")
    n, e = g.n, g.num_arcs
    return 2 * (r - 1) * e > (r - 2) * n * n + (r - 1) * n * (n - 1)


def find_kr_from_density(g: Digraph, r: int) -> tuple[int, ...]:
    """An r-set spanning the complete digraph, guaranteed by the density bound.

    Works on the graph of doubled pairs: the edge count forces its density
    past the Turan threshold for an r-clique.
    """
    if not density_precondition_holds(g, r):
        raise DomainError("edge count does not exceed the density threshold")
    clique = _find_clique(g.double_edge_graph(), r)
    if clique is None:
        raise InvariantViolation("density bound held but no complete r-set exists")
    return clique


def count_copies(g: Digraph, pattern: Digraph) -> int:
    """Number of vertex sets of size pattern.n spanning the pattern."""
    return len(copy_masks(g, pattern))


@dataclass(frozen=True)
class CandidateSets:
    """Vertices eligible to play the tail (A) and head (B) of the split arc."""

    a_set: tuple[int, ...]
    b_set: tuple[int, ...]

    @property
    def common(self) -> tuple[int, ...]:
        b = set(self.b_set)
        return tuple(v for v in self.a_set if v in b)


@dataclass(frozen=True)
class TuranResult:
    """Either a pattern embedding or an independent set with its nominal size bound."""

    embedding: Embedding | None
    independent: tuple[int, ...] | None
    bound: float
    candidates: CandidateSets | None = None

    @property
    def kind(self) -> str:
        return "copy" if self.embedding is not None else "independent"


def independent_or_copy(g: Digraph, pattern: Tournament, alpha: float) -> TuranResult:
    """Pattern copy or a large independent set, under the semidegree bound.

    Splits the pattern at its lex-least arc (a, b), embeds the rest greedily,
    then computes candidate hosts for a and b.  An arc from the a-candidates
    to the b-candidates closes a copy; a large doubled-pair clique among
    a-only candidates also yields a copy; otherwise the common candidates
    form an independent set.
    """
    n, r = g.n, pattern.n
    if r < 2:
        raise DomainError("need a pattern on at least 2 vertices")
    if not at_least(min_semidegree(g), (1 - 1 / (r - 1) - alpha) * n):
        raise DomainError("semidegree below the dichotomy precondition")
    bound = (1 / (r - 1) - 2 * r * r * alpha) * n

    a, b = next(iter(pattern.arcs()))
    placed: dict[int, int] = {}
    used = 0

    def candidates(p: int) -> int:
        cand = ((1 << n) - 1) ^ used
        for q, w in placed.items():
            if pattern.arc(p, q):
                cand &= g.in_mask(w)
            if pattern.arc(q, p):
                cand &= g.out_mask(w)
        return cand

    for p in range(r):
        if p in (a, b):
            continue
        cand = candidates(p)
        if not cand:
            raise InvariantViolation("could not embed the split pattern greedily")
        low = cand & -cand
        placed[p] = low.bit_length() - 1
        used |= low

    a_mask = candidates(a)
    b_mask = candidates(b)
    cand_sets = CandidateSets(tuple(bits(a_mask)), tuple(bits(b_mask)))

    for u in bits(a_mask):
        hit = g.out_mask(u) & b_mask & ~(1 << u)
        if hit:
            w = (hit & -hit).bit_length() - 1
            image = [0] * r
            for q, hv in placed.items():
                image[q] = hv
            image[a], image[b] = u, w
            emb = Embedding(pattern, tuple(image))
            if not emb.is_valid(g):
                raise InvariantViolation("constructed embedding failed validation")
            return TuranResult(emb, None, bound, cand_sets)

    a_only = a_mask & ~b_mask
    if a_only.bit_count() >= 2 * (r - 1) * (r - 1) * alpha * n - FLOAT_SLACK:
        clique = _find_clique(g.double_edge_graph(), r, a_only)
        if clique is not None:
            emb = spans_copy(g, clique, pattern)
            if emb is None:
                raise InvariantViolation("complete r-set failed to span the pattern")
            return TuranResult(emb, None, bound, cand_sets)

    common = a_mask & b_mask
    if g.arcs_inside(common):
        raise InvariantViolation("candidate intersection is not independent")
    if common.bit_count() < bound - (r - 2) - FLOAT_SLACK:
        raise InvariantViolation(
            f"independent set of size {common.bit_count()} misses the bound {bound}"
        )
    return TuranResult(None, tuple(bits(common)), bound, cand_sets)


@dataclass(frozen=True)
class ConsistentTransitive:
    """Transitively ordered vertices whose prefix is out-heavy and suffix in-heavy."""

    vertices: tuple[int, ...]
    turning: int

    def is_consistent(self, g: Digraph, bound: float) -> bool:
        vs = self.vertices
        if not 0 <= self.turning <= len(vs):
            return False
        for i, u in enumerate(vs):
            for w in vs[i + 1:]:
                if not g.arc(u, w):
                    return False
        head = all(at_least(g.d_out(v), bound) for v in vs[: self.turning])
        tail = all(at_least(g.d_in(v), bound) for v in vs[self.turning:])
        return head and tail


@dataclass(frozen=True)
class ConsistentResult:
    embedding: Embedding | None
    independent: tuple[int, ...] | None
    bound: float
    states: tuple[ConsistentTransitive, ...]

    @property
    def kind(self) -> str:
        return "copy" if self.embedding is not None else "independent"


def consistent_or_independent(g: Digraph, r: int, alpha: float) -> ConsistentResult:
    """Transitive r-tournament copy or a large independent set.

    Grows a consistent transitive chain one vertex at a time, always inserting
    at the turning point; at length r - 2 the common neighbourhood either
    carries an arc (closing the copy with two fresh vertices at the turning
    point) or is independent.
    """
    n = g.n
    if r < 2:
        raise DomainError("need r >= 2")
    deg_bound = (1 - 1 / (r - 1) - alpha) * n
    for v in range(n):
        if not (at_least(g.d_out(v), deg_bound) or at_least(g.d_in(v), deg_bound)):
            raise DomainError(f"vertex {v} fails the out-or-in degree bound")
    set_bound = (1 / (r - 1) - r * alpha) * n

    chain: list[int] = []
    turning = 0
    states: list[ConsistentTransitive] = []

    def neighbourhood() -> int:
        cand = ((1 << n) - 1) ^ mask_of(chain)
        for i, v in enumerate(chain):
            cand &= g.out_mask(v) if i < turning else g.in_mask(v)
        return cand

    while len(chain) < r - 2:
        cand = neighbourhood()
        pick = None
        for v in bits(cand):
            if at_least(g.d_out(v), deg_bound) or at_least(g.d_in(v), deg_bound):
                pick = v
                break
        if pick is None:
            raise InvariantViolation("no insertable vertex for the consistent chain")
        if at_least(g.d_out(pick), deg_bound):
            chain.insert(turning, pick)
            turning += 1
        else:
            chain.insert(turning, pick)
        states.append(ConsistentTransitive(tuple(chain), turning))

    final = neighbourhood()
    pattern = Tournament.transitive(r)
    for u in bits(final):
        hit = g.out_mask(u) & final & ~(1 << u)
        if hit:
            w = (hit & -hit).bit_length() - 1
            seq = chain[:turning] + [u, w] + chain[turning:]
            emb = Embedding(pattern, tuple(seq))
            if not emb.is_valid(g):
                raise InvariantViolation("constructed transitive embedding failed validation")
            return ConsistentResult(emb, None, set_bound, tuple(states))

    return ConsistentResult(None, tuple(bits(final)), set_bound, tuple(states))
