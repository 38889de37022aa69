"""Exact perfect and maximum packing search over fixed-order patterns.

The search is exact cover over candidate vertex sets: enumerate every r-set
that spans one of the patterns, then backtrack on the lowest-index uncovered
vertex.  A failed-subproblem memo keyed on the uncovered mask makes
non-existence proofs cheap to exhaust, and a node budget turns runaway
searches into a distinct verdict instead of a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Digraph, DomainError, Embedding, InvariantViolation, bits, copy_masks, spans_copy,
)

DEFAULT_BUDGET = 10**8

PACKED = "packed"
EXHAUSTED_NONE = "exhausted-none"
BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class Packing:
    """Vertex-disjoint pattern embeddings in a host of order n."""

    n: int
    elements: tuple[Embedding, ...]

    def __post_init__(self):
        m = 0
        for e in self.elements:
            em = e.vertex_mask
            if em & m:
                raise DomainError("packing elements overlap")
            m |= em
        if m & ~((1 << self.n) - 1):
            raise DomainError("packing uses vertices outside the host")

    @property
    def covered_mask(self) -> int:
        m = 0
        for e in self.elements:
            m |= e.vertex_mask
        return m

    @property
    def is_perfect(self) -> bool:
        return self.covered_mask == (1 << self.n) - 1

    def __len__(self) -> int:
        return len(self.elements)

    def uncovered(self) -> tuple[int, ...]:
        return tuple(bits(((1 << self.n) - 1) ^ self.covered_mask))


@dataclass(frozen=True)
class PackCertificate:
    verdict: str
    packing: Packing | None
    nodes: int

    @property
    def found(self) -> bool:
        return self.verdict == PACKED


@dataclass(frozen=True)
class MaxPackingResult:
    packing: Packing
    exact: bool
    nodes: int


def normalize_patterns(pattern_or_family) -> tuple[Digraph, ...]:
    """Deduplicated patterns of one common order, in canonical row order."""
    if isinstance(pattern_or_family, Digraph):
        fam = [pattern_or_family]
    else:
        fam = list(pattern_or_family)
    if not fam:
        raise DomainError("empty pattern family")
    for p in fam:
        if not isinstance(p, Digraph):
            raise DomainError(f"pattern {p!r} is not a digraph")
        if p.n < 1:
            raise DomainError("patterns need at least one vertex")
    orders = {p.n for p in fam}
    if len(orders) > 1:
        raise DomainError(f"patterns mix orders {sorted(orders)}")
    uniq: dict[tuple[int, ...], Digraph] = {}
    for p in fam:
        uniq.setdefault(tuple(p.out_mask(v) for v in range(p.n)), p)
    return tuple(uniq[key] for key in sorted(uniq))


def _candidate_embeddings(g: Digraph, fam: tuple[Digraph, ...]):
    """All r-sets spanning some pattern, as lex-ordered masks, plus mask -> embedding.

    Masks are sorted by their ascending vertex tuples, so the search branches
    in combination order.  embed(m) is the first family pattern's spans_copy
    embedding on m; it is built only for the masks a packing uses.
    """
    found: set[int] = set()
    for pat in fam:
        found |= copy_masks(g, pat)
    # character v of the key is "1" when vertex v is in the set, so descending
    # key order is ascending order of the sorted vertex tuples
    fmt = f"0{g.n}b"
    masks = sorted(found, key=lambda m: format(m, fmt)[::-1], reverse=True)

    def embed(m: int) -> Embedding:
        xs = tuple(bits(m))
        for pat in fam:
            e = spans_copy(g, xs, pat)
            if e is not None:
                return e
        raise InvariantViolation("mask spans no pattern of the family")

    return masks, embed


class _BudgetHit(Exception):
    pass


class _CoverSearch:
    """Exact cover core shared by the perfect and maximum searches."""

    def __init__(self, n: int, r: int, masks: list[int], budget: int):
        self.n = n
        self.r = r
        self.by_vertex: list[list[int]] = [[] for _ in range(n)]
        for m in masks:
            for v in bits(m):
                self.by_vertex[v].append(m)
        self.budget = budget
        self.nodes = 0
        self.failed: set[int] = set()
        self.memo: dict[int, tuple[int, ...]] = {}
        self.best: list[int] = []

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise _BudgetHit

    def perfect(self, uncovered: int) -> list[int] | None:
        if uncovered == 0:
            return []
        if uncovered in self.failed:
            return None
        self._tick()
        for w in bits(uncovered):
            if not any(m & ~uncovered == 0 for m in self.by_vertex[w]):
                self.failed.add(uncovered)
                return None
        v = (uncovered & -uncovered).bit_length() - 1
        for m in self.by_vertex[v]:
            if m & ~uncovered:
                continue
            sub = self.perfect(uncovered ^ m)
            if sub is not None:
                sub.append(m)
                return sub
        self.failed.add(uncovered)
        return None

    def maximum(self, uncovered: int, path: list[int]) -> tuple[int, ...]:
        hit = self.memo.get(uncovered)
        if hit is None:
            self._tick()
            if uncovered.bit_count() < self.r:
                hit = ()
            else:
                v = (uncovered & -uncovered).bit_length() - 1
                best: tuple[int, ...] = ()
                for m in self.by_vertex[v]:
                    if m & ~uncovered:
                        continue
                    path.append(m)
                    sub = self.maximum(uncovered ^ m, path)
                    path.pop()
                    if len(sub) + 1 > len(best):
                        best = (m,) + sub
                skip = self.maximum(uncovered ^ (1 << v), path)
                if len(skip) > len(best):
                    best = skip
                hit = best
            self.memo[uncovered] = hit
        if len(path) + len(hit) > len(self.best):
            self.best = path + list(hit)
        return hit


def _precheck(g: Digraph, fam: tuple[Digraph, ...], need_divisible: bool) -> int:
    r = fam[0].n
    if need_divisible and g.n % r:
        raise DomainError(f"pattern order {r} does not divide host order {g.n}")
    return r


def find_perfect_packing(g: Digraph, pattern: Digraph,
                         budget: int = DEFAULT_BUDGET) -> PackCertificate:
    """Perfect packing, exhaustion proof of non-existence, or budget verdict."""
    return find_perfect_family_packing(g, [pattern], budget)


def find_perfect_family_packing(g: Digraph, family,
                                budget: int = DEFAULT_BUDGET) -> PackCertificate:
    fam = normalize_patterns(family)
    r = _precheck(g, fam, need_divisible=True)
    masks, embed = _candidate_embeddings(g, fam)
    search = _CoverSearch(g.n, r, masks, budget)
    full = (1 << g.n) - 1
    try:
        chosen = search.perfect(full)
    except _BudgetHit:
        return PackCertificate(BUDGET_EXCEEDED, None, search.nodes)
    if chosen is None:
        return PackCertificate(EXHAUSTED_NONE, None, search.nodes)
    elements = tuple(embed(m) for m in reversed(chosen))
    return PackCertificate(PACKED, Packing(g.n, elements), search.nodes)


def find_max_packing(g: Digraph, pattern_or_family,
                     budget: int = DEFAULT_BUDGET) -> MaxPackingResult:
    """Maximum-cardinality packing; exact flag set when the search completed."""
    fam = normalize_patterns(pattern_or_family)
    r = _precheck(g, fam, need_divisible=False)
    masks, embed = _candidate_embeddings(g, fam)
    search = _CoverSearch(g.n, r, masks, budget)
    full = (1 << g.n) - 1
    exact = True
    try:
        search.maximum(full, [])
    except _BudgetHit:
        exact = False
    elements = tuple(embed(m) for m in search.best)
    return MaxPackingResult(Packing(g.n, elements), exact, search.nodes)


def max_disjoint_sets(n: int, masks, budget: int = DEFAULT_BUDGET) -> tuple[list[int], bool]:
    """Maximum pairwise-disjoint subfamily of equal-size vertex masks.

    Returns the chosen masks and whether the search completed within budget.
    """
    mask_list = list(masks)
    sizes = {m.bit_count() for m in mask_list}
    if len(sizes) > 1:
        raise DomainError(f"masks mix sizes {sorted(sizes)}")
    if not mask_list:
        return [], True
    r = sizes.pop()
    if r == 0:
        raise DomainError("empty sets cannot form a matching")
    search = _CoverSearch(n, r, mask_list, budget)
    exact = True
    try:
        search.maximum((1 << n) - 1, [])
    except _BudgetHit:
        exact = False
    return list(search.best), exact


def verify_packing(g: Digraph, pattern_or_family, packing: Packing,
                   require_perfect: bool = False) -> bool:
    """Disjointness, arc validity, pattern membership, and optional coverage."""
    fam = normalize_patterns(pattern_or_family)
    keys = {tuple(p.out_mask(v) for v in range(p.n)) for p in fam}
    if packing.n != g.n:
        return False
    seen = 0
    for e in packing.elements:
        pkey = tuple(e.pattern.out_mask(v) for v in range(e.pattern.n))
        if pkey not in keys:
            return False
        if not e.is_valid(g):
            return False
        em = e.vertex_mask
        if em & seen:
            return False
        seen |= em
    if require_perfect and seen != (1 << g.n) - 1:
        return False
    return True
