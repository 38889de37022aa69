"""Perfect and maximum packing search over fixed-order patterns.

Both perfect-packing stages run one explicit-stack exact-cover loop
(_search) that branches on the lowest uncovered vertex; they differ only in
the branches they supply.  A capped first-fit (_first_fit) draws copies
through that vertex lazily and can only prove that a packing exists.  The
exact search behind it branches over every r-set that spans a pattern, in
the mirror labelling (vertex v becomes n-1-v), where combination order is
descending integer order.  A failed-subproblem memo keyed on the uncovered
mask makes non-existence proofs cheap to exhaust, and a node budget turns
runaway searches into a distinct verdict instead of a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Digraph, DomainError, Embedding, InvariantViolation, bits, copy_masks, iter_copies,
    spans_copy,
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
    """A verdict with its packing, if any; nodes counts the first-fit nodes
    for a packing that stage found and the exact search's nodes otherwise."""

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


def _mirror(n: int, m: int) -> int:
    """The mask m of vertices below n with each vertex v relabelled n-1-v."""
    return int(format(m, f"0{n}b")[::-1], 2)


def _candidate_embeddings(g: Digraph, fam: tuple[Digraph, ...]):
    """All r-sets spanning some pattern, as mirrored masks in combination order,
    plus mask -> embedding.

    One r-set precedes another in combination order when the lowest vertex in
    which they differ lies in it.  Mirroring makes that vertex the highest
    differing bit, so descending mirrored masks are in combination order and
    the search branches in it.  embed(m) mirrors m back and returns the first
    family pattern's spans_copy embedding there; it is built only for the
    masks a packing uses.
    """
    n = g.n
    mirror = Digraph._from_rows(n, [_mirror(n, g._out[n - 1 - v]) for v in range(n)],
                                [_mirror(n, g._in[n - 1 - v]) for v in range(n)])
    found: set[int] = set()
    for pat in fam:
        found |= copy_masks(mirror, pat)
    masks = sorted(found, reverse=True)

    def embed(m: int) -> Embedding:
        xs = tuple(bits(_mirror(n, m)))
        for pat in fam:
            e = spans_copy(g, xs, pat)
            if e is not None:
                return e
        raise InvariantViolation("mask spans no pattern of the family")

    return masks, embed


def _search(full: int, branches, limit: int):
    """Depth-first exact cover of the vertex mask full: (items, nodes), or
    (None, nodes) when it fails or gives up.

    Each node is an uncovered set; branches(uncovered) yields (mask, item)
    for each way to extend it, and the loop covers mask, records item and
    pushes the remainder as the next node.  A node whose branches run out is
    popped and its parent takes its next one.  The loop runs on an explicit
    stack, holds no memo and gives up once nodes > limit.
    """
    uncovered = full
    frames = []  # per node: (its branches, uncovered there)
    items = []  # the item taken at each node below the top one
    nodes = 0
    while uncovered:
        nodes += 1
        if nodes > limit:
            return None, nodes
        frames.append((branches(uncovered), uncovered))
        while True:
            steps, before = frames[-1]
            for mask, item in steps:
                break
            else:
                frames.pop()
                if not frames:
                    return None, nodes
                items.pop()
                continue
            items.append(item)
            uncovered = before ^ mask
            break
    return items, nodes


def _by_vertex(n: int, masks: list[int]) -> list[list[int]]:
    """The masks through each vertex below n, each list in the order of masks."""
    by_vertex: list[list[int]] = [[] for _ in range(n)]
    for m in masks:
        rest = m
        while rest:
            low = rest & -rest
            by_vertex[low.bit_length() - 1].append(m)
            rest ^= low
    return by_vertex


class _BudgetHit(Exception):
    pass


class _Optimal(Exception):
    """The maximum search holds n // r disjoint sets, which nothing beats."""


def _largest(n: int, r: int, masks: list[int], budget: int):
    """(best, exact, nodes): a largest set of pairwise-disjoint masks, whether
    the search completed within budget, and the subproblems it expanded.

    Masks are mirrored, so the branch vertex, the lowest uncovered one in the
    host's labels, is the highest uncovered bit.  Each uncovered set is
    solved once (memo).  best only ever grows, so stopping once it holds
    n // r sets leaves the packing that the full search would end with.
    """
    by_vertex = _by_vertex(n, masks)
    memo: dict[int, tuple[int, ...]] = {}
    best: list[int] = []
    nodes = 0

    def maximum(uncovered: int, path: list[int]) -> tuple[int, ...]:
        nonlocal best, nodes
        hit = memo.get(uncovered)
        if hit is None:
            nodes += 1
            if nodes > budget:
                raise _BudgetHit
            hit = ()
            if uncovered.bit_count() >= r:
                v = uncovered.bit_length() - 1
                for m in by_vertex[v]:
                    if m & ~uncovered:
                        continue
                    path.append(m)
                    sub = maximum(uncovered ^ m, path)
                    path.pop()
                    if len(sub) + 1 > len(hit):
                        hit = (m,) + sub
                skip = maximum(uncovered ^ (1 << v), path)
                if len(skip) > len(hit):
                    hit = skip
            memo[uncovered] = hit
        if len(path) + len(hit) > len(best):
            best = path + list(hit)
            if len(best) == n // r:
                raise _Optimal
        return hit

    try:
        maximum((1 << n) - 1, [])
    except _BudgetHit:
        return best, False, nodes
    except _Optimal:
        pass
    return best, True, nodes


def find_perfect_packing(g: Digraph, pattern: Digraph,
                         budget: int = DEFAULT_BUDGET) -> PackCertificate:
    """Perfect packing, exhaustion proof of non-existence, or budget verdict."""
    return find_perfect_family_packing(g, [pattern], budget)


#: first-fit gives up after n/r + _FIRST_FIT_SLACK nodes (n/r when nothing backtracks)
_FIRST_FIT_SLACK = 32


def _copies_through(g: Digraph, fam: tuple[Digraph, ...], within: int, a: int):
    """(mask, (pattern, image)) for the first family copy through a inside
    within on each vertex set."""
    seen: set[int] = set()
    for pat in fam:
        for mask, image in iter_copies(g, pat, within, a):
            if mask not in seen:
                seen.add(mask)
                yield mask, (pat, image)


def _first_fit(g: Digraph, fam: tuple[Digraph, ...], budget: int) -> PackCertificate | None:
    """Perfect packing by depth-first first-fit, or None once it gives up.

    Each node covers the lowest uncovered vertex with the next vertex set
    through it inside the uncovered set, drawn lazily by _copies_through; a
    node whose copies run out is backtracked (_search).  It gives up after
    n/r + _FIRST_FIT_SLACK nodes (never more than budget), so None proves
    nothing.
    """
    cap = min(g.n // fam[0].n + _FIRST_FIT_SLACK, budget)
    chosen, nodes = _search(
        (1 << g.n) - 1,
        lambda u: _copies_through(g, fam, u, (u & -u).bit_length() - 1), cap)
    if chosen is None:
        return None
    elements = tuple([Embedding(pat, image) for pat, image in chosen])
    return PackCertificate(PACKED, Packing(g.n, elements), nodes)


def find_perfect_family_packing(g: Digraph, family,
                                budget: int = DEFAULT_BUDGET) -> PackCertificate:
    """Perfect packing of patterns from family, proof of non-existence, or
    budget verdict.

    The first-fit stage runs first; when it gives up, the exact search runs
    with the full budget.  nodes counts the nodes of whichever stage gave the
    verdict, so every exhausted-none and budget-exceeded count is the exact
    search's own.
    """
    fam = normalize_patterns(family)
    if g.n % fam[0].n:
        raise DomainError(f"pattern order {fam[0].n} does not divide host order {g.n}")
    quick = _first_fit(g, fam, budget)
    if quick is not None:
        return quick
    masks, embed = _candidate_embeddings(g, fam)
    by_vertex = _by_vertex(g.n, masks)
    failed: set[int] = set()  # uncovered sets shown to have no exact cover

    def branches(uncovered: int):
        # each list runs from the masks of the lowest host vertices, which the
        # search covers first, so a mask that still fits is likelier at its end
        for w in bits(uncovered):
            if not any(m & ~uncovered == 0 for m in reversed(by_vertex[w])):
                failed.add(uncovered)
                return
        for m in by_vertex[uncovered.bit_length() - 1]:
            if m & ~uncovered == 0 and uncovered ^ m not in failed:
                yield m, m
        failed.add(uncovered)

    chosen, nodes = _search((1 << g.n) - 1, branches, budget)
    if nodes > budget:
        return PackCertificate(BUDGET_EXCEEDED, None, nodes)
    if chosen is None:
        return PackCertificate(EXHAUSTED_NONE, None, nodes)
    return PackCertificate(PACKED, Packing(g.n, tuple(embed(m) for m in chosen)), nodes)


def find_max_packing(g: Digraph, pattern_or_family,
                     budget: int = DEFAULT_BUDGET) -> MaxPackingResult:
    """Maximum-cardinality packing; exact flag set when the search completed."""
    fam = normalize_patterns(pattern_or_family)
    masks, embed = _candidate_embeddings(g, fam)
    best, exact, nodes = _largest(g.n, fam[0].n, masks, budget)
    return MaxPackingResult(Packing(g.n, tuple(embed(m) for m in best)), exact, nodes)


def max_disjoint_sets(n: int, masks, budget: int = DEFAULT_BUDGET) -> tuple[list[int], bool]:
    """Maximum pairwise-disjoint subfamily of equal-size vertex masks.

    Returns the chosen masks and whether the search completed within budget.
    """
    mask_list = list(masks)
    outside = ~((1 << n) - 1)
    for m in mask_list:
        if m & outside:
            raise DomainError(f"mask {m:#b} is not a set of vertices below {n}")
    sizes = {m.bit_count() for m in mask_list}
    if len(sizes) > 1:
        raise DomainError(f"masks mix sizes {sorted(sizes)}")
    if not mask_list:
        return [], True
    r = sizes.pop()
    if r == 0:
        raise DomainError("empty sets cannot form a matching")
    best, exact, _ = _largest(n, r, [_mirror(n, m) for m in mask_list], budget)
    return [_mirror(n, m) for m in best], exact


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
