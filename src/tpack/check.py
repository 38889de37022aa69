"""Checks of packings and non-existence certificates, apart from the search.

verify_packing tests a packing on a host's raw out-rows; validate_obstruction
re-derives a space or divisibility barrier (an Obstruction) by growing pattern
copies on the host's raw rows.  Neither shares code with the solver's copy
searches, and this module imports nothing from the rest of tpack but core's
digraphs, embeddings and bit helpers.  _packing_rows and _fits let a sweep
reuse a packing that has passed verify_packing on other hosts of its order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .core import Digraph, DomainError, Embedding, bits


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


SPACE = "space"
DIVISIBILITY = "divisibility"


@dataclass(frozen=True)
class Obstruction:
    """Vertex weights, in host labels, that no perfect packing can meet.

    space: the weights are the indicator of a set S that no pattern copy
    meets twice, and |S|*r > n, so n/r disjoint copies leave part of S
    uncovered; modulus is None.  divisibility: every copy weighs 0 mod the
    prime modulus and the whole vertex set does not, so no disjoint union of
    copies is the whole vertex set.
    """

    kind: str
    weights: tuple[int, ...]
    modulus: int | None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "modulus": self.modulus, "weights": list(self.weights)}


def normalize_patterns(pattern_or_family) -> tuple[Digraph, ...]:
    """Deduplicated patterns of one common order, in canonical row order; a
    1-tuple of one digraph with a vertex is so already and comes back as is."""
    fam = pattern_or_family
    if type(fam) is tuple and len(fam) == 1 and isinstance(fam[0], Digraph) and fam[0].n:
        return fam
    fam = [fam] if isinstance(fam, Digraph) else list(fam)
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


@cache
def _arc_table(fam: tuple[Digraph, ...]) -> dict:
    """Each pattern's arcs, keyed by its out-rows, for verify_packing and
    _packing_rows."""
    return {p._out: tuple(p.arcs()) for p in fam}


def verify_packing(g: Digraph, pattern_or_family, packing: Packing,
                   require_perfect: bool = False) -> bool:
    """Disjointness, arc validity, pattern membership, and optional coverage.

    Shares no code with the solver's copy searches: each image is checked
    on g's raw out-rows for range, injectivity and its pattern's arcs.  A
    pattern is in the family when its out-rows equal a member's.
    """
    arcs = _arc_table(normalize_patterns(pattern_or_family))
    n, out = g.n, g._out
    if packing.n != n:
        return False
    seen = 0
    for e in packing.elements:
        pat_arcs, image = arcs.get(e.pattern._out), e.image
        if pat_arcs is None:
            return False
        em = 0
        for v in image:
            if not 0 <= v < n:
                return False
            em |= 1 << v
        if em.bit_count() != e.pattern.n or em & seen:
            return False
        for a, b in pat_arcs:
            if not out[image[a]] >> image[b] & 1:
                return False
        seen |= em
    return not require_perfect or seen == (1 << n) - 1


def _packing_rows(packing: Packing, fam: tuple[Digraph, ...]) -> tuple[tuple[int, int], ...]:
    """The out-rows that the packing's own arcs need, as (vertex, row) pairs
    for the non-empty rows only: bit image[b] of row image[a] for each arc
    (a, b) of each element's pattern, read from _arc_table(fam).

    verify_packing reads a host only through its order and these arc
    tests, so once the packing has passed it on one host of order n, it
    passes on another host of order n exactly when that host's out-rows
    contain these (_fits).
    """
    arcs = _arc_table(fam)
    rows = [0] * packing.n
    for e in packing.elements:
        image = e.image
        for a, b in arcs[e.pattern._out]:
            rows[image[a]] |= 1 << image[b]
    return tuple((v, row) for v, row in enumerate(rows) if row)


def _fits(need: tuple[tuple[int, int], ...], g: Digraph) -> bool:
    """Whether g's out-row at each vertex of need contains its row; the
    first row that does not ends the test."""
    out = g._out
    for v, row in need:
        if out[v] & row != row:
            return False
    return True


def validate_obstruction(g: Digraph, pattern_or_family, obs: Obstruction) -> bool:
    """Whether obs proves that g has no perfect packing by the family.

    Shares no code with the solver's copy searches.  Space: the weights
    mark a set S of more than n/r vertices, and no copy may meet S twice.
    Divisibility: the total must not be 0 mod the modulus, and every copy's
    must be.  Each pattern's image grows one vertex at a time on g's raw
    rows, and the last vertex's candidates are ANDed with each weight class
    that would break the rule.  A copy breaks S only by meeting it twice,
    so that growth starts with each pair of pattern vertices in S.
    """
    fam = normalize_patterns(pattern_or_family)
    n, r, w, p = g.n, fam[0].n, obs.weights, obs.modulus
    space = obs.kind == SPACE and p is None
    if not space and (obs.kind != DIVISIBILITY or type(p) is not int or p < 2):
        return False
    top = 2 if space else p
    if (len(w) != n or n % r or any(x not in range(top) for x in w)
            or (sum(w) * r <= n if space else sum(w) % p == 0)):
        return False

    def breaks(total: int) -> bool:
        return total > 1 if space else total % p != 0

    classes = [sum(1 << v for v in range(n) if w[v] == k) for k in range(top)]
    # the vertices each position of the growth order may take
    domains = ([classes[1]] * 2 if space else []) + [(1 << n) - 1] * r

    def grow(links, image, used, total) -> bool:
        i = len(image)
        cand = domains[i] & ~used
        for j, rows in links[i]:
            cand &= rows[image[j]]
        if i == r - 1:
            return any(cand & classes[k] for k in range(top) if breaks(total + k))
        return any(grow(links, image + (v,), used | 1 << v, total + w[v]) for v in bits(cand))

    for pat in fam:
        arcs = set(pat.arcs())
        for start in [(a, b) for b in range(r) for a in range(b)] if space else [()]:
            order = list(start) + [v for v in range(r) if v not in start]
            # links[i]: (j, g's rows) for each arc between order[j], j < i, and order[i]
            links = [[(j, g._out) for j in range(i) if (order[j], order[i]) in arcs]
                     + [(j, g._in) for j in range(i) if (order[i], order[j]) in arcs]
                     for i in range(r)]
            if grow(links, (), 0, 0):
                return False
    return True
