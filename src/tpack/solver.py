"""Perfect and maximum packing search over fixed-order patterns.

Every search stage runs one explicit-stack exact-cover loop (_search) that
branches on the lowest uncovered vertex; the stages differ only in the
branches they supply.  The row stage (_row_barrier) runs first, on the
host's rows alone: when every pattern joins every pair of its vertices, no
copy meets two vertices that no arc joins (that no double edge joins, when
every pattern is complete), so a greedy independent set of that pair graph
with more than n/r vertices is a space barrier.  Two gates keep it off hosts
too dense to hold one: the arc count, and some row of at most n - n//r - 1
pair neighbours.  A capped first-fit (_first_fit) draws copies through the
lowest uncovered vertex lazily and can only prove that a perfect packing
exists; it runs with half its slack first.  When it gives up, every r-set
that spans a pattern is enumerated, in the mirror labelling (vertex v
becomes n-1-v), where combination order is descending integer order.  The
barrier stage (_barrier) looks among those sets for a space or
divisibility barrier, the dense obstructions of Keevash and Mycroft's
hypergraph matching theory, the latter by eliminating the sets' incidence
columns over GF(p); the columns and _near come from one transpose.  A
barrier proves that no packing exists and comes back as an Obstruction,
which validate_obstruction re-checks by growing copies on the host's raw
rows.  Failing that, first-fit runs with its full slack, then the exact
search (_cover) branches over the sets.  A failed-subproblem memo keyed on
the uncovered mask makes its non-existence proofs cheap to exhaust, and a
node budget turns runaway searches into a distinct verdict instead of a
wrong answer.  The maximum search (_max_cover) asks it for covers of all
but d vertices, d growing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import compress

from .core import (
    Digraph, DomainError, Embedding, InvariantViolation, bits, copy_masks, spans_copy,
    _copies, _plans, _transpose,
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


@dataclass(frozen=True)
class PackCertificate:
    """A verdict with its packing, if any.

    An exhausted-none verdict carries an Obstruction when the row stage or
    the barrier stage found one, and nodes is 0 then; otherwise nodes counts
    the first-fit nodes for a packing that stage found and the exact
    search's nodes for every other verdict.
    """

    verdict: str
    packing: Packing | None
    nodes: int
    obstruction: Obstruction | None = None

    @property
    def found(self) -> bool:
        return self.verdict == PACKED


@dataclass(frozen=True)
class MaxPackingResult:
    """exact: no packing is larger; nodes: search nodes over all levels.  Once
    the budget runs out, exact is False, nodes is budget + 1 and packing is
    greedy: the first fitting copy through each lowest uncovered vertex."""

    packing: Packing
    exact: bool
    nodes: int


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

    Each node is an uncovered set; branches(uncovered, last) yields
    (mask, item) for each way to extend it, where last is the item taken to
    reach the node (None at the root), and the loop covers mask, records item
    and pushes the remainder as the next node.  A node whose branches run out
    is popped and its parent takes its next one.  The loop runs on an
    explicit stack, holds no memo and gives up once nodes > limit.
    """
    uncovered = full
    frames = []  # per node: (its branches, uncovered there)
    items = []  # the item taken at each node below the top one
    nodes = 0
    while uncovered:
        nodes += 1
        if nodes > limit:
            return None, nodes
        frames.append((branches(uncovered, items[-1] if items else None), uncovered))
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


def _near(masks: list[int], cols: list[int]) -> list[int]:
    """near[v] for each vertex: the union of the masks through v, read off
    the masks' transpose cols (column v has bit i when masks[i] holds v).
    That is the u whose column meets v's, found by one big-int AND per u;
    through fewer masks than vertices, ORing v's masks costs less."""
    pows = [1 << u for u in range(len(cols))]
    return [sum(compress(pows, map(cv.__and__, cols))) if cv.bit_count() >= len(cols)
            else reduce(int.__or__, map(masks.__getitem__, bits(cv)), 0) for cv in cols]


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


def _cover(n: int, by_vertex: list[list[int]], near: list[int], d: int, limit: int):
    """_search for disjoint masks that cover the n mirrored host vertices but
    at most d: (items, nodes), items holding None for each skipped vertex.

    The d skips are token bits below the host bits, which are shifted left by
    d.  A node branches on its lowest host vertex: each fitting mask in
    by_vertex order, then a skip, which covers it and the highest token left;
    once only tokens are left, one branch covers them all.  The witness prune
    fails a node where more host vertices lie in no fitting mask than tokens
    are left; with as many tokens left as host vertices it cannot fire and is
    skipped.  At d = 0, below the root, only the vertices near the mask just
    covered can have lost their last fitting mask, so only those are scanned.
    """
    tokens = (1 << d) - 1
    failed: set[int] = set()  # uncovered sets shown to have no cover

    def branches(uncovered: int, last: int | None):
        host, left = uncovered >> d, uncovered & tokens
        if not host:
            yield left, None
            return
        spare = left.bit_count()
        scan = host if spare < host.bit_count() else 0
        if last is not None and not d:
            scan = 0
            for v in bits(last):
                scan |= near[v]
        # each list runs from the masks of the lowest host vertices, which the
        # search covers first, so a mask that still fits is likelier at its end
        for w in bits(host & scan):
            if not any(m & ~host == 0 for m in reversed(by_vertex[w])):
                spare -= 1
                if spare < 0:
                    failed.add(uncovered)
                    return
        v = host.bit_length() - 1
        for m in by_vertex[v]:
            if m & ~host == 0 and uncovered ^ m << d not in failed:
                yield m << d, m
        if left:
            skip = 1 << (v + d) | 1 << (left.bit_length() - 1)
            if uncovered ^ skip not in failed:
                yield skip, None
        failed.add(uncovered)

    return _search((1 << (n + d)) - 1, branches, limit)


def find_perfect_packing(g: Digraph, pattern: Digraph,
                         budget: int = DEFAULT_BUDGET) -> PackCertificate:
    """Perfect packing, exhaustion proof of non-existence, or budget verdict."""
    return find_perfect_family_packing(g, [pattern], budget)


#: first-fit gives up after n/r + _FIRST_FIT_SLACK nodes (n/r when nothing
#: backtracks); find_perfect_family_packing tries half the slack first
_FIRST_FIT_SLACK = 32


def _copies_through(g: Digraph, plans, within: int, a: int):
    """(mask, (pattern, image)) for the first family copy through a inside
    within on each vertex set, in iter_copies order.  plans pairs each
    pattern with the roots of its _plans, which skip rooted plans whose root
    an automorphism maps lower: an earlier plan grows every set they grow."""
    seen: set[int] = set()
    first = within & 1 << a
    for pat, roots in plans:
        for mask, image in _copies(g, roots, within, first):
            if mask not in seen:
                seen.add(mask)
                yield mask, (pat, image)


def _first_fit(g: Digraph, fam: tuple[Digraph, ...], budget: int) -> PackCertificate | None:
    """Perfect packing by depth-first first-fit, or None once it gives up.

    Each node covers the lowest uncovered vertex with the next vertex set
    through it inside the uncovered set, drawn lazily by _copies_through; a
    node whose copies run out is backtracked (_search).  It gives up after
    n/r + _FIRST_FIT_SLACK nodes (never more than budget), so None proves
    nothing.  The search is deterministic: a smaller budget finds the same
    packing, in the same nodes, or gives up.
    """
    cap = min(g.n // fam[0].n + _FIRST_FIT_SLACK, budget)
    plans = [(pat, _plans(pat)[2]) for pat in fam]
    chosen, nodes = _search(
        (1 << g.n) - 1,
        lambda u, _: _copies_through(g, plans, u, (u & -u).bit_length() - 1), cap)
    if chosen is None:
        return None
    elements = tuple([Embedding(pat, image) for pat, image in chosen])
    return PackCertificate(PACKED, Packing(g.n, elements), nodes)


def _space_barrier(n: int, r: int, near: list[int]) -> int | None:
    """A set S, as a mask, that no mask meets twice and with |S|*r > n, or None.

    near[v] is the union of the masks through v.  Vertices are taken greedily
    in increasing order of |near[v]|, each unless a vertex already taken
    shares a mask with it.
    """
    s = blocked = 0
    for v in sorted(range(n), key=lambda v: near[v].bit_count()):
        if not blocked >> v & 1:
            s |= 1 << v
            blocked |= near[v]
    return s if s.bit_count() * r > n else None


# A vector over GF(p) is a tuple of p - 1 disjoint coordinate masks; mask k
# holds the coordinates of value k + 1.

def _gf_value(x: tuple[int, ...], i: int) -> int:
    for k, plane in enumerate(x, 1):
        if plane >> i & 1:
            return k
    return 0


def _gf_axpy(x: tuple[int, ...], y: tuple[int, ...], c: int, p: int) -> tuple[int, ...]:
    """x + c*y over GF(p), for c not 0 mod p."""
    x0, y0 = ~0, ~0
    for plane in x:
        x0 &= ~plane
    for plane in y:
        y0 &= ~plane
    out = [plane & y0 for plane in x]
    for j, y_plane in enumerate(y, 1):
        s = c * j % p
        out[s - 1] |= y_plane & x0
        for i, x_plane in enumerate(x, 1):
            if (i + s) % p:
                out[(i + s) % p - 1] |= x_plane & y_plane
    return tuple(out)


def _columns(n: int, cols: list[int]) -> list[int]:
    """The masks' incidence columns: their transpose's column j (bit i when
    mask i holds vertex j) shifted above bit n, plus bit j, where its
    combination over the vertices starts."""
    return [col << n | 1 << j for j, col in enumerate(cols)]


def _divisibility_barrier(n: int, cols: list[int], p: int) -> tuple[int, ...] | None:
    """A GF(p) vector w with w(m) = 0 on every mask and w(V) != 0, or None.

    cols are the masks' incidence columns (_columns), each carrying its
    combination over the vertices in its low n bits.  They are reduced from
    vertex n-1 down to 0 against an echelon basis keyed by top set bit.
    Column j reduces to zero exactly when it depends on the columns above it;
    its combination is then the one w that vanishes on every mask, is 1 at j
    and 0 below j and at every other such vertex.  Those w span all that
    vanish on every mask, so the first whose entries do not sum to 0 mod p
    is returned, and None when there is none.
    """
    pad = (0,) * (p - 2)
    basis: dict[int, tuple] = {}  # top set bit -> (column, inverse of its value there)
    for j in range(n - 1, -1, -1):
        x, top = (cols[j],) + pad, cols[j].bit_length() - 1
        while top in basis:
            y, inv = basis[top]
            x = _gf_axpy(x, y, (p - _gf_value(x, top)) * inv % p, p)
            top = max(map(int.bit_length, x)) - 1
        if top >= n:
            basis[top] = x, pow(_gf_value(x, top), p - 2, p)
        elif sum(k * plane.bit_count() for k, plane in enumerate(x, 1)) % p:
            return x
    return None


def _barrier(n: int, r: int, cols: list[int] | None, near: list[int]) -> Obstruction | None:
    """A space or GF(p) divisibility barrier (p a prime up to r) against any
    perfect packing by the mirrored masks, with weights in host labels.
    cols is the masks' transpose; None looks for a space barrier alone."""
    s = _space_barrier(n, r, near)
    if s is not None:
        return Obstruction(SPACE, tuple(s >> (n - 1 - v) & 1 for v in range(n)), None)
    if cols is None:
        return None
    shifted = _columns(n, cols)
    for p in range(2, r + 1):
        w = _divisibility_barrier(n, shifted, p) if all(p % q for q in range(2, p)) else None
        if w is not None:
            return Obstruction(DIVISIBILITY,
                               tuple(_gf_value(w, n - 1 - v) for v in range(n)), p)
    return None


@cache
def _pair_op(fam: tuple[Digraph, ...]):
    """The row operator of the family's pair graph, or None when it has none.

    int.__and__ (arcs both ways) when every pattern is complete, else
    int.__or__ (an arc either way) when every pattern joins every pair of
    its vertices: every copy then spans an edge of that graph of the host
    on each pair of its vertices.
    """
    r = fam[0].n
    if all(pat._m == r * (r - 1) for pat in fam):
        return int.__and__
    full = (1 << r) - 1
    if all(pat._out[v] | pat._in[v] | 1 << v == full for pat in fam for v in range(r)):
        return int.__or__
    return None


def _row_barrier(g: Digraph, fam: tuple[Digraph, ...]) -> Obstruction | None:
    """A space barrier among the host's rows (the row stage), or None.

    No copy meets an independent set of the family's pair graph (_pair_op)
    twice, so one with more than n/r vertices is a space barrier.  The
    greedy of _space_barrier looks for one on the mirrored pair rows, each
    with its own vertex, unless the degree gate rules it out: each of
    k = n//r + 1 independent vertices misses k - 1 others, so some row must
    have at most n - k bits.  The caller has applied the arc-count gate.
    """
    op = _pair_op(fam)
    if op is None:
        return None
    n = g.n
    rows = list(map(op, g._out, g._in))
    if min(map(int.bit_count, rows), default=n) > n - n // fam[0].n - 1:
        return None
    return _barrier(n, fam[0].n, None, [_mirror(n, rows[n - 1 - v]) | 1 << v for v in range(n)])


def find_perfect_family_packing(g: Digraph, family,
                                budget: int = DEFAULT_BUDGET) -> PackCertificate:
    """Perfect packing of patterns from family, proof of non-existence, or
    budget verdict.

    The row stage runs first on hosts that pass its two gates: at most
    n(n-1) - k(k-1) arcs for k = n//r + 1, or n(n-1) - k(k-1)/2 when the
    first pattern is complete, and some pair-graph row of at most n - k
    bits.  A space barrier it finds proves that no packing exists, with
    nodes 0.  Then first-fit runs with n/r + _FIRST_FIT_SLACK // 2 nodes.
    When it gives up, the barrier stage looks for a space or divisibility
    barrier among the candidate copies; one proves that no packing exists,
    with nodes 0.  Failing that, first-fit runs with its full cap (if budget
    allows more nodes), then the exact search with the full budget.  The
    certificates are those of the full cap run first: first-fit packs no
    host with a barrier.  nodes counts the nodes of whichever stage gave the
    verdict, so every other exhausted-none and every budget-exceeded count
    is the exact search's own.
    """
    fam = normalize_patterns(family)
    n, r = g.n, fam[0].n
    if n % r:
        raise DomainError(f"pattern order {r} does not divide host order {n}")
    # arc-count gate, paid by every solve, so it reads no cache: k = n//r + 1
    # vertices that no copy meets twice miss k(k-1) arcs, or k(k-1)/2 when
    # the patterns may be complete
    k = n // r + 1
    if g._m <= n * (n - 1) - k * (k - 1) // (2 if fam[0]._m == r * (r - 1) else 1):
        obstruction = _row_barrier(g, fam)
        if obstruction is not None:
            return PackCertificate(EXHAUSTED_NONE, None, 0, obstruction)
    first_cap = n // r + _FIRST_FIT_SLACK // 2
    quick = _first_fit(g, fam, min(first_cap, budget))
    if quick is not None:
        return quick
    masks, embed = _candidate_embeddings(g, fam)
    cols = _transpose(n, masks)
    near = _near(masks, cols)
    obstruction = _barrier(n, r, cols, near)
    if obstruction is not None:
        return PackCertificate(EXHAUSTED_NONE, None, 0, obstruction)
    quick = _first_fit(g, fam, budget) if budget > first_cap else None
    if quick is not None:
        return quick
    chosen, nodes = _cover(n, _by_vertex(n, masks), near, 0, budget)
    if nodes > budget:
        return PackCertificate(BUDGET_EXCEEDED, None, nodes)
    if chosen is None:
        return PackCertificate(EXHAUSTED_NONE, None, nodes)
    return PackCertificate(PACKED, Packing(g.n, tuple(embed(m) for m in chosen)), nodes)


def _max_cover(n: int, r: int, masks: list[int], budget: int) -> tuple[list[int], bool, int]:
    """(chosen, exact, nodes): a largest set of disjoint mirrored r-masks,
    whether it is proven largest within budget, and the nodes spent.

    _cover runs at d = d0, d0 + r, ... and the first d that succeeds gives
    the first maximum packing in branch order.  d0 is n mod r, or, when a
    space barrier S exists, n - r * ((n - |S|) // (r - 1)): each copy uses
    r - 1 vertices outside S.  The levels share the budget; once it is spent,
    chosen comes from _cover at d = n, which never backtracks (greedy).
    """
    # near from the lists _cover needs anyway; a transpose costs more here
    by_vertex = _by_vertex(n, masks)
    near = [reduce(int.__or__, through, 0) for through in by_vertex]
    s = _space_barrier(n, r, near)
    d = n % r if s is None else n - r * ((n - s.bit_count()) // (r - 1))
    nodes = 0
    while True:
        chosen, spent = _cover(n, by_vertex, near, d, budget - nodes)
        nodes += spent
        if nodes > budget:
            chosen, _ = _cover(n, by_vertex, near, n, n + 1)
        if chosen is not None:
            return [m for m in chosen if m is not None], nodes <= budget, nodes
        d += r


def find_max_packing(g: Digraph, pattern_or_family,
                     budget: int = DEFAULT_BUDGET) -> MaxPackingResult:
    """Maximum-cardinality packing, proven maximum within budget or greedy
    (MaxPackingResult)."""
    fam = normalize_patterns(pattern_or_family)
    masks, embed = _candidate_embeddings(g, fam)
    chosen, exact, nodes = _max_cover(g.n, fam[0].n, masks, budget)
    return MaxPackingResult(Packing(g.n, tuple(embed(m) for m in chosen)), exact, nodes)


def max_disjoint_sets(n: int, masks, budget: int = DEFAULT_BUDGET) -> tuple[list[int], bool]:
    """Maximum pairwise-disjoint subfamily of equal-size vertex masks.

    Returns the chosen masks and whether they are proven maximum within
    budget; otherwise they are greedy, as in find_max_packing.
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
    chosen, exact, _ = _max_cover(n, r, [_mirror(n, m) for m in mask_list], budget)
    return [_mirror(n, m) for m in chosen], exact


@cache
def _arc_table(fam: tuple[Digraph, ...]) -> dict:
    """Each pattern's arcs, keyed by its out-rows, for verify_packing."""
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


def _packing_rows(packing: Packing) -> tuple[int, ...]:
    """The out-rows that the packing's own arcs need: bit image[b] of row
    image[a] for each arc (a, b) of each element's pattern.

    verify_packing reads a host only through its order and these arc
    tests, so once the packing has passed it on one host of order n, it
    passes on another host of order n exactly when that host's out-rows
    contain these (_fits).
    """
    rows = [0] * packing.n
    for e in packing.elements:
        image = e.image
        for a, b in e.pattern.arcs():
            rows[image[a]] |= 1 << image[b]
    return tuple(rows)


def _fits(rows: tuple[int, ...], g: Digraph) -> bool:
    """Whether g's out-rows contain rows, one row per vertex."""
    return tuple(map(int.__and__, rows, g._out)) == rows


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
