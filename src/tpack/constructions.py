"""Generators for the explicit digraph families and seeded random instances.

Every generator is a pure function of its arguments (and seed for the random
ones); identical calls return identical digraphs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .core import (
    Digraph,
    DomainError,
    FLOAT_SLACK,
    Tournament,
    bits,
    ceil_frac,
    mask_of,
)


def _base_class_sizes(n: int) -> tuple[int, int, int]:
    """Lexicographically least (a1, a2, a3) with floor(n/3) <= a1 <= a2 <= a3 <= ceil(n/3)."""
    k, rem = divmod(n, 3)
    if rem == 0:
        return (k, k, k)
    if rem == 1:
        return (k, k, k + 1)
    return (k, k + 1, k + 1)


@dataclass(frozen=True)
class BlowupPartition:
    """Ordered 3-class vertex partition underlying the cyclic blow-up family.

    Actual class sizes are (a1 - c, a2 + c, a3) where (a1, a2, a3) are the
    near-equal base sizes for n and c is the shift.
    """

    classes: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    base_sizes: tuple[int, int, int]
    shift: int

    def __post_init__(self):
        a1, a2, a3 = self.base_sizes
        n = a1 + a2 + a3
        lo, hi = n // 3, ceil_frac(n, 3)
        if not (lo <= a1 <= a2 <= a3 <= hi):
            raise DomainError(f"base sizes {self.base_sizes} not near-equal for n={n}")
        want = (a1 - self.shift, a2 + self.shift, a3)
        got = tuple(len(cl) for cl in self.classes)
        if got != want:
            raise DomainError(f"class sizes {got} do not match shifted sizes {want}")
        if any(s < 0 for s in want):
            raise DomainError(f"shift {self.shift} makes a class size negative")
        seen: set[int] = set()
        for cl in self.classes:
            for v in cl:
                if v in seen:
                    raise DomainError(f"vertex {v} appears in two classes")
                seen.add(v)

    @property
    def n(self) -> int:
        return sum(len(cl) for cl in self.classes)

    @property
    def sizes(self) -> tuple[int, int, int]:
        return tuple(len(cl) for cl in self.classes)

    @property
    def masks(self) -> tuple[int, int, int]:
        return tuple(mask_of(cl) for cl in self.classes)


def _blowup_from_masks(masks: tuple[int, int, int], base: tuple[int, int, int],
                       shift: int) -> BlowupPartition:
    classes = tuple(tuple(bits(m)) for m in masks)
    return BlowupPartition(classes=classes, base_sizes=base, shift=shift)


def make_c3_blowup(n: int, c: int) -> tuple[Digraph, BlowupPartition]:
    """Three consecutive classes, complete inside, one-way cross arcs cyclically.

    Class i sends every arc to class i+1 (mod 3) and nothing backwards; each
    class spans a complete digraph.  Sizes are the near-equal base sizes with
    the first shrunk and the second grown by the shift c.
    """
    if n < 3:
        raise DomainError("blow-up needs n >= 3")
    a1, a2, a3 = _base_class_sizes(n)
    sizes = (a1 - c, a2 + c, a3)
    if min(sizes) < 0:
        raise DomainError(f"shift c={c} drives a class size below zero")
    bounds = list(itertools.accumulate((0,) + sizes))
    classes = tuple(tuple(range(bounds[i], bounds[i + 1])) for i in range(3))
    part = BlowupPartition(classes=classes, base_sizes=(a1, a2, a3), shift=c)
    rows = [0] * n
    masks = part.masks
    for i in range(3):
        nxt = masks[(i + 1) % 3]
        for v in classes[i]:
            rows[v] = (masks[i] ^ (1 << v)) | nxt
    return Digraph(n, rows), part


def blowup_deficit(g: Digraph, masks: tuple[int, int, int]) -> int:
    """Arcs the blow-up pattern on these classes requires that g is missing."""
    missing = 0
    for i in range(3):
        own = masks[i]
        nxt = masks[(i + 1) % 3]
        inside_want = own.bit_count() - 1
        cross_want = nxt.bit_count()
        for v in bits(own):
            missing += inside_want - g.d_out_to(v, own)
            missing += cross_want - g.d_out_to(v, nxt)
    return missing


@dataclass(frozen=True)
class ContainmentWitness:
    contains: bool
    deficit: int
    partition: BlowupPartition
    mode: str
    alpha: float


_EXACT_CONTAIN_CAP = 12
_HEURISTIC_RESTARTS = 16


def alpha_contains_c3_blowup(g: Digraph, alpha: float) -> ContainmentWitness:
    """Does some class assignment leave at most alpha * n^2 blow-up arcs missing?

    Up to n = 12 every assignment of V(g) into classes of the base sizes is
    enumerated (mode "exact"); above that a seeded multi-restart swap descent
    runs (mode "heuristic"), which can miss assignments but never claims
    containment falsely.  The witness carries the best partition and its
    deficit either way.
    """
    n = g.n
    if n < 3:
        raise DomainError("containment target needs n >= 3")
    base = _base_class_sizes(n)
    bound = alpha * n * n + FLOAT_SLACK
    if n <= _EXACT_CONTAIN_CAP:
        return _contains_exact(g, base, bound, alpha)
    return _contains_heuristic(g, base, bound, alpha)


def _contains_exact(g: Digraph, base: tuple[int, int, int], bound: float,
                    alpha: float) -> ContainmentWitness:
    n = g.n
    a1, a2, a3 = base
    verts = range(n)
    full = (1 << n) - 1
    best = None
    for c1 in itertools.combinations(verts, a1):
        m1 = mask_of(c1)
        rest = [v for v in verts if not m1 >> v & 1]
        for c2 in itertools.combinations(rest, a2):
            m2 = mask_of(c2)
            m3 = full ^ m1 ^ m2
            d = blowup_deficit(g, (m1, m2, m3))
            if best is None or d < best[0]:
                best = (d, (m1, m2, m3))
            if d <= bound:
                part = _blowup_from_masks((m1, m2, m3), base, 0)
                return ContainmentWitness(True, d, part, "exact", alpha)
    d, masks = best
    part = _blowup_from_masks(masks, base, 0)
    return ContainmentWitness(False, d, part, "exact", alpha)


def _contains_heuristic(g: Digraph, base: tuple[int, int, int], bound: float,
                        alpha: float) -> ContainmentWitness:
    n = g.n
    rng = random.Random(0)
    best: tuple[int, tuple[int, int, int]] | None = None
    cuts = (base[0], base[0] + base[1])
    for _ in range(_HEURISTIC_RESTARTS):
        order = list(range(n))
        rng.shuffle(order)
        groups = [order[: cuts[0]], order[cuts[0]: cuts[1]], order[cuts[1]:]]
        masks = tuple(mask_of(gr) for gr in groups)
        d = blowup_deficit(g, masks)
        improved = True
        while improved:
            improved = False
            move = None
            for i, j in itertools.combinations(range(3), 2):
                for u in bits(masks[i]):
                    for w in bits(masks[j]):
                        trial = list(masks)
                        trial[i] = (masks[i] ^ (1 << u)) | (1 << w)
                        trial[j] = (masks[j] ^ (1 << w)) | (1 << u)
                        td = blowup_deficit(g, tuple(trial))
                        if td < d and (move is None or td < move[0]):
                            move = (td, tuple(trial))
            if move is not None:
                d, masks = move
                improved = True
            if d <= bound:
                part = _blowup_from_masks(masks, base, 0)
                return ContainmentWitness(True, d, part, "heuristic", alpha)
        if best is None or d < best[0]:
            best = (d, masks)
    d, masks = best
    part = _blowup_from_masks(masks, base, 0)
    return ContainmentWitness(d <= bound, d, part, "heuristic", alpha)


def make_near_independent_extremal(n: int, r: int) -> Digraph:
    """Complete digraph minus every arc inside the first n/r + 1 vertices.

    The distinguished set is too large to be covered by vertex-disjoint
    r-vertex tournaments that each use at most one of its vertices, so no
    perfect packing by any r-vertex tournament exists.  Minimum semidegree
    comes out to (1 - 1/r)n - 1.
    """
    if r < 2:
        raise DomainError("need r >= 2")
    if n % r:
        raise DomainError(f"r={r} must divide n={n}")
    k = n // r + 1
    if k > n:
        raise DomainError("distinguished set exceeds the vertex set")
    hole = (1 << k) - 1
    full = (1 << n) - 1
    rows = []
    for v in range(n):
        row = full ^ (1 << v)
        if v < k:
            row &= ~hole
        rows.append(row)
    return Digraph(n, rows)


def make_source_counterexample(n: int) -> Digraph:
    """Complete digraph on n-1 vertices plus a source that only sends.

    The source (vertex n-1) reaches everyone and is reached by no one, so it
    lies on no cyclic triangle; minimum outdegree is still n-2.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    full = (1 << (n - 1)) - 1
    rows = [full ^ (1 << v) for v in range(n - 1)]
    rows.append(full)
    return Digraph(n, rows)


def make_k3minus_example(m: int) -> Digraph:
    """Two complete classes of sizes m+1 and m+2 joined by a circulant bipartite tournament.

    Vertex i of the first class beats the m/2 + 1 cyclically consecutive
    second-class positions starting at i and loses to the rest, making the
    cross tournament as regular as possible.  Every pair with one vertex per
    class carries a single arc, so any triangle-with-one-doubled-edge copy
    lives inside a class; the class sizes 1 and 2 mod 3 then block a perfect
    packing.  Minimum semidegree is m/2 + 1 + m = (3n - 5)/4 at n = 2m + 3.
    """
    if m < 0 or m % 6:
        raise DomainError("need m >= 0 with 6 | m")
    n1, n2 = m + 1, m + 2
    n = n1 + n2
    rows = [0] * n
    mask1 = (1 << n1) - 1
    mask2 = ((1 << n) - 1) ^ mask1
    for v in range(n1):
        rows[v] = mask1 ^ (1 << v)
    for v in range(n1, n):
        rows[v] = mask2 ^ (1 << v)
    half = m // 2
    for i in range(n1):
        for s in range(half + 1):
            j = (i + s) % n2
            rows[i] |= 1 << (n1 + j)
    for i in range(n1):
        for j in range(n2):
            if not rows[i] >> (n1 + j) & 1:
                rows[n1 + j] |= 1 << i
    return Digraph(n, rows)


def make_near_tournament_extremal(n: int, r: int) -> Digraph:
    """Complete digraph with the first n/r + 1 vertices thinned to a single orientation.

    Inside the distinguished set each pair keeps only the low-to-high arc, so
    no double edge survives there and any complete r-set uses at most one of
    its vertices; with n/r + 1 such vertices a perfect complete-r-set packing
    is impossible.  Total minimum degree is (2 - 1/r)n - 2.
    """
    if r < 2:
        raise DomainError("need r >= 2")
    if n % r:
        raise DomainError(f"r={r} must divide n={n}")
    k = n // r + 1
    if k > n:
        raise DomainError("distinguished set exceeds the vertex set")
    hole = (1 << k) - 1
    full = (1 << n) - 1
    rows = []
    for v in range(n):
        row = full ^ (1 << v)
        if v < k:
            keep_high = (hole >> (v + 1)) << (v + 1)
            row = (row & ~hole) | keep_high
        rows.append(row)
    return Digraph(n, rows)


def _random_base(n: int, rng: random.Random) -> tuple[list[int], list[int]]:
    """Out-rows and in-rows of a random digraph of a random density in [0.1, 0.9]."""
    p = rng.uniform(0.1, 0.9)
    rand = rng.random
    rows = [0] * n
    cols = [0] * n
    for u in range(n):
        bit = 1 << u
        for v in range(n):
            if u != v and rand() < p:
                rows[u] |= 1 << v
                cols[v] |= bit
    return rows, cols


def _add_arcs(own: list[int], other: list[int], v: int, k: int, rng: random.Random) -> None:
    """Join v to k vertices drawn one at a time from those it misses in own.

    own and other are (rows, cols) to add out-arcs at v and (cols, rows) to add
    in-arcs.  The candidate list is built once, ascending, and loses only the
    vertex drawn, since no other arc at v is added meanwhile.
    """
    if k <= 0:
        return
    n = len(own)
    options = list(bits(((1 << n) - 1) & ~(own[v] | 1 << v)))
    for _ in range(k):
        u = rng.choice(options)
        options.remove(u)
        own[v] |= 1 << u
        other[u] |= 1 << v


def random_digraph_min_semidegree(n: int, dmin: int, seed: int) -> Digraph:
    """Seeded digraph with every outdegree and indegree at least dmin.

    A random base density is repaired by adding arcs at deficient vertices
    until the bound holds.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    if not 0 <= dmin <= n - 1:
        raise DomainError(f"dmin={dmin} infeasible for n={n}")
    rng = random.Random(seed)
    rows, cols = _random_base(n, rng)
    for v in range(n):
        _add_arcs(rows, cols, v, dmin - rows[v].bit_count(), rng)
    for v in range(n):
        _add_arcs(cols, rows, v, dmin - cols[v].bit_count(), rng)
    return Digraph._from_rows(n, rows, cols)


def random_digraph_out_or_in(n: int, seed: int, t: int | None = None) -> Digraph:
    """Seeded digraph where every vertex has outdegree >= t or indegree >= t.

    t defaults to the two-thirds threshold ceil(2n/3).  Deficient vertices are
    repaired on whichever side is currently larger, so instances mix out-heavy
    and in-heavy vertices.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    if t is None:
        t = ceil_frac(2 * n, 3)
    if not 0 <= t <= n - 1:
        raise DomainError(f"t={t} infeasible for n={n}")
    rng = random.Random(seed)
    rows, cols = _random_base(n, rng)
    for v in range(n):
        dout, din = rows[v].bit_count(), cols[v].bit_count()
        # Repairing the larger side keeps it the larger one, so it never switches.
        if dout >= din:
            _add_arcs(rows, cols, v, t - dout, rng)
        else:
            _add_arcs(cols, rows, v, t - din, rng)
    return Digraph._from_rows(n, rows, cols)


def random_digraph_total_min_degree(n: int, t: int, seed: int) -> Digraph:
    """Seeded digraph with outdegree + indegree >= t at every vertex."""
    if n < 1:
        raise DomainError("need n >= 1")
    if not 0 <= t <= 2 * (n - 1):
        raise DomainError(f"t={t} infeasible for n={n}")
    rng = random.Random(seed)
    rows, cols = _random_base(n, rng)
    full = (1 << n) - 1
    for v in range(n):
        need = t - rows[v].bit_count() - cols[v].bit_count()
        if need <= 0:
            continue
        bit = 1 << v
        out_opts = list(bits(full & ~(rows[v] | bit)))
        in_opts = list(bits(full & ~(cols[v] | bit)))
        for _ in range(need):
            if out_opts and (not in_opts or rng.random() < 0.5):
                own, other, options = rows, cols, out_opts
            else:
                own, other, options = cols, rows, in_opts
            u = rng.choice(options)
            options.remove(u)
            own[v] |= 1 << u
            other[u] |= bit
    return Digraph._from_rows(n, rows, cols)


def random_tournament(r: int, seed: int) -> Tournament:
    """Uniformly random orientation of each pair, seeded."""
    if r < 1:
        raise DomainError("tournament order must be positive")
    rng = random.Random(seed)
    rows = [0] * r
    for u in range(r):
        for v in range(u + 1, r):
            if rng.random() < 0.5:
                rows[u] |= 1 << v
            else:
                rows[v] |= 1 << u
    return Tournament(r, rows)
