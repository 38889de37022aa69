"""Generators for the explicit digraph families and seeded random instances.

Every generator is a pure function of its arguments (and seed for the random
ones); identical calls return identical digraphs.
"""

from __future__ import annotations

import functools
import itertools
import math
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


def _swap_scores(g: Digraph, masks: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """score[v][c]: the arcs at v that the blow-up wants if v sits in class
    c, i.e. out(v, C_c) + out(v, C_c+1) + in(v, C_c) + in(v, C_c-1)."""
    scores = []
    for v in range(g.n):
        o = [g.d_out_to(v, m) for m in masks]
        i = [g.d_in_from(v, m) for m in masks]
        scores.append(tuple(o[c] + o[(c + 1) % 3] + i[c] + i[c - 1] for c in range(3)))
    return scores


def _contains_heuristic(g: Digraph, base: tuple[int, int, int], bound: float,
                        alpha: float) -> ContainmentWitness:
    """Seeded restarts of a steepest swap descent on the deficit.

    With class sizes fixed the deficit is a constant less the arcs the
    blow-up wants, so swapping u in C_i with w in C_j lowers it by
    score[u][j] - score[u][i] + score[w][i] - score[w][j] - arc(u, w) -
    arc(w, u) (Kernighan and Lin's swap gain; _swap_scores, once a step).
    """
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
            score = _swap_scores(g, masks)
            for i, j in itertools.combinations(range(3), 2):
                for u in bits(masks[i]):
                    su = score[u]
                    for w in bits(masks[j]):
                        sw = score[w]
                        td = d - (su[j] - su[i] + sw[i] - sw[j]
                                  - g.arc(u, w) - g.arc(w, u))
                        if td < d and (move is None or td < move[0]):
                            move = (td, i, j, 1 << u | 1 << w)
            if move is not None:
                d, i, j, pair = move
                trial = list(masks)
                trial[i] ^= pair
                trial[j] ^= pair
                masks = tuple(trial)
                improved = True
            if d <= bound:
                part = _blowup_from_masks(masks, base, 0)
                return ContainmentWitness(True, d, part, "heuristic", alpha)
        if best is None or d < best[0]:
            best = (d, masks)
    d, masks = best
    part = _blowup_from_masks(masks, base, 0)
    return ContainmentWitness(d <= bound, d, part, "heuristic", alpha)


def _distinguished_set(n: int, r: int) -> tuple[int, int]:
    """Size k = n/r + 1 and vertex mask of the first k vertices, the set that
    both near-extremal families thin out."""
    if r < 2:
        raise DomainError("need r >= 2")
    if n % r:
        raise DomainError(f"r={r} must divide n={n}")
    k = n // r + 1
    if k > n:
        raise DomainError("distinguished set exceeds the vertex set")
    return k, (1 << k) - 1


def make_near_independent_extremal(n: int, r: int) -> Digraph:
    """Complete digraph minus every arc inside the first n/r + 1 vertices.

    The distinguished set is too large to be covered by vertex-disjoint
    r-vertex tournaments that each use at most one of its vertices, so no
    perfect packing by any r-vertex tournament exists.  Minimum semidegree
    comes out to (1 - 1/r)n - 1.
    """
    k, hole = _distinguished_set(n, r)
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
    k, hole = _distinguished_set(n, r)
    full = (1 << n) - 1
    rows = []
    for v in range(n):
        row = full ^ (1 << v)
        if v < k:
            keep_high = (hole >> (v + 1)) << (v + 1)
            row = (row & ~hole) | keep_high
        rows.append(row)
    return Digraph(n, rows)


# Ordered pairs per getrandbits call in _random_base; a chunk's lane arithmetic
# holds a few 64-bit words per pair, about 1 MB at this size, whatever n is.
_CHUNK = 1 << 15
_LANE = b"\x01" + bytes(7)
_M26, _M27 = (1 << 26) - 1, (1 << 27) - 1
_NO_ARC = bytes.maketrans(b"\x00\x01", b"10")
_BIT = bytes.maketrans(b"01", b"\x00\x01")


@functools.lru_cache(maxsize=4)
def _lane_masks(lanes: int) -> tuple[int, int, int]:
    """Bit 0, the low 27 bits and the low 26 bits of each of this many 64-bit
    lanes; a host needs at most two lane counts, _CHUNK and the remainder."""
    ones = int.from_bytes(_LANE * lanes, "little")
    return ones, ones * _M27, ones * _M26


def _candidates(missed: int, n: int) -> list[int]:
    """list(bits(missed)) for missed < 2^n, read off its binary digits."""
    digits = bin(missed | 1 << n)[:2:-1].encode().translate(_BIT)
    return list(itertools.compress(range(n), digits))


def _random_base(n: int, rng: random.Random) -> tuple[list[int], list[int]]:
    """Out-rows and in-rows of a random digraph of a random density in [0.1, 0.9].

    Each ordered pair (u, v), u != v, in row-major order, is an arc when the
    next rng.random() is below p.  CPython's random() is ((a >> 5) * 2^26 +
    (b >> 6)) / 2^53 for its next two 32-bit words a, b, and getrandbits(64k)
    packs the next 2k words first word lowest, so the 64-bit lanes of one
    draw hold, in order, the coins of as many random() calls.  Per lane,
    x = (a >> 5) << 26 | b >> 6 and random() < p exactly when x < ceil(p * 2^53),
    i.e. when bit 53 of x + 2^53 - ceil(p * 2^53) is clear.
    """
    p = rng.uniform(0.1, 0.9)
    bias = (1 << 53) - math.ceil(p * (1 << 53))
    getrandbits = rng.getrandbits
    total = n * (n - 1)
    coins = []
    for start in range(0, total, _CHUNK):
        lanes = min(_CHUNK, total - start)
        ones, m27, m26 = _lane_masks(lanes)
        w = getrandbits(64 * lanes)
        x = ((w >> 5) & m27) << 26 | (w >> 38) & m26
        # every lane of x + bias is below 2^54, so after >> 53 a lane's low
        # byte is its bit 53
        coins.append(((x + ones * bias) >> 53).to_bytes(8 * lanes, "little")[0::8])
    flat = b"".join(coins).translate(_NO_ARC)
    # n - 1 coins separate consecutive diagonal cells; reversed, row u reads
    # as the binary number of its mask
    cells = b"0".join([b"", *(flat[i:i + n] for i in range(0, total, n)), b""])[::-1]
    rows = [int(cells[i:i + n], 2) for i in range(n * n - n, -1, -n)]
    cols = [int(cells[i::n], 2) for i in range(n - 1, -1, -1)]
    return rows, cols


def _add_arcs(own: list[int], other: list[int], v: int, k: int, rng: random.Random) -> None:
    """Join v to k vertices drawn one at a time from those it misses in own.

    own and other are (rows, cols) to add out-arcs at v and (cols, rows) to add
    in-arcs.  The candidate list is built once, ascending, and loses only the
    vertex drawn, since no other arc at v is added meanwhile.  Each draw is
    rng.choice's own rejection draw (random._randbelow_with_getrandbits),
    written out, so the vertices drawn are those rng.choice would pick.
    """
    if k <= 0:
        return
    n = len(own)
    row, bit = own[v], 1 << v
    options = _candidates(((1 << n) - 1) & ~(row | bit), n)
    getrandbits = rng.getrandbits
    for m in range(len(options), len(options) - k, -1):
        width = m.bit_length()
        i = getrandbits(width)
        while i >= m:
            i = getrandbits(width)
        u = options.pop(i)
        row |= 1 << u
        other[u] |= bit
    own[v] = row


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
    rand, getrandbits = rng.random, rng.getrandbits
    for v in range(n):
        need = t - rows[v].bit_count() - cols[v].bit_count()
        if need <= 0:
            continue
        bit = 1 << v
        out_opts = _candidates(full & ~(rows[v] | bit), n)
        in_opts = _candidates(full & ~(cols[v] | bit), n)
        for _ in range(need):
            if out_opts and (not in_opts or rand() < 0.5):
                own, other, options = rows, cols, out_opts
            else:
                own, other, options = cols, rows, in_opts
            # rng.choice's rejection draw, as in _add_arcs
            m = len(options)
            width = m.bit_length()
            i = getrandbits(width)
            while i >= m:
                i = getrandbits(width)
            u = options.pop(i)
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
