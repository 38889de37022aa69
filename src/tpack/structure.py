"""Matching lemmas with certificates, vertex classification, and the staged
extremal cyclic-triangle packing procedure.

The matching routines return certificate objects that can be re-validated
against the host graph, so every claim the algorithms make is checkable
after the fact.  They keep one partner array (``mate[v]``, -1 when v is
free) and hold every vertex set as a mask.  The packing procedure mirrors
the staged structure of the degree-extremal argument: relocate, fix
parity, cover, balance, finish.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import ceil, inf
from typing import Iterable, Sequence

from .core import (
    FLOAT_SLACK,
    Digraph,
    DomainError,
    Embedding,
    Graph,
    InvariantViolation,
    Tournament,
    at_least,
    bits,
    mask_of,
    min_semidegree,
    spans_copy,
)
from .constructions import alpha_contains_c3_blowup, blowup_deficit, _base_class_sizes
from .check import Packing, verify_packing
from .solver import DEFAULT_BUDGET, find_perfect_packing

__all__ = [
    "PerfectMatching",
    "IndependentSetCertificate",
    "ClosePartition",
    "MatchCertificate",
    "validate_match_certificate",
    "d_matching_covering",
    "d_matching_covering_digraph",
    "matching_or_certificate",
    "matching_or_certificate_digraph",
    "VertexClassification",
    "classify_vertices",
    "StageFailed",
    "extremal_c3_pack",
]


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class PerfectMatching:
    """Pairwise disjoint vertex pairs covering the whole host."""

    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class IndependentSetCertificate:
    """A zero-edge core together with its padding to half the host order.

    ``core`` spans no edge at all.  ``padded`` extends it to at least
    ``ceil(n/2)`` vertices and may span edges, but no more than
    ``gamma_factor * n**2`` of them (arcs, for a digraph host).
    """

    core: tuple[int, ...]
    padded: tuple[int, ...]
    gamma_factor: float


@dataclass(frozen=True)
class ClosePartition:
    """A half/half vertex split with few edges crossing it."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    cross_count: int
    gamma_factor: float


MatchCertificate = PerfectMatching | IndependentSetCertificate | ClosePartition


def _pairs_inside(host: Digraph, vertex_mask: int) -> int:
    if isinstance(host, Graph):
        return host.edges_inside(vertex_mask)
    return host.arcs_inside(vertex_mask)


def _pairs_between(host: Digraph, amask: int, bmask: int) -> int:
    if amask & bmask:
        raise DomainError("sides overlap")
    if isinstance(host, Graph):
        return host.edges_between(amask, bmask)
    total = 0
    for v in bits(amask):
        total += host.d_out_to(v, bmask) + host.d_in_from(v, bmask)
    return total


def validate_match_certificate(host: Digraph, cert: MatchCertificate) -> None:
    """Re-check a certificate against the host; raises on any violation."""
    n = host.n
    if isinstance(cert, PerfectMatching):
        seen = 0
        for u, v in cert.edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InvariantViolation(f"pair ({u}, {v}) out of range")
            if not (host.arc(u, v) or host.arc(v, u)):
                raise InvariantViolation(f"pair ({u}, {v}) not joined in host")
            pm = (1 << u) | (1 << v)
            if seen & pm:
                raise InvariantViolation("matching pairs overlap")
            seen |= pm
        if seen != (1 << n) - 1:
            raise InvariantViolation("matching does not cover every vertex")
        return
    if isinstance(cert, IndependentSetCertificate):
        core = set(cert.core)
        padded = set(cert.padded)
        if not core <= padded:
            raise InvariantViolation("core escapes the padded set")
        if any(not 0 <= v < n for v in padded):
            raise InvariantViolation("padded set out of range")
        if _pairs_inside(host, mask_of(cert.core)) != 0:
            raise InvariantViolation("core spans an edge")
        if len(padded) < ceil(n / 2):
            raise InvariantViolation("padded set smaller than half the host")
        inside = _pairs_inside(host, mask_of(cert.padded))
        if inside > cert.gamma_factor * n * n + FLOAT_SLACK:
            raise InvariantViolation(
                f"padded set spans {inside} pairs, above the allowance"
            )
        return
    if isinstance(cert, ClosePartition):
        if any(not 0 <= v < n for v in (*cert.a, *cert.b)):
            raise InvariantViolation("sides out of range")
        amask = mask_of(cert.a)
        bmask = mask_of(cert.b)
        if amask & bmask or (amask | bmask) != (1 << n) - 1:
            raise InvariantViolation("sides do not partition the host")
        if len(cert.a) != n // 2 or len(cert.b) != n - n // 2:
            raise InvariantViolation("side sizes are not floor/ceil halves")
        cross = _pairs_between(host, amask, bmask)
        if cross != cert.cross_count:
            raise InvariantViolation(
                f"recorded cross count {cert.cross_count} but host has {cross}"
            )
        if cross > cert.gamma_factor * n * n + FLOAT_SLACK:
            raise InvariantViolation("cross count above the allowance")
        return
    raise InvariantViolation(f"unknown certificate type {type(cert).__name__}")


# ---------------------------------------------------------------------------
# covering a prescribed set with a small matching


def _validate_vertex_set(n: int, vertices: Iterable[int]) -> tuple[int, ...]:
    out = tuple(vertices)
    if len(set(out)) != len(out):
        raise DomainError("vertex set has repeats")
    for v in out:
        if not 0 <= v < n:
            raise DomainError(f"vertex {v} out of range")
    return tuple(sorted(out))


def _check_partition(n: int, parts: Iterable[Iterable[int]]) -> None:
    """Refuse parts that overlap or leave a vertex of 0..n-1 out."""
    total = 0
    for part in parts:
        m = mask_of(part)
        if total & m:
            raise DomainError("partition parts overlap")
        total |= m
    if total != (1 << n) - 1:
        raise DomainError("partition does not cover the vertex set")


def _lowest(mask: int, k: int) -> int:
    """The mask of the k lowest vertices of mask (all of them if it has fewer)."""
    return mask_of(itertools.islice(bits(mask), max(k, 0)))


def _greedy_maximal_matching(graph: Graph) -> list[int]:
    """Partner array (-1 for a free vertex) of the greedy maximal matching
    over graph.edges()."""
    mate = [-1] * graph.n
    for u, v in graph.edges():
        if mate[u] < 0 and mate[v] < 0:
            mate[u], mate[v] = v, u
    return mate


def _matching_of_size(graph: Graph, d: int) -> list[int]:
    """Partner array of d pairwise disjoint edges, given min degree >= d and
    order >= 2d.

    Starts from the greedy maximal matching M, whose unmatched vertices are
    pairwise non-adjacent, cut to its first d pairs if it has more.  While
    |M| < d, two unmatched vertices u and w have at least 2d > 2|M|
    neighbours between them, all matched, so some edge ab of M has u ~ a
    and w ~ b, and ua, wb replace it.
    """
    mate = _greedy_maximal_matching(graph)
    for a in [v for v in range(graph.n) if v < mate[v]][d:]:
        b = mate[a]
        mate[a] = mate[b] = -1
    free = mask_of(v for v in range(graph.n) if mate[v] < 0)
    for _ in range(d - (graph.n - free.bit_count()) // 2):
        u, w = itertools.islice(bits(free), 2)
        nu, nw = graph.adj_mask(u), graph.adj_mask(w)
        # a pair holding a once-free vertex joins no free vertex, so only
        # greedy pairs qualify, taken by their lower end as greedy made them
        for a in bits(~free & (1 << graph.n) - 1):
            b = mate[a]
            if a > b:
                continue
            if not (nu >> a & 1 and nw >> b & 1):
                a, b = b, a
            if nu >> a & 1 and nw >> b & 1:
                break
        else:
            raise InvariantViolation("no matched edge joins two unmatched vertices")
        mate[u], mate[a], mate[w], mate[b] = a, u, b, w
        free ^= 1 << u | 1 << w
    return mate


def d_matching_covering(
    graph: Graph, d: int, x_set: Iterable[int]
) -> tuple[tuple[int, int], ...]:
    """d disjoint edges covering every vertex of ``x_set``.

    Requires min degree at least d, order at least 2d, and ``x_set`` of size
    exactly d.  Starts from any d edges and repairs coverage by local
    exchanges: attach the lowest uncovered target x to its lowest free
    neighbour and drop the lowest pair avoiding the target set, or, with no
    free neighbour, steal x's first neighbour whose partner lies outside the
    target set.  Under the preconditions a repair always exists.
    """
    if d < 0:
        raise DomainError("matching size must be non-negative")
    xs = _validate_vertex_set(graph.n, x_set)
    if len(xs) != d:
        raise DomainError(f"target set has {len(xs)} vertices, need exactly {d}")
    if graph.n < 2 * d:
        raise DomainError(f"order {graph.n} below 2*{d}")
    if d > 0 and graph.min_degree() < d:
        raise DomainError(f"min degree {graph.min_degree()} below {d}")
    if d == 0:
        return ()
    mate = _matching_of_size(graph, d)
    covered = mask_of(v for v in range(graph.n) if mate[v] >= 0)
    xmask = mask_of(xs)
    for _ in range(d + 1):
        missing = xmask & ~covered
        if not missing:
            break
        x = (missing & -missing).bit_length() - 1
        free = graph.adj_mask(x) & ~covered
        # the pair to drop: the lowest one outside the target set, or the
        # one through x's first neighbour whose partner lies outside it
        pool = covered & ~xmask if free else graph.adj_mask(x)
        z = next((v for v in bits(pool) if not xmask >> mate[v] & 1), None)
        if z is None:
            raise InvariantViolation("no droppable edge outside the target set" if free
                                     else "no exchange applies; preconditions rule this out")
        y = (free & -free).bit_length() - 1 if free else z
        w = mate[z]
        mate[z] = mate[w] = -1
        mate[x], mate[y] = y, x
        covered ^= (1 << z | 1 << w) ^ (1 << x | 1 << y)
    if covered & xmask != xmask or covered.bit_count() != 2 * d:
        raise InvariantViolation("exchange loop failed to cover the target set")
    return tuple((u, mate[u]) for u in bits(covered) if u < mate[u])


def d_matching_covering_digraph(
    g: Digraph, d: int, x_set: Iterable[int]
) -> tuple[tuple[int, int], ...]:
    """Digraph variant: every vertex needs out- or in-degree at least d.

    Reduces to the undirected routine on the underlying graph; the returned
    pairs are oriented along an arc that exists in the host.
    """
    if d < 0:
        raise DomainError("matching size must be non-negative")
    if d > 0:
        for v in range(g.n):
            if g.d_out(v) < d and g.d_in(v) < d:
                raise DomainError(
                    f"vertex {v} has both degrees below {d}"
                )
    pairs = d_matching_covering(g.underlying(), d, x_set)
    return tuple((u, v) if g.arc(u, v) else (v, u) for u, v in pairs)


# ---------------------------------------------------------------------------
# perfect matching or a structural certificate


def matching_or_certificate(graph: Graph, gamma: float) -> MatchCertificate:
    """Perfect matching, near-independent half, or a near-split of the host.

    Requires even order and min degree at least (1/2 - gamma) n.  Grows a
    maximal matching by pairwise exchanges through the matched partners of
    two free vertices; when no exchange applies the partner neighbourhoods
    overlap (zero-edge core, padded allowance 3 gamma) or are disjoint with
    no crossing edge (half/half split, allowance 3 gamma).
    """
    n = graph.n
    if n == 0 or n % 2:
        raise DomainError("order must be positive and even")
    if not 0 <= gamma < inf:
        raise DomainError(f"gamma must be a non-negative finite number, got {gamma}")
    if not at_least(graph.min_degree(), (0.5 - gamma) * n):
        raise DomainError(
            f"min degree {graph.min_degree()} below (1/2 - {gamma}) * {n}"
        )
    factor = 3.0 * gamma
    full = (1 << n) - 1
    mate = _greedy_maximal_matching(graph)
    free = mask_of(v for v in range(n) if mate[v] < 0)
    for _ in range(n + 1):
        if not free:
            return PerfectMatching(tuple((v, mate[v]) for v in range(n) if v < mate[v]))
        x, y = itertools.islice(bits(free), 2)
        if (graph.adj_mask(x) | graph.adj_mask(y)) & free:
            raise InvariantViolation("free vertex with a free neighbour; matching not maximal")
        sx, sy = (mask_of(mate[w] for w in bits(graph.adj_mask(v))) for v in (x, y))
        for z in bits(sx):
            hit = graph.adj_mask(z) & sy
            if hit:
                break
        else:
            core = sx & sy
            if core:
                padded = core | _lowest(full & ~core, ceil(n / 2) - core.bit_count())
                return IndependentSetCertificate(tuple(bits(core)), tuple(bits(padded)), factor)
            # the lowest half of sx, topped up from the vertices in neither
            # shadow, then from sy
            a = _lowest(sx, n // 2)
            a |= _lowest(full & ~sx & ~sy, n // 2 - a.bit_count())
            a |= _lowest(sy, n // 2 - a.bit_count())
            cross = _pairs_between(graph, a, full & ~a)
            return ClosePartition(tuple(bits(a)), tuple(bits(full & ~a)), cross, factor)
        # x ~ w = mate[z] and y ~ wp = mate[zp]: match z zp, x w and y wp,
        # which is x zp and y z when z and zp are partners already
        zp = (hit & -hit).bit_length() - 1
        w, wp = mate[z], mate[zp]
        if not (graph.has_edge(x, w) and graph.has_edge(y, wp)):
            raise InvariantViolation("shadow edges missing for the swap")
        for u, v in ((z, zp), (x, w), (y, wp)):
            mate[u], mate[v] = v, u
        free ^= 1 << x | 1 << y
    raise InvariantViolation("exchange loop failed to terminate")


def matching_or_certificate_digraph(g: Digraph, gamma: float) -> MatchCertificate:
    """Digraph variant with doubled allowances.

    Requires even order and, per vertex, out- or in-degree at least
    (1/2 - gamma) n.  Runs the undirected routine on the underlying graph;
    each underlying edge may stand for two arcs, so certificate allowances
    double to 6 gamma and cross counts are re-measured in arcs.
    """
    n = g.n
    if n == 0 or n % 2:
        raise DomainError("order must be positive and even")
    if not 0 <= gamma < inf:
        raise DomainError(f"gamma must be a non-negative finite number, got {gamma}")
    bound = (0.5 - gamma) * n
    for v in range(n):
        if not (at_least(g.d_out(v), bound) or at_least(g.d_in(v), bound)):
            raise DomainError(f"vertex {v} has both degrees below the bound")
    cert = matching_or_certificate(g.underlying(), gamma)
    factor = 6.0 * gamma
    if isinstance(cert, PerfectMatching):
        oriented = tuple(
            (u, v) if g.arc(u, v) else (v, u) for u, v in cert.edges
        )
        return PerfectMatching(oriented)
    if isinstance(cert, IndependentSetCertificate):
        return IndependentSetCertificate(cert.core, cert.padded, factor)
    cross = _pairs_between(g, mask_of(cert.a), mask_of(cert.b))
    return ClosePartition(cert.a, cert.b, cross, factor)


# ---------------------------------------------------------------------------
# vertex classification against a class partition


@dataclass(frozen=True)
class VertexClassification:
    """Per-class flag table for a partition into classes plus a remainder.

    Indices into ``classes`` are 0-based.  For class i, ``bad[i]`` and
    ``good[i]`` split the class members by whether either degree into the
    own class reaches delta * n; ``exceptional[i]`` and ``acceptable[i]``
    split the outside vertices by whether both degrees into the class stay
    at or below delta * n; ``excellent[i]`` lists outside vertices with both
    degrees at least |class| - delta * n.  ``b_excellent`` applies the same
    excellence test against the remainder set.  The internal and external
    tables are populated only for exactly three classes: internal excellence
    asks for all but a delta fraction of the possible arcs inside the own
    class in both directions, external excellence for all but a delta
    fraction of the arcs sent to the next class and received from the
    previous class, cyclically.
    """

    n: int
    delta: float
    classes: tuple[tuple[int, ...], ...]
    b: tuple[int, ...]
    bad: tuple[tuple[int, ...], ...]
    good: tuple[tuple[int, ...], ...]
    exceptional: tuple[tuple[int, ...], ...]
    acceptable: tuple[tuple[int, ...], ...]
    excellent: tuple[tuple[int, ...], ...]
    b_excellent: tuple[int, ...]
    internally_excellent: tuple[tuple[int, ...], ...]
    internally_bad: tuple[tuple[int, ...], ...]
    externally_excellent: tuple[tuple[int, ...], ...]
    externally_bad: tuple[tuple[int, ...], ...]


def _internally_weak(g: Digraph, masks: Sequence[int], delta: float) -> int:
    """The mask of class members with fewer than (1 - delta)(|class| - 1)
    out- or in-neighbours inside their own class."""
    weak = 0
    for own in masks:
        # inside the own class a vertex can reach at most size-1 others
        thr = (1.0 - delta) * max(own.bit_count() - 1, 0)
        for v in bits(own):
            if not (at_least(g.d_out_to(v, own), thr) and at_least(g.d_in_from(v, own), thr)):
                weak |= 1 << v
    return weak


def _externally_weak(g: Digraph, masks: Sequence[int], delta: float) -> int:
    """The mask of members of each class i with fewer than (1 - delta)|class
    i+1| out-neighbours in class i+1 or fewer than (1 - delta)|class i-1|
    in-neighbours in class i-1, class indices taken mod 3."""
    weak = 0
    for i, own in enumerate(masks):
        nxt, prv = masks[(i + 1) % 3], masks[(i + 2) % 3]
        othr = (1.0 - delta) * nxt.bit_count()
        pthr = (1.0 - delta) * prv.bit_count()
        for v in bits(own):
            if not (at_least(g.d_out_to(v, nxt), othr) and at_least(g.d_in_from(v, prv), pthr)):
                weak |= 1 << v
    return weak


def classify_vertices(
    g: Digraph,
    classes: Sequence[Iterable[int]],
    delta: float,
    b: Iterable[int] | None = None,
) -> VertexClassification:
    """Flag every vertex against every class of a partition of the host.

    ``classes`` plus the optional remainder ``b`` must partition the vertex
    set.  All flags are computed against the classes as given, so callers
    that move vertices around should reclassify afterwards.
    """
    n = g.n
    cls = tuple(_validate_vertex_set(n, c) for c in classes)
    rem = _validate_vertex_set(n, b) if b is not None else ()
    _check_partition(n, (*cls, rem))
    if not 0 <= delta < inf:
        raise DomainError(f"delta must be a non-negative finite number, got {delta}")

    masks = [mask_of(c) for c in cls]
    thr = delta * n
    rows = [(g.out_mask(v), g.in_mask(v)) for v in range(n)]
    # at_least(d, t) is d >= t - FLOAT_SLACK; the bounds are taken once
    heavy_at, light_to = thr - FLOAT_SLACK, thr + FLOAT_SLACK

    def tables(m: int) -> tuple[tuple[int, ...], ...]:
        """The bad and good members of the vertex set m, and its exceptional,
        acceptable and excellent outside vertices, in one pass."""
        close_at = m.bit_count() - thr - FLOAT_SLACK
        bad, good, exceptional, acceptable, excellent = [], [], [], [], []
        for v, (out, inn) in enumerate(rows):
            dto, dfrom = (out & m).bit_count(), (inn & m).bit_count()
            if m >> v & 1:
                (bad if dto >= heavy_at or dfrom >= heavy_at else good).append(v)
                continue
            (exceptional if dto <= light_to and dfrom <= light_to else acceptable).append(v)
            if dto >= close_at and dfrom >= close_at:
                excellent.append(v)
        return tuple(map(tuple, (bad, good, exceptional, acceptable, excellent)))

    per_class = [tables(m) for m in masks]
    bad, good, exceptional, acceptable, excellent = (
        tuple(t[k] for t in per_class) for k in range(5))
    b_exc = tables(mask_of(rem))[4]

    int_exc = int_bad = ext_exc = ext_bad = ()
    if len(cls) == 3:
        weak_in = _internally_weak(g, masks, delta)
        weak_ex = _externally_weak(g, masks, delta)
        int_exc, int_bad, ext_exc, ext_bad = (
            tuple(tuple(bits(m & w)) for m in masks)
            for w in (~weak_in, weak_in, ~weak_ex, weak_ex))

    return VertexClassification(
        n=n,
        delta=delta,
        classes=cls,
        b=rem,
        bad=bad,
        good=good,
        exceptional=exceptional,
        acceptable=acceptable,
        excellent=excellent,
        b_excellent=b_exc,
        internally_excellent=int_exc,
        internally_bad=int_bad,
        externally_excellent=ext_exc,
        externally_bad=ext_bad,
    )


# ---------------------------------------------------------------------------
# staged extremal packing


class StageFailed(RuntimeError):
    """A stage of the extremal procedure could not complete.

    Expected at small orders where the asymptotic slack is absent; carries
    the stage name and a diagnostics mapping so callers can report and fall
    back to the exact solver.
    """

    def __init__(self, stage: str, message: str, details: dict | None = None):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.details = dict(details or {})


_CYCLE = Tournament.cyclic_triangle()


def _first_cycle(g: Digraph, slots: Sequence[int]) -> Embedding | None:
    """spans_copy's embedding on the lex-first cyclic triangle (a, b, c) with
    a, b and c in the vertex masks slots[0], slots[1] and slots[2].

    A vertex drawn from the same mask as the one before it must be larger, so
    the triples come in the order of itertools.product over per-class
    combinations of sorted classes.  The third vertex is a row-AND, and the
    scan stops at the first triangle.
    """
    sa, sb, sc = slots
    for a in bits(sa):
        out_a, in_a = g.out_mask(a), g.in_mask(a)
        for b in bits(sb & (out_a | in_a) & ~(sa & (2 << a) - 1)):
            close = 0
            if out_a >> b & 1:
                close |= g.out_mask(b) & in_a
            if in_a >> b & 1:
                close |= g.in_mask(b) & out_a
            close &= sc & ~(sb & (2 << b) - 1)
            if close:
                return spans_copy(g, (a, b, (close & -close).bit_length() - 1), _CYCLE)
    return None


def extremal_c3_pack(
    g: Digraph,
    alpha: float,
    partition: Sequence[Iterable[int]] | None = None,
    *,
    gamma: float = 0.25,
    require_degree: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> Packing:
    """Perfect cyclic-triangle packing of a host close to the cyclic blow-up.

    Stages: relocate vertices with weak in-class degrees, equalize class
    sizes mod 3 by removing at most one cyclic triangle, cover vertices with
    weak cross degrees by in-class triangles, shave classes to a common size
    with further in-class triangles, then solve the remaining tripartite
    host (arcs from each class to the next only) exactly.

    ``partition`` supplies a containment witness; omitted, one is searched
    for.  ``require_degree`` enforces min semidegree 2n/3 - 1 and can be
    dropped for deliberately damaged hosts.  Raises StageFailed when a stage
    cannot complete, which small hosts may legitimately trigger.
    """
    n = g.n
    if n < 3 or n % 3:
        raise DomainError("order must be a positive multiple of 3")
    if not 0 <= alpha <= 1:
        raise DomainError("alpha must lie in [0, 1]")
    if not 0 < gamma < 1:
        raise DomainError("gamma must lie in (0, 1)")
    if require_degree:
        need = 2 * n // 3 - 1
        have = min_semidegree(g)
        if have < need:
            raise DomainError(
                f"min semidegree {have} below {need}; pass require_degree=False "
                "to proceed anyway"
            )
    if partition is None:
        witness = alpha_contains_c3_blowup(g, alpha)
        if not witness.contains:
            raise DomainError("host does not contain the blow-up at this alpha")
        masks = list(witness.partition.masks)
    else:
        classes = [_validate_vertex_set(n, c) for c in partition]
        if len(classes) != 3:
            raise DomainError("witness partition needs exactly 3 classes")
        _check_partition(n, classes)
        masks = [mask_of(c) for c in classes]
        if sorted(m.bit_count() for m in masks) != sorted(_base_class_sizes(n)):
            raise DomainError("witness class sizes are not near-equal")
        deficit = blowup_deficit(g, masks)
        if deficit > alpha * n * n + FLOAT_SLACK:
            raise DomainError(
                f"witness deficit {deficit} exceeds alpha * n^2 = {alpha * n * n}"
            )

    elements: list[Embedding] = []
    diagnostics: dict = {"moved": [], "parity": None, "cover": [], "balance": []}

    def pack(emb: Embedding) -> tuple[int, ...]:
        elements.append(emb)
        for i in range(3):
            masks[i] &= ~emb.vertex_mask
        return emb.image

    # stage 1: relocate vertices with weak degrees inside their own class
    for v in bits(_internally_weak(g, masks, gamma)):
        degrees = []
        for i, m in enumerate(masks):
            if m >> v & 1:
                src = i
            others = m & ~(1 << v)
            degrees.append((g.d_out_to(v, others), g.d_in_from(v, others)))
        both = [i for i, d in enumerate(degrees) if at_least(min(d), n / 10)]
        # with no class taking v both ways the degree is too damaged for the
        # two-way rule; take the class of best smaller, then total, degree
        target = both[0] if both else max(
            range(3), key=lambda i: (min(degrees[i]), sum(degrees[i]), -i))
        if src != target:
            masks[src] ^= 1 << v
            masks[target] ^= 1 << v
            diagnostics["moved"].append((v, src, target))

    # stage 2: one triangle to equalize class sizes mod 3
    sizes = [m.bit_count() for m in masks]
    if len({s % 3 for s in sizes}) > 1:
        for counts in itertools.product(range(4), repeat=3):
            if sum(counts) == 3 and len({(sizes[i] - counts[i]) % 3 for i in range(3)}) == 1:
                found = _first_cycle(g, [masks[i] for i in range(3) for _ in range(counts[i])])
                if found is not None:
                    break
        else:
            raise StageFailed(
                "parity",
                "no cyclic triangle equalizes the class sizes mod 3",
                {"sizes": sizes, "stages": diagnostics},
            )
        diagnostics["parity"] = pack(found)
    if len({m.bit_count() % 3 for m in masks}) > 1:
        raise StageFailed("parity", "class sizes still disagree mod 3", {})

    # stage 3: cover vertices with weak cross degrees by in-class triangles;
    # a vertex an earlier triangle took is in no class any more, and the
    # pool may hold v, which is no neighbour of itself
    for v in bits(_externally_weak(g, masks, 2 * gamma)):
        for idx, pool in enumerate(masks):
            if pool >> v & 1:
                emb = _first_cycle(g, (1 << v, pool, pool))
                if emb is None:
                    raise StageFailed(
                        "cover",
                        f"no in-class cyclic triangle covers vertex {v}",
                        {"vertex": v, "class": idx, "stages": diagnostics},
                    )
                diagnostics["cover"].append(pack(emb))

    # stage 4: shave the larger classes down to a common size
    for _ in range(n):
        sizes = [m.bit_count() for m in masks]
        if len(set(sizes)) == 1:
            break
        idx = max(range(3), key=lambda i: (sizes[i], -i))
        emb = _first_cycle(g, (masks[idx],) * 3)
        if emb is None:
            raise StageFailed(
                "balance",
                f"no cyclic triangle inside class {idx} of size {sizes[idx]}",
                {"sizes": sizes, "stages": diagnostics},
            )
        diagnostics["balance"].append(pack(emb))
    if len({m.bit_count() for m in masks}) != 1:
        raise StageFailed("balance", "class sizes still differ", {})

    # stage 5: exact solve on the remaining cyclically oriented cross arcs
    rows = [0] * n
    for i in range(3):
        for u in bits(masks[i]):
            rows[u] = g.out_mask(u) & masks[(i + 1) % 3]
    host, remaining = Digraph(n, rows).induced(bits(masks[0] | masks[1] | masks[2]))
    if remaining:
        cert = find_perfect_packing(host, _CYCLE, budget=budget)
        if not cert.found:
            raise StageFailed(
                "finish",
                f"tripartite remainder not packable ({cert.verdict})",
                {
                    "verdict": cert.verdict,
                    "remaining": len(remaining),
                    "stages": diagnostics,
                },
            )
        for emb in cert.packing.elements:
            elements.append(
                Embedding(emb.pattern, tuple(remaining[k] for k in emb.image))
            )

    packing = Packing(n, tuple(elements))
    if not verify_packing(g, _CYCLE, packing, require_perfect=True):
        raise InvariantViolation("assembled packing fails verification")
    return packing
