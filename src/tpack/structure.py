"""Matching lemmas with certificates, vertex classification, and the staged
extremal cyclic-triangle packing procedure.

The matching routines return certificate objects that can be re-validated
against the host graph, so every claim the algorithms make is checkable
after the fact.  The packing procedure mirrors the staged structure of the
degree-extremal argument: relocate, fix parity, cover, balance, finish.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import ceil
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
from .solver import DEFAULT_BUDGET, Packing, find_perfect_packing, verify_packing

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


def _pairs_inside(host: Graph | Digraph, vertex_mask: int) -> int:
    if isinstance(host, Digraph):
        return host.arcs_inside(vertex_mask)
    return host.edges_inside(vertex_mask)


def _pairs_between(host: Graph | Digraph, amask: int, bmask: int) -> int:
    if amask & bmask:
        raise DomainError("sides overlap")
    if isinstance(host, Digraph):
        total = 0
        for v in bits(amask):
            total += host.d_out_to(v, bmask) + host.d_in_from(v, bmask)
        return total
    return host.edges_between(amask, bmask)


def _joined(host: Graph | Digraph, u: int, v: int) -> bool:
    if isinstance(host, Digraph):
        return host.arc(u, v) or host.arc(v, u)
    return host.has_edge(u, v)


def validate_match_certificate(host: Graph | Digraph, cert: MatchCertificate) -> None:
    """Re-check a certificate against the host; raises on any violation."""
    n = host.n
    if isinstance(cert, PerfectMatching):
        seen = 0
        for u, v in cert.edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InvariantViolation(f"pair ({u}, {v}) out of range")
            if not _joined(host, u, v):
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


def _greedy_maximal_matching(graph: Graph) -> list[tuple[int, int]]:
    used = 0
    out: list[tuple[int, int]] = []
    for u, v in graph.edges():
        pm = (1 << u) | (1 << v)
        if not (used & pm):
            out.append((u, v))
            used |= pm
    return out


def _matching_of_size(graph: Graph, d: int) -> list[tuple[int, int]]:
    """d pairwise disjoint edges, given min degree >= d and order >= 2d.

    Starts from the greedy maximal matching M, whose unmatched vertices are
    pairwise non-adjacent.  While |M| < d, two unmatched vertices u and w
    have at least 2d > 2|M| neighbours between them, all matched, so some
    edge ab of M has u ~ a and w ~ b, and ua, wb replace it.
    """
    matching = _greedy_maximal_matching(graph)
    free = (1 << graph.n) - 1
    for a, b in matching:
        free ^= 1 << a | 1 << b
    while len(matching) < d:
        u, w = itertools.islice(bits(free), 2)
        nu, nw = graph.adj_mask(u), graph.adj_mask(w)
        for i, (a, b) in enumerate(matching):
            if not (nu >> a & 1 and nw >> b & 1):
                a, b = b, a
            if nu >> a & 1 and nw >> b & 1:
                matching[i] = (u, a)
                matching.append((w, b))
                break
        else:
            raise InvariantViolation("no matched edge joins two unmatched vertices")
        free ^= 1 << u | 1 << w
    return matching[:d]


def d_matching_covering(
    graph: Graph, d: int, x_set: Iterable[int]
) -> tuple[tuple[int, int], ...]:
    """d disjoint edges covering every vertex of ``x_set``.

    Requires min degree at least d, order at least 2d, and ``x_set`` of size
    exactly d.  Starts from any d edges and repairs coverage by local
    exchanges: attach an uncovered target to a free neighbour and drop an
    edge avoiding the target set, or steal a neighbour whose partner lies
    outside the target set.  Under the preconditions a repair always exists.
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
    edges = sorted(tuple(sorted(e)) for e in _matching_of_size(graph, d))
    xmask = mask_of(xs)

    for _ in range(d + 1):
        covered = 0
        for u, v in edges:
            covered |= (1 << u) | (1 << v)
        missing = [x for x in xs if not (covered >> x) & 1]
        if not missing:
            break
        x = missing[0]
        free = graph.adj_mask(x) & ~covered
        if free:
            y = (free & -free).bit_length() - 1
            drop = None
            for idx, (u, v) in enumerate(edges):
                if not ((xmask >> u) & 1) and not ((xmask >> v) & 1):
                    drop = idx
                    break
            if drop is None:
                raise InvariantViolation("no droppable edge outside the target set")
            edges.pop(drop)
            edges.append(tuple(sorted((x, y))))
            edges.sort()
            continue
        partner = {}
        for u, v in edges:
            partner[u] = v
            partner[v] = u
        stolen = False
        for w in bits(graph.adj_mask(x)):
            z = partner.get(w)
            if z is not None and not ((xmask >> z) & 1):
                edges.remove(tuple(sorted((w, z))))
                edges.append(tuple(sorted((x, w))))
                edges.sort()
                stolen = True
                break
        if not stolen:
            raise InvariantViolation(
                "no exchange applies; preconditions rule this out"
            )
    covered = 0
    for u, v in edges:
        covered |= (1 << u) | (1 << v)
    if covered & xmask != xmask or len(edges) != d:
        raise InvariantViolation("exchange loop failed to cover the target set")
    return tuple(edges)


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
    if gamma < 0:
        raise DomainError("gamma must be non-negative")
    if not at_least(graph.min_degree(), (0.5 - gamma) * n):
        raise DomainError(
            f"min degree {graph.min_degree()} below (1/2 - {gamma}) * {n}"
        )
    factor = 3.0 * gamma
    partner = [-1] * n
    for u, v in _greedy_maximal_matching(graph):
        partner[u] = v
        partner[v] = u

    def link(u: int, v: int) -> None:
        partner[u] = v
        partner[v] = u

    for _ in range(n + 1):
        free = [v for v in range(n) if partner[v] < 0]
        if not free:
            pairs = tuple(
                sorted((v, partner[v]) for v in range(n) if v < partner[v])
            )
            return PerfectMatching(pairs)
        x, y = free[0], free[1]
        shadow: list[list[int]] = []
        for src in (x, y):
            names = set()
            for w in bits(graph.adj_mask(src)):
                if partner[w] < 0:
                    raise InvariantViolation(
                        "free vertex with a free neighbour; matching not maximal"
                    )
                names.add(partner[w])
            shadow.append(sorted(names))
        snx, sny = shadow
        swap = None
        for z in snx:
            for zp in sny:
                if z != zp and graph.has_edge(z, zp):
                    swap = (z, zp)
                    break
            if swap:
                break
        if swap is not None:
            z, zp = swap
            if partner[z] == zp:
                if not (graph.has_edge(x, zp) and graph.has_edge(y, z)):
                    raise InvariantViolation("shadow edges missing for the swap")
                link(x, zp)
                link(y, z)
            else:
                w, wp = partner[z], partner[zp]
                if not (graph.has_edge(x, w) and graph.has_edge(y, wp)):
                    raise InvariantViolation("shadow edges missing for the swap")
                link(x, w)
                link(y, wp)
                link(z, zp)
            continue
        snx_set, sny_set = set(snx), set(sny)
        core = sorted(snx_set & sny_set)
        if core:
            target = ceil(n / 2)
            padded = list(core)
            if len(padded) < target:
                core_set = set(core)
                for v in range(n):
                    if v not in core_set:
                        padded.append(v)
                        if len(padded) >= target:
                            break
            return IndependentSetCertificate(
                tuple(core), tuple(sorted(padded)), factor
            )
        half = n // 2
        a_side = list(snx)
        if len(a_side) > half:
            a_side = a_side[:half]
        else:
            taken = set(a_side)
            for pool in (
                [v for v in range(n) if v not in snx_set and v not in sny_set],
                sny,
            ):
                for v in pool:
                    if len(a_side) >= half:
                        break
                    if v not in taken:
                        a_side.append(v)
                        taken.add(v)
        a_sorted = tuple(sorted(a_side))
        b_sorted = tuple(v for v in range(n) if v not in set(a_sorted))
        cross = _pairs_between(graph, mask_of(a_sorted), mask_of(b_sorted))
        return ClosePartition(a_sorted, b_sorted, cross, factor)
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
    if gamma < 0:
        raise DomainError("gamma must be non-negative")
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
    total = 0
    for part in (*cls, rem):
        m = mask_of(part)
        if total & m:
            raise DomainError("partition parts overlap")
        total |= m
    if total != (1 << n) - 1 and n > 0:
        raise DomainError("partition does not cover the vertex set")
    if delta < 0:
        raise DomainError("delta must be non-negative")

    masks = [mask_of(c) for c in cls]
    thr = delta * n
    bad: list[tuple[int, ...]] = []
    good: list[tuple[int, ...]] = []
    exceptional: list[tuple[int, ...]] = []
    acceptable: list[tuple[int, ...]] = []
    excellent: list[tuple[int, ...]] = []
    for i, ci in enumerate(cls):
        cmask = masks[i]
        size = len(ci)
        bi, gi, exci, acci, xli = [], [], [], [], []
        for v in range(n):
            dto = g.d_out_to(v, cmask)
            dfrom = g.d_in_from(v, cmask)
            if (cmask >> v) & 1:
                if at_least(dto, thr) or at_least(dfrom, thr):
                    bi.append(v)
                else:
                    gi.append(v)
            else:
                if dto <= thr + FLOAT_SLACK and dfrom <= thr + FLOAT_SLACK:
                    exci.append(v)
                else:
                    acci.append(v)
                if at_least(dto, size - thr) and at_least(dfrom, size - thr):
                    xli.append(v)
        bad.append(tuple(bi))
        good.append(tuple(gi))
        exceptional.append(tuple(exci))
        acceptable.append(tuple(acci))
        excellent.append(tuple(xli))

    bmask = mask_of(rem)
    bsize = len(rem)
    b_exc = tuple(
        v
        for v in range(n)
        if not ((bmask >> v) & 1)
        and at_least(g.d_out_to(v, bmask), bsize - thr)
        and at_least(g.d_in_from(v, bmask), bsize - thr)
    )

    int_exc: list[tuple[int, ...]] = []
    int_bad: list[tuple[int, ...]] = []
    ext_exc: list[tuple[int, ...]] = []
    ext_bad: list[tuple[int, ...]] = []
    if len(cls) == 3:
        for i, ci in enumerate(cls):
            own = masks[i]
            nxt = masks[(i + 1) % 3]
            prv = masks[(i + 2) % 3]
            # inside the own class a vertex can reach at most size-1 others
            ithr = (1.0 - delta) * max(len(ci) - 1, 0)
            othr = (1.0 - delta) * len(cls[(i + 1) % 3])
            pthr = (1.0 - delta) * len(cls[(i + 2) % 3])
            ie, ib, ee, eb = [], [], [], []
            for v in ci:
                if at_least(g.d_out_to(v, own), ithr) and at_least(
                    g.d_in_from(v, own), ithr
                ):
                    ie.append(v)
                else:
                    ib.append(v)
                if at_least(g.d_out_to(v, nxt), othr) and at_least(
                    g.d_in_from(v, prv), pthr
                ):
                    ee.append(v)
                else:
                    eb.append(v)
            int_exc.append(tuple(ie))
            int_bad.append(tuple(ib))
            ext_exc.append(tuple(ee))
            ext_bad.append(tuple(eb))

    return VertexClassification(
        n=n,
        delta=delta,
        classes=cls,
        b=rem,
        bad=tuple(bad),
        good=tuple(good),
        exceptional=tuple(exceptional),
        acceptable=tuple(acceptable),
        excellent=tuple(excellent),
        b_excellent=b_exc,
        internally_excellent=tuple(int_exc),
        internally_bad=tuple(int_bad),
        externally_excellent=tuple(ext_exc),
        externally_bad=tuple(ext_bad),
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


def _class_degrees(g: Digraph, v: int, cmask: int) -> tuple[int, int]:
    return g.d_out_to(v, cmask), g.d_in_from(v, cmask)


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
        classes = [list(c) for c in witness.partition.classes]
    else:
        classes = [list(_validate_vertex_set(n, c)) for c in partition]
        if len(classes) != 3:
            raise DomainError("witness partition needs exactly 3 classes")
        total = 0
        for c in classes:
            m = mask_of(c)
            if total & m:
                raise DomainError("witness classes overlap")
            total |= m
        if total != (1 << n) - 1:
            raise DomainError("witness classes do not cover the host")
        if sorted(len(c) for c in classes) != sorted(_base_class_sizes(n)):
            raise DomainError("witness class sizes are not near-equal")
        deficit = blowup_deficit(g, [mask_of(c) for c in classes])
        if deficit > alpha * n * n + FLOAT_SLACK:
            raise DomainError(
                f"witness deficit {deficit} exceeds alpha * n^2 = {alpha * n * n}"
            )

    elements: list[Embedding] = []
    diagnostics: dict = {"moved": [], "parity": None, "cover": [], "balance": []}

    # stage 1: relocate vertices with weak degrees inside their own class
    weak: list[int] = []
    for i, ci in enumerate(classes):
        cmask = mask_of(ci)
        ithr = (1.0 - gamma) * max(len(ci) - 1, 0)
        for v in ci:
            dto, dfrom = _class_degrees(g, v, cmask)
            if not (at_least(dto, ithr) and at_least(dfrom, ithr)):
                weak.append(v)
    for v in sorted(weak):
        masks = [mask_of(c) for c in classes]
        both: list[int] = []
        scored: list[tuple[tuple[float, float], int]] = []
        for i in range(3):
            dto, dfrom = _class_degrees(g, v, masks[i] & ~(1 << v))
            if at_least(dto, n / 10) and at_least(dfrom, n / 10):
                both.append(i)
            scored.append(((min(dto, dfrom), dto + dfrom), i))
        if both:
            target = both[0]
        else:
            # degree too damaged for the two-way rule; take the best class
            scored.sort(key=lambda t: (-t[0][0], -t[0][1], t[1]))
            target = scored[0][1]
        src = next(i for i, c in enumerate(classes) if v in c)
        if src != target:
            classes[src].remove(v)
            classes[target].append(v)
            classes[target].sort()
            diagnostics["moved"].append((v, src, target))

    # stage 2: one triangle to equalize class sizes mod 3
    sizes = [len(c) for c in classes]
    if len({s % 3 for s in sizes}) > 1:
        found = None
        masks = [mask_of(c) for c in classes]
        for counts in itertools.product(range(4), repeat=3):
            if sum(counts) != 3:
                continue
            residues = {(sizes[i] - counts[i]) % 3 for i in range(3)}
            if len(residues) != 1:
                continue
            found = _first_cycle(g, [masks[i] for i in range(3) for _ in range(counts[i])])
            if found is not None:
                break
        if found is None:
            raise StageFailed(
                "parity",
                "no cyclic triangle equalizes the class sizes mod 3",
                {"sizes": sizes, "stages": diagnostics},
            )
        elements.append(found)
        diagnostics["parity"] = found.image
        for v in found.vertex_set:
            for c in classes:
                if v in c:
                    c.remove(v)
                    break
    if len({len(c) % 3 for c in classes}) > 1:
        raise StageFailed("parity", "class sizes still disagree mod 3", {})

    # stage 3: cover vertices with weak cross degrees by in-class triangles
    def externally_weak() -> list[int]:
        out = []
        masks = [mask_of(c) for c in classes]
        for i, ci in enumerate(classes):
            othr = (1.0 - 2 * gamma) * len(classes[(i + 1) % 3])
            pthr = (1.0 - 2 * gamma) * len(classes[(i + 2) % 3])
            for v in ci:
                if not (
                    at_least(g.d_out_to(v, masks[(i + 1) % 3]), othr)
                    and at_least(g.d_in_from(v, masks[(i + 2) % 3]), pthr)
                ):
                    out.append(v)
        return sorted(out)

    removed_by_cover: set[int] = set()
    for v in externally_weak():
        if v in removed_by_cover:
            continue
        idx = next(i for i, c in enumerate(classes) if v in c)
        pool = mask_of(u for u in classes[idx] if u != v and u not in removed_by_cover)
        emb = _first_cycle(g, (1 << v, pool, pool))
        if emb is None:
            raise StageFailed(
                "cover",
                f"no in-class cyclic triangle covers vertex {v}",
                {"vertex": v, "class": idx, "stages": diagnostics},
            )
        elements.append(emb)
        diagnostics["cover"].append(emb.image)
        removed_by_cover.update(emb.vertex_set)
    for c in classes:
        c[:] = [v for v in c if v not in removed_by_cover]

    # stage 4: shave the larger classes down to a common size
    for _ in range(n):
        sizes = [len(c) for c in classes]
        if len(set(sizes)) == 1:
            break
        idx = max(range(3), key=lambda i: (sizes[i], -i))
        pool = mask_of(classes[idx])
        emb = _first_cycle(g, (pool, pool, pool))
        if emb is None:
            raise StageFailed(
                "balance",
                f"no cyclic triangle inside class {idx} of size {sizes[idx]}",
                {"sizes": sizes, "stages": diagnostics},
            )
        elements.append(emb)
        diagnostics["balance"].append(emb.image)
        classes[idx] = [v for v in classes[idx] if v not in emb.vertex_set]
    if len({len(c) for c in classes}) != 1:
        raise StageFailed("balance", "class sizes still differ", {})

    # stage 5: exact solve on the remaining cyclically oriented cross arcs
    remaining = sorted(v for c in classes for v in c)
    if remaining:
        pos = {v: k for k, v in enumerate(remaining)}
        arcs = []
        for i in range(3):
            nxt = set(classes[(i + 1) % 3])
            for u in classes[i]:
                for w in g.out_neighbors(u):
                    if w in nxt:
                        arcs.append((pos[u], pos[w]))
        host = Digraph.from_arcs(len(remaining), arcs)
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
