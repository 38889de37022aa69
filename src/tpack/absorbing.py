"""Connector counting and randomized absorber families with direct verification.

An absorber for an r-set Q is a vertex set S such that both G[S] and G[S u Q]
admit perfect pattern packings; a family of disjoint absorbers can swallow any
small leftover set W by routing each piece of W to its own absorber.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .core import Digraph, DomainError, Embedding, InvariantViolation, bits, mask_of, spans_copy
from .solver import (
    DEFAULT_BUDGET,
    PACKED,
    Packing,
    find_perfect_family_packing,
    normalize_patterns,
)


class FamilyEmpty(InvariantViolation):
    """No sampled candidate set verified as absorbing."""


class AssignmentFailed(InvariantViolation):
    """The leftover set cannot be routed to distinct absorbers."""


def _pack_induced(g: Digraph, fam, verts, budget: int):
    """Perfect packing of the induced subdigraph, lifted to global vertex ids."""
    sub, old = g.induced(verts)
    cert = find_perfect_family_packing(sub, fam, budget)
    if cert.verdict != PACKED:
        return None
    return [
        Embedding(e.pattern, tuple(old[v] for v in e.image))
        for e in cert.packing.elements
    ]


def is_absorbing(g: Digraph, pattern_or_family, s, q,
                 budget: int = DEFAULT_BUDGET) -> bool:
    """Both G[s] and G[s u q] admit perfect packings; disjointness required."""
    smask, qmask = mask_of(s), mask_of(q)
    if smask & qmask:
        raise DomainError("absorber and target sets overlap")
    fam = normalize_patterns(pattern_or_family)
    r = fam[0].n
    if smask.bit_count() % r or (smask | qmask).bit_count() % r:
        return False
    if _pack_induced(g, fam, tuple(bits(smask)), budget) is None:
        return False
    return _pack_induced(g, fam, tuple(bits(smask | qmask)), budget) is not None


@dataclass(frozen=True)
class ConnectorCount:
    count: int
    samples: tuple[tuple[int, ...], ...]
    cap_hit: bool


def _check_endpoints(g: Digraph, x: int, y: int) -> None:
    if x == y:
        raise DomainError("connector endpoints must differ")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise DomainError("endpoint outside the vertex range")


def count_connectors(g: Digraph, pattern: Digraph, x: int, y: int,
                     cap: int | None = None, sample_limit: int = 20) -> ConnectorCount:
    """Exact count of (r-1)-sets X with both X u {x} and X u {y} spanning the pattern."""
    _check_endpoints(g, x, y)
    if cap is not None and cap < 1:
        raise DomainError(f"cap must be at least 1, got {cap}")
    n, r = g.n, pattern.n
    others = [v for v in range(n) if v not in (x, y)]
    count = 0
    samples: list[tuple[int, ...]] = []
    for combo in itertools.combinations(others, r - 1):
        if spans_copy(g, combo + (x,), pattern) is None:
            continue
        if spans_copy(g, combo + (y,), pattern) is None:
            continue
        count += 1
        if len(samples) < sample_limit:
            samples.append(combo)
        if cap is not None and count >= cap:
            return ConnectorCount(count, tuple(samples), True)
    return ConnectorCount(count, tuple(samples), False)


@dataclass(frozen=True)
class AbsorberFamily:
    """Pairwise-disjoint verified absorbers and the parameters that drew them."""

    n: int
    pattern_order: int
    absorbers: tuple[tuple[int, ...], ...]
    absorber_size: int
    xi: float = 0.0
    seed: int = 0

    @property
    def m_mask(self) -> int:
        m = 0
        for s in self.absorbers:
            m |= mask_of(s)
        return m

    @property
    def m_vertices(self) -> tuple[int, ...]:
        return tuple(bits(self.m_mask))

    def is_disjoint(self) -> bool:
        total = sum(len(s) for s in self.absorbers)
        return self.m_mask.bit_count() == total


#: random r-sets each absorber candidate is tried on
_PROBES = 3


def build_absorbing_family(g: Digraph, pattern_or_family, xi: float, samples: int = 200,
                           seed: int = 0, budget: int = DEFAULT_BUDGET) -> AbsorberFamily:
    """Sample candidate absorber sets, keep verified ones, drop overlaps, truncate.

    Candidates of size 2 r^2 are drawn uniformly; each is kept when it absorbs
    at least one of its _PROBES random probe r-sets.  Kept sets are made disjoint
    greedily in draw order and truncated so the union stays within xi * n
    vertices.  For 3-vertex patterns a 6-vertex candidate size is retried when
    the full size finds nothing.
    """
    fam = normalize_patterns(pattern_or_family)
    r = fam[0].n
    n = g.n
    if r * r > n / 4:
        raise DomainError(f"need r^2 <= n/4, got r={r}, n={n}")
    if not 0 < xi <= 1:
        raise DomainError("xi must lie in (0, 1]")
    sizes = [2 * r * r]
    if r == 3:
        sizes.append(6)
    rng = random.Random(seed)
    tried = 0
    for size in sizes:
        cap = int(xi * n) // size
        if cap < 1:
            continue
        kept: list[tuple[int, ...]] = []
        used = 0
        for _ in range(samples):
            cand = tuple(sorted(rng.sample(range(n), size)))
            tried += 1
            cmask = mask_of(cand)
            outside = [v for v in range(n) if not cmask >> v & 1]
            probe_sets = [
                tuple(sorted(rng.sample(outside, r))) for _ in range(_PROBES)
            ]
            if not any(is_absorbing(g, fam, cand, q, budget) for q in probe_sets):
                continue
            if cmask & used:
                continue
            kept.append(cand)
            used |= cmask
            if len(kept) >= cap:
                break
        if kept:
            return AbsorberFamily(
                n=n,
                pattern_order=r,
                absorbers=tuple(kept),
                absorber_size=size,
                xi=xi,
                seed=seed,
            )
    raise FamilyEmpty(
        f"no absorbing candidate among {tried} samples "
        f"(sizes tried: {sizes}, probes per candidate: {_PROBES})"
    )


def _bipartite_match(num_left: int, adj: list[list[int]]) -> list[int] | None:
    """Perfect matching of all left vertices into distinct right vertices, or None:
    augmenting paths are searched depth-first, in adj order, on an explicit stack."""
    match_right: dict[int, int] = {}
    for root in range(num_left):
        seen: set[int] = set()
        # each frame: [left vertex, its untried right vertices, the one taken]
        path = [[root, iter(adj[root]), None]]
        while path:
            frame = path[-1]
            v = frame[2] = next((x for x in frame[1] if x not in seen), None)
            if v is None:
                path.pop()
            elif v not in match_right:
                break
            else:
                seen.add(v)
                path.append([match_right[v], iter(adj[match_right[v]]), None])
        else:
            return None
        for u, _, v in path:
            match_right[v] = u
    out = [-1] * num_left
    for v, u in match_right.items():
        out[u] = v
    return out


def absorb(g: Digraph, pattern_or_family, family: AbsorberFamily, w,
           budget: int = DEFAULT_BUDGET) -> Packing:
    """Perfect packing of G[M u W] routing each piece of W into an absorber.

    W is chunked into r-sets and matched to distinct absorbers; when no
    injective assignment exists, several chunks may share one absorber as a
    group, re-verified as a unit; at most budget groupings are tried.
    Untouched absorbers pack on their own.
    """
    fam = normalize_patterns(pattern_or_family)
    r = fam[0].n
    wset = tuple(sorted(set(w)))
    if mask_of(wset) & family.m_mask:
        raise DomainError("leftover set intersects the absorber union")
    if len(wset) % r:
        raise DomainError(f"pattern order {r} does not divide |W| = {len(wset)}")
    chunks = [wset[i: i + r] for i in range(0, len(wset), r)]
    absorbers = family.absorbers

    assignment = None
    if chunks:
        adj = [
            [j for j, s in enumerate(absorbers) if is_absorbing(g, fam, s, q, budget)]
            for q in chunks
        ]
        matched = _bipartite_match(len(chunks), adj)
        if matched is not None:
            assignment = {}
            for i, j in enumerate(matched):
                assignment.setdefault(j, []).append(i)
        else:
            assignment = _grouped_assignment(g, fam, absorbers, chunks, budget)
            if assignment is None:
                raise AssignmentFailed(
                    f"{len(chunks)} leftover pieces cannot be routed into "
                    f"{len(absorbers)} absorbers"
                )
    else:
        assignment = {}

    elements = []
    for j, s in enumerate(absorbers):
        extra: list[int] = []
        for i in assignment.get(j, []):
            extra.extend(chunks[i])
        lifted = _pack_induced(g, fam, tuple(s) + tuple(extra), budget)
        if lifted is None:
            raise AssignmentFailed(
                f"absorber {j} failed to pack with its assigned pieces"
            )
        elements.extend(lifted)
    return Packing(g.n, tuple(elements))


def _grouped_assignment(g: Digraph, fam, absorbers, chunks, budget):
    """Map absorber index -> chunk indices, allowing several chunks per absorber.

    Tries at most budget groupings, then gives up with None.
    """
    num = len(chunks)
    groupings = itertools.product(range(len(absorbers)), repeat=num)
    for combo in itertools.islice(groupings, budget):
        groups: dict[int, list[int]] = {}
        for i, j in enumerate(combo):
            groups.setdefault(j, []).append(i)
        ok = True
        for j, idxs in groups.items():
            union: list[int] = []
            for i in idxs:
                union.extend(chunks[i])
            if not is_absorbing(g, fam, absorbers[j], union, budget):
                ok = False
                break
        if ok:
            return groups
    return None
