"""Loopless digraphs, tournaments, and the degree vocabulary every other module builds on.

Vertices are dense integers 0..n-1.  Adjacency is stored as one out-row and one
in-row per vertex, each a Python int used as a bitmask, so neighbourhood
intersections and degree-into-set queries are single AND + popcount operations.
Digraphs are immutable after construction; mutation happens on plain mask lists
before freezing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class DomainError(ValueError):
    """An argument violates an operation's stated precondition."""


class InvariantViolation(RuntimeError):
    """An internal guarantee failed; indicates a bug or an out-of-regime input."""


def bits(mask: int):
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def ceil_frac(a: int, b: int) -> int:
    """Smallest integer >= a/b for positive b."""
    return -((-a) // b)


#: Slack used when an integer quantity is compared against a real threshold.
FLOAT_SLACK = 1e-9


def at_least(value: float, bound: float) -> bool:
    """value >= bound up to float noise; integer inputs compared against real bounds."""
    return value >= bound - FLOAT_SLACK


class Digraph:
    """Immutable loopless digraph with at most one arc per ordered pair."""

    __slots__ = ("n", "_out", "_in", "_m")

    def __init__(self, n: int, out_rows):
        out = tuple(out_rows)
        if len(out) != n:
            raise DomainError(f"expected {n} out-rows, got {len(out)}")
        full = (1 << n) - 1
        in_rows = [0] * n
        m = 0
        for u, row in enumerate(out):
            if row & ~full:
                raise DomainError(f"vertex {u} has an out-neighbour outside 0..{n - 1}")
            if row >> u & 1:
                raise DomainError(f"loop at vertex {u}")
            m += row.bit_count()
            for v in bits(row):
                in_rows[v] |= 1 << u
        self.n = n
        self._out = out
        self._in = tuple(in_rows)
        self._m = m

    @classmethod
    def from_arcs(cls, n: int, arcs) -> "Digraph":
        rows = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"arc ({u},{v}) out of range for n={n}")
            if u == v:
                raise DomainError(f"loop at vertex {u}")
            rows[u] |= 1 << v
        return cls(n, rows)

    @classmethod
    def complete(cls, n: int) -> "Digraph":
        full = (1 << n) - 1
        return cls(n, [full ^ (1 << v) for v in range(n)])

    @classmethod
    def empty(cls, n: int) -> "Digraph":
        return cls(n, [0] * n)

    def arc(self, u: int, v: int) -> bool:
        return bool(self._out[u] >> v & 1)

    def out_mask(self, u: int) -> int:
        return self._out[u]

    def in_mask(self, u: int) -> int:
        return self._in[u]

    def d_out(self, u: int) -> int:
        return self._out[u].bit_count()

    def d_in(self, u: int) -> int:
        return self._in[u].bit_count()

    def d_out_to(self, u: int, vertex_mask: int) -> int:
        """Number of out-neighbours of u inside the vertex set given as a mask."""
        return (self._out[u] & vertex_mask).bit_count()

    def d_in_from(self, u: int, vertex_mask: int) -> int:
        return (self._in[u] & vertex_mask).bit_count()

    def out_neighbors(self, u: int):
        return bits(self._out[u])

    def in_neighbors(self, u: int):
        return bits(self._in[u])

    @property
    def num_arcs(self) -> int:
        return self._m

    def vertices(self) -> range:
        return range(self.n)

    def arcs(self):
        """Yield arcs (u, v) in lexicographic order."""
        for u in range(self.n):
            for v in bits(self._out[u]):
                yield (u, v)

    def arcs_inside(self, vertex_mask: int) -> int:
        """Count arcs with both endpoints inside the given vertex mask."""
        return sum((self._out[u] & vertex_mask).bit_count() for u in bits(vertex_mask))

    def induced(self, vertices) -> tuple["Digraph", tuple[int, ...]]:
        """Induced subdigraph on the given vertices plus the new->old index map."""
        order = tuple(sorted(set(vertices)))
        if order and not (0 <= order[0] and order[-1] < self.n):
            raise DomainError("induced set outside vertex range")
        pos = {old: new for new, old in enumerate(order)}
        rows = [0] * len(order)
        for new_u, old_u in enumerate(order):
            row = 0
            for old_v in bits(self._out[old_u]):
                if old_v in pos:
                    row |= 1 << pos[old_v]
            rows[new_u] = row
        return Digraph(len(order), rows), order

    def union(self, other: "Digraph") -> "Digraph":
        if other.n != self.n:
            raise DomainError("union requires equal orders")
        return Digraph(self.n, [a | b for a, b in zip(self._out, other._out)])

    def minus_arcs(self, arcs) -> "Digraph":
        rows = list(self._out)
        for u, v in arcs:
            rows[u] &= ~(1 << v)
        return Digraph(self.n, rows)

    def underlying(self) -> "Graph":
        """Undirected graph with an edge wherever at least one arc runs."""
        return Graph(self.n, [self._out[v] | self._in[v] for v in range(self.n)])

    def double_edge_graph(self) -> "Graph":
        """Undirected graph keeping only the pairs joined by arcs both ways."""
        return Graph(self.n, [self._out[v] & self._in[v] for v in range(self.n)])

    def __eq__(self, other) -> bool:
        return isinstance(other, Digraph) and self.n == other.n and self._out == other._out

    def __hash__(self) -> int:
        return hash((self.n, self._out))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, arcs={self._m})"


class Graph:
    """Immutable undirected loopless graph over dense integer vertices."""

    __slots__ = ("n", "_adj", "_m")

    def __init__(self, n: int, adj_rows):
        adj = list(adj_rows)
        if len(adj) != n:
            raise DomainError(f"expected {n} adjacency rows, got {len(adj)}")
        full = (1 << n) - 1
        m2 = 0
        for v, row in enumerate(adj):
            if row & ~full:
                raise DomainError(f"vertex {v} adjacency outside 0..{n - 1}")
            if row >> v & 1:
                raise DomainError(f"loop at vertex {v}")
            m2 += row.bit_count()
        for v in range(n):
            for u in bits(adj[v]):
                if not adj[u] >> v & 1:
                    raise DomainError(f"asymmetric adjacency between {u} and {v}")
        self.n = n
        self._adj = tuple(adj)
        self._m = m2 // 2

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise DomainError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, [full ^ (1 << v) for v in range(n)])

    def adj_mask(self, v: int) -> int:
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def degree_into(self, v: int, vertex_mask: int) -> int:
        return (self._adj[v] & vertex_mask).bit_count()

    @property
    def num_edges(self) -> int:
        return self._m

    def min_degree(self) -> int:
        if self.n == 0:
            raise DomainError("graph has no vertices")
        return min(self.degree(v) for v in range(self.n))

    def edges(self):
        """Yield edges (u, v) with u < v in lexicographic order."""
        for u in range(self.n):
            for v in bits(self._adj[u] >> (u + 1)):
                yield (u, u + 1 + v)

    def edges_inside(self, vertex_mask: int) -> int:
        return sum((self._adj[v] & vertex_mask).bit_count() for v in bits(vertex_mask)) // 2

    def edges_between(self, mask_a: int, mask_b: int) -> int:
        if mask_a & mask_b:
            raise DomainError("edge count between overlapping sets is ambiguous")
        return sum((self._adj[v] & mask_b).bit_count() for v in bits(mask_a))

    def as_digraph(self) -> "Digraph":
        """Digraph with both arcs wherever this graph has an edge."""
        return Digraph(self.n, self._adj)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self._m})"


class Tournament(Digraph):
    """Digraph with exactly one arc between every pair of vertices."""

    def __init__(self, n: int, out_rows):
        super().__init__(n, out_rows)
        for u in range(n):
            for v in range(u + 1, n):
                fwd = self._out[u] >> v & 1
                bwd = self._out[v] >> u & 1
                if fwd + bwd != 1:
                    raise DomainError(f"pair ({u},{v}) carries {fwd + bwd} arcs, want exactly 1")

    @property
    def r(self) -> int:
        return self.n

    @classmethod
    def transitive(cls, r: int) -> "Tournament":
        """Transitive tournament: arc i -> j exactly when i < j."""
        if r < 1:
            raise DomainError("tournament order must be positive")
        full = (1 << r) - 1
        return cls(r, [(full >> (v + 1)) << (v + 1) for v in range(r)])

    @classmethod
    def cyclic_triangle(cls) -> "Tournament":
        return cls(3, [0b010, 0b100, 0b001])

    @classmethod
    def from_digraph(cls, g: Digraph) -> "Tournament":
        return cls(g.n, [g.out_mask(v) for v in range(g.n)])


def k3_minus_pattern() -> Digraph:
    """Complete digraph on three vertices with one arc deleted."""
    return Digraph.from_arcs(3, [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2)])


def canonical_tournament_key(t: Digraph) -> tuple[int, ...]:
    """Minimum out-row tuple over all vertex relabelings; equal keys mean isomorphic."""
    n = t.n
    best = None
    for perm in itertools.permutations(range(n)):
        rows = [0] * n
        for u in range(n):
            row = 0
            for v in bits(t.out_mask(u)):
                row |= 1 << perm[v]
            rows[perm[u]] = row
        key = tuple(rows)
        if best is None or key < best:
            best = key
    return best


def all_tournaments(r: int, up_to_iso: bool = True) -> list[Tournament]:
    """Every tournament on r vertices, one representative per isomorphism class by default."""
    if r < 1:
        raise DomainError("tournament order must be positive")
    pairs = list(itertools.combinations(range(r), 2))
    seen: set[tuple[int, ...]] = set()
    out: list[Tournament] = []
    for choice in itertools.product((0, 1), repeat=len(pairs)):
        rows = [0] * r
        for (u, v), flip in zip(pairs, choice):
            if flip:
                rows[v] |= 1 << u
            else:
                rows[u] |= 1 << v
        t = Tournament(r, rows)
        if up_to_iso:
            key = canonical_tournament_key(t)
            if key in seen:
                continue
            seen.add(key)
        out.append(t)
    return out


@dataclass(frozen=True)
class Embedding:
    """Injective map of a pattern into a host; image[i] hosts pattern vertex i."""

    pattern: Digraph
    image: tuple[int, ...]

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.image)

    @property
    def vertex_mask(self) -> int:
        return mask_of(self.image)

    def is_valid(self, host: Digraph) -> bool:
        """Injectivity plus every pattern arc landing on a host arc."""
        if len(set(self.image)) != self.pattern.n:
            return False
        if any(not 0 <= v < host.n for v in self.image):
            return False
        return all(
            host.arc(self.image[u], self.image[v]) for u, v in self.pattern.arcs()
        )


def spans_copy(g: Digraph, x, pattern: Digraph) -> Embedding | None:
    """Embedding of pattern with image exactly the vertex set x, or None.

    Spanning means every pattern arc maps to a host arc; extra host arcs inside
    x are allowed.  Pattern vertices are placed in decreasing degree-signature
    order, host candidates tried in ascending index, so the result is
    deterministic.
    """
    xs = sorted(set(x))
    r = pattern.n
    if len(xs) != r:
        raise DomainError(f"vertex set has {len(set(x))} elements, pattern needs {r}")
    xmask = mask_of(xs)
    p_out = [pattern.d_out(p) for p in range(r)]
    p_in = [pattern.d_in(p) for p in range(r)]
    order = sorted(range(r), key=lambda p: (-p_out[p], -p_in[p], p))
    candidates: list[list[int]] = []
    for p in order:
        cand = [
            v for v in xs
            if g.d_out_to(v, xmask) >= p_out[p] and g.d_in_from(v, xmask) >= p_in[p]
        ]
        if not cand:
            return None
        candidates.append(cand)

    image: dict[int, int] = {}
    used: set[int] = set()

    def place(step: int) -> bool:
        if step == r:
            return True
        p = order[step]
        for v in candidates[step]:
            if v in used:
                continue
            ok = True
            for q in order[:step]:
                w = image[q]
                if pattern.arc(p, q) and not g.arc(v, w):
                    ok = False
                    break
                if pattern.arc(q, p) and not g.arc(w, v):
                    ok = False
                    break
            if ok:
                used.add(v)
                image[p] = v
                if place(step + 1):
                    return True
                used.discard(v)
                del image[p]
        return False

    if place(0):
        return Embedding(pattern, tuple(image[p] for p in range(r)))
    return None


def copy_masks(g: Digraph, pattern: Digraph) -> set[int]:
    """Vertex masks of every pattern.n-set of g that spans pattern.

    Grows embeddings one pattern vertex at a time, in spans_copy's placement
    order.  The candidates for the next vertex are the unused host vertices
    left after ANDing, for each pattern arc to an already placed vertex, the
    in-row or out-row of that vertex's image.  A set hosting several
    embeddings is recorded once.
    """
    r = pattern.n
    if r == 0:
        return {0}
    order = sorted(range(r), key=lambda p: (-pattern.d_out(p), -pattern.d_in(p), p))
    # need[i]: (j, rows) pairs; step i's image must lie in rows[image[j]]
    need = [
        tuple([(j, g._in) for j in range(i) if pattern.arc(p, order[j])]
              + [(j, g._out) for j in range(i) if pattern.arc(order[j], p)])
        for i, p in enumerate(order)
    ]
    full = (1 << g.n) - 1
    image = [0] * r
    found: set[int] = set()
    last = r - 1

    def grow(step: int, used: int) -> None:
        cand = full & ~used
        for j, rows in need[step]:
            cand &= rows[image[j]]
        if step == last:
            while cand:
                low = cand & -cand
                found.add(used | low)
                cand ^= low
            return
        while cand:
            low = cand & -cand
            image[step] = low.bit_length() - 1
            grow(step + 1, used | low)
            cand ^= low

    grow(0, 0)
    return found


def min_semidegree(g: Digraph) -> int:
    """Minimum over vertices of min(outdegree, indegree)."""
    if g.n == 0:
        raise DomainError("digraph has no vertices")
    return min(min(g.d_out(v), g.d_in(v)) for v in range(g.n))


def total_min_degree(g: Digraph) -> int:
    """Minimum over vertices of outdegree + indegree (both arcs of a pair count)."""
    if g.n == 0:
        raise DomainError("digraph has no vertices")
    return min(g.d_out(v) + g.d_in(v) for v in range(g.n))


def load_digraph_text(text: str) -> Digraph:
    """Parse the edge-list format: first line n, then one '0-indexed u v' arc per line."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise DomainError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError:
        raise DomainError(f"first line must be the vertex count, got {lines[0]!r}") from None
    if n < 0:
        raise DomainError("vertex count must be non-negative")
    seen: set[tuple[int, int]] = set()
    arcs: list[tuple[int, int]] = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise DomainError(f"malformed arc line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise DomainError(f"non-integer arc line {ln!r}") from None
        if u == v:
            raise DomainError(f"loop line {ln!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"arc line {ln!r} out of range for n={n}")
        if (u, v) in seen:
            raise DomainError(f"duplicate arc line {ln!r}")
        seen.add((u, v))
        arcs.append((u, v))
    return Digraph.from_arcs(n, arcs)


def load_digraph(path: str) -> Digraph:
    with open(path, encoding="utf-8") as fh:
        return load_digraph_text(fh.read())


def digraph_to_text(g: Digraph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.arcs())
    return "\n".join(lines) + "\n"


def save_digraph(g: Digraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(digraph_to_text(g))


def parse_tournament_name(name: str) -> Tournament:
    """Resolve t<k>, c3, or tour:<file> to a Tournament."""
    label = name.strip().lower()
    if label == "c3":
        return Tournament.cyclic_triangle()
    if label.startswith("t") and label[1:].isdigit():
        return Tournament.transitive(int(label[1:]))
    if label.startswith("tour:"):
        return Tournament.from_digraph(load_digraph(name.strip()[5:]))
    raise DomainError(f"unknown tournament name {name!r} (want t<k>, c3, or tour:<file>)")
