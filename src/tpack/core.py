"""Loopless digraphs, tournaments, and the degree vocabulary every other module builds on.

Vertices are dense integers 0..n-1.  Adjacency is stored as one out-row and one
in-row per vertex, each a Python int used as a bitmask, so neighbourhood
intersections and degree-into-set queries are single AND + popcount operations.
Digraphs are immutable after construction; mutation happens on plain mask lists
before freezing.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable


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


def _transpose(width: int, rows, ones: int | None = None) -> list[int]:
    """The columns of a bit matrix whose rows are masks below 1 << width:
    column j has bit i when rows[i] has bit j.  The rows after the last
    non-empty one are left out, and w is the bit length of the widest row
    left; the columns below w are read off the joined bin(1 << w | row)
    texts, last row first, as every (w + 3)-th digit, and the rest are 0.
    So a matrix costs its rows times w, not height times width.

    A caller that knows the number of set bits passes it as ones, and a
    sparse matrix is then transposed bit by bit: the row indices are
    collected per column and each column is built once from its list.  On
    that route a set bit costs about as much time as 64 + w/64 of the digits
    above (finding it in its row reads the row) and a column about 64, so
    it is taken when those sum to less than rows times w."""
    rows = rows[:len(bytes(map(bool, rows)).rstrip(b"\0"))]
    w = max(rows, default=0).bit_length()
    if ones is not None and (ones * (4096 + w) >> 6) + (w << 6) < len(rows) * w:
        hits: list[list[int]] = [[] for _ in range(w)]
        for i, row in enumerate(rows):
            while row:
                low = row & -row
                hits[low.bit_length() - 1].append(i)
                row ^= low
        cols = [0] * width
        for j, col in enumerate(hits):
            if col:
                buf = bytearray((col[-1] >> 3) + 1)
                for i in col:
                    buf[i >> 3] |= 1 << (i & 7)
                cols[j] = int.from_bytes(buf, "little")
        return cols
    text = "".join(map(bin, map((1 << w).__or__, reversed(rows))))
    return [int("0" + text[w + 2 - j::w + 3], 2) for j in range(w)] + [0] * (width - w)


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
        m = 0
        for u, row in enumerate(out):
            if row >> n:
                raise DomainError(f"vertex {u} has an out-neighbour outside 0..{n - 1}")
            if row >> u & 1:
                raise DomainError(f"loop at vertex {u}")
            m += row.bit_count()
        self.n = n
        self._out = out
        self._in = tuple(_transpose(n, out, m))
        self._m = m

    @classmethod
    def _from_rows(cls, n: int, out_rows, in_rows) -> "Digraph":
        """Digraph from out-rows and their transpose, both already checked by
        the caller; nothing is validated or re-derived."""
        g = cls.__new__(cls)
        g.n = n
        g._out = tuple(out_rows)
        g._in = tuple(in_rows)
        g._m = sum(map(int.bit_count, g._out))
        return g

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

    @property
    def num_arcs(self) -> int:
        return self._m

    def arcs(self):
        """Yield arcs (u, v) in lexicographic order."""
        for u in range(self.n):
            for v in bits(self._out[u]):
                yield (u, v)

    def arcs_inside(self, vertex_mask: int) -> int:
        """Count arcs with both endpoints inside the given vertex mask."""
        return sum((self._out[u] & vertex_mask).bit_count() for u in bits(vertex_mask))

    def induced(self, vertices) -> tuple["Digraph", tuple[int, ...]]:
        """Induced subdigraph on the given vertices plus the new->old index map.

        The kept vertices' columns of the kept out-rows are the induced
        in-rows, and their transpose is the induced out-rows.  Each
        transpose is passed its set-bit count, so sparse rows go bit by bit."""
        order = tuple(sorted(set(vertices)))
        if order and not (0 <= order[0] and order[-1] < self.n):
            raise DomainError("induced set outside vertex range")
        rows = [self._out[v] for v in order]
        cols = _transpose(self.n, rows, sum(map(int.bit_count, rows)))
        in_rows = [cols[v] for v in order]
        m = sum(map(int.bit_count, in_rows))
        return Digraph._from_rows(len(order), _transpose(len(order), in_rows, m), in_rows), order

    def minus_arcs(self, arcs) -> "Digraph":
        rows = list(self._out)
        for u, v in arcs:
            rows[u] &= ~(1 << v)
        return Digraph(self.n, rows)

    def underlying(self) -> "Graph":
        """Undirected graph with an edge wherever at least one arc runs.
        out | in is symmetric whenever in is the transpose of out."""
        rows = tuple(map(int.__or__, self._out, self._in))
        return Graph._from_rows(self.n, rows, rows)

    def double_edge_graph(self) -> "Graph":
        """Undirected graph keeping only the pairs joined by arcs both ways.
        out & in is symmetric whenever in is the transpose of out."""
        rows = tuple(map(int.__and__, self._out, self._in))
        return Graph._from_rows(self.n, rows, rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Digraph) and self.n == other.n and self._out == other._out

    def __hash__(self) -> int:
        return hash((self.n, self._out))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, arcs={self._m})"


class Graph(Digraph):
    """Immutable undirected loopless graph: a digraph whose every arc runs
    both ways, so each out-row is its own in-row."""

    __slots__ = ()

    def __init__(self, n: int, adj_rows):
        """Each row must hold only partners whose rows hold it back.  The
        rows then have as many bits as their transpose, so they equal it."""
        super().__init__(n, adj_rows)
        for v, (row, col) in enumerate(zip(self._out, self._in)):
            if row & ~col:
                u = next(bits(row & ~col))
                raise DomainError(f"asymmetric adjacency between {u} and {v}")

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

    adj_mask = Digraph.out_mask
    has_edge = Digraph.arc
    degree = Digraph.d_out

    @property
    def num_edges(self) -> int:
        return self._m // 2

    def min_degree(self) -> int:
        if self.n == 0:
            raise DomainError("graph has no vertices")
        return min(self.degree(v) for v in range(self.n))

    def edges(self):
        """Yield edges (u, v) with u < v in lexicographic order."""
        for u in range(self.n):
            for v in bits(self._out[u] >> (u + 1)):
                yield (u, u + 1 + v)

    def edges_inside(self, vertex_mask: int) -> int:
        return self.arcs_inside(vertex_mask) // 2

    def edges_between(self, mask_a: int, mask_b: int) -> int:
        if mask_a & mask_b:
            raise DomainError("edge count between overlapping sets is ambiguous")
        return sum((self._out[v] & mask_b).bit_count() for v in bits(mask_a))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.num_edges})"


class Tournament(Digraph):
    """Digraph with exactly one arc between every pair of vertices."""

    __slots__ = ()

    def __init__(self, n: int, out_rows):
        """Each vertex u must reach every other vertex one way exactly:
        out-row XOR in-row is every vertex but u.  The first failing row has
        only later partners wrong, so its lowest wrong bit names the first
        bad pair in (u, v) order."""
        super().__init__(n, out_rows)
        full = (1 << n) - 1
        for u, (row, col) in enumerate(zip(self._out, self._in)):
            wrong = row ^ col ^ full ^ 1 << u
            if wrong:
                v = (wrong & -wrong).bit_length() - 1
                arcs = (row >> v & 1) + (col >> v & 1)
                raise DomainError(f"pair ({u},{v}) carries {arcs} arcs, want exactly 1")

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


def _first_per_class(tournaments: Iterable[Digraph]) -> list:
    """The first tournament of each canonical_tournament_key class, in order."""
    seen: set[tuple[int, ...]] = set()
    out = []
    for t in tournaments:
        key = canonical_tournament_key(t)
        if key not in seen:
            seen.add(key)
            out.append(t)
    return out


def all_tournaments(r: int, up_to_iso: bool = True) -> list[Tournament]:
    """Every tournament on r vertices, one representative per isomorphism class by default."""
    if r < 1:
        raise DomainError("tournament order must be positive")
    pairs = list(itertools.combinations(range(r), 2))

    def every():
        for choice in itertools.product((0, 1), repeat=len(pairs)):
            rows = [0] * r
            for (u, v), flip in zip(pairs, choice):
                if flip:
                    rows[v] |= 1 << u
                else:
                    rows[u] |= 1 << v
            yield Tournament(r, rows)

    return _first_per_class(every()) if up_to_iso else list(every())


@dataclass(frozen=True)
class Embedding:
    """Injective map of a pattern into a host; image[i] hosts pattern vertex i."""

    pattern: Digraph
    image: tuple[int, ...]

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
    x are allowed.  The result is the first copy that the spans-order plan
    grows inside x, lowest candidate first, so it is deterministic.
    """
    xs = set(x)
    r = pattern.n
    if len(xs) != r:
        raise DomainError(f"vertex set has {len(xs)} elements, pattern needs {r}")
    if not r:
        return Embedding(pattern, ())
    xmask = 0
    for v in sorted(xs):
        if not 0 <= v < g.n:
            raise DomainError(f"vertex {v} is outside 0..{g.n - 1}")
        xmask |= 1 << v
    for _, image in _copies(g, _plans(pattern)[0], xmask, xmask):
        return Embedding(pattern, image)
    return None


def copy_masks(g: Digraph, pattern: Digraph) -> set[int]:
    """Vertex masks of every pattern.n-set of g that spans pattern.

    Grows embeddings with the spans-order plan, like _copies, but adds every
    candidate of the last step at once instead of yielding them one by one,
    which is several times faster when every copy is wanted.  The plan's
    symmetry bounds (_plans) cut each embedding that a lex-smaller one on the
    same set stands for, so the lex-first embedding of every set is still
    grown while the others are mostly cut.
    """
    r = pattern.n
    if r == 0:
        return {0}
    ((outs, ins, _),), _, _, (above, twin_in) = _plans(pattern)
    out_rows, in_rows = g._out, g._in
    full = (1 << g.n) - 1
    image = [0] * r
    found: set[int] = set()
    last = r - 1

    def grow(step: int, used: int) -> None:
        cand = full & ~used
        for j in outs[step]:
            cand &= out_rows[image[j]]
        for j in ins[step]:
            cand &= in_rows[image[j]]
        for j in above[step]:
            cand &= -2 << image[j]
        for j in twin_in[step]:
            cand &= ~in_rows[image[j]] | -1 << image[j]
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


def _colours(pattern: Digraph) -> list[int]:
    """Colour refinement from (out, in)-degree: each round splits vertices by
    the colours of their out- and in-neighbours, until no class splits.  An
    automorphism keeps every colour."""
    r = pattern.n
    colour = [0] * r
    while True:
        keys = [(colour[p], tuple(sorted(colour[q] for q in bits(pattern._out[p]))),
                 tuple(sorted(colour[q] for q in bits(pattern._in[p])))) for p in range(r)]
        rank = {key: i for i, key in enumerate(sorted(set(keys)))}
        refined = [rank[key] for key in keys]
        if len(rank) == len(set(colour)):
            return refined
        colour = refined


def _extends(pattern: Digraph, colour: list[int], pairs) -> bool:
    """Whether some automorphism of pattern maps p to q for each (p, q) in pairs.

    colour is _colours(pattern).  Backtracking places the paired vertices
    first, then the rest in index order; each goes to an unused vertex of
    its own colour whose arcs to the images already placed match its own."""
    if any(colour[p] != colour[q] for p, q in pairs):
        return False
    r = pattern.n
    out, inn = pattern._out, pattern._in
    cls = [0] * r
    for p in range(r):
        cls[colour[p]] |= 1 << p
    fixed = dict(pairs)
    order = list(fixed) + [p for p in range(r) if p not in fixed]
    sigma = [0] * r

    def extend(k: int, used: int) -> bool:
        if k == r:
            return True
        p = order[k]
        cand = cls[colour[p]] & ~used
        if p in fixed:
            cand &= 1 << fixed[p]
        for x in order[:k]:
            y = sigma[x]
            cand &= out[y] if out[x] >> p & 1 else ~out[y]
            cand &= inn[y] if inn[x] >> p & 1 else ~inn[y]
        for q in bits(cand):
            sigma[p] = q
            if extend(k + 1, used | 1 << q):
                return True
        return False

    return extend(0, 0)


@functools.cache
def _plans(pattern: Digraph) -> tuple:
    """The growth plans of pattern, as (spans, rooted, roots, bounds).

    spans holds one plan in spans order: decreasing out-degree, then
    in-degree, then index.  rooted holds one plan per pattern vertex q,
    which places q first and the rest in spans order; roots keeps those
    whose root no automorphism maps to a lower vertex, so every vertex set
    that rooted grows through a start vertex, an earlier plan of roots
    grows too.  A plan is (outs, ins, slot): step i's image must lie in the
    out-row of the image of each step in outs[i] and in the in-row of the
    image of each step in ins[i]; slot[q] is the step that places pattern
    vertex q.

    bounds = (above, twin_in) cuts embeddings of the spans plan that a
    lex-smaller embedding on the same vertex set stands for (images compared
    step by step).  Step i's image must exceed the image of each step j in
    above[i]: pattern vertex i lies in the orbit of vertex j under the
    automorphisms fixing the steps before j (Grochow and Kellis, RECOMB
    2007).  Steps j in twin_in[i] place a twin of step i's vertex: the two
    differ only in the one arc between them, so swapping their images is an
    embedding too when the host has the reverse arc.  Step i's image may not
    lie below step j's image and in its in-row.  The arc always runs from
    j to i: its tail has the higher out-degree, so spans order places it
    first.
    """
    r = pattern.n
    out, inn = pattern._out, pattern._in
    spans = sorted(range(r), key=lambda p: (-pattern.d_out(p), -pattern.d_in(p), p))

    def plan(order: list[int]) -> tuple:
        outs = tuple(tuple(j for j in range(i) if pattern.arc(order[j], p))
                     for i, p in enumerate(order))
        ins = tuple(tuple(j for j in range(i) if pattern.arc(p, order[j]))
                    for i, p in enumerate(order))
        return outs, ins, tuple(order.index(q) for q in range(r))

    colour = _colours(pattern)
    # orbit[q]: the lowest vertex an automorphism maps q to
    orbit = [next(v for v in range(q + 1) if v == q or _extends(pattern, colour, [(q, v)]))
             for q in range(r)]

    def orbit_mate(j: int, i: int) -> bool:
        return orbit[spans[j]] == orbit[spans[i]] and _extends(
            pattern, colour, [(x, x) for x in spans[:j]] + [(spans[j], spans[i])])

    def twin_arc(p: int, q: int) -> bool:
        """p -> q is the one arc between twins p and q."""
        pq = 1 << p | 1 << q
        return bool(out[p] >> q & 1 and not out[q] >> p & 1
                    and out[p] & ~pq == out[q] & ~pq and inn[p] & ~pq == inn[q] & ~pq)

    above, below = [], []  # below[i]: every step whose image is below step i's
    for i in range(r):
        mates = [j for j in range(i) if orbit_mate(j, i)]
        implied = set().union(*(below[j] for j in mates))
        above.append(tuple(j for j in mates if j not in implied))
        below.append(implied.union(mates))
    twin_in = tuple(tuple(j for j in range(i) if twin_arc(spans[j], spans[i])) for i in range(r))
    rooted = tuple(plan([q] + [p for p in spans if p != q]) for q in range(r))
    roots = tuple(rooted[q] for q in range(r) if orbit[q] == q)
    return (plan(spans),), rooted, roots, (tuple(above), twin_in)


def _copies(g: Digraph, plans: tuple, within: int, first: int):
    """Yield (mask, image) for each embedding that some plan grows in g with
    its first step in the vertex mask first and every step in within;
    image[q] hosts pattern vertex q.

    The plans run in turn.  Each grows its copies with the row-AND step,
    lowest candidate first, on an explicit stack, so copies come lazily.
    """
    out_rows, in_rows = g._out, g._in
    r = len(plans[0][2]) if plans else 0
    last = r - 1
    img = [0] * r
    used = [0] * r  # used[i]: images of the steps before i
    cand = [0] * r
    for outs, ins, slot in plans:
        step = 0
        cand[0] = first
        while step >= 0:
            c = cand[step]
            if not c:
                step -= 1
                continue
            low = c & -c
            cand[step] = c ^ low
            img[step] = low.bit_length() - 1
            taken = used[step] | low
            if step == last:
                yield taken, tuple([img[i] for i in slot])
                continue
            step += 1
            used[step] = taken
            c = within & ~taken
            for j in outs[step]:
                c &= out_rows[img[j]]
            for j in ins[step]:
                c &= in_rows[img[j]]
            cand[step] = c


def iter_copies(g: Digraph, pattern: Digraph, within: int, through: int):
    """Yield (mask, image) for each copy of pattern in g that contains vertex
    through and lies inside the vertex mask within; image[q] hosts pattern
    vertex q.

    Each rooted plan maps one pattern vertex to through and grows the rest
    lazily (_copies).  A vertex set is yielded once per embedding.
    """
    return _copies(g, _plans(pattern)[1], within, within & 1 << through)


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


#: the largest vertex count load_digraph_text reads: a host keeps about
#: 32 B of rows a vertex, so this order holds about 134 MB before any arc
MAX_ORDER = 1 << 22


def load_digraph_text(text: str) -> Digraph:
    """Parse the edge-list format: first line n, then one '0-indexed u v' arc per line.

    Text in the exact form digraph_to_text writes is read in bulk.  Any other
    text, and canonical text that a bulk check refuses, is read line by line
    (_load_checked), so every refusal names the first bad line.  A count
    above MAX_ORDER is refused after the lines, before any row is built."""
    g = _load_canonical(text)
    return _load_checked(text) if g is None else g


def _load_canonical(text: str) -> Digraph | None:
    """The digraph of a text in the exact form digraph_to_text writes (a
    count line, then "u v" lines, in ASCII digits with single spaces and a
    newline after every line), or None when the text has another form or a
    check refuses it.

    The form is one check on the ASCII bytes: with the digits deleted they
    must read "\n" then " \n" once per arc line, and the text must hold an
    odd number of tokens and end in a newline, so tokens and separators
    alternate.  Tokens map to vertices through the decimal forms of 0..k-1,
    where k is min(n, number of arc tokens), so nothing of size n is built
    before the arcs pass.  A token outside them (out of range, a leading
    zero, or an index above k) refuses, as do a loop and a duplicate line,
    which are looked for once after the arcs pass.  The powers 1 << v are
    looked up by token only while k is small (their table takes about
    k * k / 16 bytes); above that each arc's bit is shifted from its head's
    index, so the memory follows the arcs and the rows.
    """
    if not text.isascii():
        return None
    data = text.encode()
    tokens = data.split()
    pairs = len(tokens) >> 1
    if (len(tokens) != 2 * pairs + 1 or not data.endswith(b"\n")
            or data.translate(None, b"0123456789") != b"\n" + b" \n" * pairs):
        return None
    try:
        n = int(tokens[0])
    except ValueError:  # more digits than int() reads
        return None
    if n > MAX_ORDER:
        return None  # refused by the checked loop, after any bad line
    k = min(n, 2 * pairs)
    names = list(map(b"%d".__mod__, range(k)))
    index = dict(zip(names, range(k))).__getitem__
    small = k <= 4096  # the table of powers stays near 1 MB
    if small:
        pows = [1 << v for v in range(k)]
        heads = map(dict(zip(names, pows)).__getitem__, tokens[2::2])
    else:
        heads = map((1).__lshift__, map(index, tokens[2::2]))
    rows = [0] * k
    try:
        for u, bit in zip(map(index, tokens[1::2]), heads):
            rows[u] |= bit
    except KeyError:
        return None
    if (any(map(int.__and__, rows, pows)) if small
            else any(map(bytes.__eq__, tokens[1::2], tokens[2::2]))):
        return None  # a loop line
    if sum(map(int.bit_count, rows)) != pairs:
        return None  # a duplicate line
    return Digraph._from_rows(n, rows + [0] * (n - k), _transpose(n, rows, pairs))


def _load_checked(text: str) -> Digraph:
    """load_digraph_text line by line: comments, blank lines, surrounding
    whitespace, signs and leading zeros are read, and a refusal names the
    first bad line."""
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
    rows: dict[int, int] = {}  # not a list of n rows: a huge n fails on its lines first
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
        row = rows.get(u, 0)
        if row >> v & 1:
            raise DomainError(f"duplicate arc line {ln!r}")
        rows[u] = row | 1 << v
    if n > MAX_ORDER:
        raise DomainError(f"vertex count {n} exceeds {MAX_ORDER}")
    return Digraph(n, [rows.get(u, 0) for u in range(n)])


def load_digraph(path: str) -> Digraph:
    """load_digraph_text on a UTF-8 file; a leading byte-order mark is dropped."""
    with open(path, encoding="utf-8-sig") as fh:
        return load_digraph_text(fh.read())


def digraph_to_text(g: Digraph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.arcs())
    return "\n".join(lines) + "\n"


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
