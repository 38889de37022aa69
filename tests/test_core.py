import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from tpack import core
from tpack.core import (
    Digraph,
    DomainError,
    Embedding,
    Graph,
    InvariantViolation,
    Tournament,
    all_tournaments,
    at_least,
    bits,
    canonical_tournament_key,
    ceil_frac,
    copy_masks,
    digraph_to_text,
    iter_copies,
    k3_minus_pattern,
    load_digraph,
    load_digraph_text,
    _load_canonical,
    _load_checked,
    mask_of,
    min_semidegree,
    parse_tournament_name,
    spans_copy,
    total_min_degree,
    _plans,
    _transpose,
)


def random_digraph(rng_bits: int, n: int) -> Digraph:
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    rows = [0] * n
    for i, (u, v) in enumerate(pairs):
        if (rng_bits >> i) & 1:
            rows[u] |= 1 << v
    return Digraph(n, rows)


digraphs = st.integers(min_value=3, max_value=6).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << (n * (n - 1))) - 1))
).map(lambda t: random_digraph(t[1], t[0]))


def test_ceil_frac():
    assert ceil_frac(7, 3) == 3
    assert ceil_frac(6, 3) == 2
    assert ceil_frac(0, 5) == 0
    assert ceil_frac(1, 1) == 1
    # exact integer arithmetic at the values the thresholds use
    assert ceil_frac(2 * 9, 3) == 6
    assert ceil_frac(3 * 6 - 3, 2) == 8
    assert ceil_frac(3 * 9 - 3, 2) == 12


def test_bits_and_masks():
    assert list(bits(0b10110)) == [1, 2, 4]
    assert mask_of([0, 3]) == 0b1001
    assert mask_of([1, 1]) == 0b10  # duplicates collapse


def test_digraph_construction_rejects_loops_and_range():
    with pytest.raises(DomainError):
        Digraph(2, [0b01, 0])  # loop at 0
    with pytest.raises(DomainError):
        Digraph(2, [0b100, 0])  # out of range
    with pytest.raises(DomainError):
        Digraph.from_arcs(3, [(0, 3)])
    # a negative row has infinitely many high bits; it must be refused before
    # the transpose walks its bits
    for n in (1, 5, 45):
        for row in (-1, -2, -(1 << n), -(1 << (n + 7)) + 1):
            with pytest.raises(DomainError):
                Digraph(n, [0] * (n - 1) + [row])


def test_in_rows_and_arc_count_match_brute_force():
    rng = random.Random(11)
    for n in range(46):
        for density in (0.1, 0.5, 0.9):
            rows = [sum(1 << v for v in range(n) if v != u and rng.random() < density)
                    for u in range(n)]
            g = Digraph(n, rows)
            assert [g.in_mask(v) for v in range(n)] == [
                sum(1 << u for u in range(n) if rows[u] >> v & 1) for v in range(n)
            ]
            assert g.num_arcs == sum(1 for u in range(n) for v in range(n) if rows[u] >> v & 1)


COPY_PATTERNS = all_tournaments(3) + all_tournaments(4) + [
    Digraph.complete(1), Digraph.complete(2), Digraph.complete(3), k3_minus_pattern(),
    Digraph.from_arcs(3, [(0, 1)]), Digraph.empty(2),
]


@pytest.mark.parametrize("pattern", COPY_PATTERNS)
def test_iter_copies_matches_brute_force(pattern):
    """Every copy through the given vertex inside the given set, each embedding once."""
    rng = random.Random(pattern.n * 100 + pattern.num_arcs)
    for trial in range(40):
        n = rng.randint(1, 8)
        rows = [sum(1 << v for v in range(n) if v != u and rng.random() < 0.65)
                for u in range(n)]
        g = Digraph(n, rows)
        within = (1 << n) - 1 if trial % 4 == 0 else rng.getrandbits(n)
        a = rng.randrange(n)
        want = {
            (mask_of(image), image)
            for image in itertools.permutations(range(n), pattern.n)
            if a in image and not mask_of(image) & ~within
            and Embedding(pattern, image).is_valid(g)
        }
        got = list(iter_copies(g, pattern, within, a))
        assert len(got) == len(set(got))
        assert set(got) == want


def _spanned_sets(g, pattern):
    """Brute force: the r-sets onto which some vertex permutation embeds pattern."""
    rows = [g.out_mask(u) for u in range(g.n)]
    arcs = list(pattern.arcs())
    return {
        mask_of(xs) for xs in itertools.combinations(range(g.n), pattern.n)
        if any(all(rows[im[u]] >> im[v] & 1 for u, v in arcs)
               for im in itertools.permutations(xs))
    }


@pytest.mark.parametrize("pattern", COPY_PATTERNS + all_tournaments(5) + [Digraph.complete(4)])
def test_copy_masks_matches_brute_force(pattern):
    """The symmetry bounds of the spans plan keep every spanning set: any bound
    that cut a set's lex-first embedding would lose a set here."""
    rng = random.Random(pattern.n * 1000 + pattern.num_arcs * 10 + 7)
    hosts = [Digraph.complete(8)]
    for density in (0.3, 0.65, 0.9, 1.0):
        for _ in range(3):
            n = rng.randint(max(pattern.n, 1), 9)
            hosts.append(Digraph(n, [sum(1 << v for v in range(n) if v != u and rng.random() < density)
                                     for u in range(n)]))
    for g in hosts:
        assert copy_masks(g, pattern) == _spanned_sets(g, pattern)


def test_plans_keep_one_root_per_orbit():
    """Rooted plans are dropped exactly when an automorphism maps the root lower."""
    rooted_orbits = {
        Tournament.cyclic_triangle(): 1, Digraph.complete(4): 1, Tournament.transitive(4): 4,
        k3_minus_pattern(): 3, Digraph.from_arcs(3, [(0, 1)]): 3, Digraph.empty(2): 1,
    }
    for pattern, orbits in rooted_orbits.items():
        _, rooted, roots, _ = _plans(pattern)
        assert len(roots) == orbits
        assert set(roots) <= set(rooted) and roots[0] == rooted[0]


def test_plans_need_no_permutation_listing():
    """Automorphisms come from a refined backtracking search, so the plans of
    12-vertex patterns with 12! and 1 automorphisms, and of a random
    9-tournament, build at once."""
    rng = random.Random(17)
    rows = [0] * 9
    for u, v in itertools.combinations(range(9), 2):
        if rng.random() < 0.5:
            u, v = v, u
        rows[u] |= 1 << v
    start = time.perf_counter()
    for pattern in (Digraph.complete(12), Tournament.transitive(12), Tournament(9, rows)):
        _plans.__wrapped__(pattern)
    assert time.perf_counter() - start < 1.0


def _transpose_per_arc(width, rows):
    cols = [0] * width
    for u, row in enumerate(rows):
        for v in bits(row):
            cols[v] |= 1 << u
    return cols


def test_transpose_of_any_shape():
    rng = random.Random(15)
    assert _transpose(0, []) == [] and _transpose(0, [0, 0, 0]) == []
    assert _transpose(3, []) == [0, 0, 0]
    for width, height in ((1, 9), (4, 17), (9, 4), (40, 3), (0, 5), (7, 7)):
        rows = [rng.getrandbits(width) if width else 0 for _ in range(height)]
        assert _transpose(width, rows) == _transpose_per_arc(width, rows)
        assert _transpose(height, _transpose(width, rows)) == rows
    # given the set-bit count, a sparse matrix may go bit by bit: both routes
    # agree at every density and shape tried
    for width, height, per_row in ((3000, 500, 1), (700, 90, 3), (130, 130, 2), (64, 40, 1),
                                   (64, 40, 2), (200, 1, 1), (1, 200, 1), (200, 3000, 1),
                                   (5, 3000, 1), (3000, 40, 2)):
        rows = [sum(1 << j for j in rng.sample(range(width), per_row)) if rng.random() < 0.7
                else 0 for _ in range(height)]
        ones = sum(map(int.bit_count, rows))
        cols = _transpose(width, rows, ones)
        assert cols == _transpose(width, rows) == _transpose_per_arc(width, rows)
        assert _transpose(height, cols, ones) == rows


def _columns_built_bit_by_bit(monkeypatch):
    """The sizes of the column buffers _transpose's bit route allocates."""
    sizes = []

    def counted(size):
        sizes.append(size)
        return bytearray(size)

    monkeypatch.setattr(core, "bytearray", counted, raising=False)
    return sizes


def _sparse_rows(width, height, inv_density, rng):
    return [mask_of(rng.sample(range(width), width // inv_density)) for _ in range(height)]


def test_transpose_routes_on_either_side_of_the_switch(monkeypatch):
    """The bit route is taken where it is the cheaper one, and each route
    stays fast on its side.  A tall sparse mask matrix (250,000 rows of 200
    bits, one bit each) goes bit by bit in about 0.08 s; the digit route
    took about 0.43 s there, and so did setting each bit with
    cols[j] |= 1 << i, which copies a column as tall as the matrix.  A
    square matrix goes bit by bit below about one set bit in 100 of its
    digits; a denser one, or a short wide one whose rows the bit route
    would read once per set bit, is read off the digits."""
    rng = random.Random(36)
    built = _columns_built_bit_by_bit(monkeypatch)
    height, width = 250_000, 200
    js = bytes(rng.randrange(width) for _ in range(height))
    rows = [1 << j for j in js]
    start = time.perf_counter()
    cols = _transpose(width, rows, height)
    assert time.perf_counter() - start < 0.3
    assert len(built) == width
    for j, col in enumerate(cols):  # column j marks the rows i with js[i] == j
        want = js.translate(bytes(48 + (b == j) for b in range(256)))[::-1]
        assert col == int(want, 2)
    for width, height, inv_density, bit_route in ((3000, 3000, 512, True), (1000, 1000, 16, False),
                                                  (20_000, 200, 256, False)):
        rows = _sparse_rows(width, height, inv_density, rng)
        built.clear()
        start = time.perf_counter()
        cols = _transpose(width, rows, sum(map(int.bit_count, rows)))
        assert time.perf_counter() - start < 0.2
        assert bool(built) == bit_route
        assert cols == _transpose_per_arc(width, rows)


def test_short_text_with_a_large_count_parses_at_once():
    """Only the non-empty rows are transposed, so a text naming 200,000
    vertices and one arc builds no 200,000-bit rows."""
    n = 200_000
    start = time.perf_counter()
    g = load_digraph_text(f"{n}\n0 1\n")
    assert time.perf_counter() - start < 1.0
    assert g == Digraph.from_arcs(n, [(0, 1)])
    assert g.in_mask(1) == 1 and g.num_arcs == 1


def test_sparse_host_parses_in_time_and_memory_linear_in_its_arcs():
    """A canonical host with n = 10,000 and 10,000 random arcs: the digit
    transpose built a 10^8-character text (about 1.3 s and a 199 MB traced
    peak); the bit-by-bit route takes well under a second and about 13 MB.
    Most of that is the out-rows and in-rows themselves: a random arc sets
    a bit about n/2 deep, so each side holds about n * n / 16 bytes."""
    n = 10_000
    rng = random.Random(35)
    arcs = set()
    while len(arcs) < n:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.add((u, v))
    text = f"{n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(arcs))
    start = time.perf_counter()
    g = load_digraph_text(text)
    assert time.perf_counter() - start < 0.5
    tracemalloc.start()
    try:
        load_digraph_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20, peak
    start = time.perf_counter()
    ref = Digraph.from_arcs(n, arcs)
    assert time.perf_counter() - start < 0.5
    assert (g._out, g._in, g.num_arcs) == (ref._out, ref._in, n)
    assert list(g._in) == _transpose_per_arc(n, g._out)


@pytest.mark.parametrize("shape", ["in-star", "low heads"])
def test_hosts_with_short_rows_parse_in_memory_linear_in_their_arcs(shape):
    """n = 100,000 and about n arcs that all end at vertices below 8: the
    rows are small, so the parse must be too.  A table of the powers
    1 << v for every v < n would take about n * n / 16 bytes (625 MB); the
    bulk route keeps one only for at most 4096 vertices, so these texts
    peak at about 28 MB."""
    n = 100_000
    rng = random.Random(n)
    arcs = sorted({(u, 0 if shape == "in-star" else rng.randrange(8)) for u in range(8, n)})
    text = f"{n}\n" + "".join(f"{u} {v}\n" for u, v in arcs)
    start = time.perf_counter()
    g = _load_canonical(text)
    assert time.perf_counter() - start < 1.0
    tracemalloc.start()
    try:
        _load_canonical(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 << 20, peak
    ref = Digraph.from_arcs(n, arcs)
    assert (g._out, g._in, g.num_arcs) == (ref._out, ref._in, len(arcs))


def test_bulk_route_above_the_power_table_refuses_loops_and_duplicates():
    """With k = 5,000 > 4,096 the bulk route shifts each arc's bit from its
    head's index and looks for loops by token; a loop or a duplicate line
    sends the text to the checked loop, whose message names it."""
    n = 5000
    text = f"{n}\n" + "".join(f"{u} 0\n" for u in range(1, 2501))
    assert _load_canonical(text) == Digraph.from_arcs(n, [(u, 0) for u in range(1, 2501)])
    for extra, message in (("9 9\n", "loop line '9 9'"), ("3 0\n", "duplicate arc line '3 0'")):
        assert _load_canonical(text + extra) is None
        with pytest.raises(DomainError, match=f"^{message}$"):
            load_digraph_text(text + extra)


def _induced_per_arc(rows, order):
    pos = {old: new for new, old in enumerate(order)}
    return [sum(1 << pos[v] for v in bits(rows[u]) if v in pos) for u in order]


def _asymmetric_pair(adj):
    for v, row in enumerate(adj):
        for u in bits(row):
            if not adj[u] >> v & 1:
                return f"asymmetric adjacency between {u} and {v}"
    return None


def test_transposed_rows_match_the_per_arc_reference():
    """In-rows, induced subdigraphs and the asymmetric pair Graph names all
    come from the bit-matrix transpose; each is checked here against a
    per-arc loop."""
    rng = random.Random(1515)
    for _ in range(400):
        n = rng.randint(0, 14)
        p = rng.random()
        rows = [sum(1 << v for v in range(n) if v != u and rng.random() < p) for u in range(n)]
        g = Digraph(n, rows)
        in_rows = _transpose_per_arc(n, rows)
        assert list(g._in) == in_rows
        keep = [v for v in range(n) if rng.random() < 0.6]
        sub, order = g.induced(keep)
        assert order == tuple(keep)
        assert list(sub._out) == _induced_per_arc(rows, order)
        assert list(sub._in) == _transpose_per_arc(len(order), sub._out)
        assert sub.num_arcs == sum(row.bit_count() for row in sub._out)
        adj = [row | col for row, col in zip(rows, in_rows)]
        for _ in range(rng.randint(0, 3) if n > 1 else 0):
            u, v = rng.sample(range(n), 2)
            adj[u] ^= 1 << v
        want = _asymmetric_pair(adj)
        if want is None:
            assert Graph(n, adj).num_edges == sum(row.bit_count() for row in adj) // 2
        else:
            with pytest.raises(DomainError, match=f"^{want}$"):
                Graph(n, adj)


def test_complete_digraph_at_large_n_has_its_out_rows_as_in_rows():
    g = Digraph.complete(3000)
    assert g._in == g._out
    assert g.num_arcs == 3000 * 2999


def test_complete_digraph_degrees():
    g = Digraph.complete(5)
    assert g.num_arcs == 20
    assert min_semidegree(g) == 4
    assert total_min_degree(g) == 8
    assert all(g.arc(u, v) for u in range(5) for v in range(5) if u != v)


@given(digraphs)
@settings(max_examples=60, deadline=None)
def test_degree_sum_identity(g):
    assert sum(g.d_out(v) for v in range(g.n)) == g.num_arcs
    assert sum(g.d_in(v) for v in range(g.n)) == g.num_arcs


@given(digraphs)
@settings(max_examples=60, deadline=None)
def test_in_rows_transpose(g):
    for u in range(g.n):
        for v in range(g.n):
            if u != v:
                assert g.arc(u, v) == bool(g.in_mask(v) >> u & 1)


@given(digraphs)
@settings(max_examples=40, deadline=None)
def test_underlying_graph_edge_count(g):
    under = g.underlying()
    expect = sum(
        1
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if g.arc(u, v) or g.arc(v, u)
    )
    assert under.num_edges == expect


def test_induced_subdigraph():
    g = Digraph.from_arcs(5, [(0, 1), (1, 2), (2, 0), (3, 4), (0, 4)])
    sub, old = g.induced([0, 1, 2])
    assert old == (0, 1, 2)
    assert sub.n == 3
    assert sub.arc(0, 1) and sub.arc(1, 2) and sub.arc(2, 0)
    assert sub.num_arcs == 3


def test_tournament_validation():
    assert Tournament.transitive(3).num_arcs == 3
    with pytest.raises(DomainError):
        Tournament.from_digraph(Digraph.complete(3))
    c3 = Tournament.cyclic_triangle()
    assert c3.arc(0, 1) and c3.arc(1, 2) and c3.arc(2, 0)


def test_tournament_has_no_instance_dict():
    """Like Digraph and Graph, a tournament holds only the Digraph slots."""
    t = Tournament.transitive(3)
    assert not hasattr(t, "__dict__")
    with pytest.raises(AttributeError):
        t.label = "t3"


def test_tournament_names_the_first_bad_pair():
    """With two faulty pairs the message names the first in (u, v) order."""
    def broken(drop, add):
        rows = [(0b11111 >> (u + 1)) << (u + 1) for u in range(5)]  # transitive
        rows[drop[0]] ^= 1 << drop[1]
        rows[add[0]] |= 1 << add[1]
        return rows

    cases = [
        (broken((1, 3), (4, 0)), "pair (0,4) carries 2 arcs, want exactly 1"),
        (broken((1, 4), (2, 1)), "pair (1,2) carries 2 arcs, want exactly 1"),
        (broken((0, 2), (3, 1)), "pair (0,2) carries 0 arcs, want exactly 1"),
        (broken((2, 4), (4, 3)), "pair (2,4) carries 0 arcs, want exactly 1"),
    ]
    for rows, message in cases:
        with pytest.raises(DomainError) as err:
            Tournament(5, rows)
        assert str(err.value) == message


def test_all_tournaments_counts():
    # numbers of tournaments up to isomorphism on 1..4 vertices
    assert [len(all_tournaments(r)) for r in (1, 2, 3, 4)] == [1, 1, 2, 4]
    labeled = all_tournaments(3, up_to_iso=False)
    assert len(labeled) == 8


def test_canonical_key_iso_invariance():
    t = Tournament.transitive(4)
    # relabel by a permutation and compare canonical keys
    perm = (2, 0, 3, 1)
    rows = [0] * 4
    for u in range(4):
        for v in range(4):
            if u != v and t.arc(u, v):
                rows[perm[u]] |= 1 << perm[v]
    relabeled = Digraph(4, rows)
    assert canonical_tournament_key(t) == canonical_tournament_key(relabeled)
    assert canonical_tournament_key(t) != canonical_tournament_key(
        Tournament.cyclic_triangle()
    )


def brute_spans(g, xs, pattern):
    r = pattern.n
    for perm in itertools.permutations(xs):
        if all(
            g.arc(perm[a], perm[b])
            for a in range(r)
            for b in range(r)
            if a != b and pattern.arc(a, b)
        ):
            return True
    return False


@given(digraphs, st.integers(min_value=0, max_value=7))
@settings(max_examples=80, deadline=None)
def test_spans_copy_matches_brute_force(g, pick):
    xs = tuple(sorted({(pick + i * 2) % g.n for i in range(3)}))
    if len(xs) != 3:
        return
    for pattern in all_tournaments(3):
        emb = spans_copy(g, xs, pattern)
        assert (emb is not None) == brute_spans(g, xs, pattern)
        if emb is not None:
            assert tuple(sorted(emb.image)) == xs
            for a in range(3):
                for b in range(3):
                    if a != b and pattern.arc(a, b):
                        assert g.arc(emb.image[a], emb.image[b])


def reference_spans_copy(g, x, pattern):
    """The recursive spans_copy that core replaced, kept as the reference:
    degree-prefiltered candidate lists, then a lowest-first search in
    decreasing (out-degree, in-degree) order, checking arcs with g.arc."""
    xs = sorted(set(x))
    r = pattern.n
    xmask = mask_of(xs)
    p_out = [pattern.d_out(p) for p in range(r)]
    p_in = [pattern.d_in(p) for p in range(r)]
    order = sorted(range(r), key=lambda p: (-p_out[p], -p_in[p], p))
    candidates = []
    for p in order:
        cand = [
            v for v in xs
            if g.d_out_to(v, xmask) >= p_out[p] and g.d_in_from(v, xmask) >= p_in[p]
        ]
        if not cand:
            return None
        candidates.append(cand)
    image = {}
    used = set()

    def place(step):
        if step == r:
            return True
        p = order[step]
        for v in candidates[step]:
            if v in used:
                continue
            if all((not pattern.arc(p, q) or g.arc(v, image[q]))
                   and (not pattern.arc(q, p) or g.arc(image[q], v))
                   for q in order[:step]):
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


def test_spans_copy_matches_the_recursive_reference():
    """Same embedding, not just the same verdict, as the recursive search."""
    rng = random.Random(7)
    spanned = 0
    for n in range(4, 15):
        for density in (0.3, 0.6, 0.85):
            for _ in range(4):
                rows = [sum(1 << v for v in range(n) if v != u and rng.random() < density)
                        for u in range(n)]
                g = Digraph(n, rows)
                for pattern in COPY_PATTERNS:
                    for _ in range(8):
                        x = rng.sample(range(n), pattern.n)
                        want = reference_spans_copy(g, x, pattern)
                        assert spans_copy(g, x, pattern) == want
                        spanned += want is not None
    assert spanned > 5000


def test_spans_copy_rejects_vertices_outside_the_host():
    g = Digraph.complete(5)
    t3 = Tournament.transitive(3)
    for x, bad in (((0, 1, 7), 7), ((0, 1, 5), 5), ((0, 1, -1), -1), ((-3, 9, 2), -3)):
        with pytest.raises(DomainError, match=f"vertex {bad} is outside 0..4"):
            spans_copy(g, x, t3)
    with pytest.raises(DomainError, match="vertex 0 is outside"):
        spans_copy(Digraph.empty(0), (0,), Digraph.complete(1))


def test_spans_copy_monotone_under_arc_addition():
    g = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    t3 = Tournament.transitive(3)
    assert spans_copy(g, (0, 1, 2), t3) is None
    g2 = Digraph.from_arcs(3, [(0, 1), (1, 2), (0, 2)])
    assert spans_copy(g2, (0, 1, 2), t3) is not None


def test_k3_minus_pattern_shape():
    p = k3_minus_pattern()
    assert p.n == 3
    assert p.num_arcs == 5


def test_text_round_trip():
    g = Digraph.from_arcs(4, [(0, 1), (2, 3), (3, 0)])
    text = digraph_to_text(g)
    back = load_digraph_text(text)
    assert back.n == g.n
    assert sorted(back.arcs()) == sorted(g.arcs())
    assert digraph_to_text(back) == text


def test_load_rejects_garbage():
    with pytest.raises(DomainError):
        load_digraph_text("3\n0 0\n")
    with pytest.raises(DomainError):
        load_digraph_text("2\n0 5\n")


def test_load_digraph_text_messages_are_pinned():
    """Each refusal names its line; a text breaking several rules fails on its
    first bad line, and on one line the checks run in the order below."""
    cases = [
        ("", "empty edge-list input"),
        ("# only a comment\n\n", "empty edge-list input"),
        ("three\n0 1\n", "first line must be the vertex count, got 'three'"),
        ("-2\n", "vertex count must be non-negative"),
        ("3\n0 1 2\n", "malformed arc line '0 1 2'"),
        ("3\n0\n", "malformed arc line '0'"),
        ("3\n0 x\n", "non-integer arc line '0 x'"),
        ("3\n1 1\n", "loop line '1 1'"),
        ("3\n7 7\n", "loop line '7 7'"),
        ("3\n0 3\n", "arc line '0 3' out of range for n=3"),
        ("3\n-1 0\n", "arc line '-1 0' out of range for n=3"),
        ("3\n0 1\n1 0\n0 1\n", "duplicate arc line '0 1'"),
        ("3\n0 1\n0 0\n0 1\n", "loop line '0 0'"),
        ("3\n0 1\n0 1\n0 0\n", "duplicate arc line '0 1'"),
        ("3\n0 5\n0 1 2\n", "arc line '0 5' out of range for n=3"),
        # the lines are checked before anything of size n is built
        (f"{2 ** 62}\n0 0\n", "loop line '0 0'"),
    ]
    for text, message in cases:
        with pytest.raises(DomainError) as err:
            load_digraph_text(text)
        assert str(err.value) == message
    assert load_digraph_text("# hosts\n 4 \n\n2 3\n# mid\n3 0\n0 2\n") == Digraph.from_arcs(
        4, [(2, 3), (3, 0), (0, 2)])
    assert load_digraph_text("0\n") == Digraph.empty(0)


def _mutated(text: str, kind: str, pick: int) -> str:
    """text with one mutation of the given kind; pick chooses the line and token."""
    lines = text.splitlines()
    i = pick % len(lines)
    arc = 1 + pick % (len(lines) - 1) if len(lines) > 1 else None
    tokens = lines[i].split()
    t = pick // len(lines) % len(tokens)
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "loop":
        if arc is None:
            lines.append("0 0")
        else:
            v = lines[arc].split()[1]
            lines[arc] = f"{v} {v}"
    elif kind == "bump":
        if arc is None:
            lines.append(f"0 {lines[0]}")
        else:
            u, v = lines[arc].split()
            lines[arc] = f"{lines[0]} {v}" if pick % 2 else f"{u} {lines[0]}"
    elif kind == "third":
        lines[i] += " 0"
    elif kind in ("zero", "plus"):
        tokens[t] = ("0" if kind == "zero" else "+") + tokens[t]
        lines[i] = " ".join(tokens)
    elif kind == "crlf":
        return "\r\n".join(lines) + "\r\n"
    elif kind == "comment":
        lines.insert(i, "# note")
    elif kind == "blank":
        lines.insert(i, "")
    elif kind == "spaces":
        lines[i] += "  "
    elif kind == "no-final-newline":
        return "\n".join(lines)
    elif kind == "unicode-digit":  # the same digit in Arabic-Indic, which int() reads
        d = pick % len(tokens[t])
        tokens[t] = tokens[t][:d] + chr(0x660 + int(tokens[t][d])) + tokens[t][d + 1:]
        lines[i] = " ".join(tokens)
    elif kind == "separator":  # str.split() splits on both, bytes.split() on the tab alone
        sep = "\t" if pick % 2 else "\x1c"
        lines[i] = lines[i].replace(" ", sep) if i else sep + lines[i]
    return "\n".join(lines) + "\n"


def _rows(g: Digraph) -> tuple:
    """Everything a parse builds: Digraph.__eq__ compares only n and the out-rows."""
    return g.n, g._out, g._in, g.num_arcs


def _outcome(parse, text: str):
    try:
        return _rows(parse(text))
    except DomainError as err:
        return str(err)


MUTATIONS = ("drop", "duplicate", "loop", "bump", "third", "zero", "plus", "crlf",
             "comment", "blank", "spaces", "no-final-newline", "unicode-digit", "separator")


@given(st.integers(min_value=0, max_value=12).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n * (n - 1))) - 1))),
       st.sampled_from(MUTATIONS), st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=400, deadline=None)
def test_bulk_and_checked_routes_agree(host, kind, pick):
    """digraph_to_text output with at least n arc tokens is read in bulk;
    after one mutation the bulk route gives the same digraph as the checked
    loop, or the same refusal.  A non-ASCII digit or another separator is
    read by the checked loop alone: the shape check, not the tokenizer,
    keeps it from the bulk route."""
    g = random_digraph(host[1], host[0])
    text = digraph_to_text(g)
    bulk = _load_canonical(text)
    if bulk is None:
        assert 2 * g.num_arcs < g.n
    else:
        assert _rows(bulk) == _rows(g)
    bad = _mutated(text, kind, pick)
    assert _outcome(load_digraph_text, bad) == _outcome(_load_checked, bad)
    if kind in ("unicode-digit", "separator"):
        assert _load_canonical(bad) is None
    if kind == "unicode-digit":
        assert _outcome(load_digraph_text, bad) == _rows(g)


def test_bulk_route_builds_nothing_of_size_n_before_the_arcs_pass():
    """Canonical texts with a huge count fail on their bad line at once, and a
    count line longer than int() reads is refused as the checked loop refuses it."""
    for text, message in [
        (f"{2 ** 62}\n1 0\n1 0\n", "duplicate arc line '1 0'"),
        (f"{2 ** 62}\n3 0\n0 3\n0 3\n", "duplicate arc line '0 3'"),
        (f"{2 ** 62}\n1 2\n5 5\n", "loop line '5 5'"),
    ]:
        with pytest.raises(DomainError) as err:
            load_digraph_text(text)
        assert str(err.value) == message
    long_count = "9" * 5000 + "\n"
    assert _outcome(load_digraph_text, long_count).startswith("first line must be the vertex count")
    # tokens that pair up across lines must not be read as arcs
    for text in (long_count, "3\n0 1 2\n1\n", "3\n0\n1 2\n", "3 0\n1\n2 0\n", "3\n0  1\n"):
        assert _outcome(load_digraph_text, text) == _outcome(_load_checked, text)


def test_load_digraph_drops_a_byte_order_mark(tmp_path):
    """A host file saved with a UTF-8 byte-order mark reads as the same host;
    the mark once reached the count line and was refused there."""
    g = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    path = tmp_path / "bom.edges"
    path.write_bytes(b"\xef\xbb\xbf" + digraph_to_text(g).encode())
    assert _rows(load_digraph(str(path))) == _rows(g)
    assert parse_tournament_name(f"tour:{path}") == Tournament.cyclic_triangle()


def test_parse_tournament_name():
    assert parse_tournament_name("t4").n == 4
    assert parse_tournament_name("c3") == Tournament.cyclic_triangle()
    with pytest.raises(DomainError):
        parse_tournament_name("q7")


def test_at_least_float_guard():
    # threshold comparisons tolerate float noise just below the bound
    assert at_least(6, 6.000000000001)
    assert not at_least(5, 6.0)


def test_graph_counting_helpers():
    gr = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert gr.edges_inside(0b0111) == 2
    assert gr.edges_between(0b0011, 0b1100) == 2
    with pytest.raises(DomainError):
        gr.edges_between(0b0011, 0b0110)


def _random_rows(rng, n):
    p = rng.random()
    return [sum(1 << v for v in range(n) if v != u and rng.random() < p) for u in range(n)]


def test_underlying_and_double_edge_rows_match_the_per_arc_reference():
    rng = random.Random(1919)
    for _ in range(300):
        n = rng.randint(0, 14)
        rows = _random_rows(rng, n)
        cols = _transpose_per_arc(n, rows)
        g = Digraph(n, rows)
        assert list(g.underlying()._out) == [row | col for row, col in zip(rows, cols)]
        assert list(g.double_edge_graph()._out) == [row & col for row, col in zip(rows, cols)]


def test_every_graph_is_a_symmetric_digraph():
    rng = random.Random(1920)
    for _ in range(200):
        n = rng.randint(0, 14)
        g = Digraph(n, _random_rows(rng, n))
        edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        for gr in (g.underlying(), g.double_edge_graph(), Graph.from_edges(n, edges),
                   Graph.complete(n), Graph(n, list(g.underlying()._out))):
            assert type(gr) is Graph and isinstance(gr, Digraph)
            assert gr._in == gr._out
            assert gr.num_edges * 2 == gr.num_arcs == sum(map(gr.degree, range(n)))


def test_graph_refuses_asymmetric_rows_with_the_pinned_message():
    with pytest.raises(DomainError, match=r"^asymmetric adjacency between 1 and 0$"):
        Graph(3, [0b010, 0, 0])
    with pytest.raises(DomainError, match=r"^asymmetric adjacency between 2 and 1$"):
        Graph(3, [0b010, 0b101, 0b001])
    for n, rows in ((2, [0b001, 0b000]), (2, [0b100, 0b000]), (3, [0, 0])):
        with pytest.raises(DomainError):
            Graph(n, rows)


def test_a_graph_equals_the_digraph_with_the_same_rows():
    """A Graph is the digraph with both arcs of each edge, so it compares and
    hashes equal to that Digraph."""
    gr = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    d = Digraph.from_arcs(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)])
    assert gr == d and d == gr and hash(gr) == hash(d) and len({gr, d}) == 1
    assert Graph.complete(5) == Digraph.complete(5)
    assert gr != Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3)])
