import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

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
    digraph_to_text,
    iter_copies,
    k3_minus_pattern,
    load_digraph_text,
    mask_of,
    min_semidegree,
    parse_tournament_name,
    spans_copy,
    total_min_degree,
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
