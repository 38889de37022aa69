import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from tpack.core import (
    Digraph,
    DomainError,
    Tournament,
    ceil_frac,
    digraph_to_text,
    load_digraph_text,
    min_semidegree,
    spans_copy,
    total_min_degree,
)
from tpack.constructions import (
    alpha_contains_c3_blowup,
    blowup_deficit,
    make_c3_blowup,
    make_k3minus_example,
    make_near_independent_extremal,
    make_near_tournament_extremal,
    make_source_counterexample,
    random_digraph_min_semidegree,
    random_digraph_out_or_in,
    random_digraph_total_min_degree,
    random_tournament,
)


def test_blowup_partition_and_arcs():
    g, part = make_c3_blowup(9, 0)
    assert part.classes == ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    assert part.sizes == (3, 3, 3)
    # inside classes: complete both ways; between consecutive classes: one way
    assert g.arc(0, 1) and g.arc(1, 0)
    assert g.arc(0, 3) and not g.arc(3, 0)
    assert g.arc(3, 6) and not g.arc(6, 3)
    assert g.arc(6, 0) and not g.arc(0, 6)


def test_blowup_shift_degrees():
    for n in (9, 15, 21):
        g, _ = make_c3_blowup(n, 1)
        assert min_semidegree(g) == 2 * n // 3 - 2
    g0, _ = make_c3_blowup(9, 0)
    assert min_semidegree(g0) == 5


def test_blowup_deficit_zero_on_own_partition():
    g, part = make_c3_blowup(12, 1)
    assert blowup_deficit(g, part.masks) == 0


def test_blowup_accepts_uneven_orders_rejects_big_shift():
    g, part = make_c3_blowup(8, 0)  # near-equal classes, no divisibility rule
    assert part.sizes == (2, 3, 3)
    assert g.n == 8
    with pytest.raises(DomainError):
        make_c3_blowup(9, 5)  # shift exceeds the base class


def test_near_independent_degrees_and_hole():
    for n, r in ((6, 3), (9, 3), (8, 4)):
        g = make_near_independent_extremal(n, r)
        assert min_semidegree(g) == n - n // r - 1
        hole = n // r + 1
        for u in range(hole):
            for v in range(hole):
                if u != v:
                    assert not g.arc(u, v)


def test_source_counterexample_shape():
    g = make_source_counterexample(6)
    assert g.d_in(5) == 0 and g.d_out(5) == 5
    assert min(g.d_out(v) for v in range(6)) == 4
    c3 = Tournament.cyclic_triangle()
    # no cyclic triangle can use the source vertex
    for a in range(5):
        for b in range(a + 1, 5):
            assert spans_copy(g, (a, b, 5), c3) is None


def test_k3minus_degrees():
    g = make_k3minus_example(6)
    assert g.n == 15
    assert min_semidegree(g) == 10


def test_near_tournament_total_degree():
    for n, r in ((6, 3), (9, 3), (8, 4)):
        g = make_near_tournament_extremal(n, r)
        assert total_min_degree(g) == 2 * n - n // r - 2


def test_alpha_contains_detects_blowup():
    g, part = make_c3_blowup(9, 0)
    w = alpha_contains_c3_blowup(g, 0.1)
    assert w.contains
    assert w.deficit <= 0.1 * 81
    recovered = blowup_deficit(g, w.partition.masks)
    assert recovered == w.deficit


def test_alpha_contains_rejects_far_host():
    # a transitive tournament is far from any cyclic three-class blow-up
    t = Tournament.transitive(9)
    w = alpha_contains_c3_blowup(t, 0.01)
    assert not w.contains


seeds = st.integers(min_value=0, max_value=10_000)


# n = 30 at the thresholds the sweeps use: ceil(2n/3) for semidegree and
# out-or-in, ceil((3n-3)/2) for C3 and (2-1/r)n - 1 at r = 3 for K3.
@given(seeds)
@settings(max_examples=30, deadline=None)
def test_random_min_semidegree_meets_threshold(seed):
    for n, dmin in ((9, 6), (30, 20)):
        g = random_digraph_min_semidegree(n, dmin, seed)
        assert g.n == n
        assert min_semidegree(g) >= dmin


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_random_out_or_in_meets_threshold(seed):
    for n in (9, 30):
        t = ceil_frac(2 * n, 3)
        g = random_digraph_out_or_in(n, seed, t)
        assert all(g.d_out(v) >= t or g.d_in(v) >= t for v in range(n))


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_random_total_degree_meets_threshold(seed):
    for n, t in ((6, 9), (30, 44), (30, 49)):
        g = random_digraph_total_min_degree(n, t, seed)
        assert total_min_degree(g) >= t


def _generator_cases(kind):
    """(n, t, seed) over small orders and the sweep sizes 30 and 45, with t at
    0, n//2, n-1 and the thresholds (None is out-or-in's default ceil(2n/3))."""
    for n in (*range(1, 13), 30, 45):
        if kind == "semi":
            ts, top = {0, n // 2, ceil_frac(2 * n, 3), n - 1}, n - 1
        elif kind == "outin":
            ts, top = {0, n // 2, None, n - 1}, n - 1
        else:
            ts = {0, n // 2, n - 1, ceil_frac(3 * n - 3, 2), ceil_frac(5 * n - 3, 3), 2 * (n - 1)}
            top = 2 * (n - 1)
        for t in sorted(ts, key=lambda x: -1 if x is None else x):
            if 0 <= (ceil_frac(2 * n, 3) if t is None else t) <= top:
                for seed in range(20):
                    yield n, t, seed


_GENERATORS = {
    "semi": lambda n, t, s: random_digraph_min_semidegree(n, t, s),
    "outin": lambda n, t, s: random_digraph_out_or_in(n, s, t),
    "total": lambda n, t, s: random_digraph_total_min_degree(n, t, s),
}

# sha256 of the concatenated edge lists, so any change to the RNG stream or
# the repair order shows up here even when every sweep tally stays the same.
_PINNED_GENERATORS = {
    "semi": (960, "149607f542a03684383fafc61d05f1afd2cde8317922ed6162ee96017d16d660"),
    "outin": (1020, "c5a13f22ef0dd244cc85590522f25671bdbe96c40cd60b8d9f0ef1e3a53df7f8"),
    "total": (1460, "c13017c9da2639b17bd02ea29e05fbbef4096fc1cfa43a8bdca91ef471455a1d"),
}


@pytest.mark.parametrize("kind", sorted(_PINNED_GENERATORS))
def test_random_generators_are_pinned(kind):
    digest = hashlib.sha256()
    count = 0
    for n, t, seed in _generator_cases(kind):
        digest.update(digraph_to_text(_GENERATORS[kind](n, t, seed)).encode())
        count += 1
    assert (count, digest.hexdigest()) == _PINNED_GENERATORS[kind]


@pytest.mark.parametrize("kind", sorted(_GENERATORS))
def test_parse_matches_from_arcs_on_generator_texts(kind):
    """load_digraph_text builds the rows itself; on every pinned generator
    text it must give the digraph from_arcs gives (arc lines reversed on odd
    seeds)."""
    for n, t, seed in _generator_cases(kind):
        lines = digraph_to_text(_GENERATORS[kind](n, t, seed)).splitlines()
        if seed % 2:
            lines[1:] = lines[:0:-1]
        arcs = [tuple(map(int, ln.split())) for ln in lines[1:]]
        assert load_digraph_text("\n".join(lines)) == Digraph.from_arcs(n, arcs)


@pytest.mark.parametrize("kind", sorted(_GENERATORS))
def test_generator_in_rows_are_the_transpose(kind):
    """The generators hand their own in-rows to the digraph; check them."""
    for n, t, seed in _generator_cases(kind):
        g = _GENERATORS[kind](n, t, seed)
        rows = [g.out_mask(u) for u in range(n)]
        assert [g.in_mask(v) for v in range(n)] == [
            sum(1 << u for u in range(n) if rows[u] >> v & 1) for v in range(n)
        ]
        assert g.num_arcs == sum(row.bit_count() for row in rows)


def test_random_generators_deterministic():
    a = random_digraph_min_semidegree(9, 6, 42)
    b = random_digraph_min_semidegree(9, 6, 42)
    assert sorted(a.arcs()) == sorted(b.arcs())
    c = random_digraph_min_semidegree(9, 6, 43)
    assert sorted(a.arcs()) != sorted(c.arcs())


def test_random_tournament_is_tournament():
    t = random_tournament(5, 7)
    assert isinstance(t, Tournament)
    assert t.num_arcs == 10
    assert sorted(t.arcs()) == sorted(random_tournament(5, 7).arcs())
