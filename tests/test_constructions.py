import hashlib
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from tpack.core import (
    Digraph,
    DomainError,
    Tournament,
    bits,
    ceil_frac,
    digraph_to_text,
    load_digraph_text,
    _load_canonical,
    min_semidegree,
    spans_copy,
    total_min_degree,
)
from tpack.constructions import (
    _candidates,
    _lane_masks,
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


def _generator_cases(kind, orders=(*range(1, 13), 30, 45), seeds=range(20)):
    """(n, t, seed) over small orders and the sweep sizes 30 and 45, with t at
    0, n//2, n-1 and the thresholds (None is out-or-in's default ceil(2n/3))."""
    for n in orders:
        if kind == "semi":
            ts, top = {0, n // 2, ceil_frac(2 * n, 3), n - 1}, n - 1
        elif kind == "outin":
            ts, top = {0, n // 2, None, n - 1}, n - 1
        else:
            ts = {0, n // 2, n - 1, ceil_frac(3 * n - 3, 2), ceil_frac(5 * n - 3, 3), 2 * (n - 1)}
            top = 2 * (n - 1)
        for t in sorted(ts, key=lambda x: -1 if x is None else x):
            if 0 <= (ceil_frac(2 * n, 3) if t is None else t) <= top:
                for seed in seeds:
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
    """load_digraph_text builds the rows and their transpose itself; on every
    pinned generator text it must give the out-rows, in-rows and arc count
    from_arcs gives (arc lines reversed on odd seeds).  Each text is
    canonical, so the bulk route reads every one with at least n arc tokens."""
    for n, t, seed in _generator_cases(kind):
        lines = digraph_to_text(_GENERATORS[kind](n, t, seed)).splitlines()
        if seed % 2:
            lines[1:] = lines[:0:-1]
        text = "\n".join(lines) + "\n"
        arcs = [tuple(map(int, ln.split())) for ln in lines[1:]]
        ref = Digraph.from_arcs(n, arcs)
        g = load_digraph_text(text)
        assert (g.n, g._out, g._in, g.num_arcs) == (n, ref._out, ref._in, len(arcs))
        bulk = _load_canonical(text)
        assert bulk is not None or 2 * len(arcs) < n
        if bulk is not None:
            assert (bulk._out, bulk._in, bulk.num_arcs) == (ref._out, ref._in, len(arcs))


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


# The generators as they were written with one rng.random() per coin and
# rng.choice plus list.remove per drawn vertex; the bulk draw must give the
# same hosts.
def _reference_base(n, rng):
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


def _reference_add_arcs(own, other, v, k, rng):
    if k <= 0:
        return
    n = len(own)
    options = list(bits(((1 << n) - 1) & ~(own[v] | 1 << v)))
    for _ in range(k):
        u = rng.choice(options)
        options.remove(u)
        own[v] |= 1 << u
        other[u] |= 1 << v


def _reference_semi(n, dmin, seed):
    rng = random.Random(seed)
    rows, cols = _reference_base(n, rng)
    for v in range(n):
        _reference_add_arcs(rows, cols, v, dmin - rows[v].bit_count(), rng)
    for v in range(n):
        _reference_add_arcs(cols, rows, v, dmin - cols[v].bit_count(), rng)
    return rows, cols


def _reference_outin(n, t, seed):
    if t is None:
        t = ceil_frac(2 * n, 3)
    rng = random.Random(seed)
    rows, cols = _reference_base(n, rng)
    for v in range(n):
        dout, din = rows[v].bit_count(), cols[v].bit_count()
        if dout >= din:
            _reference_add_arcs(rows, cols, v, t - dout, rng)
        else:
            _reference_add_arcs(cols, rows, v, t - din, rng)
    return rows, cols


def _reference_total(n, t, seed):
    rng = random.Random(seed)
    rows, cols = _reference_base(n, rng)
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
    return rows, cols


_REFERENCES = {"semi": _reference_semi, "outin": _reference_outin, "total": _reference_total}


def _assert_matches_reference(kind, n, t, seed):
    g = _GENERATORS[kind](n, t, seed)
    rows, cols = _REFERENCES[kind](n, t, seed)
    assert (list(g._out), list(g._in)) == (rows, cols), (kind, n, t, seed)


@pytest.mark.parametrize("kind", sorted(_GENERATORS))
def test_generators_match_per_call_reference(kind):
    """Same out-rows and in-rows as one rng call per coin and per draw, on the
    pinned cases, on every order 13..49 and on an n = 300 host, whose
    n(n-1) coins take three getrandbits chunks."""
    for n, t, seed in _generator_cases(kind):
        _assert_matches_reference(kind, n, t, seed)
    for n, t, seed in _generator_cases(kind, orders=range(13, 50), seeds=range(3)):
        _assert_matches_reference(kind, n, t, seed)
    _assert_matches_reference(kind, 300, 200 if kind != "total" else 400, 5)


def test_cpython_stream_contract():
    """The bulk draws rely on CPython's Mersenne Twister contract: random()
    is ((a >> 5) * 2^26 + (b >> 6)) / 2^53 for its next two 32-bit words a,
    b; getrandbits(32k) packs the next k words, first word lowest; choice(seq)
    is seq[i] for the first getrandbits(len(seq).bit_length()) draw below
    len(seq)."""
    contract = "CPython's random()/getrandbits()/choice() stream contract changed"
    for s in range(1000):
        w = random.Random(s).getrandbits(64)
        rebuilt = ((w & 0xFFFFFFFF) >> 5 << 26 | w >> 38) / (1 << 53)
        assert random.Random(s).random() == rebuilt, contract
        a, b = random.Random(s), random.Random(s)
        assert a.getrandbits(192) == sum(b.getrandbits(32) << 32 * i for i in range(6)), contract
    for m in range(1, 65):
        items = list(range(100, 100 + m))
        a, b = random.Random(m), random.Random(m)
        getrandbits = b.getrandbits
        width = m.bit_length()
        for _ in range(20):
            i = getrandbits(width)
            while i >= m:
                i = getrandbits(width)
            assert a.choice(items) == items[i], contract


def test_large_generators_bounded_memory():
    """n(n-1) coins are drawn in chunks of 2^15, so an n = 600 host peaks
    at a few MB of traced allocation (one draw of all 359,400 coins peaked at
    about 20 MB)."""
    for kind, n, t in (("outin", 600, None), ("semi", 600, 400)):
        tracemalloc.start()
        try:
            g = _GENERATORS[kind](n, t, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, (kind, peak)
        assert (list(g._out), list(g._in)) == _REFERENCES[kind](n, t, 3)


def test_candidate_lists_are_the_ascending_set_bits():
    """_candidates reads the mask's binary digits; it must list what bits()
    yields, on every 10-bit mask and on random masks of mixed density."""
    for missed in range(1 << 10):
        assert _candidates(missed, 10) == list(bits(missed)), missed
    rng = random.Random(0)
    for n in (64, 300, 1000):
        full = (1 << n) - 1
        for i in range(2000):
            missed = full
            for _ in range(i % 4 + 1):
                missed &= rng.getrandbits(n)
            assert _candidates(missed, n) == list(bits(missed)), (n, missed)
        assert _candidates(0, n) == []
        assert _candidates(full, n) == list(range(n))


def test_lane_mask_cache_stays_bounded():
    """A sweep at one order builds its lane masks once, and hosts at many
    orders keep at most maxsize entries."""
    _lane_masks.cache_clear()
    for n in range(3, 23):
        for seed in range(3):
            random_digraph_out_or_in(n, seed)
    info = _lane_masks.cache_info()
    assert (info.misses, info.hits) == (20, 40)
    assert info.currsize <= info.maxsize == 4
    ones, m27, m26 = _lane_masks(3)
    assert ones == sum(1 << 64 * i for i in range(3))
    assert (m27, m26) == (ones * ((1 << 27) - 1), ones * ((1 << 26) - 1))


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


# above n = 12 containment falls to the seeded swap descent
_PERM15 = (2, 3, 13, 12, 14, 1, 6, 7, 0, 8, 10, 5, 11, 4, 9)


def test_alpha_contains_heuristic_finds_relabelled_blowup():
    g, part = make_c3_blowup(15, 0)
    h = Digraph.from_arcs(15, [(_PERM15[u], _PERM15[v]) for u, v in g.arcs()])
    w = alpha_contains_c3_blowup(h, 0.0)
    assert (w.contains, w.mode, w.deficit) == (True, "heuristic", 0)
    assert w.deficit == blowup_deficit(h, w.partition.masks)
    # the planted classes, relabelled and rotated by one
    assert w.partition.classes == tuple(
        tuple(sorted(_PERM15[v] for v in part.classes[i])) for i in (2, 0, 1))


def test_alpha_contains_heuristic_rejects_far_host():
    t = Tournament.transitive(15)
    w = alpha_contains_c3_blowup(t, 0.01)
    assert (w.contains, w.mode, w.deficit) == (False, "heuristic", 55)
    assert w.deficit == blowup_deficit(t, w.partition.masks)
    assert w.partition.classes == ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10), (0, 11, 12, 13, 14))


# sha256 of (contains, deficit, mode, partition masks), computed while each
# candidate swap still called blowup_deficit from scratch
_PINNED_HEURISTIC = "86c9b6d9e0d3fc4e0bcb22d3c6d71242dbe569a83d416ecb223653e50d824767"


def test_alpha_contains_heuristic_is_pinned():
    # relabelled blow-ups missing about a tenth of their arcs: at alpha = 0
    # and 0.02 every restart runs, at 0.1 the first good descent returns
    rng = random.Random("contains-heuristic")
    digest = hashlib.sha256()
    for n in (15, 18, 21, 24):
        g, _ = make_c3_blowup(n, 0)
        perm = rng.sample(range(n), n)
        h = Digraph.from_arcs(n, [(perm[u], perm[v]) for u, v in g.arcs()
                                  if rng.random() >= 0.1])
        for alpha in (0, 0.02, 0.1):
            w = alpha_contains_c3_blowup(h, alpha)
            assert w.mode == "heuristic" and w.contains == (alpha == 0.1)
            assert w.deficit == blowup_deficit(h, w.partition.masks)
            row = [w.contains, w.deficit, w.mode, list(w.partition.masks)]
            digest.update(json.dumps(row).encode())
    assert digest.hexdigest() == _PINNED_HEURISTIC
