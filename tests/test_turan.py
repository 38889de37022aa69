import hashlib
import itertools
import json
import random
from collections import Counter

from hypothesis import given, settings, strategies as st
import pytest

from tpack.core import (
    Digraph,
    DomainError,
    FLOAT_SLACK,
    Tournament,
    all_tournaments,
    at_least,
    canonical_tournament_key,
    mask_of,
    min_semidegree,
)
from tpack.turan import (
    consistent_or_independent,
    count_copies,
    density_precondition_holds,
    find_kr_from_density,
    independent_or_copy,
)


def random_digraph(n, seed, p=0.5):
    rng = random.Random(seed)
    rows = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                rows[u] |= 1 << v
    return Digraph(n, rows)


def one_way_blowup(k):
    """Three independent classes of size k, every arc one step around."""
    n = 3 * k
    rows = [0] * n
    for i in range(3):
        nxt = mask_of(range(((i + 1) % 3) * k, ((i + 1) % 3) * k + k))
        for v in range(i * k, i * k + k):
            rows[v] = nxt
    return Digraph(n, rows)


def naive_count(g, pattern):
    """Permutation scan, independent of the library's embedding search."""
    total = 0
    for xs in itertools.combinations(range(g.n), pattern.n):
        for perm in itertools.permutations(xs):
            if all(g.arc(perm[u], perm[v]) for u, v in pattern.arcs()):
                total += 1
                break
    return total


@given(st.integers(min_value=0, max_value=800), st.integers(min_value=4, max_value=6))
@settings(max_examples=40, deadline=None)
def test_count_copies_matches_naive(seed, n):
    g = random_digraph(n, seed)
    for pattern in all_tournaments(3):
        assert count_copies(g, pattern) == naive_count(g, pattern)


def test_count_copies_complete():
    g = Digraph.complete(6)
    for pattern in all_tournaments(3):
        assert count_copies(g, pattern) == 20


def test_count_copies_oversized_pattern():
    assert count_copies(Digraph.complete(3), Digraph.complete(4)) == 0


def test_density_holds_on_complete():
    g = Digraph.complete(8)
    assert density_precondition_holds(g, 3)
    clique = find_kr_from_density(g, 3)
    assert len(clique) == 3
    for u, v in itertools.permutations(clique, 2):
        assert g.arc(u, v)


def test_density_threshold_is_strict():
    # n=3, r=2 needs 2e > 6; a tournament has e=3 and no doubled pair
    t = Digraph(3, [0b010, 0b100, 0b001])
    assert not density_precondition_holds(t, 2)
    with pytest.raises(DomainError):
        find_kr_from_density(t, 2)
    # one more arc tips it over and forces a doubled pair
    g = Digraph(3, [0b110, 0b100, 0b001])
    assert density_precondition_holds(g, 2)
    u, v = find_kr_from_density(g, 2)
    assert g.arc(u, v) and g.arc(v, u)


def test_density_fails_on_sparse():
    g = random_digraph(8, 3, p=0.15)
    if not density_precondition_holds(g, 4):
        with pytest.raises(DomainError):
            find_kr_from_density(g, 4)


def test_copy_branch_on_complete_host():
    g = Digraph.complete(9)
    res = independent_or_copy(g, Tournament.transitive(3), 0.1)
    assert res.kind == "copy"
    assert res.embedding.is_valid(g)
    res2 = independent_or_copy(g, Tournament.cyclic_triangle(), 0.1)
    assert res2.kind == "copy"
    assert res2.embedding.is_valid(g)


def test_independent_branch_on_one_way_blowup():
    g = one_way_blowup(3)
    pattern = Tournament.transitive(3)
    res = independent_or_copy(g, pattern, 0.2)
    assert res.kind == "independent"
    assert res.embedding is None
    s = res.independent
    assert g.arcs_inside(mask_of(s)) == 0
    assert len(s) >= res.bound - (pattern.n - 2) - FLOAT_SLACK
    # the same host carries cyclic triangles across the classes
    res2 = independent_or_copy(g, Tournament.cyclic_triangle(), 0.2)
    assert res2.kind == "copy"
    assert res2.embedding.is_valid(g)


def test_independent_or_copy_rejects_sparse_host():
    with pytest.raises(DomainError):
        independent_or_copy(Digraph.empty(6), Tournament.transitive(3), 0.1)


def test_independent_or_copy_random_hosts():
    pattern = Tournament.transitive(3)
    alpha = 0.25
    for seed in range(60):
        g = random_digraph(9, seed, p=0.55)
        if not at_least(min_semidegree(g), (1 - 0.5 - alpha) * g.n):
            with pytest.raises(DomainError):
                independent_or_copy(g, pattern, alpha)
            continue
        res = independent_or_copy(g, pattern, alpha)
        if res.embedding is not None:
            assert res.embedding.is_valid(g)
        else:
            assert g.arcs_inside(mask_of(res.independent)) == 0
        if res.candidates is not None:
            common = set(res.candidates.common)
            assert common <= set(res.candidates.a_set)
            assert common <= set(res.candidates.b_set)


def test_independent_or_copy_outputs_are_pinned():
    """Copies, independent sets, bounds and candidate sets on relabelled
    one-way blow-ups with extra arcs, each at an alpha that meets the
    precondition; the sha256 was computed before the greedy placement of the
    split pattern moved onto row masks."""
    rng = random.Random(31)
    patterns = all_tournaments(3) + all_tournaments(4)
    out = []
    for trial in range(240):
        k = rng.randint(2, 5)
        n = 3 * k
        perm = rng.sample(range(n), n)
        extra = rng.choice((0.0, 0.0, 0.05, 0.2, 0.9))
        rows = [0] * n
        for u in range(n):
            for v in range(n):
                if u != v and (v // k == (u // k + 1) % 3 or rng.random() < extra):
                    rows[perm[u]] |= 1 << perm[v]
        g = Digraph(n, rows)
        pattern = patterns[trial % len(patterns)]
        r = pattern.n
        alpha = max(0.0, 1 - 1 / (r - 1) - min_semidegree(g) / n) + rng.choice((0.0, 0.01, 0.05))
        res = independent_or_copy(g, pattern, alpha)
        out.append([res.kind, res.embedding and res.embedding.image, res.independent,
                    res.bound, res.candidates.a_set, res.candidates.b_set])
    assert sorted(Counter(row[0] for row in out).items()) == [("copy", 115), ("independent", 125)]
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == (
        "b3e959d9a794fa3cbd70b82e7384231887642fa331d68ac1938314853b57c1f3")


def test_consistent_copy_on_complete_host():
    g = Digraph.complete(9)
    res = consistent_or_independent(g, 4, 0.1)
    assert res.kind == "copy"
    assert res.embedding.is_valid(g)
    key = canonical_tournament_key(res.embedding.pattern)
    assert key == canonical_tournament_key(Tournament.transitive(4))


def test_consistent_independent_on_one_way_blowup():
    g = one_way_blowup(3)
    alpha = 0.2
    res = consistent_or_independent(g, 3, alpha)
    assert res.kind == "independent"
    assert g.arcs_inside(mask_of(res.independent)) == 0
    deg_bound = (1 - 0.5 - alpha) * g.n
    assert len(res.states) == 1
    for state in res.states:
        assert state.is_consistent(g, deg_bound)


def test_consistent_rejects_low_degree_host():
    with pytest.raises(DomainError):
        consistent_or_independent(Digraph.empty(6), 3, 0.1)


def test_consistent_random_hosts():
    alpha = 0.25
    for seed in range(60):
        g = random_digraph(9, seed, p=0.55)
        bound = (1 - 0.5 - alpha) * g.n
        if not all(
            at_least(g.d_out(v), bound) or at_least(g.d_in(v), bound)
            for v in range(g.n)
        ):
            with pytest.raises(DomainError):
                consistent_or_independent(g, 3, alpha)
            continue
        res = consistent_or_independent(g, 3, alpha)
        if res.embedding is not None:
            assert res.embedding.is_valid(g)
        else:
            assert g.arcs_inside(mask_of(res.independent)) == 0
        for state in res.states:
            assert state.is_consistent(g, bound)
