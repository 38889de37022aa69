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
    InvariantViolation,
    Tournament,
    all_tournaments,
    at_least,
    canonical_tournament_key,
    mask_of,
    min_semidegree,
)
from tpack import turan
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


def test_density_clique_search_does_not_recurse_per_vertex():
    # Arcs both ways between the halves, a transitive tournament inside each
    # and the one extra arc n-1 -> n-2: the only doubled pair inside a half is
    # {n-2, n-1}, so the clique search passes over the other 1,098 vertices
    # of the upper half before it finds it.
    n, h = 2200, 1100
    half = [(1 << h) - 1, ((1 << n) - 1) ^ ((1 << h) - 1)]
    rows = [half[u < h] | half[u >= h] >> (u + 1) << (u + 1) for u in range(n)]
    rows[n - 1] |= 1 << (n - 2)
    g = Digraph(n, rows)
    assert density_precondition_holds(g, 3)
    assert find_kr_from_density(g, 3) == (0, n - 2, n - 1)


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


def test_independent_or_copy_a_only_clique_branch(monkeypatch):
    # the branch runs when no arc leads from an a-candidate to a
    # b-candidate; it closes a copy on a doubled r-clique among the a-only
    # candidates, and otherwise the common candidates are the answer
    cliques = []

    def recorded(graph, size, cand_mask=None, _real=turan._find_clique):
        found = _real(graph, size, cand_mask)
        if cand_mask is not None:
            cliques.append(found)
        return found

    monkeypatch.setattr(turan, "_find_clique", recorded)

    def check(g, pattern, alpha):
        res = independent_or_copy(g, pattern, alpha)
        if res.embedding is not None:
            assert res.embedding.is_valid(g)
        else:
            assert g.arcs_inside(mask_of(res.independent)) == 0
            assert len(res.independent) >= res.bound - (pattern.n - 2) - FLOAT_SLACK
        return res

    # every 4-vertex host of min semidegree 2, at alpha 0: the branch runs
    # on nine of them and finds no clique, so each gives an independent set
    pairs = list(itertools.permutations(range(4), 2))
    reached = 0
    for pattern in all_tournaments(3):
        for arcs in range(1 << len(pairs)):
            g = Digraph.from_arcs(4, [e for i, e in enumerate(pairs) if arcs >> i & 1])
            if min_semidegree(g) >= 2:
                before = len(cliques)
                res = check(g, pattern, 0.0)
                if len(cliques) > before:
                    reached += 1
                    assert res.kind == "independent"
    assert reached == 9 and cliques == [None] * 9

    # the cyclic triangle's third vertex goes to 0, whose out-neighbours
    # 1..8 (a doubled clique) send no arc to its in-neighbours 9..16; the
    # a-only clique closes the copy
    n, a, b = 18, mask_of(range(1, 9)), mask_of(range(9, 17))
    rows = [a] + [(a | 1 << 17) ^ 1 << v for v in range(1, 9)]
    rows += [(1 | a | b | 1 << 17) ^ 1 << v for v in range(9, 17)] + [a | b]
    cliques.clear()
    res = check(Digraph(n, rows), Tournament.cyclic_triangle(), 1 / 18)
    assert cliques == [(1, 2, 3)] and res.embedding.image == (1, 2, 3)


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


def test_consistent_or_independent_outputs_are_pinned():
    """Copies, independent sets, bounds and chain states on seeded hosts
    whose vertices lean out-heavy, in-heavy or neither, each at an alpha
    that meets the out-or-in precondition; a chain with no common
    neighbour left is recorded as refused.  The sha256 was computed while
    the chain step still re-tested the degree bound of each candidate."""
    rng = random.Random(37)
    out = []
    for _ in range(600):
        n, r = rng.randint(4, 14), rng.randint(3, 6)
        lean = [rng.choice((0.2, 0.5, 0.8)) for _ in range(n)]
        p = rng.choice((0.3, 0.5, 0.7, 0.9))
        rows = [0] * n
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < min(1.0, p * 2 * lean[u] * (1 - lean[v]) + p * 0.5):
                    rows[u] |= 1 << v
        g = Digraph(n, rows)
        best = min(max(g.d_out(v), g.d_in(v)) for v in range(n))
        alpha = max(0.0, 1 - 1 / (r - 1) - best / n) + rng.choice((0.0, 0.01, 0.1))
        try:
            res = consistent_or_independent(g, r, alpha)
        except InvariantViolation as exc:
            out.append(["violation", str(exc)])
            continue
        out.append([res.kind, res.embedding and res.embedding.image, res.independent,
                    res.bound, [[s.vertices, s.turning] for s in res.states]])
    assert sorted(Counter(row[0] for row in out).items()) == [
        ("copy", 324), ("independent", 188), ("violation", 88)]
    turnings = Counter(s[1] for row in out if row[0] != "violation" for s in row[4])
    assert turnings[0] and turnings[1]
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == (
        "812c005a5974dcad84ceb8b56604055e10d3df54271779e4a8fb71dbb28eeceb")
