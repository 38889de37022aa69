import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tpack.core import (
    Digraph,
    DomainError,
    Embedding,
    Tournament,
    all_tournaments,
    k3_minus_pattern,
    spans_copy,
)
from tpack.solver import (
    BUDGET_EXCEEDED,
    _candidate_embeddings,
    EXHAUSTED_NONE,
    PACKED,
    Packing,
    find_max_packing,
    find_perfect_family_packing,
    find_perfect_packing,
    max_disjoint_sets,
    normalize_patterns,
    verify_packing,
)
from tpack.constructions import make_c3_blowup, make_source_counterexample

T3 = Tournament.transitive(3)
C3 = Tournament.cyclic_triangle()


def test_complete_hosts_pack():
    for n in (3, 6, 9):
        for pat in (T3, C3):
            cert = find_perfect_packing(Digraph.complete(n), pat)
            assert cert.verdict == PACKED
            assert verify_packing(Digraph.complete(n), pat, cert.packing,
                                  require_perfect=True)


def test_empty_host_has_none():
    cert = find_perfect_packing(Digraph.empty(6), T3)
    assert cert.verdict == EXHAUSTED_NONE
    assert cert.packing is None
    assert cert.nodes >= 0


def test_divisibility_rejected():
    with pytest.raises(DomainError):
        find_perfect_packing(Digraph.complete(7), T3)


def test_budget_verdict():
    cert = find_perfect_packing(Digraph.complete(15), C3, budget=3)
    assert cert.verdict == BUDGET_EXCEEDED
    assert cert.packing is None


def test_family_widens_the_search():
    g, _ = make_c3_blowup(9, 1)
    only_c3 = find_perfect_packing(g, C3)
    assert only_c3.verdict == EXHAUSTED_NONE
    both = find_perfect_family_packing(g, [T3, C3])
    assert both.verdict == PACKED
    assert verify_packing(g, [T3, C3], both.packing, require_perfect=True)


def test_source_blocks_c3():
    cert = find_perfect_packing(make_source_counterexample(6), C3)
    assert cert.verdict == EXHAUSTED_NONE


def test_verify_packing_rejections():
    g = Digraph.complete(6)
    cert = find_perfect_packing(g, T3)
    packing = cert.packing
    # pattern not in the family
    assert not verify_packing(g, C3, packing)
    # overlapping elements cannot even be constructed
    e = packing.elements[0]
    with pytest.raises(DomainError):
        Packing(6, (e, e)).covered_mask
    # non-perfect packing fails only the perfect check
    partial = Packing(6, (e,))
    assert verify_packing(g, T3, partial)
    assert not verify_packing(g, T3, partial, require_perfect=True)
    # image arcs must exist in the host
    sparse = Digraph.from_arcs(6, [(0, 1)])
    assert not verify_packing(sparse, T3, partial)


def test_normalize_patterns_dedups():
    fam = normalize_patterns([T3, T3, C3])
    assert len(fam) == 2
    with pytest.raises(DomainError):
        normalize_patterns([])
    with pytest.raises(DomainError):
        normalize_patterns([T3, Tournament.transitive(4)])


def brute_max_triples(g, family):
    """Maximum number of disjoint pattern-spanning triples, by recursion."""
    spanning = [
        t for t in itertools.combinations(range(g.n), 3)
        if any(spans_copy(g, t, p) is not None for p in family)
    ]

    def best(avail, start):
        top = 0
        for i in range(start, len(spanning)):
            t = spanning[i]
            m = sum(1 << v for v in t)
            if m & avail == m:
                top = max(top, 1 + best(avail & ~m, i + 1))
        return top

    return best((1 << g.n) - 1, 0)


def random_digraph(n, seed, density=0.55):
    import random

    rng = random.Random(seed)
    rows = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                rows[u] |= 1 << v
    return Digraph(n, rows)


def reference_candidates(g, fam):
    """Every r-set in combination order, embedded by the first family pattern spanning it."""
    masks, emb = [], {}
    for combo in itertools.combinations(range(g.n), fam[0].n):
        for pat in fam:
            found = spans_copy(g, combo, pat)
            if found is not None:
                masks.append(found.vertex_mask)
                emb[found.vertex_mask] = found
                break
    return masks, emb


ORACLE_FAMILIES = (
    [[t] for t in all_tournaments(3) + all_tournaments(4)]
    + [[Digraph.complete(3)], [k3_minus_pattern()], [T3, C3]]
)


@pytest.mark.parametrize("family", ORACLE_FAMILIES)
def test_candidate_embeddings_match_the_combination_loop(family):
    fam = normalize_patterns(family)
    hosts = [random_digraph(n, 100 * n + i, density)
             for n in range(5, 13) for i, density in enumerate((0.3, 0.6, 0.85))]
    hosts += [Digraph.complete(fam[0].n - 1), Digraph.empty(0), Digraph.empty(8)]
    for g in hosts:
        want_masks, want_emb = reference_candidates(g, fam)
        masks, embed = _candidate_embeddings(g, fam)
        assert masks == want_masks
        assert all(embed(m) == want_emb[m] for m in masks)


@given(st.integers(min_value=4, max_value=7), st.integers(min_value=0, max_value=500))
@settings(max_examples=60, deadline=None)
def test_max_packing_matches_brute_force(n, seed):
    g = random_digraph(n, seed)
    fam = [T3, C3]
    res = find_max_packing(g, fam)
    assert res.exact
    assert verify_packing(g, fam, res.packing)
    assert len(res.packing.elements) == brute_max_triples(g, fam)


def test_max_disjoint_sets_exact_flag():
    masks = [0b0011, 0b1100, 0b0110]
    got, complete = max_disjoint_sets(4, masks, budget=10**6)
    assert complete
    assert len(got) == 2


def test_packing_uncovered():
    g = Digraph.complete(6)
    e = find_perfect_packing(g, T3).packing.elements[0]
    p = Packing(6, (e,))
    assert set(p.uncovered()) == set(range(6)) - set(e.image)
    assert not p.is_perfect
