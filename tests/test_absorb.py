import itertools
import math
import random
import sys

import pytest

from tpack.core import Digraph, DomainError, Tournament, mask_of
from tpack.absorbing import (
    AbsorberFamily,
    AssignmentFailed,
    FamilyEmpty,
    absorb,
    build_absorbing_family,
    count_connectors,
    is_absorbing,
)
from tpack import absorbing
from tpack.constructions import make_near_independent_extremal
from tpack.solver import normalize_patterns


def test_connector_count_on_complete_host():
    g = Digraph.complete(8)
    for pattern in (Tournament.transitive(3), Tournament.cyclic_triangle()):
        res = count_connectors(g, pattern, 0, 1)
        assert res.count == math.comb(6, 2)
        assert not res.cap_hit
    res4 = count_connectors(g, Tournament.transitive(4), 2, 5)
    assert res4.count == math.comb(6, 3)


def test_connector_cap_and_samples():
    g = Digraph.complete(8)
    res = count_connectors(g, Tournament.transitive(3), 0, 1, cap=5)
    assert res.count == 5 and res.cap_hit
    res2 = count_connectors(g, Tournament.transitive(3), 0, 1, sample_limit=2)
    assert len(res2.samples) == 2 and res2.count == 15
    assert all(len(s) == 2 for s in res2.samples)


def test_connector_endpoint_validation():
    g = Digraph.complete(6)
    t = Tournament.transitive(3)
    with pytest.raises(DomainError):
        count_connectors(g, t, 2, 2)
    with pytest.raises(DomainError):
        count_connectors(g, t, 0, 6)


def test_connectors_through_independent_hole():
    g = make_near_independent_extremal(6, 3)
    # vertices 0..2 span no arcs; each hole pair keeps exactly 3 connectors
    assert g.arcs_inside(0b111) == 0
    t = Tournament.transitive(3)
    for x, y in itertools.combinations(range(3), 2):
        assert count_connectors(g, t, x, y).count == 3


def test_connector_counts_reject_bad_caps_and_endpoints():
    g = Digraph.complete(8)
    t = Tournament.transitive(3)
    for cap in (0, -2):
        with pytest.raises(DomainError, match="cap"):
            count_connectors(g, t, 0, 1, cap=cap)
    for host in (g, Digraph.empty(8)):
        for x, y in ((0, 8), (8, 0), (-1, 2), (2, -1)):
            with pytest.raises(DomainError):
                count_connectors(host, t, x, y)


def test_is_absorbing_basics():
    g = Digraph.complete(9)
    t = Tournament.transitive(3)
    assert is_absorbing(g, t, (0, 1, 2), (3, 4, 5))
    assert not is_absorbing(g, t, (0, 1, 2, 3), (4, 5, 6))  # 4 % 3 != 0
    assert not is_absorbing(Digraph.empty(9), t, (0, 1, 2), (3, 4, 5))
    with pytest.raises(DomainError):
        is_absorbing(g, t, (0, 1, 2), (2, 3, 4))


def test_family_build_and_absorb_round():
    g = Digraph.complete(40)
    t = Tournament.transitive(3)
    family = build_absorbing_family(g, t, xi=0.3, samples=60, seed=1)
    assert family.is_disjoint()
    assert family.m_mask.bit_count() <= int(0.3 * 40)
    assert family.pattern_order == 3
    assert family.absorber_size % 3 == 0

    outside = [v for v in range(40) if not family.m_mask >> v & 1]
    w = tuple(outside[:3])
    packing = absorb(g, t, family, w)
    assert packing.covered_mask == family.m_mask | mask_of(w)
    for e in packing.elements:
        assert e.is_valid(g)


def test_absorb_input_validation():
    g = Digraph.complete(40)
    t = Tournament.transitive(3)
    family = build_absorbing_family(g, t, xi=0.3, samples=60, seed=1)
    inside = family.m_vertices[:3]
    with pytest.raises(DomainError):
        absorb(g, t, family, inside)
    outside = [v for v in range(40) if not family.m_mask >> v & 1]
    with pytest.raises(DomainError):
        absorb(g, t, family, tuple(outside[:4]))


def test_family_empty_on_hostile_host():
    with pytest.raises(FamilyEmpty):
        build_absorbing_family(Digraph.empty(36), Tournament.transitive(3),
                               xi=0.2, samples=5, seed=0)


def test_assignment_failure_surfaces():
    family = AbsorberFamily(
        n=36,
        pattern_order=3,
        absorbers=((0, 1, 2, 3, 4, 5),),
        absorber_size=6,
    )
    with pytest.raises(AssignmentFailed):
        absorb(Digraph.empty(36), Tournament.transitive(3), family, (6, 7, 8))


def test_grouped_assignment_stops_at_budget(monkeypatch):
    tried = []

    def never_absorbing(g, fam, s, q, budget):
        tried.append(s)
        return False

    monkeypatch.setattr(absorbing, "is_absorbing", never_absorbing)
    absorbers = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    chunks = [(9, 10, 11), (12, 13, 14), (15, 16, 17), (18, 19, 20)]
    fam = normalize_patterns(Tournament.transitive(3))
    # 3**4 = 81 groupings exist; each failed one costs a single is_absorbing call
    got = absorbing._grouped_assignment(Digraph.empty(21), fam, absorbers, chunks, budget=5)
    assert got is None
    assert len(tried) == 5


def test_family_mask_bookkeeping():
    family = AbsorberFamily(
        n=12,
        pattern_order=3,
        absorbers=((0, 1, 2), (3, 4, 5)),
        absorber_size=3,
    )
    assert family.m_vertices == (0, 1, 2, 3, 4, 5)
    assert family.is_disjoint()
    clash = AbsorberFamily(
        n=12,
        pattern_order=3,
        absorbers=((0, 1, 2), (2, 3, 4)),
        absorber_size=3,
    )
    assert not clash.is_disjoint()


def _recursive_match(num_left, adj):
    """The recursive augmenting-path matcher _bipartite_match replaced."""
    match_right = {}

    def augment(u, seen):
        for v in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match_right or augment(match_right[v], seen):
                match_right[v] = u
                return True
        return False

    for u in range(num_left):
        if not augment(u, set()):
            return None
    out = [-1] * num_left
    for v, u in match_right.items():
        out[u] = v
    return out


def test_bipartite_match_equals_the_recursive_matcher():
    rng = random.Random("bipartite")
    outcomes = set()
    for _ in range(2000):
        left, right = rng.randint(0, 9), rng.randint(0, 9)
        density = rng.random()
        adj = [rng.sample(range(right), sum(rng.random() < density for _ in range(right)))
               for _ in range(left)]
        got = absorbing._bipartite_match(left, adj)
        assert got == _recursive_match(left, adj)
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_bipartite_match_follows_a_path_longer_than_the_recursion_limit():
    # left i < k takes right i first, so left k, which sees only right 0,
    # must shift every one of them along to right i + 1
    k = 2 * sys.getrecursionlimit()
    adj = [[i, i + 1] for i in range(k)] + [[0]]
    assert absorbing._bipartite_match(k + 1, adj) == list(range(1, k + 1)) + [0]
