import itertools
import math
import random

import pytest

from tpack.core import Digraph, DomainError, Tournament, mask_of, spans_copy
from tpack.absorbing import (
    AbsorberFamily,
    AssignmentFailed,
    FamilyEmpty,
    absorb,
    build_absorbing_family,
    count_connectors,
    count_connectors_2c3,
    estimate_connector_density,
    is_absorbing,
    spans_two_cycles,
)
from tpack import absorbing
from tpack.constructions import make_near_independent_extremal
from tpack.solver import normalize_patterns


def two_triangles():
    g = Digraph.empty(6)
    rows = [0] * 6
    for a, b in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]:
        rows[a] |= 1 << b
    return Digraph(6, rows)


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


def test_connector_density_estimate():
    g = Digraph.complete(9)
    t = Tournament.transitive(3)
    assert estimate_connector_density(g, t, 0, 1, trials=50, seed=7) == 1.0
    assert estimate_connector_density(g, t, 0, 1, trials=0, seed=7) == 0.0
    with pytest.raises(DomainError):
        estimate_connector_density(g, t, 3, 3, trials=10, seed=7)


def test_spans_two_cycles():
    assert spans_two_cycles(Digraph.complete(6), range(6))
    g = two_triangles()
    assert spans_two_cycles(g, (0, 1, 2, 3, 4, 5))
    rows = [g.out_mask(v) for v in range(6)]
    rows[2] &= ~1  # break the first cycle
    assert not spans_two_cycles(Digraph(6, rows), range(6))
    with pytest.raises(DomainError):
        spans_two_cycles(g, (0, 1, 2))


def ten_split_two_cycles(g, six):
    """Reference: try the ten splits of the 6-set into triples containing
    its lowest vertex and the rest."""
    vs = sorted(six)
    c3 = Tournament.cyclic_triangle()
    for a in itertools.combinations(vs[1:], 2):
        b = [v for v in vs[1:] if v not in a]
        if spans_copy(g, (vs[0], *a), c3) and spans_copy(g, b, c3):
            return True
    return False


def test_spans_two_cycles_matches_the_ten_splits():
    rng = random.Random(23)
    hits = 0
    for trial in range(300):
        n = rng.randint(6, 12)
        density = (0.35, 0.5, 0.7)[trial % 3]
        g = Digraph(n, [sum(1 << v for v in range(n) if v != u and rng.random() < density)
                        for u in range(n)])
        for _ in range(5):
            six = rng.sample(range(n), 6)
            want = ten_split_two_cycles(g, six)
            assert spans_two_cycles(g, six) == want
            hits += want
    assert 100 < hits < 1400
    for bad in ((0, 1, 2, 3, 4, 6), (-1, 0, 1, 2, 3, 4)):
        with pytest.raises(DomainError, match="outside 0..5"):
            spans_two_cycles(Digraph.complete(6), bad)


def test_count_connectors_2c3():
    g = Digraph.complete(9)
    assert count_connectors_2c3(g, 0, 1) == math.comb(7, 5)
    with pytest.raises(DomainError):
        count_connectors_2c3(Digraph.complete(6), 0, 1)
    with pytest.raises(DomainError):
        count_connectors_2c3(g, 1, 1)


def five_set_connectors_2c3(g, x, y, cap=None):
    """Reference: scan every 5-set outside x and y for one that completes
    both endpoints to two disjoint cyclic triangles."""
    others = [v for v in range(g.n) if v not in (x, y)]
    count = 0
    for combo in itertools.combinations(others, 5):
        if spans_two_cycles(g, combo + (x,)) and spans_two_cycles(g, combo + (y,)):
            count += 1
            if cap is not None and count >= cap:
                return count
    return count


def test_count_connectors_2c3_matches_the_five_set_scan():
    rng = random.Random(31)
    nonzero = capped = 0
    for trial in range(150):
        n = rng.randint(7, 14)
        density = (0.5, 0.7, 0.85)[trial % 3]
        g = Digraph(n, [sum(1 << v for v in range(n) if v != u and rng.random() < density)
                        for u in range(n)])
        x, y = rng.sample(range(n), 2)
        cap = rng.choice((None, None, 1, 3, 20))
        want = five_set_connectors_2c3(g, x, y, cap)
        got = count_connectors_2c3(g, x, y)
        assert (got if cap is None else min(got, cap)) == want
        nonzero += want > 0
        capped += cap is not None and want == cap
    assert nonzero > 50 and capped > 10


def test_connector_counts_reject_bad_caps_and_endpoints():
    g = Digraph.complete(8)
    t = Tournament.transitive(3)
    for cap in (0, -2):
        with pytest.raises(DomainError, match="cap"):
            count_connectors(g, t, 0, 1, cap=cap)
    for host in (g, Digraph.empty(8)):
        for x, y in ((0, 8), (8, 0), (-1, 2), (2, -1)):
            with pytest.raises(DomainError):
                count_connectors_2c3(host, x, y)


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
        hits={},
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
        hits={},
    )
    assert family.m_vertices == (0, 1, 2, 3, 4, 5)
    assert family.is_disjoint()
    clash = AbsorberFamily(
        n=12,
        pattern_order=3,
        absorbers=((0, 1, 2), (2, 3, 4)),
        absorber_size=3,
        hits={},
    )
    assert not clash.is_disjoint()
