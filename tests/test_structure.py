import hashlib
import itertools
import json
import random

import pytest

from tpack.core import Digraph, DomainError, Graph, InvariantViolation, Tournament
from tpack.constructions import make_c3_blowup, make_near_independent_extremal
from tpack.solver import find_perfect_packing, verify_packing
from tpack.structure import (
    ClosePartition,
    PerfectMatching,
    StageFailed,
    classify_vertices,
    d_matching_covering,
    d_matching_covering_digraph,
    extremal_c3_pack,
    matching_or_certificate,
    matching_or_certificate_digraph,
    validate_match_certificate,
)


def covered(matching):
    out = set()
    for u, v in matching:
        out.update((u, v))
    return out


def test_dmatch_complete_and_star():
    m = d_matching_covering(Graph.complete(6), 3, [0, 2, 4])
    assert len(m) == 3 and {0, 2, 4} <= covered(m)

    star = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
    m = d_matching_covering(star, 1, [0])
    assert len(m) == 1 and 0 in covered(m)


def test_dmatch_forced_swap():
    # greedy grabs (0,1),(2,3) first and must trade both away to reach {4,5}
    g = Graph.from_edges(6, [(0, 1), (2, 3), (0, 4), (1, 5), (2, 4), (3, 5)])
    assert g.min_degree() == 2
    m = d_matching_covering(g, 2, [4, 5])
    assert len(m) == 2 and {4, 5} <= covered(m)


def test_dmatch_size_mismatch():
    with pytest.raises(DomainError):
        d_matching_covering(Graph.complete(6), 2, [0])


def test_dmatch_exhaustive_oracle():
    rng = random.Random(7)
    checked = 0
    for _ in range(150):
        n = rng.choice([4, 5, 6, 7, 8])
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.55]
        g = Graph.from_edges(n, edges)
        d = rng.randint(0, n // 2)
        if g.min_degree() < d:
            continue
        verts = list(range(n))
        rng.shuffle(verts)
        xs = verts[:d]

        exists = False
        for combo in itertools.combinations(list(g.edges()), d):
            used = set()
            fine = True
            for u, v in combo:
                if u in used or v in used:
                    fine = False
                    break
                used.update((u, v))
            if fine and set(xs) <= used:
                exists = True
                break

        m = d_matching_covering(g, d, xs)
        cov = set()
        for u, v in m:
            assert g.has_edge(u, v)
            assert not cov & {u, v}
            cov.update((u, v))
        assert set(xs) <= cov
        assert exists
        checked += 1
    assert checked > 40


def test_dmatch_digraph_variant():
    d6 = Digraph.from_arcs(6, [(u, v) for u, v in itertools.combinations(range(6), 2)])
    m = d_matching_covering_digraph(d6, 3, [1, 3, 5])
    assert len(m) == 3
    assert all(d6.arc(u, v) or d6.arc(v, u) for u, v in m)


def test_matching_on_complete_and_bipartite():
    for g in (Graph.complete(6),
              Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])):
        cert = matching_or_certificate(g, 0.0)
        assert isinstance(cert, PerfectMatching)
        validate_match_certificate(g, cert)


def test_two_triangles_close_partition():
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    cert = matching_or_certificate(g, 1 / 6)
    assert isinstance(cert, ClosePartition)
    assert cert.cross_count == 0
    assert {frozenset(cert.a), frozenset(cert.b)} == {
        frozenset({0, 1, 2}), frozenset({3, 4, 5})}
    validate_match_certificate(g, cert)


def test_digraph_liftings():
    def lift(gph):
        return Digraph.from_arcs(gph.n, list(gph.edges()))

    k6d = lift(Graph.complete(6))
    cert = matching_or_certificate_digraph(k6d, 0.5)
    assert isinstance(cert, PerfectMatching)
    validate_match_certificate(k6d, cert)

    two_tri = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    lifted = lift(two_tri)
    cert = matching_or_certificate_digraph(lifted, 1 / 3)
    validate_match_certificate(lifted, cert)


def test_k33_minus_matching():
    g = Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6) if j - 3 != i])
    cert = matching_or_certificate(g, 1 / 6)
    validate_match_certificate(g, cert)


def test_random_certificate_sweep():
    rng = random.Random(7)
    made = {"PerfectMatching": 0, "IndependentSetCertificate": 0, "ClosePartition": 0}
    for _ in range(250):
        n = rng.choice([4, 6, 8, 10])
        gamma = rng.choice([0.0, 0.1, 1 / 6, 0.25])
        need = (0.5 - gamma) * n
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        if g.min_degree() + 1e-9 < need:
            continue
        cert = matching_or_certificate(g, gamma)
        validate_match_certificate(g, cert)
        made[type(cert).__name__] += 1
    assert made["PerfectMatching"] > 0


def test_random_digraph_certificate_sweep():
    rng = random.Random(9)
    for _ in range(150):
        n = rng.choice([4, 6, 8])
        gamma = rng.choice([0.1, 0.25, 0.4])
        need = (0.5 - gamma) * n
        arcs = [(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < 0.5]
        g = Digraph.from_arcs(n, arcs)
        if not all(g.d_out(v) + 1e-9 >= need or g.d_in(v) + 1e-9 >= need
                   for v in range(n)):
            continue
        cert = matching_or_certificate_digraph(g, gamma)
        validate_match_certificate(g, cert)


def test_validator_rejects_bad_certificates():
    g = Graph.complete(6)
    with pytest.raises(InvariantViolation):
        validate_match_certificate(g, PerfectMatching(edges=((0, 1), (2, 3))))
    with pytest.raises(InvariantViolation):
        validate_match_certificate(g, PerfectMatching(edges=((0, 1), (1, 2), (4, 5))))
    sparse = Graph.from_edges(4, [(0, 1)])
    with pytest.raises(InvariantViolation):
        validate_match_certificate(
            sparse, PerfectMatching(edges=((0, 1), (2, 3))))


def test_classify_balanced_blowup():
    g, part = make_c3_blowup(9, 0)
    cls = classify_vertices(g, [list(c) for c in part.classes], 0.1)
    for i in range(3):
        assert cls.internally_excellent[i] == part.classes[i]
        assert cls.externally_excellent[i] == part.classes[i]
        assert cls.internally_bad[i] == ()
        assert cls.externally_bad[i] == ()


def test_classify_with_explicit_b():
    g = make_near_independent_extremal(6, 3)
    cls = classify_vertices(g, [[0, 1, 2]], 0.1, b=[3, 4, 5])
    assert cls.bad[0] == ()
    assert cls.good[0] == (0, 1, 2)
    assert cls.excellent[0] == (3, 4, 5)


def test_classify_loose_delta():
    g, part = make_c3_blowup(9, 0)
    cls = classify_vertices(g, [list(c) for c in part.classes], 1.0)
    for i in range(3):
        assert cls.bad[i] == ()
        outside = set(range(9)) - set(part.classes[i])
        assert set(cls.exceptional[i]) | set(cls.acceptable[i]) == outside
        assert not set(cls.exceptional[i]) & set(cls.acceptable[i])


def test_extremal_pack_balanced():
    g, _ = make_c3_blowup(9, 0)
    pk = extremal_c3_pack(g, 0.05)
    assert verify_packing(g, Tournament.cyclic_triangle(), pk, require_perfect=True)
    assert sorted(tuple(sorted(e.image)) for e in pk.elements) == [
        (0, 3, 6), (1, 4, 7), (2, 5, 8)]
    assert find_perfect_packing(g, Tournament.cyclic_triangle()).found


def test_extremal_pack_damaged_class():
    g, part = make_c3_blowup(12, 0)
    bad = []
    for v in part.classes[0]:
        if v != 0:
            bad.extend([(0, v), (v, 0)])
    damaged = g.minus_arcs(bad)
    pk = extremal_c3_pack(
        damaged, 0.1, partition=[list(c) for c in part.classes], require_degree=False)
    assert verify_packing(damaged, Tournament.cyclic_triangle(), pk,
                          require_perfect=True)


def test_extremal_pack_degree_refusal():
    g, part = make_c3_blowup(12, 0)
    bad = []
    for v in part.classes[0]:
        if v != 0:
            bad.extend([(0, v), (v, 0)])
    damaged = g.minus_arcs(bad)
    with pytest.raises(DomainError):
        extremal_c3_pack(damaged, 0.1, partition=[list(c) for c in part.classes])


def test_extremal_pack_larger_host():
    g, part = make_c3_blowup(15, 0)
    pk = extremal_c3_pack(g, 0.05, partition=[list(c) for c in part.classes])
    assert verify_packing(g, Tournament.cyclic_triangle(), pk, require_perfect=True)
    assert len(pk.elements) == 5


def test_extremal_pack_tolerates_small_damage():
    g, _ = make_c3_blowup(9, 0)
    rng = random.Random(11)
    arcs = list(g.arcs())
    rng.shuffle(arcs)
    damaged = g.minus_arcs(arcs[:2])
    try:
        pk = extremal_c3_pack(damaged, 0.05, require_degree=False)
    except StageFailed:
        return  # a stage may legitimately give up on a damaged host
    assert verify_packing(damaged, Tournament.cyclic_triangle(), pk,
                          require_perfect=True)


def _damaged_blowups(count):
    """Seeded n=9..30 cyclic blow-ups, damaged and relabelled, with the
    relabelled classes as witness (none now and then at n <= 12).

    Damage rewires up to two turncoat vertices to look like members of
    another class, which stage 1 then moves and stage 2 must make up for,
    and flips a random share of the ordered pairs, which weakens cross
    degrees for stages 3 and 4.
    """
    rng = random.Random("extremal-c3-pack")
    for _ in range(count):
        n = 3 * rng.randint(3, 10)
        g, part = make_c3_blowup(n, 0)
        rows = [g.out_mask(v) for v in range(n)]
        classes = [list(c) for c in part.classes]
        for _ in range(rng.choice((0, 0, 1, 2))):
            i = rng.randrange(3)
            v = rng.choice(classes[i])
            j = (i + rng.choice((1, 2))) % 3
            own = sum(1 << u for u in classes[j] if u != v)
            nxt = sum(1 << u for u in classes[(j + 1) % 3])
            prv = sum(1 << u for u in classes[(j + 2) % 3])
            rows[v] = (own | nxt) & ~(1 << v)
            for u in range(n):
                if u != v:
                    rows[u] = (rows[u] | 1 << v) if (own | prv) >> u & 1 else rows[u] & ~(1 << v)
        flip = rng.choice((0.0, 0.02, 0.05, 0.1))
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < flip:
                    rows[u] ^= 1 << v
        perm = list(range(n))
        rng.shuffle(perm)
        relabelled = [0] * n
        for u in range(n):
            for v in range(n):
                if rows[u] >> v & 1:
                    relabelled[perm[u]] |= 1 << perm[v]
        witness = [[perm[v] for v in c] for c in classes]
        if n <= 12 and rng.random() < 0.3:
            witness = None
        yield Digraph(n, relabelled), witness, rng.random() < 0.3


def _extremal_row(g, witness, require_degree):
    try:
        pk = extremal_c3_pack(g, 0.3, partition=witness, require_degree=require_degree)
    except StageFailed as exc:
        return ["failed", exc.stage, str(exc), exc.details]
    except DomainError as exc:
        return ["refused", str(exc)]
    return ["packed", [[list(e.image), [e.pattern.out_mask(v) for v in range(3)]]
                       for e in pk.elements]]


# sha256 of the rows, computed while the stages still scanned combinations
# with spans_copy: 939 hosts pack (306 of them take a parity triangle, 100
# cover triangles, 289 balance triangles), 203 fail a stage (102 parity,
# 71 cover, 27 balance, 3 finish) and 358 are refused
_PINNED_EXTREMAL = (1500, "65c237567e2ab05cbc1999f355a7c5c8bb440a902d3268fc20bf11a00dad65f3")


def test_extremal_pack_outputs_are_pinned():
    digest = hashlib.sha256()
    kinds = {"packed": 0, "failed": 0, "refused": 0}
    for case in _damaged_blowups(_PINNED_EXTREMAL[0]):
        row = _extremal_row(*case)
        kinds[row[0]] += 1
        digest.update(json.dumps(row, sort_keys=True).encode())
    assert kinds == {"packed": 939, "failed": 203, "refused": 358}
    assert digest.hexdigest() == _PINNED_EXTREMAL[1]
