import collections
import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from tpack.core import Digraph, DomainError, Graph, InvariantViolation, Tournament, mask_of
from tpack.constructions import (
    make_c3_blowup,
    make_near_independent_extremal,
    random_digraph_out_or_in,
)
from tpack.solver import find_perfect_packing, verify_packing
from tpack.structure import (
    ClosePartition,
    IndependentSetCertificate,
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
from tpack.t3local import t3_pack
from tpack.turan import find_kr_from_density


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


def test_dmatch_when_greedy_pairs_the_clique_with_itself():
    # A 40-clique joined to every vertex of an independent 80-set: the greedy
    # matching pairs the clique internally (20 edges) and strands the rest, so
    # reaching d = 40 takes 20 swaps.  A search over the clique's internal
    # pairings is exponential here.
    x, y = 40, 80
    g = Graph.from_edges(x + y, [(u, v) for u in range(x) for v in range(u + 1, x + y)])
    assert g.min_degree() == x
    for xs in (range(x), range(x, 2 * x), range(0, 2 * x, 2)):
        m = d_matching_covering(g, x, xs)
        assert len(m) == x and set(xs) <= covered(m)
        assert all(g.has_edge(u, v) for u, v in m) and len(covered(m)) == 2 * x


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
    for a, b in (((-1, 0, 1), (2, 3, 4)), ((0, 1, 2), (3, 4, -5))):
        with pytest.raises(InvariantViolation, match="sides out of range"):
            validate_match_certificate(g, ClosePartition(a, b, 0, 0.5))


def test_validator_counts_a_graph_in_edges_and_a_digraph_in_arcs():
    """The edge 0-1 of a Graph is one pair; the same rows as a plain Digraph
    are two arcs.  A Graph is a Digraph too, so the count must test for
    Graph first."""
    gr = Graph.from_edges(4, [(0, 1)])
    both = Digraph.from_arcs(4, [(0, 1), (1, 0)])
    padded = IndependentSetCertificate(core=(0,), padded=(0, 1), gamma_factor=1 / 16)
    split = ClosePartition(a=(0, 2), b=(1, 3), cross_count=1, gamma_factor=1 / 16)
    for cert in (padded, split):
        validate_match_certificate(gr, cert)
    with pytest.raises(InvariantViolation, match="spans 2 pairs"):
        validate_match_certificate(both, padded)
    with pytest.raises(InvariantViolation, match="cross count 1 but host has 2"):
        validate_match_certificate(both, split)


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


def test_classify_and_extremal_pack_refuse_a_non_partition():
    g, _ = make_c3_blowup(9, 0)
    overlap = [[0, 1, 2], [2, 3, 4, 5], [6, 7, 8]]
    missing = [[0, 1, 2], [3, 4, 5], [6, 7]]
    for parts, msg in ((overlap, "partition parts overlap"),
                       (missing, "partition does not cover the vertex set")):
        with pytest.raises(DomainError, match=f"^{msg}$"):
            classify_vertices(g, parts, 0.1)
        with pytest.raises(DomainError, match=f"^{msg}$"):
            extremal_c3_pack(g, 0.05, partition=parts)
    with pytest.raises(DomainError, match="^partition parts overlap$"):
        classify_vertices(g, [[0, 1, 2], [3, 4, 5]], 0.1, b=[5, 6, 7, 8])
    assert classify_vertices(Digraph.empty(0), [], 0.1).bad == ()


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


def _relabelled_blowups():
    """Balanced cyclic blow-ups at n = 15 to 45, each relabelled by four
    seeded permutations, with the permuted classes as the witness: the
    hosts that solve-packable hands to extremal_c3_pack, where stage 5
    packs every vertex."""
    rng = random.Random(4500)
    for n in range(15, 46, 3):
        g, part = make_c3_blowup(n, 0)
        for _ in range(4):
            perm = list(range(n))
            rng.shuffle(perm)
            host = Digraph.from_arcs(n, [(perm[u], perm[v]) for u, v in g.arcs()])
            yield host, [sorted(perm[v] for v in c) for c in part.classes]


# sha256 of the packings, computed while stage 5 still built its remainder
# arc by arc with from_arcs
_PINNED_BLOWUP_PACKS = (44, "12ab03cc16fd3a2a4170f5dbd31c44047a51b5fe6af45a3f54002c7ce370952b")


def test_extremal_pack_on_relabelled_blowups_is_pinned():
    digest = hashlib.sha256()
    count = 0
    for host, classes in _relabelled_blowups():
        pk = extremal_c3_pack(host, 0.05, classes)
        assert verify_packing(host, Tournament.cyclic_triangle(), pk, require_perfect=True)
        digest.update(json.dumps([[list(e.image), [e.pattern.out_mask(v) for v in range(3)]]
                                  for e in pk.elements]).encode())
        count += 1
    assert (count, digest.hexdigest()) == _PINNED_BLOWUP_PACKS


def _block_host(n, rng):
    """Seeded digraph with one block A of about half the vertices: arcs run
    inside A, inside the rest and across with their own chances, so the
    matching lemma meets dense, near-independent and near-split hosts."""
    a_mask = mask_of(rng.sample(range(n), n // 2 + rng.choice((-1, 0, 1))))
    inside_a, inside_b, across = rng.choice(
        ((0.8, 0.8, 0.8), (0.05, 0.9, 0.9), (0.9, 0.9, 0.05), (rng.random(),) * 3))
    rows = [0] * n
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            both = (a_mask >> u & 1) + (a_mask >> v & 1)
            p = across if both == 1 else inside_a if both == 2 else inside_b
            if rng.random() < p:
                rows[u] |= 1 << v
    return Digraph(n, rows)


def _refusal_or(call, *args):
    try:
        return call(*args)
    except DomainError as exc:
        return ["refused", str(exc)]


def _cert_row(host, cert):
    if isinstance(cert, list):
        return cert
    validate_match_certificate(host, cert)
    return [type(cert).__name__, dataclasses.asdict(cert)]


def _graph_flow_rows():
    """t3_pack packings and swap traces, matching certificates, d-matchings
    and density cliques: every output that runs through the undirected
    graph of a digraph, as JSON rows."""
    for n in range(9, 31, 3):
        for seed in range(20):
            packing, trace = t3_pack(random_digraph_out_or_in(n, seed))
            yield ["t3", [list(e.image) for e in packing.elements],
                   [[s.rule, [list(e.image) for e in s.removed], [list(e.image) for e in s.inserted]]
                    for s in trace.steps]]
    for n in range(4, 31, 2):
        for seed in range(25):
            rng = random.Random(1900 + 100 * n + seed)
            g = _block_host(n, rng) if seed % 5 else random_digraph_out_or_in(n, seed)
            under = g.underlying()
            for gamma in (0.1, 0.25, 0.4):
                yield ["match", _cert_row(under, _refusal_or(matching_or_certificate, under, gamma))]
                yield ["match-digraph",
                       _cert_row(g, _refusal_or(matching_or_certificate_digraph, g, gamma))]
            for d in range(4):
                x = rng.sample(range(n), d)
                yield ["d-match", _refusal_or(d_matching_covering_digraph, g, d, x)]
            for r in (2, 3, 4):
                yield ["clique", _refusal_or(find_kr_from_density, g, r)]


# sha256 of the rows, computed while the undirected graph was still a class
# of its own beside Digraph: 160 t3_pack rows (10 swaps in all), 1,809
# perfect matchings, 12 independent-set and 12 close-partition certificates,
# 267 refused matching calls, 1,400 d-matching rows and 1,050 clique rows
_PINNED_GRAPH_FLOW = (4710, "9afcd4e5ec3ecb049d48a7265247e0a6a64dc0879abc1c330e0bd63b57669843")


def test_outputs_through_the_undirected_graph_are_pinned():
    digest = hashlib.sha256()
    kinds = collections.Counter()
    for row in _graph_flow_rows():
        kinds[row[1][0] if row[0].startswith("match") else row[0]] += 1
        digest.update(json.dumps(row, sort_keys=True).encode())
    assert kinds == {"t3": 160, "PerfectMatching": 1809, "IndependentSetCertificate": 12,
                     "ClosePartition": 12, "refused": 267, "d-match": 1400, "clique": 1050}
    assert (sum(kinds.values()), digest.hexdigest()) == _PINNED_GRAPH_FLOW


def _extremal_graph(n, rng):
    """Seeded undirected host near one of the lemma's two extremal cases: two
    dense halves with sparse cross edges, or a sparse half joined densely to
    a dense rest.  The side has n/2 - 1, n/2 or n/2 + 1 vertices."""
    side = mask_of(rng.sample(range(n), n // 2 + rng.choice((-1, 0, 1))))
    if rng.random() < 0.4:
        inside_a, inside_b, across = 0.95, 0.95, rng.choice((0.0, 0.02, 0.05))
    else:
        inside_a, inside_b, across = rng.choice((0.0, 0.03, 0.08)), 0.9, 0.95
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        both = (side >> u & 1) + (side >> v & 1)
        p = across if both == 1 else inside_a if both == 2 else inside_b
        if rng.random() < p:
            edges.append((u, v))
    return Graph.from_edges(n, edges)


def _certificate_rows(count):
    """matching_or_certificate at four gammas and d_matching_covering for
    d = 1, 2, 3 on seeded near-extremal hosts of even order 6..24."""
    rng = random.Random("extremal-matchings")
    for _ in range(count):
        n = 2 * rng.randint(3, 12)
        g = _extremal_graph(n, rng)
        for gamma in (0.1, 0.2, 0.3, 0.4):
            yield ["match", _cert_row(g, _refusal_or(matching_or_certificate, g, gamma))]
        for d in (1, 2, 3):
            yield ["d-match", _refusal_or(d_matching_covering, g, d, rng.sample(range(n), d))]


# sha256 of the rows, computed while the matching routines kept edge lists,
# partner dicts and sorted shadows
_PINNED_CERTIFICATES = (500, "99aa673ab0ecb6b8bae5f4e9f5bbf53a81f8380f5dd0c5cccd399865553db7e9")


def test_certificates_on_near_extremal_graphs_are_pinned():
    digest = hashlib.sha256()
    kinds = collections.Counter()
    for row in _certificate_rows(_PINNED_CERTIFICATES[0]):
        kinds[row[1][0] if row[0] == "match" or row[1][:1] == ["refused"] else row[0]] += 1
        digest.update(json.dumps(row, sort_keys=True).encode())
    assert kinds == {"PerfectMatching": 1339, "IndependentSetCertificate": 134,
                     "ClosePartition": 142, "refused": 471, "d-match": 1414}
    assert digest.hexdigest() == _PINNED_CERTIFICATES[1]


def _damaged_witnesses(count):
    """Seeded n=9..45 cyclic blow-ups with shift 0 or 1, random arcs removed
    (a few vertices lose most of theirs) and vertices relabelled, with a
    witness of near-equal class sizes: the blow-up's classes, or for shift 1
    those classes with one vertex handed back to the first class, which
    stage 1 then relocates."""
    rng = random.Random("extremal-classes")
    for _ in range(count):
        n = 3 * rng.randint(3, 15)
        g, part = make_c3_blowup(n, rng.randint(0, 1))
        classes = [list(c) for c in part.classes]
        if part.shift:
            classes[0].append(classes[1].pop(0))
        rows = [g.out_mask(v) for v in range(n)]
        p = rng.choice((0.0, 0.03, 0.08, 0.15))
        heavy = set(rng.sample(range(n), rng.choice((0, 1, 2))))
        for u in range(n):
            for v in range(n):
                if rows[u] >> v & 1 and rng.random() < (0.7 if heavy & {u, v} else p):
                    rows[u] ^= 1 << v
        perm = list(range(n))
        rng.shuffle(perm)
        relabelled = [0] * n
        for u in range(n):
            for v in range(n):
                if rows[u] >> v & 1:
                    relabelled[perm[u]] |= 1 << perm[v]
        yield Digraph(n, relabelled), [sorted(perm[v] for v in c) for c in classes]


def _class_rows(g, classes):
    """extremal_c3_pack at three gammas, with the witness and (at n = 9,
    where the containment search is exact and quick) without it, then
    classify_vertices on the witness classes at delta = gamma."""
    for gamma in (0.1, 0.25, 0.4):
        for partition in (classes, None) if g.n == 9 else (classes,):
            try:
                pk = extremal_c3_pack(g, 0.2, partition, gamma=gamma, require_degree=False)
                yield ["packed", [list(e.image) for e in pk.elements]]
            except StageFailed as exc:
                yield ["failed", exc.stage, str(exc), exc.details]
            except DomainError as exc:
                yield ["refused", str(exc)]
        yield ["classify", dataclasses.asdict(classify_vertices(g, classes, gamma))]


# sha256 of the rows, computed while the packer held its classes as lists
# and stated its weak-vertex tests apart from classify_vertices: 342 packed,
# 410 parity, 158 cover, 5 balance and 3 finish failures, 33 refusals, and
# 900 classifications listing 6,954 internally and 7,227 externally bad
_PINNED_CLASSES = (300, "7ff1179fef8c87c5bb43cb03cc341a7ccb142bde2fa32fa32f8b578f0f6813ac")


def test_extremal_pack_and_classification_are_pinned():
    digest = hashlib.sha256()
    kinds = collections.Counter()
    weak = collections.Counter()
    for g, classes in _damaged_witnesses(_PINNED_CLASSES[0]):
        for row in _class_rows(g, classes):
            kinds[row[0] if row[0] != "failed" else row[1]] += 1
            if row[0] == "classify":
                weak["internal"] += sum(map(len, row[1]["internally_bad"]))
                weak["external"] += sum(map(len, row[1]["externally_bad"]))
            digest.update(json.dumps(row, sort_keys=True).encode())
    assert kinds == {"packed": 342, "parity": 410, "cover": 158, "balance": 5,
                     "finish": 3, "refused": 33, "classify": 900}
    assert weak == {"internal": 6954, "external": 7227}
    assert digest.hexdigest() == _PINNED_CLASSES[1]
