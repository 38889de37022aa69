"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single pass/fail line (to the real stdout, so it survives
pytest's capture) and asserts its own wall-clock budget.
"""

import itertools
import math
import random
import sys
import time

from tpack.core import (
    Digraph,
    Tournament,
    all_tournaments,
    k3_minus_pattern,
    mask_of,
    min_semidegree,
    spans_copy,
)
from tpack.constructions import (
    make_c3_blowup,
    make_k3minus_example,
    make_near_independent_extremal,
    make_near_tournament_extremal,
    make_source_counterexample,
    random_digraph_min_semidegree,
    random_digraph_out_or_in,
)
from tpack.solver import (
    find_max_packing,
    find_perfect_packing,
    validate_obstruction,
    verify_packing,
)
from tpack.t3local import t3_pack
from tpack.turan import count_copies
from tpack.complexes import (
    build_complex,
    check_matching_threshold,
    is_downward_closed,
    matching_to_packing,
    packing_to_matching,
    top_layer_matching,
)
from tpack.absorbing import absorb, build_absorbing_family, count_connectors
from tpack.structure import (
    ClosePartition,
    StageFailed,
    d_matching_covering,
    extremal_c3_pack,
    matching_or_certificate,
    validate_match_certificate,
)
from tpack.harness import (
    sweep_semidegree,
    sweep_total_degree_c3,
    sweep_total_degree_kr,
)


class _criterion:
    """Times the body, prints one visible pass/fail line, enforces the budget."""

    def __init__(self, num, desc, budget, capsys=None):
        self.num, self.desc, self.budget = num, desc, budget
        self.capsys = capsys

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed <= self.budget else "FAIL"
        line = (f"criterion {self.num:02d}: {status} {self.desc} "
                f"({elapsed:.1f}s, budget {self.budget:.0f}s)")
        if self.capsys is not None:
            with self.capsys.disabled():
                print(line)
        else:
            print(line, file=sys.__stdout__, flush=True)
        if exc_type is None:
            assert elapsed <= self.budget, (
                f"criterion {self.num} exceeded its budget: {elapsed:.1f}s")
        return False


def naive_spans(g, xs, pattern):
    for perm in itertools.permutations(xs):
        if all(g.arc(perm[u], perm[v]) for u, v in pattern.arcs()):
            return True
    return False


def random_digraph(n, seed, p=0.5):
    rng = random.Random(seed)
    rows = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                rows[u] |= 1 << v
    return Digraph(n, rows)


def test_criterion_01_exact_extremal_degrees(capsys):
    with _criterion(1, "exact extremal degree values", 1.0, capsys):
        for n in (9, 15, 21):
            g, _ = make_c3_blowup(n, 1)
            assert min_semidegree(g) == 2 * n // 3 - 2
        for r, n in ((3, 6), (3, 9), (4, 8)):
            g = make_near_independent_extremal(n, r)
            assert min_semidegree(g) == n - n // r - 1
        g = make_k3minus_example(6)
        assert g.n == 15
        assert min_semidegree(g) == (3 * g.n - 5) // 4


def test_criterion_02_exhaustive_tightness(capsys):
    instances = []
    g1, _ = make_c3_blowup(9, 1)
    instances.append((g1, Tournament.cyclic_triangle()))
    hole = make_near_independent_extremal(6, 3)
    instances.append((hole, Tournament.transitive(3)))
    instances.append((hole, Tournament.cyclic_triangle()))
    instances.append((make_source_counterexample(6), Tournament.cyclic_triangle()))
    instances.append((make_k3minus_example(6), k3_minus_pattern()))
    # n = 63: every r = 3 family, k3-minus included, at (n - 3) / 2 = 30
    instances.append((make_c3_blowup(63, 1)[0], Tournament.cyclic_triangle()))
    wide = make_near_independent_extremal(63, 3)
    instances.append((wide, Tournament.transitive(3)))
    instances.append((wide, Tournament.cyclic_triangle()))
    instances.append((make_near_tournament_extremal(63, 3), Digraph.complete(3)))
    instances.append((make_source_counterexample(63), Tournament.cyclic_triangle()))
    instances.append((make_k3minus_example(30), k3_minus_pattern()))
    with _criterion(2, "solver proves the extremal hosts unpackable", 60.0 * 5, capsys):
        for g, pattern in instances:
            start = time.perf_counter()
            cert = find_perfect_packing(g, pattern)
            assert cert.verdict == "exhausted-none"
            assert time.perf_counter() - start < 60.0
            if g.n == 63:
                assert cert.obstruction is not None
            # the validator tries every r-set in every order: kept to n <= 45
            elif cert.obstruction is not None:
                assert validate_obstruction(g, pattern, cert.obstruction)


def test_criterion_03_two_thirds_threshold_sweeps(capsys):
    t3 = Tournament.transitive(3)
    with _criterion(3, "exhaustive n=6 sweep plus 3000 seeded heuristic runs", 600.0, capsys):
        rep = sweep_semidegree(3, t3, 6, mode="exhaustive")
        assert rep.examined == 6600
        assert rep.verdict == "consistent"
        assert not rep.counterexamples

        for n in (6, 9, 12):
            for seed in range(1000):
                g = random_digraph_out_or_in(n, seed)
                packing, _ = t3_pack(g)
                assert verify_packing(g, t3, packing, require_perfect=True)
                if n <= 9:
                    assert find_perfect_packing(g, t3).found


def test_criterion_04_extremal_hosts_pack(capsys):
    c3 = Tournament.cyclic_triangle()
    with _criterion(4, "staged and exact packers cover the balanced blow-ups", 60.0, capsys):
        for n in (9, 15):
            g, part = make_c3_blowup(n, 0)
            try:
                pk = extremal_c3_pack(g, 0.05,
                                      partition=[list(c) for c in part.classes])
            except StageFailed:
                pk = None  # the staged packer may defer to the exact solver
            if pk is not None:
                assert verify_packing(g, c3, pk, require_perfect=True)
            cert = find_perfect_packing(g, c3)
            assert cert.found
            assert verify_packing(g, c3, cert.packing, require_perfect=True)


def test_criterion_05_oracle_equivalence(capsys):
    patterns = (Tournament.transitive(3), Tournament.cyclic_triangle())

    def brute_max(g, pattern):
        triples = [mask_of(c) for c in itertools.combinations(range(g.n), 3)
                   if spans_copy(g, c, pattern) is not None]
        best = 0

        def rec(i, used, cnt):
            nonlocal best
            if cnt > best:
                best = cnt
            if cnt + (len(triples) - i) <= best:
                return
            for j in range(i, len(triples)):
                if not triples[j] & used:
                    rec(j + 1, used | triples[j], cnt + 1)

        rec(0, 0, 0)
        return best

    with _criterion(5, "exact solver matches brute force on 500 small hosts", 300.0, capsys):
        rng = random.Random(505)
        for trial in range(500):
            n = rng.choice([4, 5, 6, 7])
            g = random_digraph(n, rng.randrange(1 << 30), p=rng.choice([0.4, 0.55, 0.7]))
            pattern = patterns[trial % 2]

            res = find_max_packing(g, pattern)
            assert res.exact
            assert verify_packing(g, pattern, res.packing)
            assert len(res.packing.elements) == brute_max(g, pattern)

            assert count_copies(g, pattern) == sum(
                1 for c in itertools.combinations(range(n), 3)
                if naive_spans(g, c, pattern))
            for c in itertools.combinations(range(n), 3):
                emb = spans_copy(g, c, pattern)
                assert (emb is not None) == naive_spans(g, c, pattern)
                if emb is not None:
                    assert emb.is_valid(g)


def test_criterion_06_complex_thresholds(capsys):
    t3 = Tournament.transitive(3)
    dmin = math.ceil((1 - 1 / 3 - 0.05) * 12)
    with _criterion(6, "layer thresholds hold on 200 dense 12-vertex hosts", 120.0, capsys):
        for seed in range(200):
            g = random_digraph_min_semidegree(12, dmin, seed)
            assert min_semidegree(g) >= dmin
            c = build_complex(g, t3)
            holds, failing = check_matching_threshold(c, 0.15)
            assert holds, f"seed {seed} failed at layer {failing}"
            assert is_downward_closed(c)
            matching = top_layer_matching(c, "greedy")
            packing = matching_to_packing(g, t3, matching)
            assert verify_packing(g, t3, packing)
            assert packing_to_matching(packing) == matching


def test_criterion_07_connector_counts(capsys):
    with _criterion(7, "connector counts exact on complete hosts and the hole", 60.0, capsys):
        for r in (3, 4, 5):
            for n in range(r + 1, 13):
                g = Digraph.complete(n)
                for t in all_tournaments(r):
                    res = count_connectors(g, t, 0, 1)
                    assert res.count == math.comb(n - 2, r - 1)

        g = make_near_independent_extremal(6, 3)
        t3 = Tournament.transitive(3)
        for x, y in itertools.combinations(range(3), 2):
            assert not g.arc(x, y) and not g.arc(y, x)
            others = [v for v in range(6) if v not in (x, y)]
            brute = sum(
                1 for c in itertools.combinations(others, 2)
                if naive_spans(g, c + (x,), t3) and naive_spans(g, c + (y,), t3))
            assert brute == 3
            assert count_connectors(g, t3, x, y).count == 3


def test_criterion_08_absorbing_rounds(capsys):
    c3 = Tournament.cyclic_triangle()
    with _criterion(8, "n=60 absorbing family survives 20 leftover rounds", 300.0, capsys):
        g = Digraph.complete(60)
        family = build_absorbing_family(g, c3, xi=0.3, seed=5)
        assert family.is_disjoint()
        assert family.m_mask.bit_count() <= int(0.3 * 60)
        base = absorb(g, c3, family, ())
        assert base.covered_mask == family.m_mask  # G[M] packs on its own
        assert verify_packing(g, c3, base)

        rng = random.Random(99)
        outside = [v for v in range(60) if not family.m_mask >> v & 1]
        for i in range(20):
            w = tuple(sorted(rng.sample(outside, (i % 3 + 1) * 3)))
            packing = absorb(g, c3, family, w)
            assert verify_packing(g, c3, packing)
            assert packing.covered_mask == family.m_mask | mask_of(w)


def test_criterion_09_matching_certificates(capsys):
    with _criterion(9, "1000 covering matchings and 1000 validated certificates", 300.0, capsys):
        rng = random.Random(909)
        accepted = 0
        attempts = 0
        while accepted < 1000 and attempts < 30000:
            attempts += 1
            n = rng.choice([4, 5, 6, 7, 8])
            edges = [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < 0.5]
            from tpack.core import Graph
            g = Graph.from_edges(n, edges)
            d = rng.randint(0, n // 2)
            if g.min_degree() < d:
                continue
            verts = list(range(n))
            rng.shuffle(verts)
            xs = verts[:d]

            m = d_matching_covering(g, d, xs)
            cov = set()
            for u, v in m:
                assert g.has_edge(u, v)
                assert not cov & {u, v}
                cov.update((u, v))
            assert set(xs) <= cov

            exists = False
            for combo in itertools.combinations(edges, d):
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
            assert exists
            accepted += 1
        assert accepted == 1000

        from tpack.core import Graph
        accepted = 0
        attempts = 0
        while accepted < 1000 and attempts < 30000:
            attempts += 1
            n = rng.choice([4, 6, 8, 10])
            gamma = rng.choice([0.0, 0.1, 1 / 6, 0.25])
            edges = [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < 0.5]
            g = Graph.from_edges(n, edges)
            if g.min_degree() + 1e-9 < (0.5 - gamma) * n:
                continue
            cert = matching_or_certificate(g, gamma)
            validate_match_certificate(g, cert)
            accepted += 1
        assert accepted == 1000

        two_tri = Graph.from_edges(
            6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        cert = matching_or_certificate(two_tri, 1 / 6)
        assert isinstance(cert, ClosePartition)
        assert cert.cross_count == 0
        validate_match_certificate(two_tri, cert)


def test_criterion_10_total_degree_sampling(capsys):
    with _criterion(10, "total-degree sweeps find zero counterexamples", 300.0, capsys):
        for n in (6, 9):
            rep = sweep_total_degree_kr(3, n, samples=200, seed=0)
            assert rep.verdict == "consistent"
            assert rep.examined == 200 and not rep.counterexamples
        for n in (6, 9):
            rep = sweep_total_degree_c3(n, samples=200, seed=0)
            assert rep.verdict == "consistent"
            assert rep.examined == 200 and not rep.counterexamples
