import pytest
from hypothesis import given, settings, strategies as st

from tpack.core import (
    Digraph,
    DomainError,
    Embedding,
    Tournament,
    bits,
    canonical_tournament_key,
    spans_copy,
)
from tpack.constructions import random_digraph_out_or_in
from tpack.solver import Packing, find_perfect_packing, verify_packing, PACKED
from tpack.t3local import (
    _rebuild_pair,
    minimize_arcs_two_thirds,
    swap_c3,
    t3_pack,
    two_thirds_threshold,
)

T3 = Tournament.transitive(3)
C3 = Tournament.cyclic_triangle()
C3_KEY = canonical_tournament_key(C3)


def test_threshold_values():
    assert two_thirds_threshold(6) == 4
    assert two_thirds_threshold(9) == 6
    assert two_thirds_threshold(12) == 8


def satisfies_out_or_in(g):
    """Reference: every vertex has outdegree or indegree at least ceil(2n/3)."""
    t = two_thirds_threshold(g.n)
    return all(max(g.d_out(v), g.d_in(v)) >= t for v in range(g.n))


def test_minimize_keeps_condition_and_is_minimal():
    g = Digraph.complete(6)
    m = minimize_arcs_two_thirds(g)
    assert satisfies_out_or_in(m)
    # removing any remaining arc must break the condition
    for u, v in m.arcs():
        smaller = m.minus_arcs([(u, v)])
        assert not satisfies_out_or_in(smaller)
    assert m.num_arcs <= g.num_arcs


def _two_pass_minimize(g):
    """Reference minimisation, an arc at a time: scan arcs in lexicographic
    order, remove each one whose removal keeps the condition, and repeat
    until a full pass removes nothing.  Also returns
    which row cuts it met: "all" for a row u with din[u] >= t that lost an
    arc, "part" for a row with din[u] < t that kept an arc into a head that
    could spare it."""
    n = g.n
    t = two_thirds_threshold(n)
    rows = [g.out_mask(v) for v in range(n)]
    dout = [g.d_out(v) for v in range(n)]
    din = [g.d_in(v) for v in range(n)]
    seen = set()
    changed = True
    while changed:
        changed = False
        for u in range(n):
            for v in list(bits(rows[u])):
                spare = max(dout[v], din[v] - 1) >= t
                if max(dout[u] - 1, din[u]) >= t and spare:
                    rows[u] ^= 1 << v
                    dout[u] -= 1
                    din[v] -= 1
                    changed = True
                    if din[u] >= t:
                        seen.add("all")
                elif spare:
                    seen.add("part")
    return Digraph(n, rows), seen


def _minimize_hosts():
    yield Digraph.empty(0)
    for n in range(3, 46):
        yield Digraph.complete(n)
        for seed in range(8):
            yield random_digraph_out_or_in(n, 100 * n + seed)
        yield random_digraph_out_or_in(n, n, t=n - 1)


def test_minimize_matches_the_two_pass_reference():
    seen = set()
    for g in _minimize_hosts():
        want, cuts = _two_pass_minimize(g)
        seen |= cuts
        m = minimize_arcs_two_thirds(g)
        assert m == want
        # one pass reaches the local minimum, so a second changes nothing
        assert minimize_arcs_two_thirds(m) == m
    assert seen == {"all", "part"}


def test_minimize_refuses_a_host_below_the_bound():
    with pytest.raises(DomainError, match="violates the two-thirds out-or-in condition"):
        minimize_arcs_two_thirds(Digraph.complete(2))
    with pytest.raises(DomainError, match="violates the two-thirds out-or-in condition"):
        t3_pack(Digraph.empty(6))


def test_t3_pack_complete_host():
    packing, trace = t3_pack(Digraph.complete(9))
    assert verify_packing(Digraph.complete(9), T3, packing, require_perfect=True)
    t3_key = canonical_tournament_key(T3)
    for e in packing.elements:
        assert canonical_tournament_key(e.pattern) == t3_key


def test_t3_pack_rejects_bad_input():
    with pytest.raises(DomainError):
        t3_pack(Digraph.complete(7))  # not divisible by 3
    with pytest.raises(DomainError):
        t3_pack(Digraph.empty(6))  # condition fails


@given(st.integers(min_value=0, max_value=2000), st.sampled_from([6, 9, 12]))
@settings(max_examples=60, deadline=None)
def test_t3_pack_random_hosts(seed, n):
    g = random_digraph_out_or_in(n, seed)
    packing, trace = t3_pack(g)
    assert verify_packing(g, T3, packing, require_perfect=True)
    # every element is transitive, never cyclic
    t3_key = canonical_tournament_key(T3)
    for e in packing.elements:
        assert canonical_tournament_key(e.pattern) == t3_key
    # trace steps talk about real triples
    for step in trace.steps:
        assert step.rule
        for emb in step.removed + step.inserted:
            assert len(emb.image) == 3


def test_t3_pack_agrees_with_solver_on_existence():
    for seed in range(30):
        g = random_digraph_out_or_in(6, seed)
        packing, _ = t3_pack(g)
        cert = find_perfect_packing(g, T3)
        assert cert.verdict == PACKED
        assert packing.is_perfect


def test_swap_c3_in_place_when_the_triple_spans_t3():
    g = Digraph.complete(3)
    cyc = Embedding(Tournament.cyclic_triangle(), (0, 1, 2))
    packing, step = swap_c3(g, Packing(3, (cyc,)), 0)
    assert step.rule == "in-place"
    assert step.removed == (cyc,)
    assert step.inserted == packing.elements
    assert [e.image for e in packing.elements] == [(0, 1, 2)]
    assert verify_packing(g, T3, packing, require_perfect=True)


def _reference_swap_c3(g, packing, idx):
    """Reference swap move, written out once per direction with arc tests
    on g: returns the rule, the removed and the inserted embeddings, or
    None."""
    cyc = packing.elements[idx]
    triple = tuple(sorted(cyc.image))
    direct = spans_copy(g, triple, T3)
    if direct is not None:
        return "in-place", (cyc,), (direct,)
    for j, other in enumerate(packing.elements):
        if j == idx:
            continue
        omask = other.vertex_mask
        sent = sum(g.d_out_to(x, omask) for x in triple)
        received = sum(g.d_in_from(x, omask) for x in triple)
        for mode, count in (("out", sent), ("in", received)):
            if count < 7:
                continue
            rebuilt = _reference_rebuild_pair(g, triple, tuple(sorted(bits(omask))), mode)
            if rebuilt is None:
                continue
            return f"rebuild-{mode}", (cyc, other), tuple(rebuilt)
    return None


def _reference_rebuild_pair(g, triple, tverts, mode):
    tmask = sum(1 << v for v in tverts)
    for x in triple:
        if mode == "out":
            if g.d_out_to(x, tmask) != 3:
                continue
        else:
            if g.d_in_from(x, tmask) != 3:
                continue
        y, z = (w for w in triple if w != x)
        for tstar in tverts:
            if mode == "out":
                joined = g.arc(y, tstar) and g.arc(z, tstar)
            else:
                joined = g.arc(tstar, y) and g.arc(tstar, z)
            if not joined:
                continue
            rest = tuple(w for w in tverts if w != tstar)
            first = spans_copy(g, (y, z, tstar), T3)
            second = spans_copy(g, (x,) + rest, T3)
            if first is not None and second is not None:
                return (first, second)
    return None


def _images(embeddings):
    return [(tuple(map(e.pattern.out_mask, range(3))), e.image) for e in embeddings]


def _check_against_reference(g, packing):
    """Every cyclic element's move matches the reference; returns the rules."""
    rules = []
    for i, e in enumerate(packing.elements):
        if canonical_tournament_key(e.pattern) != C3_KEY:
            continue
        want = _reference_swap_c3(g, packing, i)
        got = swap_c3(g, packing, i)
        if want is None:
            assert got is None
            rules.append(None)
            continue
        moved, step = got
        assert step.rule == want[0]
        assert _images(step.removed) == _images(want[1])
        assert _images(step.inserted) == _images(want[2])
        kept = [e for e in packing.elements if e not in want[1]]
        assert _images(moved.elements) == _images(kept + list(want[2]))
        rules.append(step.rule)
    return rules


def test_swap_c3_matches_the_reference_on_seeded_packings():
    """Mixed seed packings as t3_pack builds them, then each packing the swap
    loop passes through: every cyclic element's move is the reference's."""
    seen = {}
    for n in (9, 12, 15, 18, 24, 30, 45):
        for seed in range(200):
            h = minimize_arcs_two_thirds(random_digraph_out_or_in(n, 7000 + 100 * n + seed))
            seed_cert = find_perfect_packing(h.underlying(), Digraph.complete(3))
            elements = []
            for e in seed_cert.packing.elements:
                triple = sorted(e.image)
                elements.append(spans_copy(h, triple, T3) or spans_copy(h, triple, C3))
            packing = Packing(n, tuple(elements))
            while True:
                for rule in _check_against_reference(h, packing):
                    seen[rule] = seen.get(rule, 0) + 1
                cyc = next((i for i, e in enumerate(packing.elements)
                            if canonical_tournament_key(e.pattern) == C3_KEY), None)
                if cyc is None:
                    break
                packing, _ = swap_c3(h, packing, cyc)
    assert seen.get("rebuild-out", 0) >= 10 and seen.get("rebuild-in", 0) >= 10
    assert None not in seen


# A partner triple that receives 7 arcs from the cycle (0, 1, 2) but spans
# only the path 3 -> 5 <- 4: vertex 0 sends to all of it and 1, 2 share the
# head 5, yet (0, 3, 4) has no arc between 3 and 4.  Against a partner that
# spans a triangle, 7 arcs always rebuild: some x sends to all 3, y and z
# send 4 between them into 3 vertices and so share a head t, and (y, z, t)
# and x with the rest of the partner then carry an arc on every pair.
_STUCK_ARCS = [(0, 1), (1, 2), (2, 0), (3, 5), (4, 5),
               (0, 3), (0, 4), (0, 5), (1, 3), (1, 5), (2, 4), (2, 5)]
# A transitive partner (6, 7, 8) that the cycle sends 7 arcs to and that rebuilds.
_GOOD_ARCS = [(6, 7), (6, 8), (7, 8),
              (0, 6), (0, 7), (0, 8), (1, 6), (1, 7), (2, 6), (2, 7)]
_PATH = Digraph.from_arcs(3, [(0, 2), (1, 2)])


def _swap_case(arcs, n, reverse):
    """Host and packing of the cycle (0, 1, 2), the path partner (3, 4, 5)
    and, for n = 9, the transitive partner (6, 7, 8), with every arc and
    every pattern reversed when reverse is set."""
    if reverse:
        arcs = [(v, u) for u, v in arcs]
    g = Digraph.from_arcs(n, arcs)

    def flip(p):
        return Digraph.from_arcs(3, [(v, u) for u, v in p.arcs()]) if reverse else p

    cyc = Embedding(C3, (0, 2, 1) if reverse else (0, 1, 2))
    elements = [cyc, Embedding(flip(_PATH), (3, 4, 5))]
    if n == 9:
        elements.append(Embedding(flip(T3), (6, 7, 8)))
    packing = Packing(n, tuple(elements))
    assert all(e.is_valid(g) for e in packing.elements)
    return g, packing


@pytest.mark.parametrize("reverse", [False, True])
def test_swap_c3_skips_a_partner_that_does_not_rebuild(reverse):
    """The failed rebuild falls through to the next partner."""
    g, packing = _swap_case(_STUCK_ARCS + _GOOD_ARCS, 9, reverse)
    rows = g._in if reverse else g._out
    assert _rebuild_pair(g, (0, 1, 2), 0b111000, rows) is None
    assert _check_against_reference(g, packing) == ["rebuild-in" if reverse else "rebuild-out"]
    moved, step = swap_c3(g, packing, 0)
    assert step.removed == (packing.elements[0], packing.elements[2])
    assert sorted(sorted(e.image) for e in step.inserted) == [[0, 7, 8], [1, 2, 6]]
    assert all(e.is_valid(g) for e in moved.elements)


@pytest.mark.parametrize("reverse", [False, True])
def test_swap_c3_is_stuck_when_no_partner_rebuilds(reverse):
    """A failed rebuild with no further partner, and a partner one arc short
    of 7, both leave the cycle without a move."""
    g, packing = _swap_case(_STUCK_ARCS, 6, reverse)
    assert _check_against_reference(g, packing) == [None]
    assert swap_c3(g, packing, 0) is None
    six = [(0, 1), (1, 2), (2, 0), (3, 4), (3, 5), (4, 5),
           (0, 3), (0, 4), (0, 5), (1, 3), (1, 5), (2, 5)]
    g, _ = _swap_case(six, 6, reverse)
    packing = Packing(6, (packing.elements[0], Embedding(T3, (5, 4, 3) if reverse else (3, 4, 5))))
    assert all(e.is_valid(g) for e in packing.elements)
    assert _check_against_reference(g, packing) == [None]


def test_swap_c3_tries_the_out_rule_first():
    """A partner joined to the cycle both ways trades 9 arcs in each
    direction; the out-rows are tried first."""
    both = [(x, t) for x in range(3) for t in range(3, 6)]
    g = Digraph.from_arcs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (3, 5), (4, 5)]
                          + both + [(t, x) for x, t in both])
    packing = Packing(6, (Embedding(C3, (0, 1, 2)), Embedding(T3, (3, 4, 5))))
    assert _check_against_reference(g, packing) == ["rebuild-out"]
    moved, _ = swap_c3(g, packing, 0)
    assert [sorted(e.image) for e in moved.elements] == [[1, 2, 3], [0, 4, 5]]
