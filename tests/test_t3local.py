import pytest
from hypothesis import given, settings, strategies as st

from tpack.core import Digraph, DomainError, Embedding, Tournament, bits, canonical_tournament_key
from tpack.constructions import random_digraph_out_or_in
from tpack.solver import Packing, find_perfect_packing, verify_packing, PACKED
from tpack.t3local import (
    minimize_arcs_two_thirds,
    swap_c3,
    t3_pack,
    two_thirds_threshold,
)

T3 = Tournament.transitive(3)


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
