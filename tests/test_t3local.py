import pytest
from hypothesis import given, settings, strategies as st

from tpack.core import Digraph, DomainError, Embedding, Tournament, canonical_tournament_key
from tpack.constructions import random_digraph_out_or_in
from tpack.solver import Packing, find_perfect_packing, verify_packing, PACKED
from tpack.t3local import (
    minimize_arcs_two_thirds,
    satisfies_out_or_in,
    swap_c3,
    t3_pack,
    two_thirds_threshold,
)

T3 = Tournament.transitive(3)


def test_threshold_values():
    assert two_thirds_threshold(6) == 4
    assert two_thirds_threshold(9) == 6
    assert two_thirds_threshold(12) == 8


def test_satisfies_out_or_in():
    assert satisfies_out_or_in(Digraph.complete(6))
    assert not satisfies_out_or_in(Digraph.empty(6))
    # a single high-out vertex is enough for that vertex
    g = Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 2), (2, 1)])
    assert satisfies_out_or_in(g)


def test_minimize_keeps_condition_and_is_minimal():
    g = Digraph.complete(6)
    m = minimize_arcs_two_thirds(g)
    assert satisfies_out_or_in(m)
    # removing any remaining arc must break the condition
    for u, v in m.arcs():
        smaller = m.minus_arcs([(u, v)])
        assert not satisfies_out_or_in(smaller)
    assert m.num_arcs <= g.num_arcs


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
