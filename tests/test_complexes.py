import random

from hypothesis import given, settings, strategies as st
import pytest

from tpack.core import Digraph, DomainError, InvariantViolation, Tournament
from tpack.complexes import (
    Complex,
    build_complex,
    check_matching_threshold,
    degree_sequence,
    is_downward_closed,
    matching_to_packing,
    packing_to_matching,
    subtournaments_by_size,
    top_layer_matching,
)
from tpack.constructions import make_c3_blowup


def random_digraph(n, seed, p=0.5):
    rng = random.Random(seed)
    rows = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                rows[u] |= 1 << v
    return Digraph(n, rows)


def test_subtournament_classes():
    assert [len(x) for x in subtournaments_by_size(Tournament.transitive(3))] == [1, 1, 1, 1]
    assert [len(x) for x in subtournaments_by_size(Tournament.cyclic_triangle())] == [1, 1, 1, 1]
    # a transitive 4-tournament induces only transitive triples
    assert [len(x) for x in subtournaments_by_size(Tournament.transitive(4))] == [1, 1, 1, 1, 1]


def test_complete_host_layers():
    g = Digraph.complete(6)
    for t in (Tournament.transitive(3), Tournament.cyclic_triangle()):
        c = build_complex(g, t)
        assert c.layer_sizes() == (1, 6, 15, 20)
        assert is_downward_closed(c)
        assert degree_sequence(c) == (6, 5, 4)
        holds, failing = check_matching_threshold(c, 0.1)
        assert holds and failing is None


def test_blowup_layer_counts():
    g0, _ = make_c3_blowup(9, 0)
    c0 = build_complex(g0, Tournament.transitive(3))
    assert c0.layer_sizes() == (1, 9, 36, 57)
    assert degree_sequence(c0) == (9, 8, 4)
    assert check_matching_threshold(c0, 0.15) == (True, None)

    g1, _ = make_c3_blowup(9, 1)
    c1 = build_complex(g1, Tournament.cyclic_triangle())
    assert c1.layer_sizes() == (1, 9, 36, 29)
    assert degree_sequence(c1) == (9, 8, 0)
    # a pair with no cyclic completion kills the top-layer bound
    assert check_matching_threshold(c1, 0.15) == (False, 2)


def test_matching_threshold_refuses_eps_outside_unit_interval():
    c = build_complex(make_c3_blowup(9, 0)[0], Tournament.transitive(3))
    assert check_matching_threshold(c, 0.0) == (True, None)
    assert check_matching_threshold(c, 0.999) == (True, None)
    for eps in (1.0, 5.0, -1.0, -1e-9, float("nan"), float("inf")):
        with pytest.raises(DomainError, match=r"eps must lie in \[0, 1\)"):
            check_matching_threshold(c, eps)


def test_layer_validation():
    with pytest.raises(DomainError):
        Complex(3, 2, (frozenset({0}), frozenset({1})))
    with pytest.raises(DomainError):
        Complex(3, 1, (frozenset({0}), frozenset({0b11})))


def test_degree_sequence_rejects_gap():
    c = Complex(3, 2, (frozenset({0}), frozenset(), frozenset({0b11})))
    with pytest.raises(InvariantViolation):
        degree_sequence(c)


def test_matching_modes_and_lifting():
    g = Digraph.complete(6)
    t = Tournament.transitive(3)
    c = build_complex(g, t)
    greedy = top_layer_matching(c, "greedy")
    assert greedy == [(0, 1, 2), (3, 4, 5)]
    exact = top_layer_matching(c, "exact")
    assert len(exact) == 2
    packing = matching_to_packing(g, t, exact)
    assert packing.is_perfect
    assert packing_to_matching(packing) == exact
    with pytest.raises(DomainError):
        top_layer_matching(c, "fastest")


def test_matching_to_packing_rejects_nonspanning_set():
    t = Tournament.transitive(3)
    with pytest.raises(DomainError):
        matching_to_packing(Digraph.empty(6), t, [(0, 1, 2)])


@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=3, max_value=6),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_built_complexes_are_downward_closed(seed, n, cyclic):
    g = random_digraph(n, seed)
    t = Tournament.cyclic_triangle() if cyclic else Tournament.transitive(3)
    c = build_complex(g, t)
    assert is_downward_closed(c)
    greedy = top_layer_matching(c, "greedy")
    seen = set()
    for e in greedy:
        assert not seen & set(e)
        seen |= set(e)
    exact = top_layer_matching(c, "exact")
    assert len(exact) >= len(greedy)
    for e in exact:
        packing = matching_to_packing(g, t, [e])
        assert packing_to_matching(packing) == [e]


def test_downward_closure_refuses_a_missing_face():
    full = Complex(3, 2, (frozenset({0}), frozenset({0b001, 0b010, 0b100}),
                          frozenset({0b011, 0b110})))
    assert is_downward_closed(full)
    for layer, face in ((0, 0), (1, 0b100), (1, 0b001)):
        layers = list(full.layers)
        layers[layer] = layers[layer] - {face}
        assert not is_downward_closed(Complex(3, 2, tuple(layers))), (layer, face)


def _reference_degree_sequence(c):
    """Per-layer minimum up-degrees by scanning every upper edge for each lower edge."""
    out = [len(c.layers[1])]
    for i in range(1, c.k):
        if not c.layers[i] and c.layers[i + 1]:
            raise InvariantViolation(f"layer {i} empty but layer {i + 1} is not")
        out.append(min((sum(1 for up in c.layers[i + 1] if up & m == m)
                        for m in c.layers[i]), default=0))
    return tuple(out)


def test_degree_sequence_matches_the_reference_on_random_layers():
    """Random layers, not necessarily downward closed, some of them empty."""
    rng = random.Random(5)
    raised = 0
    for _ in range(400):
        n, k = rng.randrange(1, 7), rng.randrange(1, 5)
        layers = [frozenset({0})] + [
            frozenset(m for m in range(1 << n) if m.bit_count() == i and rng.random() < 0.4)
            for i in range(1, k + 1)]
        c = Complex(n, k, tuple(layers))
        try:
            want = _reference_degree_sequence(c)
        except InvariantViolation as exc:
            with pytest.raises(InvariantViolation, match=str(exc)):
                degree_sequence(c)
            raised += 1
            continue
        assert degree_sequence(c) == want
    assert raised
