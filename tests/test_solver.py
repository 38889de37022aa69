import hashlib
import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from tpack.complexes import build_complex
from tpack.core import (
    Digraph,
    DomainError,
    Embedding,
    Tournament,
    all_tournaments,
    bits,
    ceil_frac,
    k3_minus_pattern,
    copy_masks,
    iter_copies,
    mask_of,
    spans_copy,
    _plans,
    _transpose,
)
from tpack import core, solver
from tpack.harness import iter_min_semidegree_hosts
from tpack.t3local import t3_pack
from tpack.solver import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    _candidate_embeddings,
    _first_fit,
    _mirror,
    EXHAUSTED_NONE,
    PACKED,
    Packing,
    find_max_packing,
    find_perfect_family_packing,
    find_perfect_packing,
    max_disjoint_sets,
    normalize_patterns,
    validate_obstruction,
    verify_packing,
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
    # the search gives up on the node past its budget, so it reports budget + 1
    g = Digraph.complete(15)
    for budget in (0, 1, 3):
        cert = find_perfect_packing(g, C3, budget=budget)
        assert (cert.verdict, cert.nodes) == (BUDGET_EXCEEDED, budget + 1)
    cert = find_perfect_packing(g, C3, budget=5)
    assert (cert.verdict, cert.nodes) == (PACKED, 5)
    # the maximum search charges the budget the same way and then falls back
    # to the greedy packing, which it does not prove largest
    res = find_max_packing(g, C3, budget=3)
    assert (res.nodes, res.exact) == (4, False)
    assert verify_packing(g, C3, res.packing)
    chosen, exact = max_disjoint_sets(15, copy_masks(g, C3), budget=2)
    assert not exact and chosen
    assert all(not a & b for a, b in itertools.combinations(chosen, 2))


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


def test_normalize_patterns_edge_cases():
    # a normalized 1-tuple comes back as it is
    fam = (T3,)
    assert normalize_patterns(fam) is fam
    # a 1-tuple is still checked
    for bad in ((object(),), (Digraph.empty(0),), ("t3",)):
        with pytest.raises(DomainError):
            normalize_patterns(bad)
    # other inputs are deduplicated into canonical row order
    canonical = tuple(sorted([T3, C3], key=lambda p: p._out))
    assert normalize_patterns([C3, T3]) == canonical
    assert normalize_patterns((C3, T3, C3)) == canonical
    assert normalize_patterns([T3]) == (T3,)
    assert normalize_patterns(T3) == (T3,)
    assert normalize_patterns((T3, Digraph(3, T3._out))) == (T3,)
    assert normalize_patterns(iter([C3, C3])) == (C3,)


def reference_verify_packing(g, pattern_or_family, packing, require_perfect=False):
    """verify_packing as it was when it checked each element with
    Embedding.is_valid; kept as the reference for the raw-row version."""
    fam = normalize_patterns(pattern_or_family)
    keys = {tuple(p.out_mask(v) for v in range(p.n)) for p in fam}
    if packing.n != g.n:
        return False
    seen = 0
    for e in packing.elements:
        pkey = tuple(e.pattern.out_mask(v) for v in range(e.pattern.n))
        if pkey not in keys:
            return False
        if not e.is_valid(g):
            return False
        em = e.vertex_mask
        if em & seen:
            return False
        seen |= em
    if require_perfect and seen != (1 << g.n) - 1:
        return False
    return True


def unchecked_packing(n, elements):
    """A Packing built without its own overlap and range checks, as a
    corrupted payload could arrive."""
    packing = object.__new__(Packing)
    object.__setattr__(packing, "n", n)
    object.__setattr__(packing, "elements", tuple(elements))
    return packing


def verify_cases(g, family, packing):
    """(host, family, packing, require_perfect, expected verdict) for a valid
    perfect packing and each kind of corruption of it."""
    n, elems = g.n, packing.elements
    first = elems[0]
    pat, image = first.pattern, first.image
    rest = elems[1:]
    # no arcs, so only pattern membership can reject it
    other = Digraph.empty(pat.n)

    def with_first(e):
        return unchecked_packing(n, (e,) + rest)

    a, b = next(pat.arcs())
    # a plain Digraph with the rows of the element's pattern (a Tournament,
    # unless the family holds none)
    twin = Digraph(pat.n, pat._out)
    return [
        (g, family, packing, True, True),
        (g, family, packing, False, True),
        # a pattern outside the family, as the element's or as the family
        (g, family, with_first(Embedding(other, image)), False, False),
        (g, [other], packing, False, False),
        # equal rows make the same pattern, whatever the class
        (g, family, with_first(Embedding(twin, image)), True, True),
        (g, [Digraph(p.n, p._out) for p in normalize_patterns(family)], packing, True, True),
        # a repeated vertex in place of another; one appended past the
        # pattern's order passes, as the reference counts distinct vertices
        (g, family, with_first(Embedding(pat, (image[0],) + image[:-1])), False, False),
        (g, family, with_first(Embedding(pat, image + (image[0],))), True, True),
        (g, family, with_first(Embedding(pat, image[:-1])), False, False),
        # a vertex out of range, above and below
        (g, family, with_first(Embedding(pat, image[:-1] + (n,))), False, False),
        (g, family, with_first(Embedding(pat, (-1,) + image[1:])), False, False),
        # a host arc the packing uses is missing
        (g.minus_arcs([(image[a], image[b])]), family, packing, False, False),
        # the packing claims another host order
        (g, family, unchecked_packing(n + pat.n, elems), False, False),
        (g, family, unchecked_packing(n - pat.n, rest), False, False),
        # two elements overlap
        (g, family, unchecked_packing(n, elems + (first,)), False, False),
        # not perfect: fails only when coverage is asked for
        (g, family, unchecked_packing(n, rest), False, True),
        (g, family, unchecked_packing(n, rest), True, False),
        (g, family, unchecked_packing(n, ()), True, False),
    ]


def test_verify_packing_matches_the_is_valid_reference():
    checked = 0
    for family, n in (([T3], 9), ([C3], 12), ([Tournament.transitive(4)], 12),
                      ([T3, C3], 9), ([k3_minus_pattern()], 9)):
        r = family[0].n
        for seed in range(4):
            g = random_digraph_min_semidegree(n, ceil_frac((r - 1) * n, r), seed)
            cert = find_perfect_family_packing(g, family)
            assert cert.verdict == PACKED
            for host, fam, packing, perfect, want in verify_cases(g, family, cert.packing):
                got = verify_packing(host, fam, packing, require_perfect=perfect)
                ref = reference_verify_packing(host, fam, packing, require_perfect=perfect)
                assert got == ref == want
                checked += 1
    assert checked == 5 * 4 * 18


@given(st.sampled_from(["t3", "c3", "t4"]), st.integers(1, 4), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_packing_rows_decide_verify_packing_on_hosts_of_its_order(name, blocks, seed):
    pattern = {"t3": T3, "c3": C3, "t4": Tournament.transitive(4)}[name]
    r = pattern.n
    n = r * min(blocks, 12 // r)
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]

    def host(keep):
        return Digraph.from_arcs(n, [arc for arc in pairs if rng.random() < keep])

    # plant a packing on shuffled blocks so that h has one
    perm = rng.sample(range(n), n)
    planted = [(perm[i + a], perm[i + b]) for i in range(0, n, r) for a, b in pattern.arcs()]
    h = Digraph.from_arcs(n, set(planted) | set(host(0.5).arcs()))
    packing = find_perfect_family_packing(h, [pattern]).packing
    assert verify_packing(h, [pattern], packing, require_perfect=True)
    need = solver._packing_rows(packing)

    def fits(g):
        return solver._fits(need, g)

    others = [host(keep) for keep in (0.6, 0.9, 0.97, 1.0) for _ in range(5)]
    # a host without any one arc of the packing fails both
    lacking = [h.minus_arcs([(e.image[a], e.image[b])])
               for e in packing.elements for a, b in e.pattern.arcs()]
    for g in [h, *others, *lacking]:
        assert fits(g) == verify_packing(g, [pattern], packing, require_perfect=True)
    assert fits(h) and not any(map(fits, lacking))


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
        # mirrored labels: mirrored back they follow the combination loop,
        # and as integers they strictly decrease
        assert [_mirror(g.n, m) for m in masks] == want_masks
        assert all(a > b for a, b in zip(masks, masks[1:]))
        assert all(embed(m) == want_emb[_mirror(g.n, m)] for m in masks)


@given(st.integers(min_value=4, max_value=7), st.integers(min_value=0, max_value=500))
@settings(max_examples=60, deadline=None)
def test_max_packing_matches_brute_force(n, seed):
    g = random_digraph(n, seed)
    fam = [T3, C3]
    res = find_max_packing(g, fam)
    assert res.exact
    assert verify_packing(g, fam, res.packing)
    assert len(res.packing.elements) == brute_max_triples(g, fam)


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Digraph.from_arcs(g.n, [(perm[u], perm[v]) for u, v in g.arcs()])


def _packing_rows(packing):
    return [[list(e.image), [e.pattern.out_mask(v) for v in range(e.pattern.n)]]
            for e in packing.elements]


def _pinned_perfect_cases(kind):
    T4 = Tournament.transitive(4)
    if kind == "prove-none":
        rng = random.Random("pinned-prove-none")
        blowup = [[C3], [T3, C3]]
        cases = [
            (make_k3minus_example(6), [[k3_minus_pattern()]]),
            (make_near_independent_extremal(12, 4), [[T4]]),
            (make_near_independent_extremal(15, 3), [[T3]]),
            (make_near_tournament_extremal(15, 3), [[Digraph.complete(3)]]),
            (make_c3_blowup(15, 1)[0], blowup),
            (make_c3_blowup(18, 1)[0], blowup),
        ]
        for g, families in cases:
            for _ in range(2):
                h = _relabelled(g, rng)
                for family in families:
                    yield h, family
    else:
        for family, n in (([T3], 30), ([C3], 30), ([T3, C3], 30), ([T4], 20)):
            r = family[0].n
            dmin = ceil_frac((r - 1) * n, r)
            for seed in range(4):
                yield random_digraph_min_semidegree(n, dmin, 7000 + seed), family


def _pinned_max_cases():
    for n in range(7, 13):
        for i, density in enumerate((0.3, 0.5, 0.7)):
            g = random_digraph(n, 900 + 10 * n + i, density)
            for family in ([T3], [C3], [T3, C3]):
                yield g, family
        yield Digraph.empty(n), [T3]
    yield make_c3_blowup(9, 1)[0], [C3]
    yield make_c3_blowup(12, 1)[0], [C3]
    yield make_source_counterexample(9), [C3]
    yield make_k3minus_example(0), [k3_minus_pattern()]
    yield random_digraph(12, 77, 0.5), [Tournament.transitive(4)]


def _pinned_outputs(kind):
    """Verdicts, node counts, packings and obstructions as JSON rows, pinned
    below by sha256."""
    if kind in ("prove-none", "semidegree"):
        for g, family in _pinned_perfect_cases(kind):
            cert = find_perfect_family_packing(g, family)
            row = [cert.verdict, cert.nodes,
                   None if cert.packing is None else _packing_rows(cert.packing)]
            if cert.obstruction is not None:
                row.append(cert.obstruction.to_dict())
            yield row
    elif kind == "max-packing":
        for g, family in _pinned_max_cases():
            res = find_max_packing(g, family)
            yield [res.exact, res.nodes, _packing_rows(res.packing)]
    else:
        for n in (6, 8, 10, 12):
            for i, density in enumerate((0.4, 0.7)):
                g = random_digraph(n, 300 + 10 * n + i, density)
                for t in (T3, C3, Tournament.transitive(4)):
                    c = build_complex(g, t)
                    for layer in range(1, t.n + 1):
                        for masks in ([mask_of(e) for e in c.edges(layer)],
                                      sorted(c.layers[layer], reverse=True)):
                            yield list(max_disjoint_sets(n, masks))


def _sha_rows(rows):
    digest = hashlib.sha256()
    count = 0
    for row in rows:
        digest.update(json.dumps(row).encode())
        count += 1
    return count, digest.hexdigest()


# the packings and the node counts of packed rows follow the first-fit stage,
# so these hashes move whenever it picks other copies; the verdicts below do not.
# Every exhausted-none prove-none row carries the barrier stage's obstruction
# and 0 nodes; _PINNED_EXACT_SEARCH pins the exact search's own rows.
# max-packing rows carry node counts, which move with any change to the levels
# or the prune of the maximum search; its exact flags and packings are pinned
# apart below
_PINNED_SOLVER = {
    "disjoint-sets": (160, "816cb4d4ae57c7626fbabd4409b87d9748fa3cffbdce7a96dbefa7cc6e0da960"),
    "max-packing": (65, "c852da2d080551378367255f06eb8c5d96fd58f81410c2102e561aff0403aed1"),
    "prove-none": (16, "af5c2367dbfb0ef1dff99acc1db78c69bb8f8ac44d83bac505fe543857b9bba0"),
    "semidegree": (16, "5e4b008b5b9e41b0aa747514c552c1c52c4fd8ce51266fc12e673a5faa065b95"),
}


@pytest.mark.parametrize("kind", sorted(_PINNED_SOLVER))
def test_solver_outputs_are_pinned(kind):
    assert _sha_rows(_pinned_outputs(kind)) == _PINNED_SOLVER[kind]


# exact flags and packings of the max-packing cases without their node
# counts, computed before the search stopped on reaching n // r copies
_PINNED_MAX_PACKINGS = (65, "b337f99f334fa11b24771269188c92f6063962d64d66a299afd0401fbd4e781a")


def test_max_packings_are_pinned_without_nodes():
    rows = ([res.exact, _packing_rows(res.packing)]
            for res in (find_max_packing(g, family) for g, family in _pinned_max_cases()))
    assert _sha_rows(rows) == _PINNED_MAX_PACKINGS


def test_max_packing_stops_once_it_holds_n_over_r_copies():
    g = random_digraph_out_or_in(30, 4)
    res = find_max_packing(g, C3, budget=20_000)
    assert res.exact and len(res.packing) == 10
    assert verify_packing(g, C3, res.packing)
    chosen, exact = max_disjoint_sets(30, copy_masks(g, C3), budget=20_000)
    assert exact and len(chosen) == 10


@pytest.mark.parametrize("independent", [range(8), range(4, 12)], ids=["low", "high"])
def test_max_packing_reaches_the_space_barrier_bound(independent):
    # 8 of the 12 vertices are independent and every other arc runs both
    # ways: each t3 copy uses at most one of the 8, so at most (12 - 8) // 2
    # copies fit.  With the 8 on top the greedy packing takes 0, 1, 2 first
    # and holds only one copy, so a search that starts at too many skips
    # returns that one
    n = 12
    g = Digraph.from_arcs(n, [(u, v) for u in range(n) for v in range(n)
                              if u != v and not (u in independent and v in independent)])
    res = find_max_packing(g, T3)
    assert res.exact and len(res.packing) == 2
    assert verify_packing(g, T3, res.packing)


@pytest.mark.parametrize("n", [15, 18, 21, 24, 27])
def test_max_packing_on_near_independent_hosts_takes_few_nodes(n):
    g = make_near_independent_extremal(n, 3)
    res = find_max_packing(g, T3)
    assert res.exact and len(res.packing) == n // 3 - 1
    assert res.nodes <= 20
    assert verify_packing(g, T3, res.packing)


# verdicts, plus the node count of every verdict but packed, which the
# barrier stage (0 nodes) or the exact search gives; the first-fit stage must
# give up wherever no packing exists
_PINNED_VERDICTS = {
    "prove-none": (16, "acee105bb3a1aea5f49c1020c74ef5c96be221149a3c1f034fd4ede68e9a3ae8"),
    "semidegree": (16, "9f54d11d8e44ba20024782683d235cedc2384490c9153ad4232a9803879416c8"),
}


@pytest.mark.parametrize("kind", sorted(_PINNED_VERDICTS))
def test_solver_verdicts_are_pinned(kind):
    rows = []
    for g, family in _pinned_perfect_cases(kind):
        cert = find_perfect_family_packing(g, family)
        rows.append([cert.verdict] if cert.found else [cert.verdict, cert.nodes])
        if cert.verdict == EXHAUSTED_NONE:
            assert _first_fit(g, normalize_patterns(family), DEFAULT_BUDGET) is None
    assert _sha_rows(rows) == _PINNED_VERDICTS[kind]


# the prove-none verdicts alone, with no node counts: they must hold through
# any change to which stage reaches a verdict or how many nodes it takes
_PINNED_PROVE_NONE_VERDICTS = (16, "8d26d9af1010b59ec1459e871318961135059211e9de2c1d25a918b4c1ac9cf2")


def test_prove_none_verdicts_are_pinned_without_nodes():
    rows = ([find_perfect_family_packing(g, family).verdict]
            for g, family in _pinned_perfect_cases("prove-none"))
    assert _sha_rows(rows) == _PINNED_PROVE_NONE_VERDICTS


# the prove-none rows of _PINNED_SOLVER and _PINNED_VERDICTS as the exact
# search alone gives them, computed before the barrier stage existed: its node
# counts must not move with a change to the other stages or the witness prune
_PINNED_EXACT_SEARCH = {
    "outputs": (16, "864d867df3eefa4245bb28794b0327809c71e532306b618ed5bdfe4d63878404"),
    "verdicts": (16, "693b05adc90dc60c6f9fe8b140b9381f172928dafca10b8fee372fa6141408e0"),
}


def test_exact_search_pins_hold_without_the_barrier_stage(monkeypatch):
    monkeypatch.setattr(solver, "_barrier", lambda *args: None)
    assert _sha_rows(_pinned_outputs("prove-none")) == _PINNED_EXACT_SEARCH["outputs"]
    rows = []
    for g, family in _pinned_perfect_cases("prove-none"):
        cert = find_perfect_family_packing(g, family)
        assert cert.obstruction is None
        rows.append([cert.verdict] if cert.found else [cert.verdict, cert.nodes])
    assert _sha_rows(rows) == _PINNED_EXACT_SEARCH["verdicts"]


def test_pinned_prove_none_obstructions_validate():
    kinds = set()
    for g, family in _pinned_perfect_cases("prove-none"):
        cert = find_perfect_family_packing(g, family)
        if cert.verdict == EXHAUSTED_NONE:
            assert cert.nodes == 0 and validate_obstruction(g, family, cert.obstruction)
            kinds.add((cert.obstruction.kind, cert.obstruction.modulus))
    assert kinds == {("space", None), ("divisibility", 3)}


def _with_weights(obs, weights):
    return solver.Obstruction(obs.kind, tuple(weights), obs.modulus)


def test_validate_obstruction_rejects_damaged_certificates():
    g = make_near_independent_extremal(15, 3)
    obs = find_perfect_packing(g, T3).obstruction
    assert obs.kind == "space" and validate_obstruction(g, T3, obs)
    inside = [v for v in range(15) if obs.weights[v]]
    # moving any vertex of S out and another vertex in puts two of S in one copy
    for out in inside:
        for into in set(range(15)) - set(inside):
            w = list(obs.weights)
            w[out], w[into] = 0, 1
            assert not validate_obstruction(g, T3, _with_weights(obs, w))
    assert not validate_obstruction(g, T3, _with_weights(obs, [0 if v == inside[0] else x
                                                               for v, x in enumerate(obs.weights)]))

    g = make_k3minus_example(6)
    pattern = k3_minus_pattern()
    obs = find_perfect_packing(g, pattern).obstruction
    assert (obs.kind, obs.modulus) == ("divisibility", 3)
    assert validate_obstruction(g, pattern, obs)
    # every vertex lies in a copy, so changing any one weight breaks that copy
    for v in range(g.n):
        for value in set(range(3)) - {obs.weights[v]}:
            w = list(obs.weights)
            w[v] = value
            assert not validate_obstruction(g, pattern, _with_weights(obs, w))
    for bad in (solver.Obstruction("divisibility", obs.weights, 1),
                solver.Obstruction("space", obs.weights, None),
                solver.Obstruction("parity", obs.weights, 3),
                solver.Obstruction("divisibility", obs.weights[1:], 3)):
        assert not validate_obstruction(g, pattern, bad)


def _gf_coords(x, n):
    return [solver._gf_value(x, i) for i in range(n)]


def _gf_planes(values, p):
    return tuple(sum(1 << i for i, v in enumerate(values) if v == k) for k in range(1, p))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_gf_axpy_matches_coordinatewise_arithmetic(p):
    rng = random.Random(p)
    for _ in range(200):
        x, y = ([rng.randrange(p) for _ in range(9)] for _ in range(2))
        c = rng.randrange(1, p)
        got = solver._gf_axpy(_gf_planes(x, p), _gf_planes(y, p), c, p)
        assert _gf_coords(got, 9) == [(a + c * b) % p for a, b in zip(x, y)]


@pytest.mark.parametrize("p, n", [(2, 6), (3, 6), (5, 5)])
def test_divisibility_barrier_exists_exactly_when_some_weighting_does(p, n):
    rng = random.Random(f"gf{p}")
    all_weights = list(itertools.product(range(p), repeat=n))
    seen = set()
    for trial in range(60):
        r = rng.choice([2, 3])
        sets = list(itertools.combinations(range(n), r))
        masks = sorted({mask_of(c) for c in rng.sample(sets, rng.randint(1, len(sets)))},
                       reverse=True)
        def fits(w):
            return (all(sum(w[v] for v in bits(m)) % p == 0 for m in masks)
                    and sum(w) % p != 0)
        got = solver._divisibility_barrier(n, solver._columns(n, _transpose(n, masks)), p)
        exists = any(fits(w) for w in all_weights)
        assert (got is not None) == exists
        if got is not None:
            assert fits(_gf_coords(got, n))
        seen.add(exists)
    assert seen == {True, False}


def _barrier_cases():
    """Seeded random families of r-sets on n <= 12 vertices, for p = 2, 3, 5."""
    rng = random.Random("divisibility-pin")
    for p in (2, 3, 5):
        for _ in range(80):
            n = rng.randint(3, 12)
            sets = list(itertools.combinations(range(n), min(rng.choice([2, 3, 4]), n)))
            k = rng.randint(1, min(len(sets), 2 * n))
            yield p, n, sorted({mask_of(c) for c in rng.sample(sets, k)}, reverse=True)


# the exact weight tuples, computed before the barrier eliminated columns
# instead of rows; the weights depend only on the span of the sets
_PINNED_BARRIERS = (240, "1eb0bb87ac813ca1dbde59c673ad68ab694005b243a701ff230815d9730daf7b")


def test_divisibility_barrier_weights_are_pinned():
    rows = []
    for p, n, masks in _barrier_cases():
        w = solver._divisibility_barrier(n, solver._columns(n, _transpose(n, masks)), p)
        rows.append([p, n, None if w is None else list(w)])
    assert {(p, w is None) for p, _, w in rows} == {(p, b) for p in (2, 3, 5) for b in (False, True)}
    assert _sha_rows(rows) == _PINNED_BARRIERS


def test_max_disjoint_sets_exact_flag():
    masks = [0b0011, 0b1100, 0b0110]
    got, complete = max_disjoint_sets(4, masks, budget=10**6)
    assert complete
    assert len(got) == 2


@pytest.mark.parametrize("n, masks, named", [
    (3, [0b1001], "0b1001"),
    (3, [0b011, 0b1100], "0b1100"),
    (4, [0b0011, -1], "-0b1"),
    (5, [-0b110], "-0b110"),
    (0, [1], "0b1"),
])
def test_max_disjoint_sets_rejects_masks_outside_the_host(n, masks, named):
    with pytest.raises(DomainError, match=f"mask {named} "):
        max_disjoint_sets(n, masks)


def brute_has_perfect_packing(g, family):
    """Perfect packing exists: cover the lowest free vertex with every spanning r-set."""
    r = family[0].n

    def cover(free):
        if not free:
            return True
        v, rest = free[0], free[1:]
        for others in itertools.combinations(rest, r - 1):
            if any(spans_copy(g, (v,) + others, p) is not None for p in family):
                if cover(tuple(w for w in rest if w not in others)):
                    return True
        return False

    return cover(tuple(range(g.n)))


@pytest.mark.parametrize("family", [[T3], [C3], [T3, C3], [k3_minus_pattern()]],
                         ids=["t3", "c3", "t3-c3", "k3-minus"])
def test_perfect_verdict_matches_brute_force(family):
    verdicts = []
    for n in (3, 6, 9):
        for density in (0.3, 0.4, 0.5, 0.6, 0.7):
            for seed in range(4):
                g = random_digraph(n, 1000 * n + 10 * seed + int(10 * density), density)
                cert = find_perfect_family_packing(g, family)
                assert cert.verdict == (PACKED if brute_has_perfect_packing(g, family)
                                        else EXHAUSTED_NONE)
                if cert.obstruction is not None:
                    assert validate_obstruction(g, family, cert.obstruction)
                if cert.found:
                    assert verify_packing(g, family, cert.packing, require_perfect=True)
                # the first-fit stage alone may give up, but never packs where
                # brute force finds nothing
                quick = _first_fit(g, normalize_patterns(family), DEFAULT_BUDGET)
                if quick is not None:
                    assert cert.found
                    assert verify_packing(g, family, quick.packing, require_perfect=True)
                verdicts.append(cert.verdict)
    # the oracle must see both verdicts often enough to mean something
    assert verdicts.count(PACKED) >= 10 and verdicts.count(EXHAUSTED_NONE) >= 10


def test_packing_uncovered():
    g = Digraph.complete(6)
    e = find_perfect_packing(g, T3).packing.elements[0]
    p = Packing(6, (e,))
    assert set(p.uncovered()) == set(range(6)) - set(e.image)
    assert not p.is_perfect


@pytest.mark.parametrize("pattern", [T3, C3], ids=["t3", "c3"])
def test_first_fit_packings_verify_on_every_n6_threshold_host(pattern):
    settled = 0
    for g in iter_min_semidegree_hosts(6, 4):
        quick = _first_fit(g, (pattern,), DEFAULT_BUDGET)
        if quick is not None:
            assert quick.verdict == PACKED and quick.nodes >= 2
            assert verify_packing(g, pattern, quick.packing, require_perfect=True)
            settled += 1
    assert settled == 6600


def test_first_fit_stops_at_its_node_cap(monkeypatch):
    # the near-independent host has no t3 packing, so first-fit runs to its cap
    g = make_near_independent_extremal(15, 3)
    branched = []  # one branch vertex per node
    real = solver._copies_through

    def counted(g, fam, within, a):
        branched.append(a)
        return real(g, fam, within, a)

    monkeypatch.setattr(solver, "_copies_through", counted)
    assert _first_fit(g, (T3,), DEFAULT_BUDGET) is None
    assert len(branched) == 15 // 3 + 32
    branched.clear()
    assert _first_fit(g, (T3,), 7) is None
    assert len(branched) == 7


def test_disjoint_cyclic_triangles_pack_without_recursion():
    k = 1000
    arcs = [(3 * i + a, 3 * i + (a + 1) % 3) for i in range(k) for a in range(3)]
    g = Digraph.from_arcs(3 * k, arcs)
    cert = find_perfect_packing(g, C3)
    assert cert.verdict == PACKED and cert.nodes == k
    assert verify_packing(g, C3, cert.packing, require_perfect=True)
    res = find_max_packing(g, C3)
    assert res.exact and len(res.packing) == k
    # first-fit takes 0->1->2->0 first in each block and must back out of it,
    # so it passes its cap and the exact search has to go 1,000 levels deep
    block = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (2, 5), (5, 1)]
    k = 500
    g = Digraph.from_arcs(6 * k, [(6 * i + a, 6 * i + b) for i in range(k) for a, b in block])
    cert = find_perfect_packing(g, C3)
    assert cert.verdict == PACKED
    assert verify_packing(g, C3, cert.packing, require_perfect=True)


def _rooted(family):
    """The plans first-fit hands _copies_through: each pattern with its roots."""
    return [(pat, _plans(pat)[2]) for pat in family]


@pytest.mark.parametrize("family", [(T3,), (C3,), (T3, C3)], ids=["t3", "c3", "t3+c3"])
def test_copies_through_yields_each_vertex_set_once(family):
    for g in (Digraph.complete(6), random_digraph(9, 17, density=0.7)):
        full = (1 << g.n) - 1
        masks = [mask for mask, _ in solver._copies_through(g, _rooted(family), full, 0)]
        assert len(masks) == len(set(masks)) > 0
        assert set(masks) == {mask for pat in family for mask, _ in iter_copies(g, pat, full, 0)}


SEQUENCE_FAMILIES = [(C3,), (Digraph.complete(3),), (T3,), (Tournament.transitive(4),),
                     (k3_minus_pattern(),), (T3, C3)] + [(t,) for t in all_tournaments(4)]


@pytest.mark.parametrize("family", SEQUENCE_FAMILIES)
def test_copies_through_is_iter_copies_first_per_set(family):
    """Dropping the rooted plans whose root an automorphism maps lower keeps
    first-fit's sequence: every (mask, image) and its order, as the first
    iter_copies copy on each set over the family's patterns in turn."""
    rng = random.Random(len(family) * 100 + sum(p.num_arcs for p in family))
    for trial in range(150):
        n = rng.randint(3, 10)
        g = random_digraph(n, rng.getrandbits(32), rng.choice([0.3, 0.65, 0.9, 1.0]))
        within = (1 << n) - 1 if trial % 3 == 0 else rng.getrandbits(n)
        a = rng.randrange(n)
        want, seen = [], set()
        for pat in family:
            for mask, image in iter_copies(g, pat, within, a):
                if mask not in seen:
                    seen.add(mask)
                    want.append((mask, (pat, image)))
        assert list(solver._copies_through(g, _rooted(family), within, a)) == want


def test_mirror_host_in_rows_are_the_transpose(monkeypatch):
    hosts = []
    real = solver.copy_masks

    def capture(g, pattern):
        hosts.append(g)
        return real(g, pattern)

    monkeypatch.setattr(solver, "copy_masks", capture)
    for n in (0, 1, 5, 12, 30):
        for density in (0.2, 0.6):
            g = random_digraph(n, 50 * n + int(10 * density), density)
            _candidate_embeddings(g, (T3,))
            mirror = hosts[-1]
            rows = [mirror.out_mask(u) for u in range(n)]
            assert rows == [_mirror(n, g.out_mask(n - 1 - v)) for v in range(n)]
            assert [mirror.in_mask(v) for v in range(n)] == [
                sum(1 << u for u in range(n) if rows[u] >> v & 1) for v in range(n)
            ]
            assert mirror.num_arcs == g.num_arcs


def _breaks_in_some_copy(g, family, obs):
    """Reference r-set scan: some r-set whose weight breaks obs's rule (more
    than 1 for a space set, not 0 mod the modulus for a divisibility one)
    spans a pattern of the family, tried in every vertex order."""
    r, w = family[0].n, obs.weights
    for xs in itertools.combinations(range(g.n), r):
        total = sum(w[v] for v in xs)
        if (total > 1 if obs.kind == "space" else total % obs.modulus) and any(
                all(g.arc(order[a], order[b]) for a, b in pat.arcs())
                for order in itertools.permutations(xs) for pat in family):
            return True
    return False


DIFFERENTIAL_FAMILIES = [[T3], [C3], [T3, C3], [Digraph.complete(3)], [k3_minus_pattern()]]


def test_validate_obstruction_agrees_with_the_rset_scan():
    # damaged c3 blow-ups with random space sets, random GF(2)/GF(3)
    # weightings and weightings constant on each blow-up class
    rng = random.Random("validator-vs-scan")
    outcomes = set()
    for trial in range(500):
        n = rng.choice((6, 9, 12))
        g, part = make_c3_blowup(n, rng.randrange(2))
        rows = list(g._out)
        for _ in range(rng.randrange(4)):
            u, v = rng.sample(range(n), 2)
            rows[u] ^= 1 << v
        g = Digraph(n, rows)
        family = DIFFERENTIAL_FAMILIES[trial % len(DIFFERENTIAL_FAMILIES)]
        kind = rng.choice(("space", "gf", "classes"))
        if kind == "space":
            s = rng.sample(range(n), rng.randrange(n // 3 + 1, n // 2 + 2))
            obs = solver.Obstruction("space", tuple(int(v in s) for v in range(n)), None)
        else:
            p = rng.choice((2, 3))
            if kind == "gf":
                w = [rng.randrange(p) for _ in range(n)]
            else:
                values = [rng.randrange(p) for _ in part.classes]
                w = [values[i] for i, c in enumerate(part.classes) for _ in c]
            obs = solver.Obstruction("divisibility", tuple(w), p)
        total = sum(obs.weights)
        whole = total * 3 > n if obs.kind == "space" else total % obs.modulus
        expected = bool(whole) and not _breaks_in_some_copy(g, family, obs)
        assert validate_obstruction(g, family, obs) == expected
        outcomes.add((obs.kind, expected))
    assert outcomes == {(kind, ok) for kind in ("space", "divisibility") for ok in (False, True)}


def test_validate_obstruction_uses_no_copy_search(monkeypatch):
    k3 = Digraph.complete(3)
    cases = [(_relabelled(make_near_tournament_extremal(30, 3), random.Random(30)), k3),
             (make_c3_blowup(30, 1)[0], C3)]
    certs = [find_perfect_packing(g, pattern).obstruction for g, pattern in cases]
    assert [(obs.kind, obs.modulus) for obs in certs] == [("space", None), ("divisibility", 3)]

    def refuse(*args, **kwargs):
        raise AssertionError("the validator called a copy search")

    for name in ("_copies", "copy_masks", "spans_copy", "_plans"):
        monkeypatch.setattr(core, name, refuse)
        if hasattr(solver, name):
            monkeypatch.setattr(solver, name, refuse)
    for (g, pattern), obs in zip(cases, certs):
        assert validate_obstruction(g, pattern, obs)


def _row_greedy_calls(monkeypatch):
    """Count the row stage's greedy runs: _barrier called with masks None."""
    calls = []
    real = solver._barrier

    def counted(n, r, masks, near):
        if masks is None:
            calls.append(n)
        return real(n, r, masks, near)

    monkeypatch.setattr(solver, "_barrier", counted)
    return calls


ROW_STAGE_FAMILIES = {"t3": [T3], "c3": [C3], "k3": [Digraph.complete(3)],
                      "t3+c3": [T3, C3], "t4": [Tournament.transitive(4)]}


@pytest.mark.parametrize("name", sorted(ROW_STAGE_FAMILIES))
def test_row_stage_keeps_verdicts_and_its_barriers_pass_the_rset_scan(name, monkeypatch):
    family = ROW_STAGE_FAMILIES[name]
    r = family[0].n
    rng = random.Random(f"row-stage:{name}")
    hosts = [random_digraph(n, rng.getrandbits(32), density)
             for n in range(2 * r, 5 * r + 1, r)
             for density in (0.3, 0.45, 0.6, 0.75, 0.85) for _ in range(100 // r)]
    with_stage = [find_perfect_family_packing(g, family, 200_000) for g in hosts]
    monkeypatch.setattr(solver, "_row_barrier", lambda g, fam: None)
    row_barriers = 0
    for g, cert in zip(hosts, with_stage):
        without = find_perfect_family_packing(g, family, 200_000)
        assert cert.verdict == without.verdict
        if cert.obstruction is None or cert.obstruction == without.obstruction:
            assert cert == without
        else:
            # a barrier the row stage found: 0 nodes, a space set, and no
            # r-set meets it twice in a copy
            assert cert.nodes == 0 and cert.obstruction.kind == "space"
            s = {v for v in range(g.n) if cert.obstruction.weights[v]}
            assert len(s) * r > g.n and not _breaks_in_some_copy(g, family, cert.obstruction)
            assert validate_obstruction(g, family, cert.obstruction)
            row_barriers += 1
    assert row_barriers >= 20


def _p3():
    return Digraph.from_arcs(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize("family", [[_p3()], [Digraph.from_arcs(3, [(0, 1)])], [T3, _p3()]],
                         ids=["path", "one-arc", "t3+path"])
def test_row_stage_skips_a_family_that_leaves_a_pair_unjoined(family, monkeypatch):
    calls = _row_greedy_calls(monkeypatch)
    fam = normalize_patterns(family)
    assert solver._pair_op(fam) is None
    rng = random.Random(f"unjoined:{len(family)}:{fam[0].num_arcs}")
    verdicts = set()
    for n in (6, 9, 12):
        for density in (0.05, 0.2, 0.4):
            g = random_digraph(n, rng.getrandbits(32), density)
            verdicts.add(find_perfect_family_packing(g, family).verdict)
    assert calls == [] and verdicts == {PACKED, EXHAUSTED_NONE}
    # a sparse host does run it for t3, which joins every pair
    find_perfect_family_packing(Digraph.empty(6), [T3])
    assert calls == [6]


def test_row_greedy_never_runs_on_threshold_hosts(monkeypatch):
    calls = _row_greedy_calls(monkeypatch)
    for g in iter_min_semidegree_hosts(6, 4):
        for family in ([T3], [C3]):
            assert find_perfect_family_packing(g, family).found
    for g, family in _pinned_perfect_cases("semidegree"):
        find_perfect_family_packing(g, family)
    # the exact solves and t3_pack of the packable bench ops: t3_pack solves
    # the underlying graph for K3, which passes the arc-count gate
    rng = random.Random("threshold-hosts")
    for _ in range(4):
        for family, n in (([T3], 30), ([C3], 30), ([Tournament.transitive(4)], 20)):
            r = family[0].n
            g = random_digraph_min_semidegree(n, ceil_frac((r - 1) * n, r), rng.getrandbits(30))
            assert find_perfect_family_packing(g, family).found
        g = random_digraph_out_or_in(30, rng.getrandbits(30))
        packing, _ = t3_pack(g)
        assert verify_packing(g, T3, packing, require_perfect=True)
    assert calls == []


@pytest.mark.parametrize("build, pattern, barrier, solve_s", [
    (lambda: make_near_independent_extremal(180, 3), T3, ("space", None), 0.5),
    (lambda: make_near_tournament_extremal(180, 3), Digraph.complete(3), ("space", None), 0.5),
    (lambda: make_near_independent_extremal(180, 4), Tournament.transitive(4), ("space", None), 0.5),
    # the barrier stage solves it in about 1.1 s, peaking near 200 MB
    (lambda: make_c3_blowup(180, 1)[0], C3, ("divisibility", 3), 10.0),
], ids=["near-independent-t3", "near-tournament-k3", "near-independent-t4", "shifted-blowup-c3"])
def test_large_space_barrier_hosts_solve_and_validate_quickly(build, pattern, barrier, solve_s):
    # the t3 and K3 rows each took about 2 s to solve and 2.7-3.5 s to
    # validate through first-fit, enumeration and an r-set scan; the row
    # stage takes a few milliseconds, and growing copies from pairs of the
    # space set about 1 ms.  The blow-up took 4.5-5.2 s to validate by the
    # r-set scan and takes about 0.05 s by growth
    g = _relabelled(build(), random.Random(180))
    start = time.perf_counter()
    cert = find_perfect_packing(g, pattern)
    solved = time.perf_counter()
    assert validate_obstruction(g, pattern, cert.obstruction)
    validated = time.perf_counter()
    assert cert.verdict == EXHAUSTED_NONE and cert.nodes == 0
    assert (cert.obstruction.kind, cert.obstruction.modulus) == barrier
    if barrier[0] == "space":
        assert sum(cert.obstruction.weights) == 180 // pattern.n + 1
    assert solved - start < solve_s and validated - solved < 0.5


def test_validate_obstruction_reads_the_pair_graph_from_the_patterns():
    # the near-tournament set has no double edge but spans a tournament: a
    # space set for K3, not for t3 or c3
    g = make_near_tournament_extremal(15, 3)
    obs = find_perfect_packing(g, Digraph.complete(3)).obstruction
    assert obs.kind == "space" and validate_obstruction(g, Digraph.complete(3), obs)
    for family in ([T3], [C3], [T3, C3]):
        assert not validate_obstruction(g, family, obs)
    # the near-independent set spans no arc, but a path u -> w -> v puts two
    # of its vertices in one copy of a pattern that leaves a pair unjoined
    g = make_near_independent_extremal(15, 3)
    obs = find_perfect_packing(g, T3).obstruction
    assert validate_obstruction(g, [T3, C3], obs)
    assert not validate_obstruction(g, _p3(), obs)
    assert not validate_obstruction(g, [T3, _p3()], obs)


def _union_through(n, masks):
    """Reference near: for each vertex below n, the union of the masks
    through it, read mask by mask and bit by bit."""
    near = [0] * n
    for m in masks:
        for v in bits(m):
            near[v] |= m
    return near


def _solve_in_stage_order(g, family, budget):
    """find_perfect_family_packing with its stages in the order they ran
    before first-fit was split: row stage, first-fit at its full cap,
    enumeration, barrier stage, exact search."""
    fam = normalize_patterns(family)
    n, r = g.n, fam[0].n
    # the row stage's arc-count gate only skips hosts where it finds nothing
    obstruction = solver._row_barrier(g, fam)
    if obstruction is not None:
        return solver.PackCertificate(EXHAUSTED_NONE, None, 0, obstruction)
    quick = _first_fit(g, fam, budget)
    if quick is not None:
        return quick
    masks, embed = _candidate_embeddings(g, fam)
    near = _union_through(n, masks)
    obstruction = solver._barrier(n, r, _transpose(n, masks), near)
    if obstruction is not None:
        return solver.PackCertificate(EXHAUSTED_NONE, None, 0, obstruction)
    by_vertex = [[m for m in masks if m >> v & 1] for v in range(n)]
    chosen, nodes = solver._cover(n, by_vertex, near, 0, budget)
    if nodes > budget:
        return solver.PackCertificate(BUDGET_EXCEEDED, None, nodes)
    if chosen is None:
        return solver.PackCertificate(EXHAUSTED_NONE, None, nodes)
    return solver.PackCertificate(PACKED, Packing(n, tuple(embed(m) for m in chosen)), nodes)


IDENTITY_FAMILIES = {"t3": [T3], "c3": [C3], "k3": [Digraph.complete(3)], "t3+c3": [T3, C3],
                     "t4": [Tournament.transitive(4)], "k3-minus": [k3_minus_pattern()]}


@pytest.mark.parametrize("name", sorted(IDENTITY_FAMILIES))
def test_split_first_fit_keeps_every_certificate(name, monkeypatch):
    """First-fit at half its slack, the barrier stage, then first-fit at the
    full slack gives the certificate of the old order on every host: same
    verdict, nodes, packing images and obstruction."""
    family = IDENTITY_FAMILIES[name]
    r = family[0].n
    rng = random.Random(f"split-first-fit:{name}")
    second = []  # whether each first-fit call at the full cap packed
    real = solver._first_fit

    def counted(g, fam, budget):
        cert = real(g, fam, budget)
        if budget > g.n // r + solver._FIRST_FIT_SLACK // 2:
            second.append(cert is not None)
        return cert

    monkeypatch.setattr(solver, "_first_fit", counted)
    verdicts = set()
    for n in range(2 * r, 7 * r + 1, r):
        for density in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            for trial in range(10 if r == 3 else 14):
                g = random_digraph(n, rng.getrandbits(32), density)
                half = n // r + solver._FIRST_FIT_SLACK // 2
                budget = (200_000, half - 1, half, half + 1, half + 5)[trial % 5]
                cert = find_perfect_family_packing(g, family, budget)
                assert cert == _solve_in_stage_order(g, family, budget)
                verdicts.add(cert.verdict)
    assert verdicts >= {PACKED, EXHAUSTED_NONE}
    assert any(second)


@given(st.integers(0, 20).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=40))))
@settings(max_examples=300, deadline=None)
def test_near_read_off_the_transpose_is_the_union_through_each_vertex(case):
    n, masks = case
    assert solver._near(masks, _transpose(n, masks)) == _union_through(n, masks)


def test_near_covers_both_ways_of_reading_the_transpose():
    # vertices 0 and 1, each through as many masks as there are vertices,
    # take the AND path; 2 and 3 OR their masks; 4 lies in none
    masks = [0b00011, 0b00101, 0b00110, 0b01001, 0b01010, 0b00111, 0b01011]
    cols = _transpose(5, masks)
    assert [c.bit_count() >= 5 for c in cols] == [True, True, False, False, False]
    assert solver._near(masks, cols) == _union_through(5, masks) == [15, 15, 7, 11, 0]
    assert solver._near([], _transpose(3, [])) == [0, 0, 0]


@pytest.mark.parametrize("build, family", [
    (lambda: make_k3minus_example(6), [k3_minus_pattern()]),
    (lambda: make_c3_blowup(15, 1)[0], [C3]),
    (lambda: make_c3_blowup(18, 1)[0], [C3]),
], ids=["k3-minus-15", "shifted-blowup-15", "shifted-blowup-18"])
def test_divisibility_barriers_arrive_within_half_the_first_fit_slack(build, family, monkeypatch):
    branched = []  # one branch vertex per first-fit node
    real = solver._copies_through

    def counted(g, plans, within, a):
        branched.append(a)
        return real(g, plans, within, a)

    monkeypatch.setattr(solver, "_copies_through", counted)
    rng = random.Random(f"half-slack:{build().n}")
    for _ in range(4):
        g = _relabelled(build(), rng)
        branched.clear()
        cert = find_perfect_family_packing(g, family)
        assert cert.verdict == EXHAUSTED_NONE and cert.obstruction.kind == "divisibility"
        assert 0 < len(branched) <= g.n // 3 + 16
        assert validate_obstruction(g, family, cert.obstruction)
