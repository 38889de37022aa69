import hashlib
import inspect
import itertools
import json
import math
import time
from collections import Counter

import pytest

from tpack import harness
from tpack.core import (
    Digraph,
    DomainError,
    Embedding,
    InvariantViolation,
    Tournament,
    digraph_to_text,
    min_semidegree,
)
from tpack.constructions import make_source_counterexample, random_digraph_out_or_in
from tpack.solver import (
    EXHAUSTED_NONE,
    Obstruction,
    PackCertificate,
    Packing,
    validate_obstruction,
    verify_packing,
)
from tpack.t3local import SwapNotFound
from tpack.harness import (
    Counterexample,
    SweepReport,
    iter_min_semidegree_hosts,
    iter_out_or_in_hosts,
    replay_counterexample,
    sweep_out_or_in,
    sweep_semidegree,
    sweep_total_degree_c3,
    sweep_total_degree_kr,
    tightness_suite,
)


def injection_count(n):
    """Loop-free partial injections on n points, by inclusion-exclusion."""
    total = 0
    for k in range(n + 1):
        ways = 0
        for j in range(k + 1):
            ways += ((-1) ** j * math.comb(k, j)
                     * math.factorial(n - j) // math.factorial(n - k))
        total += math.comb(n, k) * ways
    return total


def row_key(g):
    return tuple(g.out_mask(v) for v in range(g.n))


def test_semidegree_host_counts():
    # the n=6 value 6600 is the enumeration-completeness regression constant
    for n, want in ((3, 18), (4, 108), (5, 780), (6, 6600)):
        assert injection_count(n) == want
        assert sum(1 for _ in iter_min_semidegree_hosts(n, n - 2)) == want


def test_semidegree_hosts_distinct_and_compliant():
    seen = set()
    for g in iter_min_semidegree_hosts(4, 2):
        key = row_key(g)
        assert key not in seen
        seen.add(key)
        assert min_semidegree(g) >= 2


def test_semidegree_full_and_overfull_thresholds():
    assert sum(1 for _ in iter_min_semidegree_hosts(4, 3)) == 1  # complete only
    assert list(iter_min_semidegree_hosts(4, 4)) == []


def test_enumeration_refuses_deep_deficiency():
    with pytest.raises(DomainError):
        list(iter_min_semidegree_hosts(6, 3))
    with pytest.raises(DomainError):
        list(iter_out_or_in_hosts(6, 2))


def test_out_or_in_host_counts_brute():
    for n, t in ((3, 2), (4, 3), (3, 1), (4, 2)):
        hosts = list(iter_out_or_in_hosts(n, t))
        assert len(set(row_key(g) for g in hosts)) == len(hosts)

        brute = 0
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for mask in range(1 << len(pairs)):
            rows = [0] * n
            for i, (u, v) in enumerate(pairs):
                if mask >> i & 1:
                    rows[u] |= 1 << v
            indeg = [sum(rows[u] >> v & 1 for u in range(n)) for v in range(n)]
            if all(rows[v].bit_count() >= t or indeg[v] >= t for v in range(n)):
                brute += 1
        assert len(hosts) == brute


def test_host_enumeration_order_is_pinned():
    # counterexample labels enum:i index this order, so any change to it
    # must re-base this hash on purpose
    spaces = [iter_min_semidegree_hosts(n, n - 1 - d)
              for n in range(1, 7) for d in (0, 1)]
    spaces += [iter_out_or_in_hosts(n, n - 1 - d)
               for n in range(1, 6) for d in (0, 1)]
    spaces.append(itertools.islice(iter_out_or_in_hosts(6, 4), 100_000))
    h = hashlib.sha256()
    count = 0
    for hosts in spaces:
        for g in hosts:
            h.update(repr(row_key(g)).encode())
            count += 1
    assert count == 216_097
    assert h.hexdigest() == (
        "4ea7a1eac6c9eb74f403c92db95e512569537fb43cce561b0e86701836d53347"
    )


def test_host_enumerators_are_lazy_generators():
    assert inspect.isgeneratorfunction(iter_min_semidegree_hosts)
    assert inspect.isgeneratorfunction(iter_out_or_in_hosts)
    start = time.perf_counter()
    assert next(iter_min_semidegree_hosts(40, 38)) == Digraph.complete(40)
    assert time.perf_counter() - start < 1.0


def test_enumerated_hosts_match_checked_construction():
    # the enumerator keeps the in-rows itself and builds hosts with
    # Digraph._from_rows, which checks nothing; the pinned order hash reads
    # only out-rows, so compare every host with the checked constructor
    count = 0
    for n in range(1, 6):
        for d in (0, 1):
            for space in (iter_min_semidegree_hosts, iter_out_or_in_hosts):
                for g in space(n, n - 1 - d):
                    ref = Digraph(n, [g.out_mask(v) for v in range(n)])
                    assert (g._out, g._in, g.num_arcs) == (ref._out, ref._in, ref.num_arcs)
                    count += 1
    assert count == 109_496


def test_large_semidegree_space_yields_without_recursion():
    n = 1100
    g = next(iter_min_semidegree_hosts(n, n - 1))
    complete = tuple(((1 << n) - 1) ^ (1 << v) for v in range(n))
    assert (g.n, g._out) == (n, complete)
    assert g._in == Digraph(n, g._out)._in


def test_deficiency_zero_space_is_the_complete_digraph_alone():
    n = 3000
    hosts = list(iter_min_semidegree_hosts(n, n - 1))
    complete = tuple(((1 << n) - 1) ^ (1 << v) for v in range(n))
    assert [(g.n, g._out, g._in) for g in hosts] == [(n, complete, complete)]


def _counting_solver(monkeypatch):
    """Patch the harness's exact solver to record each host it is called on."""
    solved = []
    real = harness.find_perfect_family_packing

    def solve(g, family, budget):
        solved.append(g)
        return real(g, family, budget)

    monkeypatch.setattr(harness, "find_perfect_family_packing", solve)
    return solved


def test_exhaustive_semidegree_sweep_n6(monkeypatch):
    solved = _counting_solver(monkeypatch)
    # most hosts take the packing counted on the host before them
    for pattern, share in ((Tournament.transitive(3), 0.1),
                           (Tournament.cyclic_triangle(), 0.2)):
        solved.clear()
        rep = sweep_semidegree(3, pattern, 6, mode="exhaustive")
        assert rep.examined == 6600
        assert rep.packed == 6600
        assert rep.verdict == "consistent"
        assert not rep.counterexamples and rep.budget_exceeded == 0
        assert 0 < len(solved) < share * 6600


def test_random_sweep_determinism():
    kwargs = dict(mode="random", samples=25, seed=7)
    r1 = sweep_semidegree(3, Tournament.cyclic_triangle(), 9, **kwargs)
    r2 = sweep_semidegree(3, Tournament.cyclic_triangle(), 9, **kwargs)
    assert r1.to_json() == r2.to_json()
    assert r1.verdict == "consistent"
    r3 = sweep_semidegree(3, Tournament.cyclic_triangle(), 9,
                          mode="random", samples=25, seed=8)
    assert r3.to_json() != r1.to_json()


def test_report_json_shape():
    rep = sweep_semidegree(3, Tournament.transitive(3), 6,
                           mode="random", samples=5, seed=1)
    d = json.loads(rep.to_json())
    assert d["schema"] == "tpack-report/1"
    assert d["kind"] == "semidegree"
    assert "elapsed" not in d
    assert d["params"]["threshold"] == 4
    assert d["params"]["samples"] == 5
    assert rep.params_dict()["n"] == 6


def test_report_tally_invariant():
    with pytest.raises(InvariantViolation):
        SweepReport(
            kind="semidegree",
            params=(("n", 6),),
            claim_scope="asymptotic",
            examined=5,
            packed=3,
            budget_exceeded=0,
            counterexamples=(),
            elapsed=0.0,
        )


T2, T3, T4 = (Tournament.transitive(k) for k in (2, 3, 4))


# r is checked first, then n, then the pattern, then the mode, then samples
INVALID_SWEEPS = [
    (lambda: sweep_semidegree(1, Tournament.transitive(1), 6), "pattern order must be at least 2"),
    (lambda: sweep_semidegree(1, Tournament.transitive(1), 7), "pattern order must be at least 2"),
    (lambda: sweep_semidegree(3, T3, 7), "3 must divide the host order 7"),
    (lambda: sweep_semidegree(3, T3, 0), "3 must divide the host order 0"),
    (lambda: sweep_semidegree(3, T4, 7), "3 must divide the host order 7"),
    (lambda: sweep_semidegree(3, T4, 6), "pattern has 4 vertices, expected 3"),
    (lambda: sweep_semidegree(3, Digraph.complete(3), 6), "pair (0,1) carries 2 arcs"),
    (lambda: sweep_semidegree(3, T3, 6, mode="careful"), "unknown mode 'careful'"),
    (lambda: sweep_semidegree(3, T2, 6, mode="careful"), "pattern has 2 vertices, expected 3"),
    (lambda: sweep_semidegree(3, T3, 6, mode="careful", samples=-1), "unknown mode 'careful'"),
    (lambda: sweep_semidegree(3, T4, 6, samples=-1), "pattern has 4 vertices, expected 3"),
    (lambda: sweep_out_or_in(1, 6), "pattern order must be at least 2"),
    (lambda: sweep_out_or_in(0, 6), "pattern order must be at least 2"),
    (lambda: sweep_out_or_in(3, 7), "3 must divide the host order 7"),
    (lambda: sweep_out_or_in(4, 6, mode="careful"), "4 must divide the host order 6"),
    (lambda: sweep_out_or_in(3, 6, mode="careful"), "unknown mode 'careful'"),
    (lambda: sweep_total_degree_kr(1, 6), "pattern order must be at least 2"),
    (lambda: sweep_total_degree_kr(0, 6), "pattern order must be at least 2"),
    (lambda: sweep_total_degree_kr(3, 7), "3 must divide the host order 7"),
    (lambda: sweep_total_degree_kr(4, 2), "4 must divide the host order 2"),
    (lambda: sweep_total_degree_c3(7), "3 must divide the host order 7"),
    (lambda: sweep_total_degree_c3(0), "3 must divide the host order 0"),
    (lambda: tightness_suite(1, 6), "pattern order must be at least 2"),
    (lambda: tightness_suite(0, 4), "pattern order must be at least 2"),
    (lambda: tightness_suite(3, 7), "3 must divide the host order 7"),
    (lambda: tightness_suite(4, 6), "4 must divide the host order 6"),
]


def test_sweep_argument_validation():
    for call, message in INVALID_SWEEPS:
        with pytest.raises(DomainError) as err:
            call()
        assert message in str(err.value)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_canonical_reports_are_pinned():
    reports = {
        "3081883a9d54abf6": sweep_semidegree(2, T2, 4, mode="exhaustive"),
        # the n = 6 exhaustive sweeps, and t3 and c3 at budgets 2 and 3 (191,
        # 26, 244 and 50 hosts budget-exceeded): reusing the last packing
        # must leave each report as the solver alone makes it
        "c0953d70ca68ceb5": sweep_semidegree(3, T3, 6, mode="exhaustive"),
        "cb82f92c7ccd9615": sweep_semidegree(3, Tournament.cyclic_triangle(), 6,
                                             mode="exhaustive"),
        "f5b438aaed68d9b6": sweep_semidegree(3, T3, 6, mode="exhaustive", budget=2),
        "58ee40b2fa2d035a": sweep_semidegree(3, T3, 6, mode="exhaustive", budget=3),
        "b7982a75aa77fe42": sweep_semidegree(3, Tournament.cyclic_triangle(), 6,
                                             mode="exhaustive", budget=2),
        "5ae72b24e8daf48c": sweep_semidegree(3, Tournament.cyclic_triangle(), 6,
                                             mode="exhaustive", budget=3),
        "10ed487e32286d84": sweep_semidegree(3, Tournament.cyclic_triangle(), 9,
                                             samples=25, seed=7),
        "5864a4878a49cd0b": sweep_out_or_in(3, 3, mode="exhaustive"),
        "a5f99e85fcc20ac3": sweep_out_or_in(3, 9, samples=30, seed=3),
        "c755ec5d98f2afc9": sweep_out_or_in(4, 8, samples=10, seed=5),
        "6c5a06f780cad8b4": sweep_total_degree_kr(3, 6, samples=20, seed=11),
        "8367ca9adfe57672": sweep_total_degree_c3(9, samples=10, seed=2),
    }
    for want, report in reports.items():
        assert _sha(report.to_json()) == want, report.kind
    # every exhausted-none check carries the barrier stage's obstruction and
    # 0 nodes; before that stage these were a2fc9d2337fdc760 and 182b563206a6a5a0
    for want, (r, n) in (("9f3453f0a5238e55", (3, 15)), ("bfcd989240c3d3ca", (4, 8))):
        doc = tightness_suite(r, n).to_dict()
        assert _sha(json.dumps(doc, sort_keys=True)) == want, (r, n)


def test_samples_bound_is_refused_before_any_host(monkeypatch):
    def no_host(*args):
        raise AssertionError("a host was built")

    for name in ("random_digraph_min_semidegree", "random_digraph_out_or_in",
                 "random_digraph_total_min_degree"):
        monkeypatch.setattr(harness, name, no_host)
    for samples in (-1, 1_000_003, 10**9):
        for call in (
            lambda: sweep_semidegree(3, T3, 6, samples=samples),
            lambda: sweep_out_or_in(3, 6, samples=samples),
            lambda: sweep_total_degree_kr(3, 6, samples=samples),
            lambda: sweep_total_degree_c3(6, samples=samples),
        ):
            with pytest.raises(DomainError, match=r"samples must lie in \[0, 1000003\)"):
                call()
    # exhaustive sweeps derive no seeds, so they ignore samples
    rep = sweep_semidegree(2, T2, 4, mode="exhaustive", samples=10**9)
    assert _sha(rep.to_json()) == "3081883a9d54abf6"


def test_sweep_counterexample_branch(monkeypatch):
    real_gen = harness.random_digraph_total_min_degree
    real_solve = harness.find_perfect_family_packing
    hosts = []
    lies = Counter()

    def record(*args):
        hosts.append(real_gen(*args))
        return hosts[-1]

    def solve(g, family, budget):
        # claim host 3 has no packing, as many times as lies["left"] allows
        if len(hosts) > 3 and g == hosts[3] and lies["left"]:
            lies["left"] -= 1
            return PackCertificate(EXHAUSTED_NONE, None, 17)
        return real_solve(g, family, budget)

    monkeypatch.setattr(harness, "random_digraph_total_min_degree", record)
    monkeypatch.setattr(harness, "find_perfect_family_packing", solve)
    lies["left"] = 2
    rep = sweep_total_degree_c3(9, samples=5, seed=2)
    assert rep.verdict == "counterexample"
    assert (rep.examined, rep.packed, rep.budget_exceeded) == (5, 4, 0)
    (cex,) = rep.counterexamples
    assert cex.label == "sample:3"
    assert cex.patterns == (digraph_to_text(Tournament.cyclic_triangle()),)
    assert cex.verdict == "exhausted-none"
    assert cex.nodes == 17
    assert cex.edge_list == digraph_to_text(hosts[3])
    assert json.loads(rep.to_json())["counterexamples"][0]["label"] == "sample:3"
    assert json.loads(rep.to_json())["counterexamples"][0]["obstruction"] is None
    assert not lies["left"]  # the sweep replayed the counterexample
    monkeypatch.setattr(harness, "find_perfect_family_packing", real_solve)
    assert not replay_counterexample(cex)  # the host really packs

    # a replay that disagrees with the sweep's verdict is an invariant failure
    monkeypatch.setattr(harness, "find_perfect_family_packing", solve)
    hosts.clear()
    lies["left"] = 1
    with pytest.raises(InvariantViolation, match="did not replay"):
        sweep_total_degree_c3(9, samples=5, seed=2)


def test_out_or_in_fallback_chain_gives_the_same_report(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def give_up(*args, **kwargs):
        raise SwapNotFound("forced onto the exact solver")

    def report():
        calls.clear()
        return sweep_out_or_in(3, 9, mode="random", samples=30, seed=3).to_json()

    monkeypatch.setattr(harness, "t3_pack", counted("t3_pack", harness.t3_pack))
    monkeypatch.setattr(harness, "find_perfect_family_packing",
                        counted("exact", harness.find_perfect_family_packing))
    first_fit = report()
    assert calls["t3_pack"] == calls["exact"] == 0

    monkeypatch.setattr(harness, "_t3_first_fit", lambda g: False)
    local = report()
    assert calls["t3_pack"] == 30 and calls["exact"] == 0

    monkeypatch.setattr(harness, "t3_pack", counted("t3_pack", give_up))
    exact = report()
    assert calls["t3_pack"] == calls["exact"] == 30
    assert first_fit == local == exact


def test_a_host_the_last_packing_misses_reaches_the_solver(monkeypatch):
    solved = _counting_solver(monkeypatch)
    k6 = Digraph.complete(6)
    e = harness.find_perfect_family_packing(k6, T3, 100).packing.elements[0]
    a, b = next(iter(e.pattern.arcs()))
    lacking = Digraph.from_arcs(6, [arc for arc in k6.arcs()
                                    if arc != (e.image[a], e.image[b])])
    empty = Digraph.empty(6)
    hosts = [k6, lacking, lacking, empty]
    monkeypatch.setattr(harness, "iter_min_semidegree_hosts", lambda n, t: iter(hosts))
    solved.clear()
    rep = sweep_semidegree(3, T3, 6, mode="exhaustive")
    # the third host takes the second's packing; the packless one is solved
    assert solved == [k6, lacking, empty]
    assert (rep.examined, rep.packed, rep.budget_exceeded) == (4, 3, 0)
    assert [c.label for c in rep.counterexamples] == ["enum:3"]

    # random hosts are independent: even a repeated one is solved each time
    monkeypatch.setattr(harness, "random_digraph_min_semidegree", lambda n, t, s: k6)
    solved.clear()
    rep = sweep_semidegree(3, T3, 6, samples=5)
    assert solved == [k6] * 5 and rep.packed == 5


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_an_invalid_fast_packing_is_refused(monkeypatch, mode):
    real = harness._t3_first_fit
    lied = []

    def lying(g):
        # on a host missing an arc (u, v), a perfect packing whose copy needs it
        missing = [(u, v) for u in range(g.n) for v in range(g.n) if u != v and not g.arc(u, v)]
        if g.n != 3 or not missing:
            return real(g)
        u, v = missing[0]
        lied.append(g)
        return Packing(3, (Embedding(T3, (u, v, 3 - u - v)),))

    monkeypatch.setattr(harness, "_t3_first_fit", lying)
    with pytest.raises(InvariantViolation, match="invalid packing"):
        sweep_out_or_in(3, 3, mode=mode, samples=20)
    assert len(lied) == 1


def test_t3_first_fit_returns_a_verified_packing_or_none():
    hosts = list(itertools.islice(iter_out_or_in_hosts(6, 4), 0, 30000, 97))
    hosts += [random_digraph_out_or_in(n, seed, 2 * n // 3)
              for n in (9, 18, 30) for seed in range(20)]
    hosts += [Digraph.empty(6), make_source_counterexample(9)]
    found = Counter()
    for g in hosts:
        packing = harness._t3_first_fit(g)
        found[packing is None] += 1
        assert packing is None or verify_packing(g, T3, packing, require_perfect=True)
    assert found[True] and found[False]


def test_exhaustive_out_or_in_sweep_reuses_both_fast_packers(monkeypatch):
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    real_hosts = harness.iter_out_or_in_hosts
    monkeypatch.setattr(harness, "iter_out_or_in_hosts",
                        lambda n, t: itertools.islice(real_hosts(n, t), 3000))
    monkeypatch.setattr(harness, "_t3_first_fit",
                        counted("first_fit", harness._t3_first_fit))
    solved = _counting_solver(monkeypatch)
    rep = sweep_out_or_in(3, 6, mode="exhaustive")
    assert (rep.examined, rep.packed) == (3000, 3000)
    assert 0 < counts["first_fit"] < 300 and not solved

    # with first-fit off, local search's packings are the ones reused
    monkeypatch.setattr(harness, "_t3_first_fit", lambda g: None)
    monkeypatch.setattr(harness, "t3_pack", counted("t3_pack", harness.t3_pack))
    rep = sweep_out_or_in(3, 6, mode="exhaustive")
    assert (rep.examined, rep.packed) == (3000, 3000)
    assert 0 < counts["t3_pack"] < 300 and not solved


def test_out_or_in_sweeps():
    ro = sweep_out_or_in(3, 9, mode="random", samples=30, seed=3)
    assert ro.verdict == "consistent"
    assert ro.claim_scope == "all-orders"
    assert ro.to_json() == sweep_out_or_in(3, 9, mode="random", samples=30, seed=3).to_json()

    ro3 = sweep_out_or_in(3, 3, mode="exhaustive")
    assert ro3.examined == 13
    assert ro3.verdict == "consistent"

    ro4 = sweep_out_or_in(4, 8, mode="random", samples=10, seed=5)
    assert ro4.claim_scope == "conjectured"
    assert ro4.verdict == "consistent"


def test_total_degree_sweeps():
    rk = sweep_total_degree_kr(3, 6, samples=20, seed=11)
    assert rk.verdict == "consistent"
    assert rk.params_dict()["threshold"] == 9
    assert rk.claim_scope == "all-orders"

    rc = sweep_total_degree_c3(6, samples=20, seed=11)
    assert rc.verdict == "consistent"
    assert rc.params_dict()["threshold"] == 8
    rc9 = sweep_total_degree_c3(9, samples=10, seed=2)
    assert rc9.verdict == "consistent"
    assert rc9.params_dict()["threshold"] == 12


def test_tightness_families():
    tr = tightness_suite(3, 6)
    fams = [e.family for e in tr.entries]
    assert "near-independent" in fams
    assert "near-tournament" in fams
    assert "source" in fams
    assert "shifted-blow-up" not in fams  # needs n >= 9
    assert tr.to_dict()["kind"] == "tightness"

    tr9 = tightness_suite(3, 9)
    fams9 = [e.family for e in tr9.entries]
    assert "shifted-blow-up" in fams9
    for entry in tr9.entries:
        assert entry.actual == entry.expected

    tr48 = tightness_suite(4, 8)
    fams48 = [e.family for e in tr48.entries]
    assert "source" not in fams48  # the source host only speaks to cycles
    assert "near-independent" in fams48

    # all five r = 3 families, each non-packability proved by a barrier
    tr63 = tightness_suite(3, 63)
    assert [e.family for e in tr63.entries] == [
        "near-independent", "near-tournament", "shifted-blow-up", "source",
        "k3-minus-extremal"]
    for entry in tr63.entries:
        for name, verdict, nodes, obs in entry.checks:
            assert (obs is not None) == (verdict == "exhausted-none")


def test_tightness_obstructions_validate(monkeypatch):
    solved = []
    real = harness.find_perfect_family_packing

    def solve(g, family, budget):
        solved.append((g, family, real(g, family, budget)))
        return solved[-1][2]

    monkeypatch.setattr(harness, "find_perfect_family_packing", solve)
    for r, n in ((3, 9), (3, 39), (3, 45), (3, 63), (4, 16), (5, 10)):
        tightness_suite(r, n)
    kinds = set()
    for g, family, cert in solved:
        if cert.verdict == EXHAUSTED_NONE:
            assert cert.nodes == 0 and validate_obstruction(g, family, cert.obstruction)
            kinds.add((cert.obstruction.kind, cert.obstruction.modulus))
    assert kinds == {("space", None), ("divisibility", 2), ("divisibility", 3)}


def test_tightness_entry_contents():
    tr = tightness_suite(3, 9)
    by_family = {e.family: e for e in tr.entries}
    near = by_family["near-independent"]
    assert near.statistic == "min-semidegree"
    assert near.expected == 9 - 3 - 1
    assert all(verdict == "exhausted-none" for _, verdict, _, _ in near.checks)
    shifted = by_family["shifted-blow-up"]
    verdicts = {name: verdict for name, verdict, _, _ in shifted.checks}
    assert verdicts["c3"] == "exhausted-none"
    assert verdicts["t3+c3"] == "packed"


def test_replay_confirms_and_rejects():
    src = make_source_counterexample(6)
    c3_text = digraph_to_text(Tournament.cyclic_triangle())
    real = Counterexample(
        edge_list=digraph_to_text(src), verdict="exhausted-none",
        nodes=0, label="manual", patterns=(c3_text,),
    )
    assert replay_counterexample(real)
    fake = Counterexample(
        edge_list=digraph_to_text(Digraph.complete(6)), verdict="exhausted-none",
        nodes=0, label="manual", patterns=(c3_text,),
    )
    assert not replay_counterexample(fake)


def test_replay_checks_an_obstruction_without_the_solver(monkeypatch):
    src = make_source_counterexample(9)
    c3 = Tournament.cyclic_triangle()
    obs = harness.find_perfect_family_packing(src, [c3]).obstruction
    assert obs is not None

    def no_solver(*args):
        raise AssertionError("replay ran the solver")

    monkeypatch.setattr(harness, "find_perfect_family_packing", no_solver)
    cex = Counterexample(
        edge_list=digraph_to_text(src), verdict="exhausted-none", nodes=0,
        label="manual", patterns=(digraph_to_text(c3),), obstruction=obs,
    )
    assert replay_counterexample(cex)
    moved = obs.weights[1:] + obs.weights[:1]
    assert not replay_counterexample(
        Counterexample(cex.edge_list, cex.verdict, 0, "manual", cex.patterns,
                       Obstruction(obs.kind, moved, obs.modulus)))

