"""Threshold sweeps over digraph families, tightness checks, and reports.

Sweeps either enumerate every host meeting a degree condition (via the
complement, feasible when each vertex misses at most one arc per direction)
or sample seeded random hosts.  Each host is solved exactly; failures are
kept as replayable counterexample payloads.  Reports are pure functions of
their parameters and seed, so reruns are byte-identical.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .core import (
    Digraph,
    DomainError,
    InvariantViolation,
    Tournament,
    all_tournaments,
    ceil_frac,
    digraph_to_text,
    k3_minus_pattern,
    load_digraph_text,
    min_semidegree,
    total_min_degree,
)
from .constructions import (
    make_c3_blowup,
    make_k3minus_example,
    make_near_independent_extremal,
    make_near_tournament_extremal,
    make_source_counterexample,
    random_digraph_min_semidegree,
    random_digraph_out_or_in,
    random_digraph_total_min_degree,
)
from .solver import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    EXHAUSTED_NONE,
    PACKED,
    Obstruction,
    _first_fit,
    find_perfect_family_packing,
    normalize_patterns,
    validate_obstruction,
    verify_packing,
)
from .t3local import SwapNotFound, t3_pack

__all__ = [
    "Counterexample",
    "SweepReport",
    "TightnessEntry",
    "TightnessReport",
    "iter_min_semidegree_hosts",
    "iter_out_or_in_hosts",
    "sweep_semidegree",
    "sweep_out_or_in",
    "sweep_total_degree_kr",
    "sweep_total_degree_c3",
    "tightness_suite",
    "replay_counterexample",
]

REPORT_SCHEMA = "tpack-report/1"

SCOPE_ALL_ORDERS = "all-orders"
SCOPE_ASYMPTOTIC = "asymptotic"
SCOPE_CONJECTURED = "conjectured"


# ---------------------------------------------------------------------------
# report types


@dataclass(frozen=True)
class Counterexample:
    """A host that defeated the sweep's claim, with everything needed to
    replay: the solver's obstruction, when its barrier stage found one."""

    edge_list: str
    verdict: str
    nodes: int
    label: str
    patterns: tuple[str, ...]
    obstruction: Obstruction | None = None


def _obstruction_dict(obs: Obstruction | None) -> dict | None:
    return None if obs is None else obs.to_dict()


@dataclass(frozen=True)
class SweepReport:
    kind: str
    params: tuple[tuple[str, object], ...]
    claim_scope: str
    examined: int
    packed: int
    budget_exceeded: int
    counterexamples: tuple[Counterexample, ...]
    elapsed: float

    def __post_init__(self):
        total = self.packed + self.budget_exceeded + len(self.counterexamples)
        if total != self.examined:
            raise InvariantViolation(
                f"tally {total} disagrees with {self.examined} examined"
            )

    @property
    def verdict(self) -> str:
        return "counterexample" if self.counterexamples else "consistent"

    def params_dict(self) -> dict:
        return dict(self.params)

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "kind": self.kind,
            "params": self.params_dict(),
            "claim_scope": self.claim_scope,
            "examined": self.examined,
            "packed": self.packed,
            "budget_exceeded": self.budget_exceeded,
            "verdict": self.verdict,
            "counterexamples": [
                {
                    "edge_list": c.edge_list,
                    "verdict": c.verdict,
                    "nodes": c.nodes,
                    "label": c.label,
                    "patterns": list(c.patterns),
                    "obstruction": _obstruction_dict(c.obstruction),
                }
                for c in self.counterexamples
            ],
        }

    def to_json(self) -> str:
        """Canonical form; wall time is excluded so reruns compare equal."""
        return json.dumps(self.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# exhaustive complement enumeration


def _complements(
    n: int, options: list[list[int]], capped: int, cap: int
) -> Iterator[Digraph]:
    """Every host K_n minus C, where C takes vertex v's out-row from
    ``options[v]`` (in order) and each vertex in the mask ``capped`` misses
    at most ``cap`` (0 or 1) in-arcs.

    Depth-first on an explicit stack: ``nxt[v]`` indexes v's next option,
    ``put[v]`` is the row placed at v, and ``hit[v]`` the capped vertices
    that may miss no further in-arc; a row entering it is refused.  Swapping
    v's row flips bit v of the in-rows named by the old row XOR the new one.
    """
    full = (1 << n) - 1
    out = [full ^ (1 << v) for v in range(n)]
    in_rows, nxt, put = out[:], [0] * n, [0] * n
    hit = [0 if cap else capped] + [0] * n
    v = 0
    while v >= 0:
        if v == n:
            yield Digraph._from_rows(n, out, in_rows)
            v -= 1
            continue
        opts, i, bit = options[v], nxt[v], 1 << v
        while i < len(opts) and opts[i] & hit[v]:
            i += 1
        row = opts[i] if i < len(opts) else 0
        flip, put[v] = put[v] ^ row, row
        while flip:
            low = flip & -flip
            in_rows[low.bit_length() - 1] ^= bit
            flip ^= low
        if i == len(opts):
            nxt[v] = 0
            v -= 1
        else:
            nxt[v] = i + 1
            out[v] = full ^ bit ^ row
            hit[v + 1] = hit[v] | row & capped
            v += 1


def _deficiency(n: int, threshold: int) -> int:
    """Arcs n-1-threshold that each vertex may miss per direction (negative:
    no host); more than one is refused."""
    if n < 1:
        raise DomainError("need at least one vertex")
    slack = n - 1 - threshold
    if slack > 1:
        raise DomainError(
            f"exhaustive enumeration needs deficiency at most 1 per direction, "
            f"got {slack}; lower n or raise the threshold, or use random mode"
        )
    return slack


def iter_min_semidegree_hosts(n: int, dmin: int) -> Iterator[Digraph]:
    """Every digraph on n vertices with min semidegree at least dmin.

    Feasible only when each vertex may miss at most one arc per direction
    (dmin at least n-2); larger deficiencies are refused.  The complements
    are the loop-free partial injections: each vertex misses no out-arc or
    one, and every vertex is capped.
    """
    slack = _deficiency(n, dmin)
    if slack < 0:
        return
    rows = [[0] + [1 << w for w in range(n) if w != v] for v in range(n)]
    yield from _complements(n, rows, (1 << n) - 1, slack)


def iter_out_or_in_hosts(n: int, t: int) -> Iterator[Digraph]:
    """Every digraph where each vertex has out-degree >= t or in-degree >= t.

    Same feasibility rule as iter_min_semidegree_hosts.  Cases are split by
    the exact witness set W of vertices missing at most cap = n-1-t out-arcs:
    rows in W are light (at most cap arcs), rows outside W heavy, and the
    vertices outside W are capped.
    """
    cap = _deficiency(n, t)
    if cap < 0:
        return
    full = (1 << n) - 1
    rows = [[m for m in range(1 << n) if not m >> v & 1] for v in range(n)]
    light = [[m for m in r if m.bit_count() <= cap] for r in rows]
    heavy = [[m for m in r if m.bit_count() > cap] for r in rows]
    for wmask in range(1 << n):
        options = [light[v] if wmask >> v & 1 else heavy[v] for v in range(n)]
        yield from _complements(n, options, full ^ wmask, cap)


# ---------------------------------------------------------------------------
# sweep core


def _pattern_name(p: Digraph) -> str:
    try:
        t = Tournament.from_digraph(p)
    except DomainError:
        if p.num_arcs == p.n * (p.n - 1):
            return f"k{p.n}"
        return f"digraph-{p.n}v-{p.num_arcs}a"
    if t == Tournament.transitive(t.n):
        return f"t{t.n}"
    if t.n == 3:
        return "c3"
    return f"tournament-{t.n}v"


# child seeds are seed * stride + index, distinct while index < stride
_SEED_STRIDE = 1_000_003


def _derived_seed(seed: int, index: int) -> int:
    return seed * _SEED_STRIDE + index


def _tournament_of_order(pattern: Digraph, r: int) -> Digraph:
    tour = Tournament.from_digraph(pattern)
    if tour.n != r:
        raise DomainError(f"pattern has {tour.n} vertices, expected {r}")
    return pattern


def _sweep(
    kind: str,
    r: int,
    n: int,
    pattern: Callable[[], Digraph],
    threshold: Callable[[], int],
    scope: str,
    random_host: Callable[[int, int], Digraph],
    all_hosts: Callable[[int], Iterable[Digraph]] | None,
    mode: str,
    samples: int,
    seed: int,
    budget: int,
    fast: Callable[[Digraph], bool] | None = None,
) -> SweepReport:
    """Solve each host meeting a degree condition for a perfect pattern packing.

    ``pattern`` and ``threshold`` are evaluated once r and n are known to
    be valid.  Hosts come from ``random_host(threshold, child_seed)`` or,
    in exhaustive mode, from ``all_hosts(threshold)``; ``None`` makes the
    condition sampling-only.  ``fast(g)`` may prove a packing exists and so
    skip the exact solver; only the exact solver can declare non-existence.
    """
    if r < 2:
        raise DomainError("pattern order must be at least 2")
    if n < r or n % r:
        raise DomainError(f"{r} must divide the host order {n}")
    p = pattern()
    t = threshold()
    family = normalize_patterns(p)
    if mode == "random":
        if not 0 <= samples < _SEED_STRIDE:
            raise DomainError(
                f"samples must lie in [0, {_SEED_STRIDE}), got {samples}"
            )
        instances = (
            (f"sample:{i}", random_host(t, _derived_seed(seed, i)))
            for i in range(samples)
        )
    elif mode == "exhaustive" and all_hosts is not None:
        instances = ((f"enum:{i}", g) for i, g in enumerate(all_hosts(t)))
    else:
        raise DomainError(f"unknown mode {mode!r}")
    params = {
        "r": r,
        "n": n,
        "pattern": _pattern_name(p),
        "threshold": t,
        "mode": mode,
        "samples": samples if mode == "random" else 0,
        "seed": seed if mode == "random" else 0,
    }

    start = time.perf_counter()
    examined = packed = over = 0
    cexs: list[Counterexample] = []
    for label, g in instances:
        examined += 1
        if fast is not None and fast(g):
            packed += 1
            continue
        cert = find_perfect_family_packing(g, family, budget)
        if cert.verdict == PACKED:
            if not verify_packing(g, family, cert.packing, require_perfect=True):
                raise InvariantViolation("solver produced an invalid packing")
            packed += 1
        elif cert.verdict == BUDGET_EXCEEDED:
            over += 1
        else:
            cex = Counterexample(
                edge_list=digraph_to_text(g),
                verdict=EXHAUSTED_NONE,
                nodes=cert.nodes,
                label=label,
                patterns=(digraph_to_text(p),),
                obstruction=cert.obstruction,
            )
            if not replay_counterexample(cex, budget):
                raise InvariantViolation("counterexample did not replay")
            cexs.append(cex)
    return SweepReport(
        kind=kind,
        params=tuple(sorted(params.items())),
        claim_scope=scope,
        examined=examined,
        packed=packed,
        budget_exceeded=over,
        counterexamples=tuple(cexs),
        elapsed=time.perf_counter() - start,
    )


def sweep_semidegree(
    r: int,
    pattern: Digraph,
    n: int,
    mode: str = "random",
    samples: int = 100,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> SweepReport:
    """Solve every (or a sample of) host with min semidegree >= ceil((1-1/r)n)."""
    return _sweep(
        "semidegree", r, n,
        pattern=lambda: _tournament_of_order(pattern, r),
        threshold=lambda: ceil_frac((r - 1) * n, r),
        scope=SCOPE_ASYMPTOTIC,
        random_host=lambda t, s: random_digraph_min_semidegree(n, t, s),
        all_hosts=lambda t: iter_min_semidegree_hosts(n, t),
        mode=mode, samples=samples, seed=seed, budget=budget,
    )


_T3_FAMILY = (Tournament.transitive(3),)


def _t3_first_fit(g: Digraph) -> bool:
    """The solver's first-fit stage for transitive triangles: True proves a
    perfect packing exists; False only means the stage gave up."""
    return _first_fit(g, _T3_FAMILY, DEFAULT_BUDGET) is not None


def sweep_out_or_in(
    r: int,
    n: int,
    mode: str = "random",
    samples: int = 100,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> SweepReport:
    """Hosts where each vertex has out- or in-degree >= ceil((1-1/r)n), solved
    for perfect transitive packings.

    For r = 3 the solver's first-fit stage confirms most hosts, the
    dedicated local-search packer handles what it misses, and the exact
    solver settles anything left; only the exact solver can declare
    non-existence.
    """

    def t3_packs(g: Digraph) -> bool:
        if _t3_first_fit(g):
            return True
        try:
            packing, _ = t3_pack(g, budget)
        except SwapNotFound:
            return False
        if not verify_packing(g, _T3_FAMILY, packing, require_perfect=True):
            raise InvariantViolation("local-search packing failed verification")
        return True

    return _sweep(
        "out-or-in", r, n,
        pattern=lambda: Tournament.transitive(r),
        threshold=lambda: ceil_frac((r - 1) * n, r),
        scope=SCOPE_ALL_ORDERS if r == 3 else SCOPE_CONJECTURED,
        random_host=lambda t, s: random_digraph_out_or_in(n, s, t),
        all_hosts=lambda t: iter_out_or_in_hosts(n, t),
        mode=mode, samples=samples, seed=seed, budget=budget,
        fast=t3_packs if r == 3 else None,
    )


def sweep_total_degree_kr(
    r: int,
    n: int,
    samples: int = 100,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> SweepReport:
    """Sampled hosts with total degree >= (2-1/r)n - 1, solved for perfect
    complete-digraph packings (equivalently, cliques of mutual arc pairs)."""
    return _sweep(
        "kr-total", r, n,
        pattern=lambda: Digraph.complete(r),
        threshold=lambda: ceil_frac((2 * r - 1) * n - r, r),
        scope=SCOPE_ALL_ORDERS,
        random_host=lambda t, s: random_digraph_total_min_degree(n, t, s),
        all_hosts=None,
        mode="random", samples=samples, seed=seed, budget=budget,
    )


def sweep_total_degree_c3(
    n: int,
    samples: int = 100,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> SweepReport:
    """Sampled hosts with total degree >= ceil((3n-3)/2), solved for perfect
    cyclic-triangle packings."""
    return _sweep(
        "c3-total", 3, n,
        pattern=Tournament.cyclic_triangle,
        threshold=lambda: ceil_frac(3 * n - 3, 2),
        scope=SCOPE_ALL_ORDERS,
        random_host=lambda t, s: random_digraph_total_min_degree(n, t, s),
        all_hosts=None,
        mode="random", samples=samples, seed=seed, budget=budget,
    )


def replay_counterexample(cex: Counterexample, budget: int = DEFAULT_BUDGET) -> bool:
    """Reload a persisted counterexample and confirm the non-existence verdict:
    by validate_obstruction when it carries an obstruction, else by solving
    it again."""
    g = load_digraph_text(cex.edge_list)
    family = [load_digraph_text(p) for p in cex.patterns]
    if cex.obstruction is not None:
        return validate_obstruction(g, family, cex.obstruction)
    cert = find_perfect_family_packing(g, family, budget)
    return cert.verdict == cex.verdict


# ---------------------------------------------------------------------------
# tightness suite


@dataclass(frozen=True)
class TightnessEntry:
    family: str
    statistic: str
    expected: int
    actual: int
    # (pattern name, verdict, nodes, obstruction)
    checks: tuple[tuple[str, str, int, Obstruction | None], ...]


@dataclass(frozen=True)
class TightnessReport:
    r: int
    n: int
    entries: tuple[TightnessEntry, ...]

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "kind": "tightness",
            "r": self.r,
            "n": self.n,
            "entries": [
                {
                    "family": e.family,
                    "statistic": e.statistic,
                    "expected": e.expected,
                    "actual": e.actual,
                    "checks": [
                        {"pattern": p, "verdict": v, "nodes": k,
                         "obstruction": _obstruction_dict(obs)}
                        for p, v, k, obs in e.checks
                    ],
                }
                for e in self.entries
            ],
        }


_STATISTICS = {
    "min-semidegree": min_semidegree,
    "total-min-degree": total_min_degree,
    "min-out-degree": lambda g: min(g.d_out(v) for v in range(g.n)),
}


def tightness_suite(r: int, n: int, budget: int = DEFAULT_BUDGET) -> TightnessReport:
    """Build each extremal family applicable at (r, n), assert its advertised
    degree statistic exactly, and prove the advertised non-packability with
    the solver (by a barrier or by exhaustive search).  Any mismatch raises;
    success returns the report."""
    if r < 2:
        raise DomainError("pattern order must be at least 2")
    if n < r or n % r:
        raise DomainError(f"{r} must divide the host order {n}")
    # (family, host, statistic, expected value, [(patterns, name, verdict)])
    cases = [
        ("near-independent", make_near_independent_extremal(n, r),
         "min-semidegree", n - n // r - 1,
         [([t], _pattern_name(t), EXHAUSTED_NONE) for t in all_tournaments(r)]),
        ("near-tournament", make_near_tournament_extremal(n, r),
         "total-min-degree", 2 * n - n // r - 2,
         [([Digraph.complete(r)], f"k{r}", EXHAUSTED_NONE)]),
    ]
    if r == 3:
        no_c3 = ([Tournament.cyclic_triangle()], "c3", EXHAUSTED_NONE)
        if n >= 9:
            cases.append(
                ("shifted-blow-up", make_c3_blowup(n, 1)[0],
                 "min-semidegree", 2 * n // 3 - 2,
                 [no_c3, (all_tournaments(3), "t3+c3", PACKED)])
            )
        cases.append(
            ("source", make_source_counterexample(n), "min-out-degree", n - 2, [no_c3])
        )
        if n >= 15 and (n - 3) % 2 == 0 and ((n - 3) // 2) % 6 == 0:
            cases.append(
                ("k3-minus-extremal", make_k3minus_example((n - 3) // 2),
                 "min-semidegree", (3 * n - 5) // 4,
                 [([k3_minus_pattern()], "k3-minus", EXHAUSTED_NONE)])
            )

    entries: list[TightnessEntry] = []
    for family, g, statistic, expected, solves in cases:
        actual = _STATISTICS[statistic](g)
        if actual != expected:
            raise InvariantViolation(
                f"{family}: {statistic} {actual}, expected {expected}"
            )
        checks = []
        for patterns, name, verdict in solves:
            cert = find_perfect_family_packing(g, patterns, budget)
            if cert.verdict != verdict:
                raise InvariantViolation(
                    f"{family}: expected {verdict} for {name}, solver said {cert.verdict}"
                )
            checks.append((name, cert.verdict, cert.nodes, cert.obstruction))
        entries.append(TightnessEntry(family, statistic, expected, actual, tuple(checks)))
    return TightnessReport(r, n, tuple(entries))
