"""Threshold sweeps over digraph families, tightness checks, and reports.

Sweeps either enumerate every host meeting a degree condition (via the
complement, feasible when each vertex misses at most one arc per direction)
or sample seeded random hosts.  Each host is solved exactly, except that an
exhaustive sweep first tries every packing it has counted, the one used
last first: the enumeration changes a row or two per host, so one of them
usually still fits.  For the one used last the enumerator decides that
itself, comparing the complement rows it places with the arc rows the
packing needs, and never builds a host that packing fits.  Only the hosts
that no counted packing fits reach the solver, so an exhaustive report's
budget-exceeded hosts are those of them the solver gave up on.  Failures
are kept as replayable counterexample payloads.  Reports are pure
functions of their parameters and seed, so reruns are byte-identical.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Sequence

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
from .check import (
    Obstruction,
    Packing,
    _fits,
    _packing_rows,
    normalize_patterns,
    validate_obstruction,
    verify_packing,
)
from .solver import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    EXHAUSTED_NONE,
    PACKED,
    _first_fit,
    find_perfect_family_packing,
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
    """A sweep's tallies.  ``budget_exceeded`` counts the hosts that the
    solver reached but could not settle within the budget.  An exhaustive
    sweep hands the solver only the hosts that no packing it counted
    earlier fits, so a host the solver alone would give up on counts as
    packed when such a packing fits it; counterexamples and
    ``packed + budget_exceeded`` are the solver's alone."""

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
        """The fields less elapsed, with params as an object, plus the
        schema and the verdict."""
        d = asdict(self)
        del d["elapsed"]
        return {**d, "schema": REPORT_SCHEMA, "params": self.params_dict(),
                "verdict": self.verdict}

    def to_json(self) -> str:
        """Canonical form; wall time is excluded so reruns compare equal."""
        return json.dumps(self.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# exhaustive complement enumeration


def _last_need(kept: Sequence, put: list[int], last: int) -> int | None:
    """The row that the front of ``kept`` needs at vertex ``last`` (0 when
    none) if the rows put at the other vertices miss every row it needs,
    else None; None too when ``kept`` is empty."""
    if not kept:
        return None
    tail = 0
    for u, want in kept[0]:
        if u == last:
            tail = want
        elif put[u] & want:
            return None
    return tail


def _complements(
    n: int, options: list[list[int]], capped: int, cap: int, kept: Sequence = ()
) -> Iterator[Digraph | None]:
    """Every host K_n minus C, where C takes vertex v's out-row from
    ``options[v]`` (in order) and each vertex in the mask ``capped`` misses
    at most ``cap`` (0 or 1) in-arcs.

    Depth-first on an explicit stack: ``nxt[v]`` indexes v's next option,
    ``put[v]`` is the row placed at v, and ``hit[v]`` the capped vertices
    that may miss no further in-arc; a row entering it is refused.  Swapping
    v's row flips bit v of the in-rows named by the old row XOR the new one.

    The last vertex's allowed options are its node's hosts, taken in one
    loop.  ``kept`` is the consumer's list of need rows (check._packing_rows),
    which it may change only after a host the walk built, and the walk
    reads only its front.  A host's out-row contains a need row exactly
    when its complement row misses it, so the rows put at vertices 0..n-2
    are tested against the front on entering that node and again after
    each built host, and each option with one AND.  A host that contains
    every need row of the front (check._fits holds) is yielded as None: no
    in-row is flipped and no Digraph built.  With ``kept`` empty every
    host is built.
    """
    full = (1 << n) - 1
    out = [full ^ (1 << v) for v in range(n)]
    in_rows, nxt, put = out[:], [0] * n, [0] * n
    hit = [0 if cap else capped] + [0] * n
    last, v = n - 1, 0
    while v >= 0:
        opts, i, bit = options[v], nxt[v], 1 << v
        if v == last:
            tail = _last_need(kept, put, last)
            for row in opts:
                if row & hit[v]:
                    continue
                if tail is not None and not row & tail:
                    yield None
                    continue
                flip, put[v] = put[v] ^ row, row
                while flip:
                    low = flip & -flip
                    in_rows[low.bit_length() - 1] ^= bit
                    flip ^= low
                out[v] = full ^ bit ^ row
                yield Digraph._from_rows(n, out, in_rows)
                tail = _last_need(kept, put, last)
            i = len(opts)  # node done: undo its row below and step back
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


def iter_min_semidegree_hosts(
    n: int, dmin: int, kept: Sequence = ()
) -> Iterator[Digraph | None]:
    """Every digraph on n vertices with min semidegree at least dmin.

    Feasible only when each vertex may miss at most one arc per direction
    (dmin at least n-2); larger deficiencies are refused.  The complements
    are the loop-free partial injections: each vertex misses no out-arc or
    one, and every vertex is capped.  At deficiency 0 only the empty row is
    offered, since every other one would be refused.  ``kept`` goes to
    _complements: a host that contains its front need rows comes as None.
    """
    slack = _deficiency(n, dmin)
    if slack < 0:
        return
    rows = [[0] + [1 << w for w in range(n) if w != v] if slack else [0] for v in range(n)]
    yield from _complements(n, rows, (1 << n) - 1, slack, kept)


#: the largest order iter_out_or_in_hosts enumerates: its n * 2^n row
#: masks come before the first host and double with each vertex
_OUT_OR_IN_MAX_N = 16


def iter_out_or_in_hosts(
    n: int, t: int, kept: Sequence = ()
) -> Iterator[Digraph | None]:
    """Every digraph where each vertex has out-degree >= t or in-degree >= t.

    Same feasibility rule as iter_min_semidegree_hosts.  Cases are split by
    the exact witness set W of vertices missing at most cap = n-1-t out-arcs:
    rows in W are light (at most cap arcs), rows outside W heavy, and the
    vertices outside W are capped.  ``kept`` goes to _complements, as in
    iter_min_semidegree_hosts.  Orders above _OUT_OR_IN_MAX_N (16) are
    refused before any row list is built.
    """
    if n > _OUT_OR_IN_MAX_N:
        raise DomainError(
            f"exhaustive out-or-in enumeration builds n * 2^n row masks; "
            f"n = {n} exceeds {_OUT_OR_IN_MAX_N}"
        )
    cap = _deficiency(n, t)
    if cap < 0:
        return
    full = (1 << n) - 1
    rows = [[m for m in range(1 << n) if not m >> v & 1] for v in range(n)]
    light = [[m for m in r if m.bit_count() <= cap] for r in rows]
    heavy = [[m for m in r if m.bit_count() > cap] for r in rows]
    for wmask in range(1 << n):
        options = [light[v] if wmask >> v & 1 else heavy[v] for v in range(n)]
        yield from _complements(n, options, full ^ wmask, cap, kept)


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


# child seeds are seed * stride + index, distinct while index < stride and
# seed >= 0 (random.Random(-x) seeds exactly as random.Random(x))
_SEED_STRIDE = 1_000_003


def _derived_seed(seed: int, index: int) -> int:
    return seed * _SEED_STRIDE + index


def _check_order(r: int, n: int) -> None:
    if r < 2:
        raise DomainError("pattern order must be at least 2")
    if n < r or n % r:
        raise DomainError(f"{r} must divide the host order {n}")


def _tournament_of_order(pattern: Digraph, r: int) -> Digraph:
    tour = Tournament.from_digraph(pattern)
    if tour.n != r:
        raise DomainError(f"pattern has {tour.n} vertices, expected {r}")
    return pattern


def _fit_to_front(kept: list, g: Digraph) -> bool:
    """Whether any need rows in ``kept`` fit g (check._fits), tried front
    first; the first that fits moves to the front."""
    for j, rows in enumerate(kept):
        if _fits(rows, g):
            if j:
                kept.insert(0, kept.pop(j))
            return True
    return False


_T3_FAMILY = (Tournament.transitive(3),)


def _t3_first_fit(g: Digraph) -> Packing | None:
    """The solver's first-fit stage for transitive triangles: a perfect
    packing, or None when the stage gave up, which proves nothing."""
    cert = _first_fit(g, _T3_FAMILY, DEFAULT_BUDGET)
    return None if cert is None else cert.packing


def _t3_packs(g: Digraph, budget: int) -> Packing | None:
    """The out-or-in fast path at r = 3: first-fit, then the local-search
    packer; None when both gave up, which proves nothing."""
    packing = _t3_first_fit(g)
    if packing:
        return packing
    try:
        return t3_pack(g, budget)[0]
    except SwapNotFound:
        return None


@dataclass(frozen=True)
class _SweepKind:
    """A sweep kind: its pattern (``given`` is the caller's, None where the
    kind fixes it), degree threshold and claim scope; its seeded host and
    exhaustive walk (None: sampling-only), each taking the threshold; and
    a fast path tried before the solver at r = 3.  Each calls what it
    needs by its module name, so a name replaced later (a tracer's
    wrapper, a probe, a test's patch) is the one called."""

    pattern: Callable[[int, Digraph | None], Digraph]  # (r, given)
    threshold: Callable[[int, int], int]  # (r, n)
    scope: Callable[[int], str]  # (r)
    random_host: Callable[[int, int, int], Digraph]  # (n, t, seed)
    all_hosts: Callable[[int, int, list], Iterable[Digraph | None]] | None  # (n, t, kept)
    fast: Callable[[Digraph, int], Packing | None] | None = None  # (g, budget)


# the sweep kinds by report kind
_SWEEPS = {
    "semidegree": _SweepKind(
        pattern=lambda r, given: _tournament_of_order(given, r),
        threshold=lambda r, n: ceil_frac((r - 1) * n, r),
        scope=lambda r: SCOPE_ASYMPTOTIC,
        random_host=lambda n, t, s: random_digraph_min_semidegree(n, t, s),
        all_hosts=lambda n, t, kept: iter_min_semidegree_hosts(n, t, kept),
    ),
    "out-or-in": _SweepKind(
        pattern=lambda r, given: Tournament.transitive(r),
        threshold=lambda r, n: ceil_frac((r - 1) * n, r),
        scope=lambda r: SCOPE_ALL_ORDERS if r == 3 else SCOPE_CONJECTURED,
        random_host=lambda n, t, s: random_digraph_out_or_in(n, s, t),
        all_hosts=lambda n, t, kept: iter_out_or_in_hosts(n, t, kept),
        fast=_t3_packs,
    ),
    "kr-total": _SweepKind(
        pattern=lambda r, given: Digraph.complete(r),
        threshold=lambda r, n: ceil_frac((2 * r - 1) * n - r, r),
        scope=lambda r: SCOPE_ALL_ORDERS,
        random_host=lambda n, t, s: random_digraph_total_min_degree(n, t, s),
        all_hosts=None,
    ),
    "c3-total": _SweepKind(
        pattern=lambda r, given: Tournament.cyclic_triangle(),
        threshold=lambda r, n: ceil_frac(3 * n - 3, 2),
        scope=lambda r: SCOPE_ALL_ORDERS,
        random_host=lambda n, t, s: random_digraph_total_min_degree(n, t, s),
        all_hosts=None,
    ),
}


def _sweep(
    kind: str, r: int, n: int, pattern: Digraph | None,
    mode: str, samples: int, seed: int, budget: int,
) -> SweepReport:
    """Check each host meeting the degree condition of ``_SWEEPS[kind]``
    for a perfect pattern packing.

    The entry's pattern and threshold are evaluated once r and n are known
    to be valid.  Hosts come from its seeded host, one child seed a sample,
    or in exhaustive mode from its walk.  At r = 3 its fast path returns a
    perfect packing, which skips the exact solver, or a falsy value when it
    gave up; only the exact solver can declare non-existence.  Every
    packing, from the fast path or the solver, must pass verify_packing on
    its host before it is counted.  An exhaustive sweep keeps the need rows
    (check._packing_rows) of every packing it counts in ``kept``, most
    recently used first, and counts a host packed, without the fast path
    or the solver, when some kept packing fits it (check._fits): every host
    has order n, so that is when the packing passes verify_packing on it.
    The first that fits moves to the front (_fit_to_front).  The walk reads
    the front of ``kept`` and yields a host it fits as None, unbuilt
    (_complements); only a built host changes the list, and it is tested
    against every kept packing, so a walk that builds every host gives the
    same report.  The hosts that reach the fast path and the solver, those
    that no packing counted before them fits, do not depend on the order
    (see SweepReport).  Random hosts are independent, so random mode keeps
    nothing.  A host's label is formatted only for a counterexample.
    """
    _check_order(r, n)
    entry = _SWEEPS[kind]
    p = entry.pattern(r, pattern)
    t = entry.threshold(r, n)
    fast = entry.fast if r == 3 else None
    family = normalize_patterns(p)
    kept: list = []  # the need rows of every packing counted, front first
    if mode == "random":
        if not 0 <= samples < _SEED_STRIDE:
            raise DomainError(
                f"samples must lie in [0, {_SEED_STRIDE}), got {samples}"
            )
        if seed < 0:
            raise DomainError(f"seed must be non-negative, got {seed}")
        hosts = (entry.random_host(n, t, _derived_seed(seed, i)) for i in range(samples))
        prefix = "sample"
    elif mode == "exhaustive" and entry.all_hosts is not None:
        hosts, prefix = entry.all_hosts(n, t, kept), "enum"
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
    reuse = mode == "exhaustive"
    for i, g in enumerate(hosts):
        examined += 1
        if g is None or _fit_to_front(kept, g):
            packed += 1
            continue
        packing = fast(g, budget) if fast is not None else None
        if not packing:
            cert = find_perfect_family_packing(g, family, budget)
            packing = cert.packing
        if packing:
            if not verify_packing(g, family, packing, require_perfect=True):
                raise InvariantViolation("sweep produced an invalid packing")
            packed += 1
            if reuse:
                kept.insert(0, _packing_rows(packing, family))
        elif cert.verdict == BUDGET_EXCEEDED:
            over += 1
        else:
            cex = Counterexample(
                edge_list=digraph_to_text(g),
                verdict=EXHAUSTED_NONE,
                nodes=cert.nodes,
                label=f"{prefix}:{i}",
                patterns=(digraph_to_text(p),),
                obstruction=cert.obstruction,
            )
            if not replay_counterexample(cex, budget):
                raise InvariantViolation("counterexample did not replay")
            cexs.append(cex)
    return SweepReport(
        kind=kind,
        params=tuple(sorted(params.items())),
        claim_scope=entry.scope(r),
        examined=examined,
        packed=packed,
        budget_exceeded=over,
        counterexamples=tuple(cexs),
        elapsed=time.perf_counter() - start,
    )


def sweep_semidegree(
    r: int, pattern: Digraph, n: int, mode: str = "random", samples: int = 100,
    seed: int = 0, budget: int = DEFAULT_BUDGET,
) -> SweepReport:
    """Solve every (or a sample of) host with min semidegree >= ceil((1-1/r)n)."""
    return _sweep("semidegree", r, n, pattern, mode, samples, seed, budget)


def sweep_out_or_in(
    r: int, n: int, mode: str = "random", samples: int = 100, seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> SweepReport:
    """Hosts where each vertex has out- or in-degree >= ceil((1-1/r)n), solved
    for perfect transitive packings.

    For r = 3 the solver's first-fit stage confirms most hosts, the
    dedicated local-search packer handles what it misses, and the exact
    solver settles anything left; only the exact solver can declare
    non-existence.  In exhaustive mode a host is first tried with every
    packing counted before it, and this chain runs only when none fits.
    """
    return _sweep("out-or-in", r, n, None, mode, samples, seed, budget)


def sweep_total_degree_kr(
    r: int, n: int, samples: int = 100, seed: int = 0, budget: int = DEFAULT_BUDGET
) -> SweepReport:
    """Sampled hosts with total degree >= (2-1/r)n - 1, solved for perfect
    complete-digraph packings (equivalently, cliques of mutual arc pairs)."""
    return _sweep("kr-total", r, n, None, "random", samples, seed, budget)


def sweep_total_degree_c3(
    n: int, samples: int = 100, seed: int = 0, budget: int = DEFAULT_BUDGET
) -> SweepReport:
    """Sampled hosts with total degree >= ceil((3n-3)/2), solved for perfect
    cyclic-triangle packings."""
    return _sweep("c3-total", 3, n, None, "random", samples, seed, budget)


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
    _check_order(r, n)
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
