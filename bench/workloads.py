"""The benchmark's four workloads, built from a seed.

A workload is a list of batches that the runner cycles through in a closed
loop.  Each batch does its own work through tpack's public API (or the CLI),
checks the result, and returns how many of its ops failed.  An op is one host
examined on the sweeps, and one parse-solve-check on ``solve-packable`` and
``prove-none``.  Exceptions, wrong verdicts, failed verifications and
``budget-exceeded`` verdicts all count as failed ops.

Hosts are built and serialised to edge-list text at set-up, so an op starts
from text as a user's input would.  Every solver call gets ``NODE_BUDGET``
so that a search regression ends as a counted failure, not a hang.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

from tpack import cli, constructions, core, harness, solver, structure, t3local
from tpack.core import Digraph, Tournament, k3_minus_pattern

NODE_BUDGET = 200_000
EXPACK_ALPHA = 0.05

T3 = Tournament.transitive(3)
T4 = Tournament.transitive(4)
C3 = Tournament.cyclic_triangle()
K3 = Digraph.complete(3)
K3_MINUS = k3_minus_pattern()


@dataclass
class Batch:
    """One timed unit: ``run()`` does and checks the work, returns failed ops."""

    label: str
    size: int
    run: Callable[[], int]


@dataclass
class Workload:
    name: str
    batches: list[Batch]
    # sweeps are timed in blocks of hosts, from marks where the sweep obtains one
    host_probe: str | None = None
    host_block: int = 1

    @contextlib.contextmanager
    def probed(self, mark: Callable[[], None]):
        """Call ``mark()`` at each host the sweep takes, without tracing."""
        name = self.host_probe
        orig = getattr(harness, name, None) if name else None
        if orig is None:
            yield False
            return

        if inspect.isgeneratorfunction(orig):
            def marked(*args, **kwargs):
                for host in orig(*args, **kwargs):
                    mark()
                    yield host
        else:
            def marked(*args, **kwargs):
                mark()
                return orig(*args, **kwargs)

        setattr(harness, name, marked)
        try:
            yield True
        finally:
            setattr(harness, name, orig)


def _relabelled(g: Digraph, rng: random.Random) -> tuple[str, list[int]]:
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = Digraph.from_arcs(g.n, [(perm[u], perm[v]) for u, v in g.arcs()])
    return core.digraph_to_text(h), perm


def _solve_batch(label: str, text: str, checks) -> Batch:
    """Parse once, then solve each (family, expected verdict) and check it."""

    def run() -> int:
        g = core.load_digraph_text(text)
        for family, expected in checks:
            cert = solver.find_perfect_family_packing(g, family, NODE_BUDGET)
            if cert.verdict != expected:
                return 1
            if expected == solver.PACKED and not solver.verify_packing(
                    g, family, cert.packing, require_perfect=True):
                return 1
        return 0

    return Batch(label, 1, run)


def _t3_pack_batch(label: str, text: str) -> Batch:
    def run() -> int:
        g = core.load_digraph_text(text)
        packing, _ = t3local.t3_pack(g, NODE_BUDGET)
        return 0 if solver.verify_packing(g, T3, packing, require_perfect=True) else 1

    return Batch(label, 1, run)


def _expack_batch(label: str, text: str, classes) -> Batch:
    def run() -> int:
        g = core.load_digraph_text(text)
        packing = structure.extremal_c3_pack(g, EXPACK_ALPHA, classes, budget=NODE_BUDGET)
        return 0 if solver.verify_packing(g, C3, packing, require_perfect=True) else 1

    return Batch(label, 1, run)


def _canonical(check: Callable[[str], int], size: int) -> Callable[[str], int]:
    """Fail every op of a batch whose canonical text differs from its first run."""
    first: list[str] = []

    def compare(text: str) -> int:
        if not first:
            first.append(text)
        return check(text) if text == first[0] else size

    return compare


def sweep_exhaustive(seed: int, tiny: bool = False) -> Workload:
    """``tpack verify threshold --r 3 --n 6 --mode exhaustive`` in-process.

    The seed is unused: the sweep covers the whole labelled host space.  A
    host takes about 0.3 ms, so hosts are timed in 100 blocks of 66.
    """
    n, hosts = (3, 1) if tiny else (6, 6600)
    argv = ["verify", "threshold", "--r", "3", "--n", str(n), "--mode", "exhaustive",
            "--budget", str(NODE_BUDGET)]

    def tally(text: str) -> int:
        report = json.loads(text)
        if report["examined"] != hosts or report["params"]["n"] != n:
            return hosts
        return hosts - report["packed"]

    check = _canonical(tally, hosts)

    def run() -> int:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        return check(out.getvalue()) if rc == 0 else hosts

    return Workload("sweep-exhaustive", [Batch(f"threshold-n{n}", hosts, run)],
                    host_probe="iter_min_semidegree_hosts", host_block=66)


def sweep_random(seed: int, tiny: bool = False) -> Workload:
    """Twenty seeded ``sweep_out_or_in(3, 30, mode="random")`` sweeps of 100 hosts,
    each timed in five blocks of 20 hosts."""
    n, sweeps, samples = (9, 2, 5) if tiny else (30, 20, 100)
    rng = random.Random(f"sweep-random:{seed}")
    batches = []
    for _ in range(sweeps):
        sweep_seed = rng.randrange(1 << 30)

        def tally(text: str) -> int:
            report = json.loads(text)
            return samples - report["packed"] if report["examined"] == samples else samples

        check = _canonical(tally, samples)

        def run(sweep_seed=sweep_seed, check=check) -> int:
            report = harness.sweep_out_or_in(3, n, mode="random", samples=samples,
                                             seed=sweep_seed, budget=NODE_BUDGET)
            return check(report.to_json())

        batches.append(Batch(f"outin-n{n}-seed{sweep_seed}", samples, run))
    return Workload("sweep-random", batches, host_probe="random_digraph_out_or_in",
                    host_block=20)


def solve_packable(seed: int, tiny: bool = False) -> Workload:
    """Seeded packable hosts: exact solves at the semidegree threshold, t3_pack on
    out-or-in hosts, and extremal_c3_pack on a relabelled balanced blow-up.

    Each round holds two of each n=30 op (t3, c3, t3_pack) and one t4 (n=20)
    and one packer (n=45) op, so the median op falls inside the n=30 group.
    Sizes keep ops at 50-200 ms, so a 25 s run repeats each op several times.
    """
    n3, n4, nb, rounds = (9, 8, 9, 1) if tiny else (30, 20, 45, 6)
    rng = random.Random(f"solve-packable:{seed}")

    def exact(name: str, family, n: int) -> Batch:
        """Pack a seeded host at the semidegree threshold for ``family``."""
        r = family.n
        dmin = core.ceil_frac((r - 1) * n, r)
        g = constructions.random_digraph_min_semidegree(n, dmin, rng.randrange(1 << 30))
        return _solve_batch(f"{name}-n{n}", core.digraph_to_text(g), [([family], solver.PACKED)])

    batches = []
    for _ in range(rounds):
        for _ in range(2):
            batches.append(exact("t3", T3, n3))
            batches.append(exact("c3", C3, n3))
            g = constructions.random_digraph_out_or_in(n3, rng.randrange(1 << 30))
            batches.append(_t3_pack_batch(f"t3pack-n{n3}", core.digraph_to_text(g)))
        batches.append(exact("t4", T4, n4))
        blowup, part = constructions.make_c3_blowup(nb, 0)
        text, perm = _relabelled(blowup, rng)
        classes = [sorted(perm[v] for v in c) for c in part.classes]
        batches.append(_expack_batch(f"expack-n{nb}", text, classes))
    return Workload("solve-packable", batches)


def prove_none(seed: int, tiny: bool = False) -> Workload:
    """Seeded relabellings of the extremal families, each proved unpackable.

    The shifted blow-up ops also pack the mixed t3,c3 family, as a packed check.
    Sizes are chosen after relabelling, since the canonical labels flatter the
    lowest-index branching several-fold: 5-130 ms per op, so a 25 s run
    repeats each op several times.

    A relabelling changes a proof's cost by up to 3x on the near-independent,
    near-tournament and k3-minus hosts, but by about 10% on the shifted blow-up.
    Each round therefore holds four n=15 and two n=18 blow-up ops besides one
    op of every other family: the median op falls among the n=15 blow-ups and
    the tail among the n=18 ones, so neither hangs on a few relabellings.
    """
    n3, n4, nb, nbig, m, rounds = (6, 8, 6, 9, 0, 1) if tiny else (15, 12, 15, 18, 6, 8)
    none = solver.EXHAUSTED_NONE
    blowup = [([C3], none), ([T3, C3], solver.PACKED)]
    cases = (
        ("k3-minus", constructions.make_k3minus_example(m), [([K3_MINUS], none)], 1),
        ("nearindep-t4", constructions.make_near_independent_extremal(n4, 4), [([T4], none)], 1),
        ("nearindep-t3", constructions.make_near_independent_extremal(n3, 3), [([T3], none)], 1),
        ("neartour-k3", constructions.make_near_tournament_extremal(n3, 3), [([K3], none)], 1),
        ("shifted-blowup", constructions.make_c3_blowup(nb, 1)[0], blowup, 4),
        ("shifted-blowup", constructions.make_c3_blowup(nbig, 1)[0], blowup, 2),
    )
    rng = random.Random(f"prove-none:{seed}")
    batches = []
    for _ in range(rounds):
        for label, g, checks, copies in cases:
            for _ in range(copies):
                text, _ = _relabelled(g, rng)
                batches.append(_solve_batch(f"{label}-n{g.n}", text, checks))
    return Workload("prove-none", batches)


WORKLOADS = {
    "sweep-exhaustive": sweep_exhaustive,
    "sweep-random": sweep_random,
    "solve-packable": solve_packable,
    "prove-none": prove_none,
}
