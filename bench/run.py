"""tpack benchmark: one workload per process, closed loop, single thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are ``sweep-exhaustive``, ``sweep-random``, ``solve-packable`` and
``prove-none`` (see ``workloads.py``).  The run imports tpack from ``src/``
next to this directory and runs the workload's batches back to back for
``--seconds``, each starting only after the previous one finished.  Every
output is checked; a wrong one is a failed op.  Set-up is timed in fresh
child processes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every batch
untraced and then traced, prints the per-layer metrics and
``trace.overhead_frac``, and writes the spans to
``.bench_out/trace-<workload>.json``.  Human-readable lines come first; the
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 8
TAIL_BEYOND = 10
TAIL_CAP = 99.0
OVERRUN_GRACE_S = 100
# reference() on a quiet core of a 2-CPU Xeon virtual machine, Python 3.11.7
REF_MS = 1.0


def _import_tpack() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other tpack."""
    if not (SRC / "tpack" / "__init__.py").is_file():
        raise SystemExit(f"error: no tpack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tpack

    if SRC not in Path(tpack.__file__).resolve().parents:
        raise SystemExit(f"error: imported tpack from {tpack.__file__}, not {SRC}")


class Overrun(Exception):
    """The run outlived its seconds plus grace; the op in flight fails."""


def _on_alarm(signum, frame):
    raise Overrun("run exceeded its time limit")


class Loop:
    """Closed loop: runs batches, counts ops and failures."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.overrun = False
        self._reported = 0

    def run(self, batch) -> tuple[float, float]:
        """Run one batch; count its ops and failures; return its start and end."""
        error = ""
        start = time.perf_counter()
        try:
            failed = batch.run()
        except Exception as exc:
            failed, error = batch.size, traceback.format_exc()
            self.overrun |= isinstance(exc, Overrun)
        end = time.perf_counter()
        self.attempted += batch.size
        self.failed += failed
        if failed and self._reported < 3:
            self._reported += 1
            print(f"op {batch.label}: {failed} of {batch.size} failed", error, file=sys.stderr)
        return start, end


def reference() -> int:
    """The fixed pure-Python kernel that op times are scaled by (about 1 ms).

    Integer, tuple and dict work over ``combinations``, as in tpack's own
    inner loops; nothing of tpack runs in it.
    """
    adj = [((v * 2654435761) >> 7) & 0xFFFF for v in range(24)]
    acc, seen = 0, {}
    for a, b, c in combinations(range(24), 3):
        m = adj[a] & adj[b] | adj[c]
        key = (m & 0xFF, (a + b + c) & 7)
        seen[key] = seen.get(key, 0) + 1
        acc ^= m << (c & 3)
    return acc + len(seen) + max(seen.values())


def ref_time() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def at_ref_speed(seconds: float, ref_before: float, ref_after: float) -> float:
    """A wall time scaled to a machine on which ``reference()`` takes REF_MS."""
    return seconds * REF_MS * 2e-3 / (ref_before + ref_after)


def _unit_sizes(ops: int, block: int) -> list[int]:
    return [min(block, ops - k) for k in range(0, ops, block)]


class Blocks:
    """Times a sweep in blocks of consecutive hosts, running the reference
    kernel before each block and after the sweep."""

    def __init__(self, block: int):
        self.block = block
        self.reset()

    def reset(self) -> None:
        self.hosts = 0
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.refs: list[float] = []

    def mark(self) -> None:
        if self.hosts % self.block == 0:
            if self.starts:
                self.ends.append(time.perf_counter())
            self.refs.append(ref_time())
            self.starts.append(time.perf_counter())
        self.hosts += 1

    def times(self, end: float, ref_after: float) -> list[float]:
        """Per-host time of each block, at reference speed; the last block
        ends with the sweep."""
        ends = self.ends + [end]
        refs = self.refs + [ref_after]
        sizes = _unit_sizes(self.hosts, self.block)
        return [at_ref_speed((ends[j] - self.starts[j]) / sizes[j], refs[j], refs[j + 1])
                for j in range(len(sizes))]


def _tail(samples) -> tuple[float, float]:
    """Highest percentile up to TAIL_CAP with at least TAIL_BEYOND samples
    beyond it, and its value.

    The cap keeps the sweeps' tail (thousands of hosts) off the few slowest
    hosts, whose number and cost change with the seed.
    """
    s = sorted(samples)
    n = len(s)
    beyond = max(TAIL_BEYOND, math.ceil(n * (100 - TAIL_CAP) / 100))
    if n <= beyond:
        return 100.0, s[-1]
    return 100.0 * (n - beyond) / n, s[n - beyond - 1]


def measure(wl, seconds: float, setup_sample) -> tuple[Loop, dict, str]:
    """Untraced closed loop; the end-to-end metrics.

    The speed of a shared host swings by about 2x over seconds to minutes (a
    2-CPU virtual machine, measured with the kernel above), with every op
    alike.  So each timed unit runs between two runs of ``reference()``, and
    its time is scaled to a machine on which that kernel takes REF_MS.  A
    unit is one op, or on the sweeps a block of ``wl.host_block`` hosts,
    timed per host from marks taken where the sweep obtains each host.

    The loop cycles through the batches, so each unit runs several times; its
    time is the median of its runs.  ``ops_per_s`` is ops over the sum of their
    times.  Set-up is sampled ``SETUP_SAMPLES`` times, spread over the run and
    scaled the same way; the run's clock stops meanwhile.
    """
    loop = Loop(wl)
    blocks = Blocks(wl.host_block)
    runs: dict[int, list[list[float]]] = {}
    setup: list[float] = []
    walls: list[float] = []
    refs: list[float] = []
    fallback = False
    for _ in range(SETUP_SAMPLES):
        ref_time()

    def sample_setup() -> None:
        before = ref_time()
        wall = setup_sample()
        setup.append(at_ref_speed(wall, before, ref_time()))

    sample_setup()
    every = seconds / SETUP_SAMPLES
    before = ref_time()
    with wl.probed(blocks.mark) as probing:
        next_setup = time.perf_counter() + every
        deadline = next_setup - every + seconds
        i = 0
        while True:
            b = i % len(wl.batches)
            batch = wl.batches[b]
            i += 1
            blocks.reset()
            start, end = loop.run(batch)
            after = ref_time()
            walls.append(end - start)
            refs.append(after)
            if probing and blocks.hosts == batch.size:
                times = blocks.times(end, after)
            else:
                fallback |= bool(wl.host_probe)
                times = [at_ref_speed((end - start) / batch.size, before, after)
                         ] * len(_unit_sizes(batch.size, wl.host_block))
            runs.setdefault(b, []).append(times)
            before = after
            if end >= deadline or loop.overrun:
                break
            if end >= next_setup and len(setup) < SETUP_SAMPLES:
                sample_setup()
                paused = time.perf_counter() - end
                deadline += paused
                next_setup += every + paused
                before = ref_time()
    units = [(statistics.median(column), n) for b, rows in runs.items()
             for column, n in zip(zip(*rows), _unit_sizes(wl.batches[b].size, wl.host_block))]
    latencies = [t for t, _ in units]
    pct, tail = _tail(latencies)
    note = (f"{i / len(wl.batches):.1f} passes, {sum(walls):.1f} s of ops by the wall clock, "
            f"reference kernel {statistics.median(refs) * 1e3:.3f} ms (median); "
            f"times are medians of each unit's runs, scaled to reference speed; "
            f"op_tail_ms is p{pct:.2f} of {len(latencies)} units")
    if wl.host_probe:
        note += f" of {wl.host_block} hosts"
    if fallback:
        note += "; host marks unavailable, so per-host times are sweep means"
    metrics = {
        "ops_per_s": sum(n for _, n in units) / sum(t * n for t, n in units),
        "setup_s": statistics.median(setup),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return loop, metrics, note


def measure_traced(wl, seconds: float, seed: int) -> tuple[Loop, dict, str]:
    """Per-layer metrics from traced runs of every batch.

    Each batch runs untraced and then traced, so both timings cover the same
    work.  Whole passes over the batches repeat until ``seconds`` have gone,
    at least once, so per-op counts repeat exactly for a given seed.
    """
    import tracing

    loop = Loop(wl)
    tracer = tracing.Tracer()
    spent = {False: 0.0, True: 0.0}
    traced_ops = 0
    deadline = time.perf_counter() + seconds
    while not loop.overrun:
        for batch in wl.batches:
            for traced in (False, True):
                if traced:
                    tracer.install()
                try:
                    start, end = loop.run(batch)
                finally:
                    tracer.uninstall()
                spent[traced] += end - start
            traced_ops += batch.size
            if loop.overrun:
                break
        if time.perf_counter() >= deadline:
            break
    metrics = tracer.layer_metrics(traced_ops)
    metrics["trace.overhead_frac"] = 1 - spent[False] / spent[True]
    _write_spans(tracer, wl.name, seed)
    note = f"{len(tracer.spans)} spans over {traced_ops} traced ops"
    if tracer.absent:
        note += "; absent layers: " + ", ".join(tracer.absent)
    return loop, metrics, note


def _write_spans(tracer, workload: str, seed: int) -> None:
    layers = sorted({s[0] for s in tracer.spans})
    index = {name: i for i, name in enumerate(layers)}
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    OUT_DIR.mkdir(exist_ok=True)
    payload = {
        "workload": workload,
        "seed": seed,
        "absent": tracer.absent,
        "layers": layers,
        "span_fields": ["layer", "start_us", "end_us", "parent"],
        "spans": [[index[n], round((s - t0) * 1e6, 3), round((e - t0) * 1e6, 3), p]
                  for n, s, e, p in tracer.spans],
    }
    (OUT_DIR / f"trace-{workload}.json").write_text(json.dumps(payload, separators=(",", ":")))


def setup_probe(args):
    """A callable timing one fresh process from spawn to its inputs being built.

    The child reports ``time.monotonic()`` when set-up is done; on Linux that
    clock is system-wide, so it compares with the parent's spawn time.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")

    def sample() -> float:
        spawned = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout.split()[-1]) - spawned

    return sample


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print the clock and exit (set-up probe)")
    args = p.parse_args(argv)
    _import_tpack()
    import workloads

    build = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        build(args.seed, args.tiny)
        print(repr(time.monotonic()))
        return 0
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    wl = build(args.seed, args.tiny)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(int(args.seconds) + OVERRUN_GRACE_S)
    try:
        if args.trace:
            loop, metrics, note = measure_traced(wl, args.seconds, args.seed)
        else:
            loop, metrics, note = measure(wl, args.seconds, setup_probe(args))
    finally:
        signal.alarm(0)
    mismatch = set(declared) ^ set(metrics)
    if mismatch:
        raise SystemExit(f"error: metrics disagree with BENCHMARK.json: {sorted(mismatch)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{loop.attempted} ops, {loop.failed} failed "
          f"(failed_frac {loop.failed / loop.attempted:.6f}); {note}")
    for name, unit in declared.items():
        print(f"  {name:30s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
