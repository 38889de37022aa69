"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench
"""

from __future__ import annotations

import json

import pytest

import run

run._import_tpack()

import workloads  # noqa: E402  (needs tpack on the path)
from tpack import constructions, core, harness, solver, t3local  # noqa: E402

SPEC = run.load_spec()


def _result(capsys, workload: str, trace: int) -> dict:
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--tiny"]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_workloads_match_the_declared_ones():
    assert list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(capsys, workload, trace):
    result = _result(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_sweep_hosts_are_timed_in_blocks():
    wl = workloads.sweep_random(3, tiny=True)
    batch = wl.batches[0]
    blocks = run.Blocks(2)
    with wl.probed(blocks.mark) as probing:
        start, end = run.Loop(wl).run(batch)
    assert probing and blocks.hosts == batch.size == 5
    times = blocks.times(end, run.ref_time())
    assert len(times) == 3 and all(t > 0 for t in times)


def test_times_scale_by_the_reference_kernel():
    ref = run.REF_MS / 1e3
    assert run.at_ref_speed(0.5, ref, ref) == pytest.approx(0.5)
    assert run.at_ref_speed(0.5, 2 * ref, 2 * ref) == pytest.approx(0.25)


def _failed(batch) -> int:
    loop = run.Loop(workloads.Workload("check", [batch]))
    loop.run(batch)
    assert loop.attempted == batch.size
    return loop.failed


def test_wrong_expected_verdict_is_a_failed_op():
    text = core.digraph_to_text(constructions.make_near_independent_extremal(6, 3))
    right = workloads._solve_batch("right", text, [([workloads.T3], solver.EXHAUSTED_NONE)])
    wrong = workloads._solve_batch("wrong", text, [([workloads.T3], solver.PACKED)])
    assert _failed(right) == 0
    assert _failed(wrong) == 1


def test_damaged_packing_is_a_failed_op(monkeypatch):
    g, _ = constructions.make_c3_blowup(9, 0)
    batch = workloads._solve_batch("blowup", core.digraph_to_text(g),
                                   [([workloads.C3], solver.PACKED)])
    assert _failed(batch) == 0
    real = solver.find_perfect_family_packing

    def damaged(host, family, budget):
        cert = real(host, family, budget)
        short = solver.Packing(cert.packing.n, cert.packing.elements[:-1])
        return solver.PackCertificate(cert.verdict, short, cert.nodes)

    monkeypatch.setattr(solver, "find_perfect_family_packing", damaged)
    assert _failed(batch) == 1


def test_budget_exceeded_fails_the_op_or_the_sweep_host(monkeypatch):
    g, _ = constructions.make_c3_blowup(9, 0)
    solve = workloads._solve_batch("blowup", core.digraph_to_text(g),
                                   [([workloads.C3], solver.PACKED)])

    def give_up(*args, **kwargs):
        raise t3local.SwapNotFound("forced onto the exact solver")

    monkeypatch.setattr(harness, "_t3_first_fit", lambda g, node_cap=256: False)
    monkeypatch.setattr(harness, "t3_pack", give_up)
    monkeypatch.setattr(workloads, "NODE_BUDGET", 0)
    sweep = workloads.sweep_random(3, tiny=True).batches[0]
    assert _failed(solve) == 1
    assert _failed(sweep) == sweep.size


def test_exception_fails_every_op_of_the_batch(monkeypatch):
    batch = workloads.sweep_random(3, tiny=True).batches[0]
    assert _failed(batch) == 0

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "sweep_out_or_in", broken)
    assert _failed(batch) == batch.size


def test_changed_canonical_report_fails_the_sweep(monkeypatch):
    batch = workloads.sweep_exhaustive(3, tiny=True).batches[0]
    assert _failed(batch) == 0
    real = harness.SweepReport.to_dict
    monkeypatch.setattr(harness.SweepReport, "to_dict",
                        lambda self, *a: {**real(self, *a), "extra": 1})
    assert _failed(batch) == batch.size


def test_traced_run_survives_a_missing_private_entry_point(capsys, monkeypatch):
    monkeypatch.delattr(harness, "_t3_first_fit")
    result = _result(capsys, "prove-none", 1)
    assert result["correct"] is True
    assert result["metrics"]["trace.absent_layers"]["value"] == 1
    assert result["metrics"]["solver.exhausted_none"]["value"] > 0
