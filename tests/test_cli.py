import json

import pytest

from tpack.cli import main
from tpack.core import Tournament, digraph_to_text, load_digraph
from tpack.constructions import make_c3_blowup, make_source_counterexample
from tpack.harness import Counterexample, SweepReport
from tpack.solver import Obstruction, validate_obstruction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_graph(tmp_path, g, name="host.edges"):
    path = tmp_path / name
    path.write_text(digraph_to_text(g), encoding="utf-8")
    return str(path)


def test_gen_writes_loadable_edge_list(tmp_path, capsys):
    out = tmp_path / "blowup.edges"
    code, _, _ = run(capsys, "gen", "blowup", "--n", "9", "--c", "0",
                     "--out", str(out))
    assert code == 0
    g = load_digraph(str(out))
    expected, _ = make_c3_blowup(9, 0)
    assert g.n == 9
    assert [g.out_mask(v) for v in range(9)] == [expected.out_mask(v) for v in range(9)]


def test_gen_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "source", "--n", "6")
    assert code == 0
    assert out.splitlines()[0].strip() == "6"


def test_solve_perfect_and_max(tmp_path, capsys):
    path = write_graph(tmp_path, make_c3_blowup(9, 0)[0])
    code, out, _ = run(capsys, "solve", "--graph", path, "--tournament", "c3")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "packed"
    assert doc["packing"]["perfect"] is True

    code, out, _ = run(capsys, "solve", "--graph", path, "--tournament", "t3",
                       "--almost")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "max-packing"
    assert doc["exact"] is True


def test_solve_family_widens_search(tmp_path, capsys):
    g = make_c3_blowup(9, 1)[0]
    path = write_graph(tmp_path, g)
    code, out, _ = run(capsys, "solve", "--graph", path, "--tournament", "c3")
    doc = json.loads(out)
    assert doc["verdict"] == "exhausted-none" and doc["nodes"] == 0
    obs = doc["obstruction"]
    assert (obs["kind"], obs["modulus"]) == ("divisibility", 3)
    assert validate_obstruction(g, Tournament.cyclic_triangle(),
                                Obstruction(obs["kind"], tuple(obs["weights"]), 3))
    code, out, _ = run(capsys, "solve", "--graph", path, "--family", "t3,c3")
    assert json.loads(out)["verdict"] == "packed"


def test_t3pack_with_trace(tmp_path, capsys):
    from tpack.constructions import random_digraph_out_or_in

    # this seed is known to need one swap before the packing completes
    path = write_graph(tmp_path, random_digraph_out_or_in(9, 65))
    trace = tmp_path / "trace.json"
    code, out, _ = run(capsys, "t3pack", "--graph", path, "--trace", str(trace))
    assert code == 0
    doc = json.loads(out)
    assert doc["packing"]["perfect"] is True
    assert doc["swaps"] == 1
    steps = json.loads(trace.read_text())["steps"]
    assert len(steps) == 1
    for step in steps:
        assert {"rule", "removed", "inserted"} <= set(step)


def test_turan_ops(tmp_path, capsys):
    from tpack.core import Digraph

    path = write_graph(tmp_path, Digraph.complete(9))
    code, out, _ = run(capsys, "turan", "--graph", path, "--op", "density",
                       "--r", "3")
    doc = json.loads(out)
    assert code == 0 and doc["holds"] and len(doc["clique"]) == 3

    code, out, _ = run(capsys, "turan", "--graph", path, "--op", "independent",
                       "--tournament", "t3", "--alpha", "0.1")
    doc = json.loads(out)
    assert code == 0 and doc["embedding"] is not None

    code, out, _ = run(capsys, "turan", "--graph", path, "--op", "consistent",
                       "--r", "4", "--alpha", "0.1")
    doc = json.loads(out)
    assert code == 0 and doc["embedding"] is not None
    assert all({"vertices", "turning"} <= set(s) for s in doc["states"])


def test_complex_report(tmp_path, capsys):
    path = write_graph(tmp_path, make_c3_blowup(9, 0)[0])
    code, out, _ = run(capsys, "complex", "--graph", path, "--tournament", "t3")
    doc = json.loads(out)
    assert code == 0
    assert doc["layer_sizes"] == [1, 9, 36, 57]
    assert doc["downward_closed"] is True
    assert doc["threshold_check"]["holds"] is True


def test_absorb_build_check_apply(tmp_path, capsys):
    from tpack.core import Digraph

    path = write_graph(tmp_path, Digraph.complete(40))
    fam_file = tmp_path / "family.json"
    code, out, _ = run(capsys, "absorb", "build", "--graph", path,
                       "--tournament", "t3", "--xi", "0.3", "--samples", "60",
                       "--seed", "1", "--out", str(fam_file))
    assert code == 0
    fam = json.loads(fam_file.read_text())
    absorbed = {v for s in fam["absorbers"] for v in s}

    code, out, _ = run(capsys, "absorb", "check", "--graph", path,
                       "--tournament", "t3", "--s", "0,1,2", "--q", "3,4,5")
    assert code == 0 and json.loads(out)["absorbing"] is True

    w = [v for v in range(40) if v not in absorbed][:3]
    code, out, _ = run(capsys, "absorb", "apply", "--graph", path,
                       "--tournament", "t3", "--family-file", str(fam_file),
                       "--w", ",".join(map(str, w)))
    assert code == 0
    doc = json.loads(out)
    assert doc["packing"]["covered"] == len(absorbed) + 3


def test_lemma_match_and_classify(tmp_path, capsys):
    from tpack.core import Digraph

    path = write_graph(tmp_path, Digraph.complete(6))
    code, out, _ = run(capsys, "lemma", "match", "--graph", path, "--d", "3",
                       "--x", "0,2,4", "--undirected")
    doc = json.loads(out)
    assert code == 0 and len(doc["edges"]) == 3

    code, out, _ = run(capsys, "lemma", "matchcert", "--graph", path,
                       "--gamma", "0.25", "--undirected")
    doc = json.loads(out)
    assert code == 0 and doc["kind"] == "perfect-matching"

    bpath = write_graph(tmp_path, make_c3_blowup(9, 0)[0], "blow.edges")
    code, out, _ = run(capsys, "lemma", "classify", "--graph", bpath,
                       "--classes", "0,1,2;3,4,5;6,7,8", "--delta", "0.1")
    doc = json.loads(out)
    assert code == 0
    assert doc["internally_excellent"][0] == [0, 1, 2]

    code, out, _ = run(capsys, "lemma", "expack", "--graph", bpath,
                       "--alpha", "0.05")
    doc = json.loads(out)
    assert code == 0 and doc["packing"]["perfect"] is True


def test_verify_threshold_exhaustive_and_rerun(tmp_path, capsys):
    rep1 = tmp_path / "r1.json"
    rep2 = tmp_path / "r2.json"
    code, _, err = run(capsys, "verify", "threshold", "--r", "3", "--n", "6",
                       "--mode", "exhaustive", "--out", str(rep1))
    assert code == 0
    assert "elapsed:" in err
    doc = json.loads(rep1.read_text())
    assert doc["examined"] == 6600 and doc["verdict"] == "consistent"

    code, _, _ = run(capsys, "verify", "threshold", "--r", "3", "--n", "6",
                     "--mode", "exhaustive", "--out", str(rep2))
    assert code == 0
    assert rep1.read_bytes() == rep2.read_bytes()


def test_verify_other_checks(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "outin", "--r", "3", "--n", "3",
                       "--mode", "exhaustive")
    doc = json.loads(out)
    assert code == 0 and doc["examined"] == 13

    code, out, _ = run(capsys, "verify", "tightness", "--r", "3", "--n", "6")
    doc = json.loads(out)
    assert code == 0 and doc["kind"] == "tightness"

    code, out, _ = run(capsys, "verify", "krtotal", "--r", "3", "--n", "6",
                       "--samples", "10")
    doc = json.loads(out)
    assert code == 0 and doc["params"]["threshold"] == 9

    code, out, _ = run(capsys, "verify", "c3total", "--n", "6", "--samples", "10")
    doc = json.loads(out)
    assert code == 0 and doc["params"]["threshold"] == 8

    # total-degree sweeps have no exhaustive enumerator; the flag must not
    # be silently downgraded to sampling
    for check in ("krtotal", "c3total"):
        code, _, err = run(capsys, "verify", check, "--n", "6",
                           "--mode", "exhaustive")
        assert code == 1 and "sampling-only" in err

    # only threshold sweeps read --tournament; the others must not ignore it
    code, out, err = run(capsys, "verify", "outin", "--n", "3",
                         "--mode", "exhaustive", "--tournament", "c3")
    assert code == 1 and not out and "--tournament" in err
    for check in ("tightness", "krtotal", "c3total"):
        code, out, err = run(capsys, "verify", check, "--n", "3",
                             "--tournament", "c3")
        assert code == 1 and not out and "--tournament" in err


def test_verify_counterexample_exit_code(tmp_path, capsys, monkeypatch):
    # unit-test the exit-code plumbing with an injected report
    src = make_source_counterexample(6)
    cex = Counterexample(
        edge_list=digraph_to_text(src), verdict="exhausted-none",
        nodes=0, label="sample:0",
        patterns=(digraph_to_text(Tournament.cyclic_triangle()),),
    )
    report = SweepReport(
        kind="semidegree", params=(("n", 6),), claim_scope="asymptotic",
        examined=1, packed=0, budget_exceeded=0, counterexamples=(cex,),
        elapsed=0.01,
    )
    monkeypatch.setattr("tpack.cli.sweep_semidegree",
                        lambda *a, **k: report)
    out = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "threshold", "--r", "3", "--n", "6",
                     "--out", str(out))
    assert code == 2
    persisted = tmp_path / "report.cex0.edges"
    assert persisted.exists()
    g = load_digraph(str(persisted))
    assert g.n == 6 and g.d_in(5) == 0


def test_error_exit_codes(tmp_path, capsys):
    code, _, err = run(capsys, "solve", "--graph", str(tmp_path / "absent.edges"))
    assert code == 1 and "error:" in err

    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 1 and "error:" in err

    code, _, err = run(capsys, "gen", "blowup", "--n", "2")
    assert code == 1 and "error:" in err

    code, out, err = run(capsys, "gen", "random-total", "--n", "9")
    assert code == 1 and "error:" in err and "--t" in err and not out

    # child seeds would collide from 1,000,003 samples on
    code, out, err = run(capsys, "verify", "krtotal", "--samples", "1000003")
    assert code == 1 and "error:" in err and "samples" in err and not out
