import json

import pytest

from tpack import constructions as cons
from tpack.cli import _VERIFY, _emit, main
from tpack.core import Digraph, Tournament, digraph_to_text, load_digraph
from tpack.constructions import make_c3_blowup, make_source_counterexample
from tpack.harness import _SWEEPS, Counterexample, SweepReport
from tpack.solver import Obstruction, validate_obstruction
from tpack.structure import d_matching_covering_digraph


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


def test_turan_ops_print_an_empty_independent_set(tmp_path, capsys):
    # each vertex v sends arcs to v + 1 and v + 2 mod 4; at r = 5 both
    # dichotomies answer with the empty independent set
    rows = [0b0110, 0b1100, 0b1001, 0b0011]
    path = write_graph(tmp_path, Digraph(4, rows))
    for op in ("independent", "consistent"):
        code, out, _ = run(capsys, "turan", "--graph", path, "--op", op, "--r", "5",
                           "--tournament", "t5", "--alpha", "0.4")
        doc = json.loads(out)
        assert code == 0 and doc["embedding"] is None and doc["independent"] == [], op


def test_complex_report(tmp_path, capsys):
    path = write_graph(tmp_path, make_c3_blowup(9, 0)[0])
    code, out, _ = run(capsys, "complex", "--graph", path, "--tournament", "t3")
    doc = json.loads(out)
    assert code == 0
    assert doc["layer_sizes"] == [1, 9, 36, 57]
    assert doc["downward_closed"] is True
    assert doc["threshold_check"]["holds"] is True


def test_absorb_build_check_apply(tmp_path, capsys):
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


def test_turan_refuses_an_alpha_outside_the_unit_interval(tmp_path, capsys):
    path = write_graph(tmp_path, cons.random_digraph_out_or_in(9, 1))
    for op in ("independent", "consistent"):
        for alpha in ("inf", "nan", "-inf", "1"):
            code, out, err = run(capsys, "turan", "--graph", path, "--op", op,
                                 f"--alpha={alpha}")
            assert code == 1 and not out
            assert err.startswith("error: alpha must lie in [0, 1)") and err.count("\n") == 1


def test_no_subcommand_prints_a_non_finite_float(capsys):
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _emit({"bound": value})
    assert capsys.readouterr().out == ""


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

    # sweeps with no exhaustive walk (read from the sweep table) must not
    # silently downgrade the flag to sampling
    sampling_only = [check for check, (kind, _) in _VERIFY.items()
                     if kind and _SWEEPS[kind].all_hosts is None]
    assert {"krtotal", "c3total"} <= set(sampling_only)
    for check in sampling_only:
        code, out, err = run(capsys, "verify", check, "--n", "6",
                             "--mode", "exhaustive")
        assert code == 1 and not out
        assert err == f"error: {check} sweeps are sampling-only; drop --mode\n"

    # only threshold sweeps read --tournament; the others must not ignore it
    code, out, err = run(capsys, "verify", "outin", "--n", "3",
                         "--mode", "exhaustive", "--tournament", "c3")
    assert code == 1 and not out and "--tournament" in err
    for check in _VERIFY:
        if check != "threshold":
            code, out, err = run(capsys, "verify", check, "--n", "3",
                                 "--tournament", "c3")
            assert code == 1 and not out and "--tournament" in err

    # c3total packs cyclic triangles: an --r other than 3 must not be dropped
    code, out, err = run(capsys, "verify", "c3total", "--r", "4", "--n", "6",
                         "--samples", "2")
    assert code == 1 and not out
    assert err == "error: c3total sweeps fix r = 3, got --r 4; drop --r\n"
    code, out, _ = run(capsys, "verify", "c3total", "--r", "3", "--n", "6",
                       "--samples", "2")
    assert code == 0 and json.loads(out)["params"]["r"] == 3

    # tightness reads none of --mode, --samples and --seed, and an exhaustive
    # walk reads neither --samples nor --seed: each must be refused, not dropped
    for opt, value in (("--mode", "random"), ("--mode", "exhaustive"),
                       ("--samples", "7"), ("--seed", "9")):
        code, out, err = run(capsys, "verify", "tightness", "--n", "6", opt, value)
        assert code == 1 and not out
        assert err == f"error: tightness reads no {opt}; drop {opt}\n"
    code, out, err = run(capsys, "verify", "tightness", "--r", "3", "--n", "6",
                         "--mode", "exhaustive", "--samples", "7", "--seed", "9")
    assert code == 1 and not out
    assert err == "error: tightness reads no --mode; drop --mode\n"
    for check in ("threshold", "outin"):
        for opt, value in (("--samples", "100"), ("--seed", "0"), ("--seed", "9")):
            code, out, err = run(capsys, "verify", check, "--n", "3",
                                 "--mode", "exhaustive", opt, value)
            assert code == 1 and not out
            assert err == f"error: {check} --mode exhaustive reads no {opt}; drop {opt}\n"
    # the defaults still apply when the options are left out or given as read
    code, out, _ = run(capsys, "verify", "outin", "--n", "6", "--samples", "3")
    params = json.loads(out)["params"]
    assert code == 0 and params["mode"] == "random" and params["seed"] == 0
    code, out, _ = run(capsys, "verify", "outin", "--n", "6", "--mode", "random",
                       "--seed", "5")
    params = json.loads(out)["params"]
    assert code == 0 and params["samples"] == 100 and params["seed"] == 5


def test_verify_usage_and_check_order(capsys, monkeypatch):
    # the checks come from the sweep table in usage order; neither the
    # usage line nor the order may change with it
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(
        "usage: tpack verify [-h] [--r R] [--n N] [--mode {random,exhaustive}]\n"
        "                    [--samples SAMPLES] [--seed SEED]\n"
        "                    [--tournament TOURNAMENT] [--budget BUDGET] [--out OUT]\n"
        "                    {threshold,outin,tightness,krtotal,c3total}\n\n")
    code, out, err = run(capsys, "verify", "nosuch")
    assert code == 1 and not out
    assert err == ("error: argument check: invalid choice: 'nosuch' (choose from "
                   "'threshold', 'outin', 'tightness', 'krtotal', 'c3total')\n")


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

    # report seeds s and -s would derive the same hosts
    code, out, err = run(capsys, "verify", "outin", "--r", "3", "--n", "6", "--seed", "-1")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "seed" in err


_GEN = [
    (["blowup", "--n", "12", "--c", "1"], lambda: cons.make_c3_blowup(12, 1)[0]),
    (["nearindep", "--n", "8", "--r", "4"],
     lambda: cons.make_near_independent_extremal(8, 4)),
    (["source", "--n", "7"], lambda: cons.make_source_counterexample(7)),
    (["k3minus", "--m", "6"], lambda: cons.make_k3minus_example(6)),
    (["neartour", "--n", "9", "--r", "3"],
     lambda: cons.make_near_tournament_extremal(9, 3)),
    (["random-semi", "--n", "9", "--d", "5", "--seed", "2"],
     lambda: cons.random_digraph_min_semidegree(9, 5, 2)),
    (["random-outin", "--n", "9", "--seed", "4"],
     lambda: cons.random_digraph_out_or_in(9, 4, None)),
    (["random-outin", "--n", "9", "--seed", "4", "--t", "5"],
     lambda: cons.random_digraph_out_or_in(9, 4, 5)),
    (["random-total", "--n", "9", "--t", "12", "--seed", "1"],
     lambda: cons.random_digraph_total_min_degree(9, 12, 1)),
    (["tournament", "--r", "5", "--seed", "3"], lambda: cons.random_tournament(5, 3)),
]


@pytest.mark.parametrize("argv,build", _GEN, ids=[" ".join(a) for a, _ in _GEN])
def test_gen_family_prints_the_library_host(capsys, argv, build):
    code, out, err = run(capsys, "gen", *argv)
    assert (code, err) == (0, "")
    assert out == digraph_to_text(build())


_CERTS = [
    # K10 has a perfect matching
    (Digraph.complete(10), {}, {
        "kind": "perfect-matching",
        "edges": [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]}),
    # two disjoint K5: a half/half split with no crossing edge
    (Digraph.from_arcs(10, [(u, v) for b in (0, 5) for u in range(b, b + 5)
                            for v in range(b, b + 5) if u != v]),
     {"directed": 0.6000000000000001, "undirected": 0.30000000000000004}, {
        "kind": "close-partition", "a": [0, 1, 2, 3, 4], "b": [5, 6, 7, 8, 9],
        "cross_count": 0}),
    # K4,6: the side of six is independent
    (Digraph.from_arcs(10, [a for u in range(4) for v in range(4, 10)
                            for a in ((u, v), (v, u))]),
     {"directed": 0.6000000000000001, "undirected": 0.30000000000000004}, {
        "kind": "independent-set", "core": [4, 5, 6, 7], "padded": [0, 4, 5, 6, 7]}),
]


@pytest.mark.parametrize("undirected", [False, True], ids=["directed", "undirected"])
@pytest.mark.parametrize("host,gamma_factor,want", _CERTS,
                         ids=[w["kind"] for _, _, w in _CERTS])
def test_lemma_matchcert_each_certificate_kind(tmp_path, capsys, host, gamma_factor,
                                               want, undirected):
    path = write_graph(tmp_path, host)
    code, out, _ = run(capsys, "lemma", "matchcert", "--graph", path, "--gamma", "0.1",
                       *(["--undirected"] if undirected else []))
    assert code == 0
    if gamma_factor:
        want = {**want, "gamma_factor":
                gamma_factor["undirected" if undirected else "directed"]}
    assert json.loads(out) == want


def test_lemma_match_directed(tmp_path, capsys):
    g = make_c3_blowup(9, 0)[0]
    path = write_graph(tmp_path, g)
    code, out, _ = run(capsys, "lemma", "match", "--graph", path, "--d", "2", "--x", "0,1")
    assert code == 0
    assert json.loads(out) == {"kind": "d-matching", "d": 2, "edges": [[0, 1], [2, 3]]}
    assert [tuple(e) for e in json.loads(out)["edges"]] == list(
        d_matching_covering_digraph(g, 2, (0, 1)))


def test_lemma_match_takes_d_from_the_cover_set(tmp_path, capsys):
    """Without --d the matching size is the size of --x, the only size the
    lemma accepts; the JSON reports the size used."""
    g = make_c3_blowup(9, 0)[0]
    path = write_graph(tmp_path, g)
    code, out, _ = run(capsys, "lemma", "match", "--graph", path, "--x", "0,2,4")
    doc = json.loads(out)
    assert code == 0 and doc["d"] == 3 and len(doc["edges"]) == 3
    assert [tuple(e) for e in doc["edges"]] == list(d_matching_covering_digraph(g, 3, (0, 2, 4)))
    code, out, _ = run(capsys, "lemma", "match", "--graph", path, "--d", "2", "--x", "0,1")
    assert code == 0
    assert json.loads(out) == {"kind": "d-matching", "d": 2, "edges": [[0, 1], [2, 3]]}


def test_absorb_refuses_missing_vertex_lists(tmp_path, capsys):
    path = write_graph(tmp_path, Digraph.complete(6))
    for action, msg in (("check", "check needs --s and --q"),
                        ("apply", "apply needs --family-file and --w")):
        code, out, err = run(capsys, "absorb", action, "--graph", path)
        assert (code, out) == (1, "") and msg in err


def _absorb_apply(tmp_path, host, family):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps(family))
    return ["absorb", "apply", "--graph", write_graph(tmp_path, host),
            "--tournament", "t3", "--family-file", str(fam), "--w", "3,4,5"]


_UNROUTABLE = {"n": 6, "pattern_order": 3, "absorbers": [[0, 1, 2]], "absorber_size": 3,
               "xi": 0.3, "seed": 0}

# each input makes the library raise; (argv builder, text the error line holds)
_FAILURES = {
    "family-empty": (lambda tmp_path: [
        "absorb", "build", "--graph", write_graph(tmp_path, Digraph.empty(36)),
        "--tournament", "t3", "--samples", "5"], "no absorbing candidate"),
    "assignment-failed": (lambda tmp_path: _absorb_apply(
        tmp_path, Digraph.empty(6), _UNROUTABLE), "cannot be routed"),
    "family-missing-field": (lambda tmp_path: _absorb_apply(
        tmp_path, Digraph.complete(6), {"n": 36}), "'pattern_order'"),
    "family-not-an-object": (lambda tmp_path: _absorb_apply(
        tmp_path, Digraph.complete(6), [1, 2]), "JSON object"),
    "family-absorbers-not-a-list": (lambda tmp_path: _absorb_apply(
        tmp_path, Digraph.complete(6), {**_UNROUTABLE, "absorbers": 5}),
        "'absorbers' field must be a list of integer lists"),
    "family-absorber-not-integers": (lambda tmp_path: _absorb_apply(
        tmp_path, Digraph.complete(6), {**_UNROUTABLE, "absorbers": [[0, "x", 2]]}),
        "'absorbers' field must be a list of integer lists"),
    "solve-negative-budget": (lambda tmp_path: [
        "solve", "--graph", write_graph(tmp_path, Digraph.complete(6)), "--budget", "-5"],
        "--budget: must be a non-negative integer, got '-5'"),
    "verify-negative-budget": (lambda tmp_path: [
        "verify", "threshold", "--r", "3", "--n", "3", "--mode", "exhaustive",
        "--budget", "-1"], "--budget: must be a non-negative integer, got '-1'"),
    "random-semi-given-t": (lambda tmp_path: [
        "gen", "random-semi", "--n", "6", "--t", "4", "--seed", "1"],
        "random-semi takes its minimum semidegree from --d, not --t"),
    "complex-eps-above-range": (lambda tmp_path: [
        "complex", "--graph", write_graph(tmp_path, make_c3_blowup(9, 0)[0]), "--eps", "5"],
        "eps must lie in [0, 1), got 5.0"),
    "complex-eps-below-range": (lambda tmp_path: [
        "complex", "--graph", write_graph(tmp_path, make_c3_blowup(9, 0)[0]), "--eps", "-1"],
        "eps must lie in [0, 1), got -1.0"),
    "complex-eps-nan": (lambda tmp_path: [
        "complex", "--graph", write_graph(tmp_path, make_c3_blowup(9, 0)[0]), "--eps", "nan"],
        "eps must lie in [0, 1), got nan"),
    "lemma-classify-delta-nan": (lambda tmp_path: [
        "lemma", "classify", "--graph", write_graph(tmp_path, make_c3_blowup(9, 0)[0]),
        "--classes", "0,1,2;3,4,5;6,7,8", "--delta", "nan"],
        "delta must be a non-negative finite number, got nan"),
    "lemma-classify-delta-inf": (lambda tmp_path: [
        "lemma", "classify", "--graph", write_graph(tmp_path, make_c3_blowup(9, 0)[0]),
        "--classes", "0,1,2;3,4,5;6,7,8", "--delta", "inf"],
        "delta must be a non-negative finite number, got inf"),
    "lemma-matchcert-gamma-inf": (lambda tmp_path: [
        "lemma", "matchcert", "--graph", write_graph(tmp_path, Digraph.complete(6)),
        "--gamma", "inf"], "gamma must be a non-negative finite number, got inf"),
    "lemma-matchcert-gamma-nan": (lambda tmp_path: [
        "lemma", "matchcert", "--graph", write_graph(tmp_path, Digraph.complete(6)),
        "--gamma", "nan", "--undirected"], "gamma must be a non-negative finite number, got nan"),
    "verify-outin-exhaustive-n64": (lambda tmp_path: [
        "verify", "outin", "--r", "64", "--n", "64", "--mode", "exhaustive"],
        "n = 64 exceeds 16"),
    # the shifted blow-up with a near-equal witness: stage 1 hands vertex 2
    # back to its class, and no cyclic triangle then fixes the parity
    "stage-failed": (lambda tmp_path: [
        "lemma", "expack", "--graph", write_graph(tmp_path, make_c3_blowup(9, 1)[0]),
        "--alpha", "0.2", "--partition", "0,1,2;3,4,5;6,7,8", "--no-degree-check"], "parity:"),
}


def test_budget_zero_is_valid(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "--graph", write_graph(tmp_path, Digraph.complete(6)),
                       "--budget", "0")
    assert code == 0 and json.loads(out)["verdict"] == "budget-exceeded"
    code, out, _ = run(capsys, "verify", "threshold", "--r", "3", "--n", "3",
                       "--mode", "exhaustive", "--budget", "0")
    assert code == 0 and json.loads(out)["budget_exceeded"] == 1


@pytest.mark.parametrize("case", list(_FAILURES))
def test_library_failures_end_in_one_error_line(tmp_path, capsys, case):
    argv, text = _FAILURES[case]
    code, out, err = run(capsys, *argv(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1 and text in err
    assert "Traceback" not in err


def test_host_and_family_files_may_start_with_a_byte_order_mark(tmp_path, capsys):
    """Files saved with a UTF-8 byte-order mark read as without it; the mark
    once reached the count line and the JSON parser and was refused there."""
    bom = b"\xef\xbb\xbf"
    host = tmp_path / "bom.edges"
    host.write_bytes(bom + digraph_to_text(make_c3_blowup(9, 0)[0]).encode())
    docs = []
    for graph in (write_graph(tmp_path, make_c3_blowup(9, 0)[0]), str(host)):
        code, out, err = run(capsys, "solve", "--graph", graph, "--tournament", "c3")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        del doc["time"]
        docs.append(doc)
    assert docs[0] == docs[1] and docs[0]["verdict"] == "packed"
    # the family is read and checked before the assignment fails
    argv = _absorb_apply(tmp_path, Digraph.empty(6), _UNROUTABLE)
    plain = run(capsys, *argv)
    fam = tmp_path / "family.json"
    fam.write_bytes(bom + fam.read_bytes())
    assert run(capsys, *argv) == plain and "cannot be routed" in plain[2]
