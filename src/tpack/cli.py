"""Command-line front end.

Subcommands mirror the library: gen (extremal and random hosts), solve
(exact packing certificates), t3pack (local-search transitive packer),
turan (density and independence dichotomies), complex (layer reports),
absorb (absorbing families), lemma (matching and classification
certificates), verify (threshold sweeps and tightness suites).

Everything emits JSON on stdout except gen, which emits the edge-list
format.  Exit codes: 0 done, 2 a sweep found counterexamples, 1 error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, fields

from .core import (
    Digraph,
    DomainError,
    InvariantViolation,
    Tournament,
    load_digraph,
    digraph_to_text,
    parse_tournament_name,
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
    random_tournament,
)
from .solver import (
    DEFAULT_BUDGET,
    Packing,
    find_max_packing,
    find_perfect_family_packing,
)
from .t3local import t3_pack
from .turan import (
    consistent_or_independent,
    density_precondition_holds,
    find_kr_from_density,
    independent_or_copy,
)
from .complexes import (
    build_complex,
    check_matching_threshold,
    degree_sequence,
    is_downward_closed,
)
from .absorbing import AbsorberFamily, absorb, build_absorbing_family, is_absorbing
from .structure import (
    ClosePartition,
    IndependentSetCertificate,
    PerfectMatching,
    StageFailed,
    classify_vertices,
    d_matching_covering,
    d_matching_covering_digraph,
    extremal_c3_pack,
    matching_or_certificate,
    matching_or_certificate_digraph,
)
from .harness import (
    SweepReport,
    _SWEEPS,
    _pattern_name,
    sweep_out_or_in,
    sweep_semidegree,
    sweep_total_degree_c3,
    sweep_total_degree_kr,
    tightness_suite,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this tool reserves
    # for counterexample verdicts; route them through the error path instead
    def error(self, message):
        raise DomainError(message)


def _budget(text: str) -> int:
    """The --budget type: a node budget, a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _classes(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_ints(part) for part in text.split(";") if part.strip())


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(obj, out: str | None = None) -> None:
    _write(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n", out)


def _embedding_json(emb) -> dict | None:
    if emb is None:
        return None
    return {"pattern": _pattern_name(emb.pattern), "image": list(emb.image)}


def _packing_json(p: Packing | None) -> dict | None:
    if p is None:
        return None
    return {
        "perfect": p.is_perfect,
        "covered": p.covered_mask.bit_count(),
        "elements": [_embedding_json(e) for e in p.elements],
    }


_CERT_KIND = {
    PerfectMatching: "perfect-matching",
    IndependentSetCertificate: "independent-set",
    ClosePartition: "close-partition",
}


# ---------------------------------------------------------------------------
# subcommand handlers


def _random_total(args) -> Digraph:
    if args.t is None:
        raise DomainError("random-total needs --t, the minimum total degree")
    return random_digraph_total_min_degree(args.n, args.t, args.seed)


def _random_semi(args) -> Digraph:
    if args.t is not None:
        raise DomainError("random-semi takes its minimum semidegree from --d, not --t")
    return random_digraph_min_semidegree(args.n, args.d, args.seed)


# gen's families in usage order, each building its host from the options
_GEN = {
    "blowup": lambda a: make_c3_blowup(a.n, a.c)[0],
    "nearindep": lambda a: make_near_independent_extremal(a.n, a.r),
    "source": lambda a: make_source_counterexample(a.n),
    "k3minus": lambda a: make_k3minus_example(a.m),
    "neartour": lambda a: make_near_tournament_extremal(a.n, a.r),
    "random-semi": _random_semi,
    "random-outin": lambda a: random_digraph_out_or_in(a.n, a.seed, a.t),
    "random-total": _random_total,
    "tournament": lambda a: random_tournament(a.r, a.seed),
}


def _cmd_gen(args) -> int:
    _write(digraph_to_text(_GEN[args.family](args)), args.out)
    return 0


def _family_arg(args) -> list[Tournament]:
    if getattr(args, "family", None):
        return [parse_tournament_name(tok) for tok in args.family.split(",")]
    return [parse_tournament_name(args.tournament)]


def _cmd_solve(args) -> int:
    g = load_digraph(args.graph)
    fam = _family_arg(args)
    start = time.perf_counter()
    if args.almost:
        res = find_max_packing(g, fam, args.budget)
        out = {
            "verdict": "max-packing",
            "exact": res.exact,
            "nodes": res.nodes,
            "size": len(res.packing.elements),
            "packing": _packing_json(res.packing),
        }
    else:
        cert = find_perfect_family_packing(g, fam, args.budget)
        out = {
            "verdict": cert.verdict,
            "nodes": cert.nodes,
            "obstruction": None if cert.obstruction is None else cert.obstruction.to_dict(),
            "packing": _packing_json(cert.packing),
        }
    out["time"] = round(time.perf_counter() - start, 6)
    _emit(out, args.out)
    return 0


def _cmd_t3pack(args) -> int:
    g = load_digraph(args.graph)
    start = time.perf_counter()
    packing, trace = t3_pack(g, args.budget)
    out = {
        "packing": _packing_json(packing),
        "swaps": len(trace.steps),
        "time": round(time.perf_counter() - start, 6),
    }
    if args.trace:
        _emit(
            {
                "steps": [
                    {
                        "rule": s.rule,
                        "removed": [list(e.image) for e in s.removed],
                        "inserted": [list(e.image) for e in s.inserted],
                    }
                    for s in trace.steps
                ]
            },
            args.trace,
        )
    _emit(out, args.out)
    return 0


def _cmd_turan(args) -> int:
    g = load_digraph(args.graph)
    if args.op == "density":
        holds = density_precondition_holds(g, args.r)
        out = {"op": "density", "r": args.r, "holds": holds, "clique": None}
        if holds:
            out["clique"] = list(find_kr_from_density(g, args.r))
    elif args.op == "independent":
        pat = parse_tournament_name(args.tournament)
        res = independent_or_copy(g, pat, args.alpha)
        out = {
            "op": "independent",
            "alpha": args.alpha,
            "bound": res.bound,
            "embedding": _embedding_json(res.embedding),
            "independent": None if res.independent is None else list(res.independent),
        }
    else:  # consistent
        res = consistent_or_independent(g, args.r, args.alpha)
        out = {
            "op": "consistent",
            "r": args.r,
            "alpha": args.alpha,
            "bound": res.bound,
            "embedding": _embedding_json(res.embedding),
            "independent": None if res.independent is None else list(res.independent),
            "states": [
                {"vertices": list(s.vertices), "turning": s.turning}
                for s in res.states
            ],
        }
    _emit(out, args.out)
    return 0


def _cmd_complex(args) -> int:
    g = load_digraph(args.graph)
    t = parse_tournament_name(args.tournament)
    c = build_complex(g, t)
    ok, failing = check_matching_threshold(c, args.eps)
    _emit(
        {
            "n": c.n,
            "k": c.k,
            "layer_sizes": list(c.layer_sizes()),
            "downward_closed": is_downward_closed(c),
            "degree_sequence": list(degree_sequence(c)),
            "threshold_check": {"eps": args.eps, "holds": ok, "failing_layer": failing},
        },
        args.out,
    )
    return 0


def _family_to_json(fam: AbsorberFamily) -> dict:
    return {f.name: getattr(fam, f.name) for f in fields(fam)}


def _family_from_json(d) -> AbsorberFamily:
    if not isinstance(d, dict):
        raise DomainError("family file must hold a JSON object")
    kw = {}
    for f in fields(AbsorberFamily):
        if f.name not in d:
            raise DomainError(f"family file has no {f.name!r} field")
        kw[f.name] = d[f.name]
    for name, x in kw.items():
        if name == "absorbers":
            kind = "a list of integer lists"
            ok = isinstance(x, list) and all(
                isinstance(a, list) and all(type(v) is int for v in a) for a in x
            )
        elif name == "xi":
            kind, ok = "a number", type(x) in (int, float)
        else:
            kind, ok = "an integer", type(x) is int
        if not ok:
            raise DomainError(f"family file's {name!r} field must be {kind}")
    kw["absorbers"] = tuple(tuple(a) for a in kw["absorbers"])
    return AbsorberFamily(**kw)


def _cmd_absorb(args) -> int:
    g = load_digraph(args.graph)
    pat = parse_tournament_name(args.tournament)
    if args.action == "build":
        fam = build_absorbing_family(
            g, pat, args.xi, samples=args.samples, seed=args.seed, budget=args.budget
        )
        _emit(_family_to_json(fam), args.out)
        return 0
    if args.action == "check":
        if args.s is None or args.q is None:
            raise DomainError("check needs --s and --q vertex lists")
        ok = is_absorbing(g, pat, _ints(args.s), _ints(args.q), args.budget)
        _emit({"absorbing": ok}, args.out)
        return 0
    # apply
    if not args.family_file or args.w is None:
        raise DomainError("apply needs --family-file and --w")
    with open(args.family_file, encoding="utf-8-sig") as fh:
        fam = _family_from_json(json.load(fh))
    packing = absorb(g, pat, fam, _ints(args.w), args.budget)
    _emit({"packing": _packing_json(packing)}, args.out)
    return 0


def _cmd_lemma(args) -> int:
    g = load_digraph(args.graph)
    if args.kind == "match":
        x = _ints(args.x)
        d = len(x) if args.d is None else args.d
        if args.undirected:
            edges = d_matching_covering(g.underlying(), d, x)
        else:
            edges = d_matching_covering_digraph(g, d, x)
        _emit({"kind": "d-matching", "d": d, "edges": [list(e) for e in edges]}, args.out)
        return 0
    if args.kind == "matchcert":
        if args.undirected:
            cert = matching_or_certificate(g.underlying(), args.gamma)
        else:
            cert = matching_or_certificate_digraph(g, args.gamma)
        _emit({"kind": _CERT_KIND[type(cert)], **asdict(cert)}, args.out)
        return 0
    if args.kind == "classify":
        classes = _classes(args.classes)
        b = _ints(args.b) if args.b else None
        res = classify_vertices(g, classes, args.delta, b)
        _emit(asdict(res), args.out)
        return 0
    # expack
    partition = _classes(args.partition) if args.partition else None
    packing = extremal_c3_pack(
        g,
        args.alpha,
        partition,
        gamma=args.gamma,
        require_degree=not args.no_degree_check,
        budget=args.budget,
    )
    _emit({"packing": _packing_json(packing)}, args.out)
    return 0


def _persist_counterexamples(report, out: str | None) -> None:
    if not out or not report.counterexamples:
        return
    stem = out[:-5] if out.endswith(".json") else out
    for i, cex in enumerate(report.counterexamples):
        with open(f"{stem}.cex{i}.edges", "w", encoding="utf-8") as fh:
            fh.write(cex.edge_list)


def _c3_total(args) -> SweepReport:
    if args.r != 3:
        raise DomainError(f"c3total sweeps fix r = 3, got --r {args.r}; drop --r")
    return sweep_total_degree_c3(args.n, args.samples, args.seed, args.budget)


# verify's checks in usage order: the sweep's kind in harness._SWEEPS (None
# for the tightness suite) and its report, through this module's names of
# the sweeps, which the bench's tracer and the tests replace
_VERIFY = {
    "threshold": ("semidegree", lambda a: sweep_semidegree(
        a.r, parse_tournament_name(a.tournament or f"t{a.r}"), a.n,
        a.mode, a.samples, a.seed, a.budget)),
    "outin": ("out-or-in", lambda a: sweep_out_or_in(
        a.r, a.n, a.mode, a.samples, a.seed, a.budget)),
    "tightness": (None, lambda a: tightness_suite(a.r, a.n, a.budget)),
    "krtotal": ("kr-total", lambda a: sweep_total_degree_kr(
        a.r, a.n, a.samples, a.seed, a.budget)),
    "c3total": ("c3-total", _c3_total),
}


def _cmd_verify(args) -> int:
    kind, run = _VERIFY[args.check]
    if kind and args.mode == "exhaustive" and _SWEEPS[kind].all_hosts is None:
        raise DomainError(f"{args.check} sweeps are sampling-only; drop --mode")
    if args.check != "threshold" and args.tournament is not None:
        raise DomainError(f"{args.check} takes no --tournament; only threshold does")
    # --mode, --samples and --seed default to None so that an option the
    # check would not read is refused, not dropped
    unread, scope = (), args.check
    if kind is None:
        unread = ("mode", "samples", "seed")
    elif args.mode == "exhaustive":
        unread, scope = ("samples", "seed"), f"{args.check} --mode exhaustive"
    for opt in unread:
        if getattr(args, opt) is not None:
            raise DomainError(f"{scope} reads no --{opt}; drop --{opt}")
    for opt, default in (("mode", "random"), ("samples", 100), ("seed", 0)):
        if getattr(args, opt) is None:
            setattr(args, opt, default)
    report = run(args)
    _emit(report.to_dict(), args.out)
    if kind is None:  # a tightness report has no counterexamples and no elapsed time
        return 0
    _persist_counterexamples(report, args.out)
    print(f"elapsed: {report.elapsed:.3f}s", file=sys.stderr)
    return 2 if report.counterexamples else 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    p = _Parser(prog="tpack", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("gen", help="emit a host digraph as an edge list")
    gen.add_argument("family", choices=list(_GEN))
    gen.add_argument("--n", type=int, default=9)
    gen.add_argument("--r", type=int, default=3)
    gen.add_argument("--c", type=int, default=1)
    gen.add_argument("--m", type=int, default=6)
    gen.add_argument("--d", type=int, default=0)
    gen.add_argument("--t", type=int, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)
    gen.set_defaults(run=_cmd_gen)

    solve = sub.add_parser("solve", help="exact perfect or maximum packing")
    solve.add_argument("--graph", required=True)
    solve.add_argument("--tournament", default="t3")
    solve.add_argument("--family", default=None,
                       help="comma-separated tournament names, overrides --tournament")
    solve.add_argument("--almost", action="store_true",
                       help="maximum packing instead of perfect-or-none")
    solve.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    solve.add_argument("--out", default=None)
    solve.set_defaults(run=_cmd_solve)

    t3p = sub.add_parser("t3pack", help="local-search transitive triangle packing")
    t3p.add_argument("--graph", required=True)
    t3p.add_argument("--trace", default=None, help="write the swap trace here")
    t3p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    t3p.add_argument("--out", default=None)
    t3p.set_defaults(run=_cmd_t3pack)

    tur = sub.add_parser("turan", help="density cliques and independence dichotomies")
    tur.add_argument("--graph", required=True)
    tur.add_argument("--op", required=True,
                     choices=["density", "independent", "consistent"])
    tur.add_argument("--r", type=int, default=3)
    tur.add_argument("--tournament", default="t3")
    tur.add_argument("--alpha", type=float, default=0.1)
    tur.add_argument("--out", default=None)
    tur.set_defaults(run=_cmd_turan)

    cpx = sub.add_parser("complex", help="layer report for the copy complex")
    cpx.add_argument("--graph", required=True)
    cpx.add_argument("--tournament", default="t3")
    cpx.add_argument("--eps", type=float, default=0.15)
    cpx.add_argument("--out", default=None)
    cpx.set_defaults(run=_cmd_complex)

    ab = sub.add_parser("absorb", help="absorbing families: build, check, apply")
    ab.add_argument("action", choices=["build", "check", "apply"])
    ab.add_argument("--graph", required=True)
    ab.add_argument("--tournament", default="c3")
    ab.add_argument("--xi", type=float, default=0.3)
    ab.add_argument("--seed", type=int, default=0)
    ab.add_argument("--samples", type=int, default=200)
    ab.add_argument("--s", default=None, help="absorber vertex list for check")
    ab.add_argument("--q", default=None, help="target vertex list for check")
    ab.add_argument("--w", default=None, help="leftover vertex list for apply")
    ab.add_argument("--family-file", default=None,
                    help="family JSON produced by build, for apply")
    ab.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    ab.add_argument("--out", default=None)
    ab.set_defaults(run=_cmd_absorb)

    lem = sub.add_parser("lemma", help="matching and classification certificates")
    lem.add_argument("kind", choices=["match", "matchcert", "classify", "expack"])
    lem.add_argument("--graph", required=True)
    lem.add_argument("--d", type=int, default=None,
                     help="matching size for match; the size of --x by default")
    lem.add_argument("--x", default="", help="vertex list to cover, for match")
    lem.add_argument("--gamma", type=float, default=0.25)
    lem.add_argument("--classes", default="", help="semicolon-separated vertex lists")
    lem.add_argument("--delta", type=float, default=0.1)
    lem.add_argument("--b", default=None, help="optional reference vertex list")
    lem.add_argument("--alpha", type=float, default=0.1)
    lem.add_argument("--partition", default=None,
                     help="semicolon-separated classes for expack")
    lem.add_argument("--no-degree-check", action="store_true")
    lem.add_argument("--undirected", action="store_true",
                     help="run the underlying-graph variant")
    lem.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    lem.add_argument("--out", default=None)
    lem.set_defaults(run=_cmd_lemma)

    ver = sub.add_parser("verify", help="threshold sweeps and tightness suites")
    ver.add_argument("check", choices=list(_VERIFY))
    ver.add_argument("--r", type=int, default=3)
    ver.add_argument("--n", type=int, default=6)
    ver.add_argument("--mode", default=None, choices=["random", "exhaustive"])
    ver.add_argument("--samples", type=int, default=None)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--tournament", default=None,
                     help="pattern for threshold sweeps, default t<r>")
    ver.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    ver.add_argument("--out", default=None)
    ver.set_defaults(run=_cmd_verify)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except (InvariantViolation, StageFailed, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
