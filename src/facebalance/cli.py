"""Command-line front end.

Every subcommand prints a run report: the command echo, sha256 digests of the
inputs, the seed, and a results object.  With ``--json`` the report is a
single canonical JSON line (sorted keys, no whitespace), which is
byte-identical across replays of the same inputs and seed; the human format
adds the elapsed time.  Exit codes: 0 ok, 1 verification mismatch (including
a failed internal invariant), 2 input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from .balancing import (CoverError, VerificationError, balanced_witness,
                        parse_cover)
from .classify import (CATALOG_ALIASES, _cycle_graph, classify_girth5,
                       count_triangles, embed_in_join, exceptional_catalog,
                       girth, independent_facet_transversal, is_isomorphic,
                       turan_graph)
from .complexes import (ComplexError, clique_complex, f_from_h, h_from_f,
                        independence_complex, is_proper, parse_complex,
                        parse_graph, proper_coloring)
from .homology import cm_report, is_cohen_macaulay, reduced_betti
from .polynomials import DEFAULT_SEED
from .samples import (SAMPLE_NAMES, colorable_h_witness, flag_sphere_graph,
                      pg_sample_graph, sample_graph)


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _report(args, inputs: dict, results: dict, checks=None):
    report = {"command": args.echo, "inputs": inputs,
              "seed": getattr(args, "seed", DEFAULT_SEED), "results": results}
    if checks is None:
        return report, 0
    report["checks"] = checks
    return report, 0 if all(checks.values()) else 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fvector(args):
    delta = parse_complex(_read(args.path))
    results = {"f": list(delta.f_vector()), "h": list(delta.h_vector()),
               "dim": delta.dim}
    return _report(args, {args.path: _digest(args.path)}, results)


def cmd_hvector(args):
    f = f_from_h(args.entries)
    return _report(args, {}, {"h": args.entries, "f": list(f),
                              "dim": len(f) - 2})


def cmd_cm(args):
    delta = parse_complex(_read(args.path))
    return _report(args, {args.path: _digest(args.path)}, cm_report(delta))


def cmd_homology(args):
    delta = parse_complex(_read(args.path))
    results = {"betti": list(reduced_betti(delta)), "dim": delta.dim,
               "f": list(delta.f_vector())}
    return _report(args, {args.path: _digest(args.path)}, results)


def cmd_balance(args):
    delta = parse_complex(_read(args.complex))
    cover = parse_cover(json.loads(_read(args.cover)))
    witness = balanced_witness(delta, cover, seed=args.seed, retries=args.retries)
    inputs = {args.complex: _digest(args.complex), args.cover: _digest(args.cover)}
    return _report(args, inputs, witness.to_json_obj(), checks=witness.checks)


def cmd_classify(args):
    g = parse_graph(_read(args.graph))
    verdicts = []
    for comp in g.components():
        sub = g.subgraph(comp)
        verdict = classify_girth5(sub).to_json_obj()
        verdict["component"] = comp
        verdicts.append(verdict)
    gi = girth(g)
    results = {"girth": None if gi == float("inf") else int(gi),
               "components": verdicts}
    return _report(args, {args.graph: _digest(args.graph)}, results)


def cmd_catalog(args):
    name = args.name
    if name in SAMPLE_NAMES:
        g = sample_graph(name)
    else:
        resolved = CATALOG_ALIASES.get(name, name)
        table = exceptional_catalog()
        if resolved not in table:
            raise ComplexError(f"unknown catalog name {name!r}; choose from "
                               f"{sorted(table) + list(CATALOG_ALIASES) + list(SAMPLE_NAMES)}")
        g = table[resolved]
    results = {"name": name, "vertices": list(g.vertices),
               "edges": [list(e) for e in g.edge_labels()],
               "text": g.to_file_text()}
    return _report(args, {}, results)


def cmd_embed(args):
    g = parse_graph(_read(args.graph))
    cover, certificate = embed_in_join(g)
    results = {"cover": cover, "certificate": certificate}
    return _report(args, {args.graph: _digest(args.graph)}, results)


def cmd_transversal(args):
    delta = parse_complex(_read(args.path))
    hit = independent_facet_transversal(delta)
    results = {"transversal": None if hit is None else list(hit)}
    return _report(args, {args.path: _digest(args.path)}, results)


def cmd_turan(args):
    g = turan_graph(args.n, args.r)
    results = {"n": args.n, "r": args.r, "edges": len(g.edges),
               "triangles": count_triangles(g)}
    return _report(args, {}, results)


def cmd_golden(args):
    """Replay the bundled worked examples and verify every pinned number."""
    checks: dict[str, bool] = {}
    details: dict[str, object] = {}

    def record(name: str, ok: bool, detail=None):
        checks[name] = bool(ok)
        if detail is not None:
            details[name] = detail

    record("h_of_flag_sphere", h_from_f((1, 10, 24, 16)) == (1, 7, 7, 1))
    record("h_of_seven_vertex_example", h_from_f((1, 7, 16, 11)) == (1, 4, 5, 1))

    t73 = turan_graph(7, 3)
    record("turan_edges", len(t73.edges) == 16, len(t73.edges))
    record("turan_triangles", count_triangles(t73) == 12, count_triangles(t73))

    catalog = exceptional_catalog()
    ic5 = independence_complex(_cycle_graph(5))
    cm5, _ = is_cohen_macaulay(ic5)
    record("pentagon_independence_cm", cm5)
    heptagon_skel = independence_complex(_cycle_graph(7)).one_skeleton()
    for name, graph in sorted(catalog.items()):
        cm, violation = is_cohen_macaulay(independence_complex(graph))
        record(f"{name}_independence_not_cm", not cm)
        record(f"{name}_classified_exceptional",
               classify_girth5(graph).kind == "Exceptional")
        if name in ("P14", "Q13"):
            record(f"{name}_homology_witness",
                   violation is not None and violation.face == ()
                   and violation.degree == 3)

    link10 = independence_complex(catalog["P10"]).link(["5"])
    record("P10_link_is_heptagon_complex",
           is_isomorphic(link10.one_skeleton(), heptagon_skel))
    link13 = independence_complex(catalog["P13"]).link(["10", "12"])
    record("P13_link_is_heptagon_complex",
           is_isomorphic(link13.one_skeleton(), heptagon_skel))

    cover5 = [{"type": "graph", "vertices": list(ic5.vertices),
               "edges": [list(e) for e in ic5.one_skeleton().edge_labels()],
               "removed_edge": None}]
    try:
        w5 = balanced_witness(ic5, cover5, seed=args.seed, retries=args.retries)
        record("pentagon_witness", w5.basis.f_vector() == (1, 3, 1),
               list(w5.basis.f_vector()))
    except (CoverError, VerificationError) as e:
        record("pentagon_witness", False, str(e))

    pg = pg_sample_graph()
    verdict = classify_girth5(pg)
    dec = verdict.decomposition
    record("pg_sample_class", verdict.kind == "PG")
    record("pg_sample_counts",
           dec is not None and len(dec.basic_cycles) == 2
           and len(dec.pendant_edges) == 1 and dec.beta == 5)
    ipg = independence_complex(pg)
    try:
        cover_pg, certificate = embed_in_join(pg)
        record("pg_sample_cover_dim", certificate["dim_matches"])
        wpg = balanced_witness(ipg, cover_pg, seed=args.seed, retries=args.retries)
        record("pg_sample_witness",
               wpg.checks["f_matches_h"] and all(wpg.checks.values()),
               list(wpg.basis.f_vector()))
    except (CoverError, VerificationError) as e:
        record("pg_sample_witness", False, str(e))

    sphere = clique_complex(flag_sphere_graph())
    record("flag_sphere_f", sphere.f_vector() == (1, 10, 24, 16),
           list(sphere.f_vector()))
    record("flag_sphere_h", sphere.h_vector() == (1, 7, 7, 1))
    cmS, _ = is_cohen_macaulay(sphere)
    record("flag_sphere_cm", cmS)
    record("flag_sphere_betti", tuple(reduced_betti(sphere)) == (0, 0, 0, 1))
    record("flag_sphere_not_3_colorable", proper_coloring(sphere, 3) is None)
    record("flag_sphere_no_transversal",
           independent_facet_transversal(sphere) is None)
    # the sphere is not 3-colorable, but its h-vector is the f-vector of a
    # 3-colorable complex: re-check the pinned certificate
    witness, coloring = colorable_h_witness()
    record("colorable_witness_for_h",
           witness.f_vector() == sphere.h_vector()
           and set(coloring) == set(witness.vertices)
           and is_proper(witness, coloring) and len(set(coloring.values())) <= 3)

    results = {"details": {k: details[k] for k in sorted(details)},
               "failed": sorted(k for k, v in checks.items() if not v)}
    return _report(args, {}, results, checks=checks)


# ---------------------------------------------------------------------------
# parser and driver
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facebalance",
        description="Face-number invariants, Cohen-Macaulay tests, and "
                    "verified d-colorable witnesses.")
    parser.add_argument("--json", action="store_true",
                        help="emit one canonical JSON line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="specialization seed")
    parser.add_argument("--retries", type=int, default=8,
                        help="extra specialization attempts")
    # the same flags are accepted after the subcommand; SUPPRESS keeps a
    # pre-subcommand value from being clobbered by the default
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    shared.add_argument("--retries", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("fvector", parents=[shared], help="f- and h-vector of a complex file")
    p.add_argument("path")
    p.set_defaults(func=cmd_fvector)

    p = sub.add_parser("hvector", parents=[shared], help="f-vector of a given h-vector")
    p.add_argument("entries", type=int, nargs="+")
    p.set_defaults(func=cmd_hvector)

    p = sub.add_parser("cm", parents=[shared], help="Cohen-Macaulay verdict with certificate")
    p.add_argument("path")
    p.set_defaults(func=cmd_cm)

    p = sub.add_parser("homology", parents=[shared], help="reduced rational Betti numbers")
    p.add_argument("path")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("balance", parents=[shared], help="build and verify a witness")
    p.add_argument("--complex", required=True)
    p.add_argument("--cover", required=True)
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("classify", parents=[shared], help="girth >= 5 classification per component")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("catalog", parents=[shared], help="dump a named graph")
    p.add_argument("--name", required=True)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("embed", parents=[shared], help="covering join of an independence complex")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("transversal", parents=[shared], help="independent set meeting every facet")
    p.add_argument("path")
    p.set_defaults(func=cmd_transversal)

    p = sub.add_parser("turan", parents=[shared], help="edge and triangle counts of a Turan graph")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.set_defaults(func=cmd_turan)

    p = sub.add_parser("golden", parents=[shared], help="replay the bundled worked examples")
    p.set_defaults(func=cmd_golden)

    return parser


def _emit(report: dict, as_json: bool, elapsed: float):
    if as_json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
        return
    print(f"command: {' '.join(report['command'])}")
    if report["inputs"]:
        for path, digest in sorted(report["inputs"].items()):
            print(f"input: {path} sha256={digest[:16]}...")
    print(f"seed: {report['seed']}")
    print(json.dumps(report["results"], sort_keys=True, indent=2))
    if "checks" in report:
        for name in sorted(report["checks"]):
            print(f"  [{'pass' if report['checks'][name] else 'FAIL'}] {name}")
    print(f"elapsed: {elapsed:.3f}s")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.echo = ["facebalance"] + argv
    start = time.perf_counter()
    try:
        report, exit_code = args.func(args)
    except VerificationError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return 1
    except (ComplexError, CoverError, OSError, json.JSONDecodeError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    _emit(report, args.json, time.perf_counter() - start)
    return exit_code


if __name__ == "__main__":
    main()
