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
import os
import sys
import time
from math import comb
from pathlib import Path

from .balancing import CoverError, VerificationError, balanced_witness
from .classify import (_cycle_graph, classify_girth5, embed_in_join,
                       exceptional_catalog, girth,
                       independent_facet_transversal, is_isomorphic)
from .complexes import (ComplexError, clique_complex, f_from_h, h_from_f,
                        independence_complex, is_proper, parse_complex,
                        parse_graph)
from .homology import cm_report, is_cohen_macaulay, reduced_betti
from .polynomials import DEFAULT_SEED
from .samples import (colorable_h_witness, flag_sphere_graph, odd_wheel,
                      pg_sample_graph)

def _load(path: str) -> tuple[str, str]:
    """The file's text and the sha256 of its bytes, from one read."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ComplexError(f"{path}: not UTF-8 ({e.reason} at byte {e.start})") from None
    return text, hashlib.sha256(data).hexdigest()


def _report(args, inputs: dict, results: dict, checks=None):
    report = {"command": args.echo, "inputs": inputs,
              "seed": args.seed, "results": results}
    if checks is None:
        return report, 0
    report["checks"] = checks
    return report, 0 if all(checks.values()) else 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fvector(args):
    text, digest = _load(args.path)
    delta = parse_complex(text)
    results = {"f": list(delta.f_vector()), "h": list(delta.h_vector()),
               "dim": delta.dim}
    return _report(args, {args.path: digest}, results)


def cmd_hvector(args):
    f = f_from_h(args.entries)
    return _report(args, {}, {"h": args.entries, "f": list(f),
                              "dim": len(f) - 2})


def cmd_cm(args):
    text, digest = _load(args.path)
    return _report(args, {args.path: digest}, cm_report(parse_complex(text)))


def cmd_homology(args):
    text, digest = _load(args.path)
    delta = parse_complex(text)
    results = {"betti": list(reduced_betti(delta)), "dim": delta.dim,
               "f": list(delta.f_vector())}
    return _report(args, {args.path: digest}, results)


def cmd_balance(args):
    complex_text, complex_digest = _load(args.complex)
    delta = parse_complex(complex_text)
    cover_text, cover_digest = _load(args.cover)
    try:
        cover = json.loads(cover_text)
    except RecursionError:
        raise CoverError(f"{args.cover}: cover is nested too deeply") from None
    witness = balanced_witness(delta, cover, seed=args.seed)
    inputs = {args.complex: complex_digest, args.cover: cover_digest}
    return _report(args, inputs, witness.to_json_obj(), checks=witness.checks)


def cmd_classify(args):
    text, digest = _load(args.graph)
    g = parse_graph(text)
    verdicts = []
    for comp in g.components():
        sub = g.subgraph(comp)
        verdict = classify_girth5(sub).to_json_obj()
        verdict["component"] = comp
        verdicts.append(verdict)
    gi = girth(g)
    results = {"girth": None if gi == float("inf") else int(gi),
               "components": verdicts}
    return _report(args, {args.graph: digest}, results)


def cmd_catalog(args):
    table = exceptional_catalog()
    table |= {"Q14": table["Q13"], "PG12": pg_sample_graph(),
              "S10": flag_sphere_graph()}
    if args.name not in table:
        raise ComplexError(f"unknown catalog name {args.name!r}; choose from "
                           f"{list(table)}")
    g = table[args.name]
    results = {"name": args.name, "vertices": list(g.vertices),
               "edges": [list(e) for e in g.edge_labels()],
               "text": g.to_file_text()}
    return _report(args, {}, results)


def cmd_embed(args):
    text, digest = _load(args.graph)
    cover, certificate = embed_in_join(parse_graph(text))
    results = {"cover": cover, "certificate": certificate}
    return _report(args, {args.graph: digest}, results)


def cmd_transversal(args):
    text, digest = _load(args.path)
    hit = independent_facet_transversal(parse_complex(text))
    results = {"transversal": None if hit is None else list(hit)}
    return _report(args, {args.path: digest}, results)


def _turan_counts(n: int, r: int) -> tuple[int, int]:
    """Edges and triangles of the Turan graph T(n, r).

    Its clique complex joins q point sets of a + 1 points and r - q of a,
    a, q = divmod(n, r): f_{k-1} is [x^k] (1 + (a+1) x)^q (1 + a x)^(r-q).
    """
    if not 1 <= r <= n:
        raise ComplexError("need 1 <= r <= n")
    a, q = divmod(n, r)
    return tuple(sum(comb(q, i) * comb(r - q, k - i) * (a + 1) ** i * a ** (k - i)
                     for i in range(k + 1)) for k in (2, 3))


def cmd_turan(args):
    edges, triangles = _turan_counts(args.n, args.r)
    results = {"n": args.n, "r": args.r, "edges": edges,
               "triangles": triangles}
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

    edges, triangles = _turan_counts(7, 3)
    record("turan_edges", edges == 16, edges)
    record("turan_triangles", triangles == 12, triangles)

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

    cover5, _ = embed_in_join(_cycle_graph(5))
    try:
        w5 = balanced_witness(ic5, cover5, seed=args.seed)
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
        wpg = balanced_witness(ipg, cover_pg, seed=args.seed)
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
    record("flag_sphere_betti", reduced_betti(sphere) == (0, 0, 0, 1))
    # a closed odd walk needs 3 colours and a hub adjacent to all of it a
    # fourth: re-check the pinned wheel on the sphere's 1-skeleton
    hub, rim = odd_wheel()
    edges = {frozenset(e) for e in sphere.one_skeleton().edge_labels()}
    record("flag_sphere_not_3_colorable",
           len(rim) % 2 == 1
           and all(frozenset(e) in edges for e in zip(rim, rim[1:] + rim[:1]))
           and all(frozenset((hub, v)) in edges for v in rim))
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

_REQUIRED = {"required": True}
_PATH = {"path": {}}

# name: (handler, help line, {argument: add_argument keywords})
COMMANDS = {
    "fvector": (cmd_fvector, "f- and h-vector of a complex file", _PATH),
    "hvector": (cmd_hvector, "f-vector of a given h-vector",
                {"entries": {"type": int, "nargs": "+"}}),
    "cm": (cmd_cm, "Cohen-Macaulay verdict with certificate", _PATH),
    "homology": (cmd_homology, "reduced rational Betti numbers", _PATH),
    "balance": (cmd_balance, "build and verify a witness",
                {"--complex": _REQUIRED, "--cover": _REQUIRED}),
    "classify": (cmd_classify, "girth >= 5 classification per component",
                 {"--graph": _REQUIRED}),
    "catalog": (cmd_catalog, "dump a named graph", {"--name": _REQUIRED}),
    "embed": (cmd_embed, "covering join of an independence complex",
              {"--graph": _REQUIRED}),
    "transversal": (cmd_transversal, "independent set meeting every facet",
                    _PATH),
    "turan": (cmd_turan, "edge and triangle counts of a Turan graph",
              {"n": {"type": int}, "r": {"type": int}}),
    "golden": (cmd_golden, "replay the bundled worked examples", {}),
}


def _with_shared_flags(parser):
    parser.add_argument("--json", action="store_true",
                        help="emit one canonical JSON line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="specialization seed")
    return parser


class _Subcommand(argparse.Action):
    """Build the parser of the named subcommand, and of no other, and parse
    the rest of the command line with it into the same namespace."""

    def __call__(self, parser, namespace, values, option_string=None):
        name, *rest = values
        func, description, arguments = COMMANDS[name]
        sub = _with_shared_flags(argparse.ArgumentParser(
            prog=f"{parser.prog} {name}", description=description))
        for argument, keywords in arguments.items():
            sub.add_argument(argument, **keywords)
        namespace.subcommand, namespace.func = name, func
        # the shared flags are accepted again after the subcommand; a parser
        # sets a default only where the namespace has no value, so one given
        # before the subcommand stands unless it is given again
        sub.parse_args(rest, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _with_shared_flags(argparse.ArgumentParser(
        prog="facebalance", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Face-number invariants, Cohen-Macaulay tests, and "
                    "verified\nd-colorable witnesses.",
        epilog="subcommands:\n" + "\n".join(
            f"  {name:<13}{line}" for name, (_, line, _) in COMMANDS.items())))
    parser.add_argument("subcommand", nargs=argparse.PARSER, choices=COMMANDS,
                        action=_Subcommand, metavar="subcommand",
                        help="one of the subcommands below, then its arguments")
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
    try:
        _emit(report, args.json, time.perf_counter() - start)
        sys.stdout.flush()
    except BrokenPipeError:
        # nobody reads the report any more, which is not a failed check; the
        # flush at interpreter exit would raise again, so it goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
