import hashlib
import json
import os
import subprocess
import sys

import pytest

from conftest import cycle_graph, projective_plane
from facebalance import cli, homology
from facebalance.balancing import CHECK_NAMES
from facebalance.cli import main
from facebalance.complexes import (SimplicialComplex, independence_complex,
                                   parse_graph)
from facebalance.polynomials import DEFAULT_SEED
from facebalance.samples import (colorable_h_witness, flag_sphere_graph,
                                 odd_wheel, pg_sample_graph)


@pytest.fixture
def pentagon_file(tmp_path):
    ic = independence_complex(cycle_graph(5))
    path = tmp_path / "pentagon.cx"
    path.write_text(ic.to_file_text())
    return str(path)


@pytest.fixture
def pg_graph_file(tmp_path):
    path = tmp_path / "pg.el"
    path.write_text(pg_sample_graph().to_file_text())
    return str(path)


def _json_out(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


def test_fvector(pentagon_file, capsys):
    assert main(["--json", "fvector", pentagon_file]) == 0
    report = _json_out(capsys)
    assert report["results"] == {"f": [1, 5, 5], "h": [1, 3, 1], "dim": 1}
    assert pentagon_file in report["inputs"]


def test_hvector_inverse(capsys):
    assert main(["--json", "hvector", "1", "4", "5", "1"]) == 0
    assert _json_out(capsys)["results"]["f"] == [1, 7, 16, 11]


def test_cm_subcommand(pentagon_file, capsys):
    assert main(["--json", "cm", pentagon_file]) == 0
    report = _json_out(capsys)
    assert report["results"] == {"cm": True, "betti": [0, 0, 1], "violation": None}


def test_cm_on_the_projective_plane_takes_the_walk(tmp_path, capsys, monkeypatch):
    # RP^2 is CM over Q but not over GF(2), so it has no vertex
    # decomposition: the certificate declines, and the walk prints the
    # rational answer
    answers = []
    search = homology._vertex_decomposable
    monkeypatch.setattr(homology, "_vertex_decomposable",
                        lambda facets: answers.append(search(facets)) or answers[-1])
    path = tmp_path / "rp2.cx"
    path.write_text(projective_plane().to_file_text())
    assert main(["--json", "cm", str(path)]) == 0
    out = capsys.readouterr().out
    assert '"betti":[0,0,0,0]' in out and '"cm":true' in out
    assert answers == [False]


def test_homology_subcommand(pentagon_file, capsys):
    assert main(["--json", "homology", pentagon_file]) == 0
    assert _json_out(capsys)["results"]["betti"] == [0, 0, 1]


def test_balance_subcommand(tmp_path, pentagon_file, capsys):
    skel = independence_complex(cycle_graph(5)).one_skeleton()
    cover = [{"type": "graph", "vertices": list(skel.vertices),
              "edges": [list(e) for e in skel.edge_labels()],
              "removed_edge": None}]
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps(cover))
    code = main(["--json", "balance", "--complex", pentagon_file,
                 "--cover", str(cover_path)])
    assert code == 0
    report = _json_out(capsys)
    assert report["results"]["F"] == [1, 3, 1]
    assert report["checks"] == report["results"]["checks"]
    assert set(report["checks"]) == set(CHECK_NAMES)
    assert all(report["checks"].values())


def test_classify_subcommand(pg_graph_file, capsys):
    assert main(["--json", "classify", "--graph", pg_graph_file]) == 0
    report = _json_out(capsys)
    assert report["results"]["girth"] == 5
    (component,) = report["results"]["components"]
    assert component["kind"] == "PG"
    assert component["decomposition"]["beta"] == 5


def test_catalog_subcommand(capsys):
    assert main(["--json", "catalog", "--name", "P10"]) == 0
    report = _json_out(capsys)
    assert len(report["results"]["edges"]) == 12
    assert main(["--json", "catalog", "--name", "nonsense"]) == 2
    assert capsys.readouterr().err == (
        "input error: unknown catalog name 'nonsense'; choose from "
        "['C7', 'P10', 'P13', 'P14', 'Q13', 'Q14', 'PG12', 'S10']\n")


@pytest.mark.parametrize("name, graph", [("PG12", pg_sample_graph),
                                         ("S10", flag_sphere_graph)])
def test_catalog_dumps_the_samples(capsys, name, graph):
    assert main(["--json", "catalog", "--name", name]) == 0
    results = _json_out(capsys)["results"]
    g = graph()
    assert results["name"] == name
    assert results["vertices"] == list(g.vertices)
    assert results["edges"] == [list(e) for e in g.edge_labels()]
    parsed = parse_graph(results["text"])
    assert set(parsed.vertices) == set(g.vertices)
    assert ({frozenset(e) for e in parsed.edge_labels()}
            == {frozenset(e) for e in g.edge_labels()})


def test_embed_feeds_balance(tmp_path, pg_graph_file, capsys):
    assert main(["--json", "embed", "--graph", pg_graph_file]) == 0
    cover = _json_out(capsys)["results"]["cover"]
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps(cover))
    cx_path = tmp_path / "ind.cx"
    cx_path.write_text(independence_complex(pg_sample_graph()).to_file_text())
    code = main(["--json", "balance", "--complex", str(cx_path),
                 "--cover", str(cover_path)])
    assert code == 0
    report = _json_out(capsys)
    assert report["results"]["h"] == [1, 7, 15, 10, 1, 0]
    assert report["results"]["F"] == [1, 7, 15, 10, 1]


def test_transversal_subcommand(tmp_path, capsys):
    path = tmp_path / "simplex.cx"
    path.write_text("a b c\n")
    assert main(["--json", "transversal", str(path)]) == 0
    assert _json_out(capsys)["results"]["transversal"] is not None


def test_turan_subcommand(capsys):
    assert main(["--json", "turan", "7", "3"]) == 0
    assert _json_out(capsys)["results"] == {"n": 7, "r": 3, "edges": 16,
                                            "triangles": 12}


def test_golden_passes(capsys):
    assert main(["--json", "golden"]) == 0
    report = _json_out(capsys)
    assert report["results"]["failed"] == []
    assert all(report["checks"].values())


def _monochromatic_edge():
    # v6 recoloured 0, like v1: the edge v1-v6 has one colour
    cx, coloring = colorable_h_witness()
    return cx, dict(coloring, v6=0)


def _one_point_short():
    # without the facet v5 the f-vector is (1, 6, 7, 1)
    cx, coloring = colorable_h_witness()
    facets = [f for f in cx.facet_labels() if f != ("v5",)]
    coloring.pop("v5")
    return SimplicialComplex(facets), coloring


@pytest.mark.parametrize("broken", [_monochromatic_edge, _one_point_short])
def test_golden_rejects_a_broken_colorable_witness(monkeypatch, capsys, broken):
    monkeypatch.setattr(cli, "colorable_h_witness", broken)
    assert main(["--json", "golden"]) == 1
    report = _json_out(capsys)
    assert report["results"]["failed"] == ["colorable_witness_for_h"]


def _even_wheel():
    # the link of vertex 3 is the 4-cycle 0 4 8 9
    return "3", ("0", "4", "8", "9")


def _rim_not_closed():
    # 1-9 is not an edge of the sphere
    return "0", ("1", "9", "2", "3", "4")


def _hub_off_the_rim():
    # vertex 5 is adjacent to 1 and 4 but not to 2, 9 or 3
    return "5", odd_wheel()[1]


def _unknown_vertex():
    return "0", ("1", "2", "9", "3", "x")


@pytest.mark.parametrize("broken", [_even_wheel, _rim_not_closed,
                                    _hub_off_the_rim, _unknown_vertex])
def test_golden_rejects_a_broken_odd_wheel(monkeypatch, capsys, broken):
    monkeypatch.setattr(cli, "odd_wheel", broken)
    assert main(["--json", "golden"]) == 1
    report = _json_out(capsys)
    assert report["results"]["failed"] == ["flag_sphere_not_3_colorable"]


def _square_with_cover(tmp_path, factor):
    # the 4-cycle a c / a d / b c / b d is the join of {a, b} and {c, d}
    cx_path = tmp_path / "square.cx"
    cx_path.write_text("a c\na d\nb c\nb d\n")
    cover_path = tmp_path / "cover.json"
    other = {"type": "points", "vertices": ["c", "d"], "edges": [],
             "removed_edge": None}
    cover_path.write_text(json.dumps([factor, other]))
    return ["--json", "balance", "--complex", str(cx_path),
            "--cover", str(cover_path)]


@pytest.mark.parametrize("factor", [
    {"type": "points", "vertices": ["a", "b", "a"], "edges": [],
     "removed_edge": None},
    {"type": "points", "vertices": 5, "edges": [], "removed_edge": None},
    {"type": "points", "vertices": ["a", "b"], "edges": [],
     "removed_edge": 7},
], ids=["repeated_label", "vertices_not_a_list", "removed_edge_not_a_pair"])
def test_malformed_cover_is_input_error(tmp_path, capsys, factor):
    assert main(_square_with_cover(tmp_path, factor)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: factor 0: ")


def test_cover_object_is_input_error(tmp_path, capsys):
    argv = _square_with_cover(tmp_path, {})
    # one factor, not a list of factors
    (tmp_path / "cover.json").write_text(json.dumps(
        {"type": "points", "vertices": ["a", "b"]}))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: cover must be a non-empty list "
                            "of factors\n")


def test_stray_removed_edge_is_input_error(tmp_path, capsys):
    argv = _square_with_cover(tmp_path, {})
    points = {"type": "points", "vertices": ["a", "b"], "removed_edge": ["q", "r"]}
    edgeless = {"type": "graph", "vertices": ["c", "d"], "edges": [],
                "removed_edge": ["zz", "yy"]}
    clean = dict(points, removed_edge=None)
    for cover, message in (
            ([points, edgeless], "factor 0: point factors have no removed_edge"),
            ([clean, edgeless], "factor 1: removed edge ('zz', 'yy') is not an "
                                "edge of the factor")):
        (tmp_path / "cover.json").write_text(json.dumps(cover))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"input error: {message}\n"
    (tmp_path / "cover.json").write_text(
        json.dumps([clean, dict(edgeless, removed_edge=None)]))
    assert main(argv) == 0


def test_colliding_cover_labels_are_an_input_error(tmp_path, capsys):
    # the first factor holds c, which the second factor holds too
    factor = {"type": "points", "vertices": ["a", "b", "c"], "edges": [],
              "removed_edge": None}
    assert main(_square_with_cover(tmp_path, factor)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: join with colliding vertex "
                            "labels: ['c']\n")


def test_retries_is_not_an_option(tmp_path, capsys):
    points = {"type": "points", "vertices": ["a", "b"], "edges": [],
              "removed_edge": None}
    argv = _square_with_cover(tmp_path, points)
    assert main(argv) == 0
    capsys.readouterr()
    # a usage error (exit 2), before or after the subcommand, where a
    # negative count used to run no attempt and exit 1
    for extra in (argv + ["--retries", "-1"], ["--retries", "8"] + argv):
        with pytest.raises(SystemExit) as exc:
            main(extra)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: ")


def test_deeply_nested_cover_is_input_error(tmp_path, capsys):
    argv = _square_with_cover(tmp_path, {})
    cover_path = tmp_path / "cover.json"
    cover_path.write_text("[" * 100_000)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"input error: {cover_path}: cover is nested "
                            "too deeply\n")


def test_star_with_1500_leaves_answers(tmp_path, capsys):
    # its leaves are one maximal independent set, 1 500 branches deep in
    # the enumeration, which once recursed that deep and crashed
    path = tmp_path / "star.el"
    path.write_text("".join(f"c l{i}\n" for i in range(1500)))
    assert main(["--json", "classify", "--graph", str(path)]) == 0
    (verdict,) = _json_out(capsys)["results"]["components"]
    assert verdict["kind"] == "NotWellCovered"
    assert main(["--json", "embed", "--graph", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: component ['c', 'l0', ")
    assert captured.err.endswith("(classified NotWellCovered)\n")


def test_transversal_of_1500_points_is_all_of_them(tmp_path, capsys):
    path = tmp_path / "points.cx"
    path.write_text("".join(f"p{i}\n" for i in range(1500)))
    assert main(["--json", "transversal", str(path)]) == 0
    transversal = _json_out(capsys)["results"]["transversal"]
    assert sorted(transversal) == sorted(f"p{i}" for i in range(1500))


def test_missing_file_is_input_error(capsys):
    assert main(["fvector", "/nonexistent/file.cx"]) == 2


@pytest.mark.parametrize("module", ["facebalance", "facebalance.cli"])
def test_module_run_exits_with_the_code_of_main(tmp_path, module):
    import facebalance

    src = os.path.dirname(os.path.dirname(facebalance.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "fvector", str(tmp_path / "missing.cx")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: ")


def test_closed_stdout_is_not_a_failure():
    import facebalance

    src = os.path.dirname(os.path.dirname(facebalance.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody will read the report
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "facebalance", "--json", "golden"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=path))
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""


@pytest.mark.parametrize("argv", [
    ["fvector", "{bad}"], ["cm", "{bad}"], ["homology", "{bad}"],
    ["transversal", "{bad}"], ["classify", "--graph", "{bad}"],
    ["embed", "--graph", "{bad}"],
    ["balance", "--complex", "{bad}", "--cover", "{cover}"],
    ["balance", "--complex", "{cx}", "--cover", "{bad}"],
], ids=["fvector", "cm", "homology", "transversal", "classify", "embed",
        "balance_complex", "balance_cover"])
def test_non_utf8_file_is_input_error(tmp_path, capsys, argv):
    files = {"bad": tmp_path / "bad.txt", "cx": tmp_path / "square.cx",
             "cover": tmp_path / "cover.json"}
    files["bad"].write_bytes(b"a b\n\xff\n")
    files["cx"].write_text("a c\na d\nb c\nb d\n")
    files["cover"].write_text(json.dumps([
        {"type": "points", "vertices": ["a", "b"]},
        {"type": "points", "vertices": ["c", "d"]}]))
    assert main(["--json"] + [arg.format(**files) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"input error: {files['bad']}: not UTF-8 (invalid "
                            "start byte at byte 4)\n")


def test_digest_is_of_the_bytes_read(tmp_path, capsys):
    path = tmp_path / "crlf.cx"
    path.write_bytes(b"a b\r\nc\r\n")
    assert main(["--json", "fvector", str(path)]) == 0
    report = _json_out(capsys)
    assert report["inputs"] == {str(path): hashlib.sha256(b"a b\r\nc\r\n").hexdigest()}
    assert report["results"]["f"] == [1, 3, 1]


def test_bare_vertex_line_is_input_error(tmp_path, capsys):
    path = tmp_path / "bare.el"
    path.write_text("a b\nvertex:\n")
    assert main(["--json", "classify", "--graph", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: line 2: expected one label after "
                            "'vertex:'\n")


def test_human_readable_report(tmp_path, pentagon_file, capsys):
    skel = independence_complex(cycle_graph(5)).one_skeleton()
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps([
        {"type": "graph", "vertices": list(skel.vertices),
         "edges": [list(e) for e in skel.edge_labels()]}]))
    assert main(["balance", "--complex", pentagon_file,
                 "--cover", str(cover_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (f"command: facebalance balance --complex {pentagon_file} "
                        f"--cover {cover_path}")
    # inputs are listed by path
    assert lines[1].startswith(f"input: {cover_path} sha256=")
    assert lines[2].startswith(f"input: {pentagon_file} sha256=")
    assert lines[3] == f"seed: {DEFAULT_SEED}"
    checks = [f"  [pass] {name}" for name in sorted(CHECK_NAMES)]
    assert lines[-1 - len(checks):-1] == checks
    assert json.loads("\n".join(lines[4:-1 - len(checks)]))["F"] == [1, 3, 1]
    assert lines[-1].startswith("elapsed: ") and lines[-1].endswith("s")


def test_parse_error_is_input_error(tmp_path, capsys):
    path = tmp_path / "void.cx"
    path.write_text("# nothing\n")
    assert main(["fvector", str(path)]) == 2


def test_json_output_is_byte_identical(pentagon_file, capsys):
    main(["--json", "cm", pentagon_file])
    first = capsys.readouterr().out
    main(["--json", "cm", pentagon_file])
    second = capsys.readouterr().out
    assert first == second


def test_seed_flag_after_subcommand(capsys):
    assert main(["turan", "3", "3", "--seed", "9", "--json"]) == 0
    assert _json_out(capsys)["seed"] == 9


def _sample_arguments(arguments, number="1"):
    """Values for every argument of a command-table entry."""
    argv = []
    for argument, keywords in arguments.items():
        value = number if keywords.get("type") is int else "x"
        argv += [argument, value] if argument.startswith("--") else [value]
    return argv


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_one_parse_args_returns_the_whole_namespace(name):
    # bench/tracer.py calls build_parser() with no arguments and times the
    # one parse_args of its result: that call must do the whole parse
    func, _, arguments = cli.COMMANDS[name]
    rest = _sample_arguments(arguments)
    for argv, json_flag, seed in (
            ([name] + rest, False, DEFAULT_SEED),
            (["--json", "--seed", "5", name] + rest, True, 5),
            ([name] + rest + ["--json", "--seed", "9"], True, 9),
            (["--seed", "5", name] + rest, False, 5),
            (["--seed", "5", name] + rest + ["--seed", "9"], False, 9),
            (["--seed", "5", name] + rest + ["--json"], True, 5)):
        args = cli.build_parser().parse_args(argv)
        assert (args.func, args.subcommand, args.json, args.seed) == (
            func, name, json_flag, seed), argv
        for argument in arguments:
            assert hasattr(args, argument.lstrip("-")), (argv, argument)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_main_imports_neither_argparse_nor_gettext(flags):
    # the grammar is one pass over argv, so a command line costs no import
    # of argparse, nor of the gettext and locale that argparse brings
    import facebalance

    src = os.path.dirname(os.path.dirname(facebalance.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys\n"
            "from facebalance.cli import main\n"
            "code = main(['--json', 'turan', '7', '3'])\n"
            "print([m for m in ('argparse', 'gettext') if m in sys.modules],"
            " file=sys.stderr)\n"
            "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, *flags, "-c", code],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert (proc.returncode, proc.stderr) == (0, "[]\n")
    assert json.loads(proc.stdout)["results"]["edges"] == 16


def test_no_parser_state_survives_a_main_call(capsys):
    first, second = cli.build_parser(), cli.build_parser()
    assert first is not second
    first.parse_args = None  # bench/tracer.py wraps it on the instance
    assert second.parse_args(["golden"]).subcommand == "golden"
    assert main(["--json", "--seed", "5", "turan", "7", "3"]) == 0
    assert _json_out(capsys)["seed"] == 5
    assert main(["turan", "7", "3"]) == 0
    out = capsys.readouterr().out
    assert f"seed: {DEFAULT_SEED}" in out.splitlines()
    assert not out.startswith("{")


@pytest.mark.parametrize("argv, offender", [
    (["bogus"], "invalid choice: 'bogus'"),
    ([], "required: subcommand"),
    (["cm"], "required: path"),
    (["cm", "a", "b"], "unrecognized arguments: b"),
    (["--bogus", "cm", "a"], "unrecognized arguments: --bogus"),
    (["turan", "x", "3"], "argument n: invalid int value: 'x'"),
    (["classify", "--graph", "g", "--se", "3"], "unrecognized arguments: --se 3"),
], ids=["unknown_subcommand", "no_subcommand", "missing_positional",
        "extra_positional", "unknown_flag", "not_an_int", "abbreviated_option"])
def test_usage_error_exits_2_and_names_the_offender(capsys, argv, offender):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert offender in captured.err.splitlines()[-1]


def test_negative_ints_reach_the_command(capsys):
    assert main(["turan", "-2", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: need 1 <= r <= n\n"


def test_double_dash_ends_the_options(capsys):
    args = cli.build_parser().parse_args(["cm", "--", "-x.cx"])
    assert (args.subcommand, args.path) == ("cm", "-x.cx")
    assert main(["fvector", "--", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")


@pytest.mark.parametrize("argv, usage", [
    (["-h"], "usage: facebalance [-h] [--json] [--seed SEED] subcommand ..."),
    (["classify", "--help"],
     "usage: facebalance classify [-h] [--json] [--seed SEED] --graph GRAPH"),
    (["--json", "hvector", "1", "-h", "x"], "usage: facebalance hvector [-h] "
     "[--json] [--seed SEED] entries [entries ...]"),
], ids=["top", "classify", "hvector"])
def test_help_goes_to_stdout_and_exits_0(capsys, argv, usage):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[0] == usage


def test_help_and_readme_list_every_subcommand():
    from pathlib import Path

    text = cli.build_parser().format_help()
    for name, (_, help_line, _) in cli.COMMANDS.items():
        assert any(line.split() == [name] + help_line.split()
                   for line in text.splitlines()), name
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    usage = readme.split("## Command line", 1)[1].split("```text\n", 1)[1]
    usage = usage.split("```", 1)[0]
    assert [line.split()[0] for line in usage.splitlines()] == list(cli.COMMANDS)


def test_report_flags_check_failures():
    from facebalance.cli import _report

    class Args:
        echo = ["facebalance", "golden"]
        seed = 1

    _, code = _report(Args, {}, {}, checks={"broken": False, "fine": True})
    assert code == 1
    _, code = _report(Args, {}, {}, checks={"fine": True})
    assert code == 0


def test_json_stable_across_hash_seeds(tmp_path, pg_graph_file):
    import facebalance
    from facebalance.classify import embed_in_join

    # a pure flag complex, so `cm` and `balance` rank it and certify it by
    # a vertex decomposition
    ind = independence_complex(pg_sample_graph())
    assert ind.is_pure()
    cx_path = tmp_path / "ind.cx"
    cx_path.write_text(ind.to_file_text())
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps(embed_in_join(pg_sample_graph())[0]))
    # the child imports the package from the same source tree, installed or not
    src = os.path.dirname(os.path.dirname(facebalance.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for hash_seed in ("1", "77"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        for argv in (["classify", "--graph", pg_graph_file],
                     ["embed", "--graph", pg_graph_file],
                     ["cm", str(cx_path)],
                     ["balance", "--complex", str(cx_path),
                      "--cover", str(cover_path)]):
            proc = subprocess.run(
                [sys.executable, "-m", "facebalance", "--json"] + argv,
                capture_output=True, env=env, check=True)
            outs.append((tuple(argv), hash_seed, proc.stdout))
    by_cmd = {}
    for argv, _, out in outs:
        by_cmd.setdefault(argv, set()).add(out)
    assert all(len(v) == 1 for v in by_cmd.values())


def test_bench_tracer_finds_every_name_it_wraps():
    # bench/tracer.py looks the program's functions up by name, so deleting
    # or renaming one breaks `bench/run.py --trace 1`
    from pathlib import Path

    import facebalance

    src = os.path.dirname(os.path.dirname(facebalance.__file__))
    bench = Path(__file__).resolve().parent.parent / "bench"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(bench)]))
    code = ("import facebalance, facebalance.cli, tracer\n"
            "tracer.install(tracer.Tracer(), facebalance)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
