import json

import pytest

from conftest import cycle_graph
from facebalance import cli
from facebalance.balancing import CHECK_NAMES
from facebalance.cli import main
from facebalance.complexes import SimplicialComplex, independence_complex
from facebalance.samples import colorable_h_witness, pg_sample_graph


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


def test_missing_file_is_input_error(capsys):
    assert main(["fvector", "/nonexistent/file.cx"]) == 2


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
    import os
    import subprocess
    import sys

    import facebalance
    from facebalance.classify import embed_in_join

    ind = independence_complex(pg_sample_graph())
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
    import os
    import subprocess
    import sys
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
