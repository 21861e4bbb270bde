"""Every invariant the program re-checks raises VerificationError, also under
``python -O``: each test below breaks one invariant on purpose."""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bruteforce as bf
import facebalance
import facebalance.balancing as balancing
import facebalance.classify as classify
import facebalance.complexes as complexes
import facebalance.homology as homology
import facebalance.polynomials as polynomials
from conftest import cycle_graph
from facebalance.balancing import balanced_witness, base_pair_near_bipartite
from facebalance.classify import (PGDecomposition, classify_girth5,
                                  exceptional_catalog)
from facebalance.cli import main
from facebalance.complexes import (Graph, SimplicialComplex, VerificationError,
                                   independence_complex)
from facebalance.homology import is_cohen_macaulay, reduced_betti
from facebalance.polynomials import (Multicomplex, Specialization,
                                     standard_monomial_basis)
from facebalance.samples import pg_sample_graph

SRC = Path(__file__).resolve().parent.parent / "src" / "facebalance"


def _pentagon_cover():
    skel = independence_complex(cycle_graph(5)).one_skeleton()
    return [{"type": "graph", "vertices": list(skel.vertices),
             "edges": [list(e) for e in skel.edge_labels()],
             "removed_edge": None}]


def test_no_assert_in_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno} raise AssertionError")
    assert not found, found


def test_one_verification_error_class():
    assert facebalance.VerificationError is balancing.VerificationError
    assert balancing.VerificationError is complexes.VerificationError


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

def test_negative_betti_number(monkeypatch):
    # an over-reported rank could hide homology; a hollow triangle and a
    # point have GF(2) entries (0, 1, 1), which flank the map from 1-chains,
    # so it is ranked again over Q, where a rank of 4 (the triangle's three
    # edge rows) leaves b_0 = 4 - 1 - 4 = -1
    real = homology._q_rank

    def over_reporting(rows):
        rows = list(rows)
        return 4 if len(rows) == 3 else real(rows)

    monkeypatch.setattr(homology, "_q_rank", over_reporting)
    triangle_and_point = SimplicialComplex([["a", "b"], ["b", "c"], ["a", "c"], ["d"]])
    with pytest.raises(VerificationError, match="negative Betti number"):
        reduced_betti(triangle_and_point)


def test_non_pure_complex_slipping_past_link_vanishing(monkeypatch):
    monkeypatch.setattr(homology, "_betti", lambda levels: (0,) * len(levels))
    with pytest.raises(VerificationError, match="non-pure"):
        is_cohen_macaulay(SimplicialComplex([["a", "b"], ["c"]]))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_standard_set_missing_a_divisor(monkeypatch):
    pentagon = independence_complex(cycle_graph(5))
    pair = base_pair_near_bipartite(pentagon.one_skeleton(), None, Specialization())
    real = polynomials.initial_ideal_by_degree

    def dropping(gens, order, degree):
        rank, standard = real(gens, order, degree)
        if degree == 1:
            (top,) = real(gens, order, 2)[1]  # h_2 = 1
            standard = {m for m in standard if not bf.monomial_divides(m, top)}
        return rank, standard

    monkeypatch.setattr(polynomials, "initial_ideal_by_degree", dropping)
    with pytest.raises(VerificationError, match="divisibility-closed"):
        standard_monomial_basis(pentagon, pair.matrix, pair.order)


@pytest.mark.parametrize("cover", ["pentagon", "point"])
def test_standard_set_missing_the_unit(monkeypatch, cover):
    # the unit is the degree-0 sweep's one standard monomial and is never
    # added afterwards; on a point the basis left is empty, which is
    # divisibility-closed, so the unit is re-checked on its own
    if cover == "pentagon":
        delta = independence_complex(cycle_graph(5))
        pair = base_pair_near_bipartite(delta.one_skeleton(), None, Specialization())
    else:
        delta = SimplicialComplex([["a"]])
        pair = balancing.base_pair_points(["a"])
    real = polynomials.initial_ideal_by_degree

    def unitless(gens, order, degree):
        rank, standard = real(gens, order, degree)
        return rank, standard if degree else set()

    monkeypatch.setattr(polynomials, "initial_ideal_by_degree", unitless)
    with pytest.raises(VerificationError, match="divisibility-closed from the unit"):
        standard_monomial_basis(delta, pair.matrix, pair.order)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_catalog_graph_that_also_decomposes(monkeypatch):
    monkeypatch.setattr(classify, "pg_decomposition",
                        lambda g: PGDecomposition((), (), (), ()))
    with pytest.raises(VerificationError, match="also decomposes"):
        classify_girth5(exceptional_catalog()["C7"])


def test_well_covered_graph_neither_exceptional_nor_decomposable(monkeypatch):
    monkeypatch.setattr(classify, "pg_decomposition", lambda g: None)
    with pytest.raises(VerificationError, match="neither exceptional"):
        classify_girth5(pg_sample_graph())


def _one_pendant_edge_too_many(monkeypatch):
    # the real decomposition plus an edge no graph has: it counts one more
    # than the size the greedy passes measured
    real = classify.pg_decomposition

    def padded(g):
        dec = real(g)
        return dataclasses.replace(
            dec, pendant_edges=dec.pendant_edges + (("X", "Y"),))

    monkeypatch.setattr(classify, "pg_decomposition", padded)


def test_decomposition_size_disagrees_with_beta(monkeypatch):
    _one_pendant_edge_too_many(monkeypatch)
    with pytest.raises(VerificationError, match="disagrees with beta"):
        classify_girth5(pg_sample_graph())


@pytest.mark.parametrize("mutant, message", [
    (lambda nb, order: 0, "not maximal"),
    (lambda nb, order: (1 << len(nb)) - 1, "not independent")],
    ids=["empty", "every_vertex"])
def test_greedy_set_that_is_not_a_maximal_independent_set(monkeypatch, mutant,
                                                          message):
    monkeypatch.setattr(classify, "_greedy", mutant)
    with pytest.raises(VerificationError, match=message):
        classify_girth5(pg_sample_graph())


def test_greedy_mutant_raises_under_python_O():
    program = ("import facebalance.classify as c\n"
               "from facebalance.samples import pg_sample_graph\n"
               "c._greedy = lambda nb, order: 0\n"
               "try:\n"
               "    c.classify_girth5(pg_sample_graph())\n"
               "except c.VerificationError as e:\n"
               "    print(e)\n")
    done = subprocess.run([sys.executable, "-O", "-c", program],
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                          capture_output=True, text=True, check=True)
    assert done.stdout == "certificate set is not maximal\n"


def test_embed_exits_1_when_the_decomposition_disagrees_with_beta(
        monkeypatch, tmp_path, capsys):
    path = tmp_path / "pg.el"
    path.write_text(pg_sample_graph().to_file_text())
    _one_pendant_edge_too_many(monkeypatch)
    assert main(["--json", "embed", "--graph", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "disagrees with beta" in captured.err


def test_cli_exits_1_on_a_failed_invariant(monkeypatch, tmp_path, capsys):
    path = tmp_path / "pg.el"
    path.write_text(pg_sample_graph().to_file_text())
    monkeypatch.setattr(classify, "pg_decomposition", lambda g: None)
    assert main(["--json", "classify", "--graph", str(path)]) == 1
    assert "verification failed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# balancing
# ---------------------------------------------------------------------------

def test_removed_edge_endpoints_split_by_the_coloring(monkeypatch):
    graph = independence_complex(cycle_graph(5)).one_skeleton()
    y, z = graph.edge_labels()[0]
    real = Graph.bipartition

    def split(self):
        if real(self) is None:
            return None
        return (y,), tuple(v for v in self.vertices if v != y)

    monkeypatch.setattr(Graph, "bipartition", split)
    with pytest.raises(VerificationError, match="split across"):
        base_pair_near_bipartite(graph, (y, z), Specialization())


def test_improper_witness_coloring_is_a_failed_check(monkeypatch):
    monkeypatch.setattr(balancing, "is_proper", lambda cx, coloring: False)
    pentagon = independence_complex(cycle_graph(5))
    with pytest.raises(VerificationError, match="failed proper_coloring"):
        balanced_witness(pentagon, _pentagon_cover())


def test_coloring_check_fails_without_a_squarefree_basis(monkeypatch):
    monkeypatch.setattr(Multicomplex, "is_squarefree", lambda self: False)
    pentagon = independence_complex(cycle_graph(5))
    with pytest.raises(VerificationError,
                       match="attempt 0: failed proper_coloring, squarefree;"):
        balanced_witness(pentagon, _pentagon_cover())

