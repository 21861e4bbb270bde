"""Every invariant the program re-checks raises VerificationError, also under
``python -O``: each test below breaks one invariant on purpose."""

import ast
from pathlib import Path

import pytest

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
from facebalance.homology import BettiProfile, is_cohen_macaulay, reduced_betti
from facebalance.polynomials import (Multicomplex, Specialization,
                                     monomial_divides, standard_monomial_basis)
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
    # an over-reported rank could hide homology; two disjoint edges have
    # b_0 = 1 below the top over GF(2), so they are ranked again over Q,
    # where a rank of 3 in degree 1 leaves b_1 = 2 - 3 - 0 = -1
    real = homology.boundary_rank
    monkeypatch.setattr(homology, "boundary_rank",
                        lambda cx, i: 3 if i == 1 else real(cx, i))
    two_edges = SimplicialComplex([["a", "b"], ["c", "d"]])
    with pytest.raises(VerificationError, match="negative Betti number"):
        reduced_betti(two_edges)


def test_non_pure_complex_slipping_past_link_vanishing(monkeypatch):
    monkeypatch.setattr(homology, "reduced_betti",
                        lambda cx: BettiProfile((0,) * (cx.dim + 2)))
    with pytest.raises(VerificationError, match="non-pure"):
        is_cohen_macaulay(SimplicialComplex([["a", "b"], ["c"]]))


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------

def test_join_f_vector_mismatch(monkeypatch):
    monkeypatch.setattr(complexes, "convolve", lambda a, b: (1,))
    with pytest.raises(VerificationError, match="join f-vector"):
        SimplicialComplex([["a"]]).join(SimplicialComplex([["b"]]))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_standard_set_missing_a_divisor(monkeypatch):
    pentagon = independence_complex(cycle_graph(5))
    pair = base_pair_near_bipartite(pentagon.one_skeleton(), None, Specialization())
    real = polynomials.initial_ideal_by_degree

    def dropping(gens, order, degree):
        leading, standard = real(gens, order, degree)
        if degree == 1:
            (top,) = real(gens, order, 2)[1]  # h_2 = 1
            standard = {m for m in standard if not monomial_divides(m, top)}
        return leading, standard

    monkeypatch.setattr(polynomials, "initial_ideal_by_degree", dropping)
    with pytest.raises(VerificationError, match="divisibility-closed"):
        standard_monomial_basis(pentagon, pair.matrix, pair.order)


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


def test_decomposition_size_disagrees_with_beta(monkeypatch):
    monkeypatch.setattr(classify, "beta", lambda g: -1)
    with pytest.raises(VerificationError, match="disagrees with beta"):
        classify_girth5(pg_sample_graph())


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

