import ast
import itertools
import json
import random
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

import bruteforce as bf
from conftest import (check_against_unskipped_sweep, check_sweep,
                      cycle_graph, disjoint_union, identity_automorphism, join,
                      pg_chain)
from facebalance import balancing
from facebalance.balancing import (BalancingPair, CoverError,
                                   VerificationError, balanced_witness,
                                   base_pair_near_bipartite, base_pair_points,
                                   compose_pairs, factor_complex,
                                   inherit_to_subcomplex, join_of_factors,
                                   kind_kleinschmidt, parse_cover)
from facebalance.classify import embed_in_join
from facebalance.complexes import (ComplexError, Graph, SimplicialComplex,
                                   convolve, h_from_f, independence_complex,
                                   is_full_dimensional_subcomplex, is_proper)
from facebalance.polynomials import (LinearAutomorphism, Specialization,
                                     StandardBasisOverflow, TermOrder,
                                     standard_monomial_basis)


def _pentagram() -> Graph:
    """1-skeleton of the independence complex of a 5-cycle."""
    return independence_complex(cycle_graph(5)).one_skeleton()


def _graph_factor(g: Graph, removed=None) -> dict:
    return {"type": "graph", "vertices": list(g.vertices),
            "edges": [list(e) for e in g.edge_labels()],
            "removed_edge": removed}


def _points_factor(labels) -> dict:
    return {"type": "points", "vertices": list(labels), "edges": [],
            "removed_edge": None}


# ---------------------------------------------------------------------------
# pairs and the rank condition
# ---------------------------------------------------------------------------

def test_pair_validation():
    order = TermOrder(("a", "b"), 1)
    g = identity_automorphism(("a", "b"))
    with pytest.raises(ValueError):
        BalancingPair(order, g, ())  # wrong number of blocks
    with pytest.raises(ValueError):
        BalancingPair(order, g, (("a", "b"),))  # tail variable in a block


def test_kind_kleinschmidt_identity_cases():
    order = TermOrder(("a", "b", "c"), 1)
    pair = BalancingPair(order, identity_automorphism(order.variables),
                         (("a", "b"),))
    on_tail = SimplicialComplex([["c"]])
    ok, _ = kind_kleinschmidt(on_tail, pair)
    assert ok
    off_tail = SimplicialComplex([["a"]])
    ok, facet = kind_kleinschmidt(off_tail, pair)
    assert not ok and facet == ("a",)


def test_kind_kleinschmidt_reports_the_first_failing_facet_in_sorted_order():
    # twists that are permuted block sums, as composed twists are; the
    # facet reported must be the first in sorted facet order whose tail
    # rows of the dense inverse lose rank
    rng = random.Random(17)
    variables = ("a", "b", "c", "d", "e", "f")
    order = TermOrder(variables, 2)
    n, d = order.n, order.d
    several = 0
    for _ in range(60):
        perm = list(range(n))
        rng.shuffle(perm)
        sizes = rng.choice([(2, 2, 2), (3, 3), (1, 2, 3), (6,)])
        block_of = [k for k, size in enumerate(sizes) for _ in range(size)]
        dense = [[Fraction(rng.randint(-2, 2))
                  if block_of[perm[i]] == block_of[perm[j]] else Fraction(0)
                  for j in range(n)] for i in range(n)]
        inverse = bf.dense_inverse(dense)
        if inverse is None:
            continue
        pair = BalancingPair(order, LinearAutomorphism(variables, tuple(
            tuple(row) for row in dense)), (("a", "b"), ("c", "d")))
        facets = rng.sample(list(itertools.combinations(variables, 2)), 6)
        delta = SimplicialComplex([list(f) for f in facets])
        failing = [f for f in delta.facet_labels()
                   if bf.dense_rank([inverse[order.index(v)][n - d:] for v in f])
                   != len(f)]
        several += len(failing) > 1
        assert kind_kleinschmidt(delta, pair) == (
            (False, failing[0]) if failing else (True, None))
    assert several > 5


def test_points_pair_shape():
    pair = base_pair_points(("a", "b", "c"))
    assert pair.order.tail() == ("c",)
    assert pair.blocks == (("a", "b"),)
    # last column of the twist is all ones, the rest is the identity
    assert [row[-1] for row in pair.matrix.matrix] == [1, 1, 1]
    inv = pair.matrix.inverse()
    assert [row[-1] for row in inv.matrix] == [-1, -1, 1]


def test_points_pair_single_vertex():
    pair = base_pair_points(("p",))
    assert pair.blocks == ((),)
    basis = standard_monomial_basis(SimplicialComplex([["p"]]), pair.matrix,
                                    pair.order)
    assert basis.f_vector() == (1,)


def test_near_bipartite_pair_matrices():
    pair = base_pair_near_bipartite(_pentagram(), None, Specialization())
    assert pair.order.variables == ("4", "5", "2", "1", "3")
    assert pair.order.tail() == ("1", "3")
    assert pair.blocks == (("2",), ("4", "5"))
    inv = pair.matrix.inverse().matrix
    # tail rows of the inverse hold the parameter block
    assert [list(row[-2:]) for row in inv[-2:]] == [[1, 2], [3, 5]]
    # free rows: -(ones|class-column) * Z
    assert list(inv[0][-2:]) == [-4, -7]   # B-class row
    assert list(inv[1][-2:]) == [-4, -7]   # B-class row
    assert list(inv[2][-2:]) == [-1, -2]   # other-class row
    # the twist itself is the identity on free variables
    assert all(inv[i][j] == (1 if i == j else 0) for i in range(3) for j in range(3))


def test_near_bipartite_block_squares_lead():
    # for a variable in the small color-class block, the twisted difference
    # of its products with the two tail variables leads with its square
    from facebalance.polynomials import apply_automorphism

    pair = base_pair_near_bipartite(_pentagram(), None, Specialization())
    order = pair.order
    (x1_block,), _ = pair.blocks
    y, z = order.tail()
    p = apply_automorphism(pair.matrix, {order.monomial_of((x1_block, y)): Fraction(1)})
    q = apply_automorphism(pair.matrix, {order.monomial_of((x1_block, z)): Fraction(1)})
    diff = dict(p)
    for m, c in q.items():
        val = diff.get(m, 0) - c
        if val:
            diff[m] = val
        else:
            diff.pop(m, None)
    square = order.monomial_of((x1_block, x1_block))
    assert max(diff, key=order.sort_key) == square
    # after reduction, every free square is a degree-2 leading monomial
    from facebalance.polynomials import (initial_ideal_by_degree,
                                         stanley_reisner_generators)

    pentagon = independence_complex(cycle_graph(5))
    gens = [{order.variable(t): Fraction(1)} for t in order.tail()]
    for nu in stanley_reisner_generators(pentagon, order):
        gens.append(apply_automorphism(pair.matrix, {nu: Fraction(1)}))
    result = initial_ideal_by_degree(gens, order, 2)
    # a pivot is an undivided monomial that is not standard
    undivided = bf.undivided_monomials(gens, order.n, 2)
    for v in order.free():
        square = order.monomial_of((v, v))
        assert square in undivided and square not in result[1]
    check_sweep(result, gens, order, 2)


def test_near_bipartite_rank_condition_on_all_facets():
    g = _pentagram()
    pair = base_pair_near_bipartite(g, None, Specialization())
    pentagon = independence_complex(cycle_graph(5))
    ok, _ = kind_kleinschmidt(pentagon, pair)
    assert ok


def test_near_bipartite_rejects_triangles():
    triangle = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    with pytest.raises(CoverError, match="triangle"):
        base_pair_near_bipartite(triangle, None, Specialization())


def test_near_bipartite_rejects_bipartite_input():
    with pytest.raises(CoverError, match="bipartite"):
        base_pair_near_bipartite(cycle_graph(4), None, Specialization())


def test_near_bipartite_needs_a_fixing_edge():
    two_pentagons = disjoint_union(cycle_graph(5, "a"), cycle_graph(5, "b"))
    with pytest.raises(CoverError, match="no single edge"):
        base_pair_near_bipartite(two_pentagons, None, Specialization())


def test_parse_cover_validates_removed_edge():
    # the removed edge must be an edge of its own graph factor, in either
    # orientation; a point factor has none to remove
    cover = [_graph_factor(_pentagram(), ["3", "1"])]
    assert parse_cover(cover)[0]["removed_edge"] == ("3", "1")
    with pytest.raises(CoverError, match="^factor 0: removed edge .* not an edge"):
        parse_cover([_graph_factor(_pentagram(), ["1", "2"])])
    edgeless = {"type": "graph", "vertices": ["c", "d"], "edges": [],
                "removed_edge": ["zz", "yy"]}
    with pytest.raises(CoverError, match="^factor 1: removed edge .* not an edge"):
        parse_cover([_points_factor(["a", "b"]), edgeless])
    with pytest.raises(CoverError, match="^factor 0: point factors have no removed_edge"):
        parse_cover([dict(_points_factor(["a", "b"]), removed_edge=["a", "b"])])


def test_near_bipartite_rejects_an_edge_that_leaves_an_odd_cycle():
    two_pentagons = disjoint_union(cycle_graph(5, "a"), cycle_graph(5, "b"))
    with pytest.raises(CoverError, match="still odd"):
        base_pair_near_bipartite(two_pentagons, ("a1", "a2"), Specialization())


def test_near_bipartite_search_takes_the_first_fixing_edge():
    # a pentagon with a pendant edge k-a1: removing k-a1 leaves the pentagon
    # odd, so the search moves on to the first pentagon edge, a1-a2
    g = Graph(["k"] + list(cycle_graph(5, "a").vertices),
              cycle_graph(5, "a").edge_labels() + [("k", "a1")])
    assert g.edge_labels()[0] == ("k", "a1")
    found = base_pair_near_bipartite(g, None, Specialization())
    chosen = base_pair_near_bipartite(g, ("a2", "a1"), Specialization())
    assert found == chosen
    assert found.order.tail() == ("a1", "a2")


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_points_pairs_order_and_blocks():
    p1 = base_pair_points(("a", "b"))
    p2 = base_pair_points(("x", "y", "z"))
    pair = compose_pairs(p1, p2)
    assert pair.order.variables == ("a", "x", "y", "b", "z")
    assert pair.order.tail() == ("b", "z")
    assert pair.blocks == (("a",), ("x", "y"))
    assert pair.matrix.is_block_upper_triangular(2)


def _random_block_pair(rng, prefix):
    """A pair on shuffled labels whose twist has random entries, zero on the
    tail rows against the free columns."""
    n = rng.randint(1, 5)
    d = rng.randint(1, n)
    variables = [f"{prefix}{k}" for k in range(n)]
    rng.shuffle(variables)
    matrix = tuple(tuple(Fraction(0) if i >= n - d > j or rng.random() < 0.3
                         else Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                         for j in range(n)) for i in range(n))
    blocks = [[] for _ in range(d)]
    for v in variables[:n - d]:
        rng.choice(blocks).append(v)
    return BalancingPair(TermOrder(tuple(variables), d),
                         LinearAutomorphism(tuple(variables), matrix),
                         tuple(tuple(b) for b in blocks))


def test_compose_places_each_cell_from_its_own_pair():
    # the oracle is the cell rule: (u, v) is the owning pair's entry when
    # both variables are in one pair, and 0 otherwise
    rng = random.Random(18)
    for _ in range(100):
        p1, p2 = _random_block_pair(rng, "a"), _random_block_pair(rng, "b")
        pair = compose_pairs(p1, p2)
        merged = pair.order.variables
        assert merged == (p1.order.free() + p2.order.free()
                          + p1.order.tail() + p2.order.tail())
        assert pair.order.d == p1.order.d + p2.order.d
        assert pair.blocks == p1.blocks + p2.blocks
        expected = []
        for u in merged:
            row = []
            for v in merged:
                owner = next((p for p in (p1, p2)
                              if {u, v} <= set(p.order.variables)), None)
                row.append(0 if owner is None else owner.matrix.matrix[
                    owner.order.index(u)][owner.order.index(v)])
            expected.append(row)
        assert [list(row) for row in pair.matrix.matrix] == expected
        assert all(type(x) is Fraction for row in pair.matrix.matrix
                   for x in row)


def test_compose_rejects_label_collisions():
    with pytest.raises(CoverError):
        compose_pairs(base_pair_points(("a",)), base_pair_points(("a", "b")))


def test_compose_rejects_wrong_shape():
    order = TermOrder(("u", "v"), 1)
    lower = LinearAutomorphism(("u", "v"),
                               ((Fraction(1), Fraction(0)),
                                (Fraction(1), Fraction(1))))
    bad = BalancingPair(order, lower, (("u",),))
    with pytest.raises(CoverError, match="block shape"):
        compose_pairs(bad, base_pair_points(("w",)))


def test_composed_points_pairs_count_join_h():
    p1 = base_pair_points(("a", "b"))
    p2 = base_pair_points(("x", "y", "z"))
    pair = compose_pairs(p1, p2)
    joined = join(SimplicialComplex([["a"], ["b"]]),
                  SimplicialComplex([["x"], ["y"], ["z"]]))
    basis = standard_monomial_basis(joined, pair.matrix, pair.order)
    assert basis.f_vector() == h_from_f(joined.f_vector())  # (1, 3, 2)
    assert basis.is_squarefree()


def test_composed_pentagon_pairs_count_join_h():
    g1 = independence_complex(cycle_graph(5, "a")).one_skeleton()
    g2 = independence_complex(cycle_graph(5, "b")).one_skeleton()
    pair = compose_pairs(
        base_pair_near_bipartite(g1, None, Specialization()),
        base_pair_near_bipartite(g2, None, Specialization()))
    both = disjoint_union(cycle_graph(5, "a"), cycle_graph(5, "b"))
    joined = independence_complex(both)
    basis = standard_monomial_basis(joined, pair.matrix, pair.order)
    assert basis.f_vector() == convolve((1, 3, 1), (1, 3, 1)) == (1, 6, 11, 6, 1)
    ok, _ = kind_kleinschmidt(joined, pair)
    assert ok


# ---------------------------------------------------------------------------
# inheritance
# ---------------------------------------------------------------------------

def test_inherit_identity_case():
    pentagon = independence_complex(cycle_graph(5))
    pair = base_pair_near_bipartite(_pentagram(), None, Specialization())
    assert inherit_to_subcomplex(pair, pentagon) is pair


def test_inherit_to_facet_deleted_subcomplex():
    pentagon = independence_complex(cycle_graph(5))
    facets = pentagon.facet_labels()
    smaller = SimplicialComplex(facets[:-1])
    pair = base_pair_near_bipartite(_pentagram(), None, Specialization())
    pair = inherit_to_subcomplex(pair, smaller)
    basis = standard_monomial_basis(smaller, pair.matrix, pair.order)
    h = h_from_f(smaller.f_vector())  # (1, 3, 0): the last facet carried h_2
    padded = basis.f_vector() + (0,) * (len(h) - len(basis.f_vector()))
    assert padded == h


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------

def test_parse_cover_validation():
    with pytest.raises(CoverError):
        parse_cover([])
    with pytest.raises(CoverError):
        parse_cover([{"type": "blob", "vertices": ["a"]}])
    with pytest.raises(CoverError):
        parse_cover([{"type": "points", "vertices": ["a"], "edges": [["a", "b"]]}])
    out = parse_cover([{"type": "points", "vertices": ["a"]}])
    assert out[0]["removed_edge"] is None
    # JSON numbers are labels too, compared as strings
    out = parse_cover([{"type": "graph", "vertices": ["a", 2, 3.5],
                        "edges": [["a", 2]], "removed_edge": [2, "a"]}])
    assert out[0]["vertices"] == ["a", "2", "3.5"]
    assert out[0]["edges"] == [("a", "2")]
    assert out[0]["removed_edge"] == ("2", "a")
    # a tuple of factors is a cover too
    assert parse_cover(({"type": "points", "vertices": ["a"]},)) == \
        parse_cover([{"type": "points", "vertices": ["a"]}])


@pytest.mark.parametrize("factor", [
    {"type": "points", "vertices": "ab"},
    {"type": "points", "vertices": ["1", 1]},
    {"type": "points", "vertices": ["a", None]},
    {"type": "graph", "vertices": ["a", "b"], "edges": {"a": "b"}},
    {"type": "graph", "vertices": ["a", "b", "c"], "edges": [["a", "b", "c"]]},
    {"type": "graph", "vertices": ["a", "b"], "edges": ["ab"]},
    {"type": "graph", "vertices": ["a", "b"], "edges": [["a", True]]},
    {"type": "graph", "vertices": ["a", "b"], "edges": [["a", "b"]],
     "removed_edge": []},
    {"type": "graph", "vertices": ["a", "b"], "edges": [["a", "b"]],
     "removed_edge": "ab"},
])
def test_parse_cover_rejects_malformed_factors(factor):
    with pytest.raises(CoverError, match="^factor 0: "):
        parse_cover([factor])


def test_factor_complex_shapes():
    pts = factor_complex(_points_factor(["a", "b"]))
    assert pts.f_vector() == (1, 2)
    g = Graph(["u", "v", "w"], [("u", "v")])
    cx = factor_complex(_graph_factor(g))
    assert cx.f_vector() == (1, 3, 1)  # the edge plus an isolated vertex


def test_join_of_factors():
    factors = join_of_factors([_points_factor(["a"]), _points_factor(["b"])])
    assert factors == [SimplicialComplex([["a"]]), SimplicialComplex([["b"]])]
    assert join(*factors).f_vector() == (1, 2, 1)


def test_points_factor_is_an_edgeless_graph_factor():
    # the type field is validated but does not pick a path: both factors
    # build the same complex and the same witness
    points = _points_factor(["a", "b", "c"])
    edgeless = dict(points, type="graph")
    assert factor_complex(points) == factor_complex(edgeless)
    delta = SimplicialComplex([["a"], ["b"]])
    assert (balanced_witness(delta, [points]).to_json_obj()
            == balanced_witness(delta, [edgeless]).to_json_obj())


# ---------------------------------------------------------------------------
# the witness pipeline
# ---------------------------------------------------------------------------

def test_witness_for_pentagon():
    pentagon = independence_complex(cycle_graph(5))
    witness = balanced_witness(pentagon, [_graph_factor(_pentagram())])
    assert witness.basis.f_vector() == (1, 3, 1)
    assert witness.verified_h == (1, 3, 1)
    assert all(witness.checks.values())
    assert set(witness.checks) == {"kind_kleinschmidt", "squarefree",
                                   "block_degree", "divisibility_closure",
                                   "f_matches_h", "proper_coloring"}
    assert is_proper(witness.complex, witness.coloring)
    assert witness.complex.f_vector() == (1, 3, 1)


def test_witness_for_point_join_is_the_join_partition():
    delta = join(SimplicialComplex([["a"], ["b"]]), SimplicialComplex([["x"], ["y"]]))
    witness = balanced_witness(delta, [_points_factor(["a", "b"]),
                                       _points_factor(["x", "y"])])
    assert witness.basis.f_vector() == h_from_f(delta.f_vector())
    # blocks are the two point classes minus their tail vertices
    assert witness.pair.blocks == (("a",), ("x",))
    assert all(witness.checks.values())


def test_witness_for_bipartite_graph_factor_splits():
    square = cycle_graph(4)
    delta = SimplicialComplex(square.edge_labels())
    witness = balanced_witness(delta, [_graph_factor(square)])
    assert witness.pair.order.d == 2
    assert witness.basis.f_vector() == h_from_f(delta.f_vector())
    assert all(witness.checks.values())


def _c5_c5_p4():
    cover = [_graph_factor(cycle_graph(5, "a")), _graph_factor(cycle_graph(5, "b")),
             _points_factor(["p1", "p2", "p3", "p4"])]
    return reduce(join, join_of_factors(cover)), cover


def _ind_pg_chain_2_2():
    g = pg_chain(2, 2)
    return independence_complex(g), embed_in_join(g)[0]


@pytest.mark.parametrize("make", [_ind_pg_chain_2_2, _c5_c5_p4],
                         ids=["ind_pg_chain_2_2", "C5*C5*P4"])
def test_witness_sweep_never_eliminates_its_stop_degree(monkeypatch, make):
    # the degree above the basis's top one is empty by the order ideal
    # alone, so it is never handed to the elimination; the basis is still
    # the one an elimination of every degree gives
    delta, cover = make()
    real = balancing.standard_monomial_basis
    sweeps = []

    def checked(delta, g, order):
        basis, eliminated, _ = check_against_unskipped_sweep(delta, g, order)
        sweeps.append((len(basis.f_vector()), eliminated))
        return real(delta, g, order)

    monkeypatch.setattr(balancing, "standard_monomial_basis", checked)
    witness = balanced_witness(delta, cover)
    assert all(witness.checks.values())
    assert sweeps and all(eliminated == list(range(stop))
                          for stop, eliminated in sweeps)


def test_witness_rejects_non_subcomplex():
    pentagon = independence_complex(cycle_graph(5))
    with pytest.raises(CoverError, match="full-dimensional"):
        balanced_witness(pentagon, [_points_factor(list(pentagon.vertices))])


def test_witness_rejects_non_cm_subcomplex():
    square = cycle_graph(4, "c")
    two_edges = SimplicialComplex([("c1", "c2"), ("c3", "c4")])
    with pytest.raises(CoverError, match="Cohen-Macaulay"):
        balanced_witness(two_edges, [_graph_factor(square)])


def test_witness_cm_check_can_be_waived(monkeypatch):
    import facebalance.balancing as balancing

    square = cycle_graph(4, "c")
    two_edges = SimplicialComplex([("c1", "c2"), ("c3", "c4")])
    monkeypatch.setattr(balancing, "is_cohen_macaulay", lambda delta: (True, None))
    # h = (1, 2, -1) cannot match a monomial count, so verification must fail
    with pytest.raises(VerificationError, match="f_matches_h"):
        balanced_witness(two_edges, [_graph_factor(square)])


def test_waived_cm_check_still_fails_on_a_countable_h(monkeypatch):
    # a 4-cycle plus a disjoint edge is not CM, yet h = (1, 4, 0) could be
    # counted by a basis; the sweep still eliminates its stop degree, finds
    # degree-2 standard monomials there, and f_matches_h fails
    delta = SimplicialComplex([("a1", "b1"), ("b1", "a2"), ("a2", "b2"),
                               ("b2", "a1"), ("a3", "b3")])
    assert h_from_f(delta.f_vector()) == (1, 4, 0)
    cover = [_points_factor(["a1", "a2", "a3"]), _points_factor(["b1", "b2", "b3"])]
    monkeypatch.setattr(balancing, "is_cohen_macaulay", lambda delta: (True, None))
    with pytest.raises(VerificationError, match="f_matches_h"):
        balanced_witness(delta, cover)


@pytest.mark.parametrize("cover", [5, {"type": "points", "vertices": ["a"]}],
                         ids=["number", "factor_not_in_a_list"])
def test_witness_rejects_a_cover_that_is_not_a_list(cover):
    # the cover is validated as given, not after a list() that turns a
    # dict into its keys and fails on a number
    delta = SimplicialComplex([["a"]])
    with pytest.raises(CoverError,
                       match="^cover must be a non-empty list of factors$"):
        balanced_witness(delta, cover)


def test_witness_rejects_triangle_factor():
    triangle = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    delta = SimplicialComplex(triangle.edge_labels())
    with pytest.raises(CoverError, match="triangle"):
        balanced_witness(delta, [_graph_factor(triangle)])


# the subcomplex test against the factors, and against their join

def _random_factor(rng, k: int) -> dict:
    """A point, edgeless, bipartite or odd graph factor on labels ``f{k}_i``."""
    kind = rng.choice(("points", "edgeless", "bipartite", "odd"))
    n = rng.randint(1, 3) if kind in ("points", "edgeless") else rng.randint(3, 6)
    vs = [f"f{k}_{i}" for i in range(n)]
    if kind == "points":
        return _points_factor(vs)
    if kind == "edgeless":
        return _graph_factor(Graph(vs, []))
    if kind == "bipartite":
        # even positions against odd ones: a path, plus random chords
        edges = [(vs[i], vs[i + 1]) for i in range(n - 1)]
        edges += [(vs[i], vs[j]) for i in range(n) for j in range(i + 3, n, 2)
                  if rng.random() < 0.3]
        return _graph_factor(Graph(vs, edges))
    # an odd cycle on the first 3 or 5 vertices; the rest hang off it
    c = 5 if n >= 5 else 3
    edges = [(vs[i], vs[(i + 1) % c]) for i in range(c)]
    edges += [(vs[i], vs[rng.randrange(i)]) for i in range(c, n)]
    return _graph_factor(Graph(vs, edges))


def _mutated(rng, facets: list, vertices: list) -> list:
    """The facets with one of them changed: a vertex swapped for another
    vertex of the cover or for one outside it, a vertex dropped, or one
    added."""
    facets = [list(f) for f in facets]
    f = rng.choice(facets)
    how = rng.choice(("swap", "outside", "drop", "add"))
    if how == "swap":
        f[rng.randrange(len(f))] = rng.choice(vertices)
    elif how == "outside":
        f[rng.randrange(len(f))] = "zz"
    elif how == "drop" and len(f) > 1:
        f.pop(rng.randrange(len(f)))
    else:
        f.append(rng.choice(vertices))
    return [sorted(set(g)) for g in facets]


def test_subcomplex_of_factors_agrees_with_the_join():
    # against the built join, and against its faces listed one by one
    rng = random.Random(17)
    verdicts = {True: 0, False: 0}
    for _ in range(150):
        cover = [_random_factor(rng, k) for k in range(rng.randint(1, 3))]
        factors = join_of_factors(cover)
        gamma = reduce(join, factors)
        pool = gamma.facet_labels()
        gamma_faces = set(bf.faces_from_facets(pool))
        for _ in range(6):
            facets = rng.sample(pool, rng.randint(1, min(4, len(pool))))
            if rng.random() < 0.6:
                facets = _mutated(rng, facets, list(gamma.vertices))
            delta = SimplicialComplex(facets)
            verdict = is_full_dimensional_subcomplex(delta, *factors)
            assert verdict == is_full_dimensional_subcomplex(delta, gamma), \
                (cover, facets)
            assert verdict == (delta.dim == gamma.dim and gamma_faces.issuperset(
                bf.faces_from_facets(facets))), (cover, facets)
            verdicts[verdict] += 1
    assert min(verdicts.values()) > 200, verdicts


def test_subcomplex_of_factors_rejects_colliding_labels():
    with pytest.raises(ComplexError,
                       match=r"^join with colliding vertex labels: \['b'\]$"):
        is_full_dimensional_subcomplex(SimplicialComplex([["a", "b"]]),
                                       SimplicialComplex([["a"], ["b"]]),
                                       SimplicialComplex([["b"]]))


# every CoverError message the witness can reach, each with its trigger

def _two_pentagons(removed=None) -> dict:
    # triangle-free and odd, and no one edge removal makes it bipartite
    both = disjoint_union(cycle_graph(5, "a"), cycle_graph(5, "b"))
    return _graph_factor(both, removed)


_SQUARE_EDGES = SimplicialComplex([("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
_A_TO_E = SimplicialComplex([("a1", "a2"), ("a2", "a3"), ("a3", "a4"),
                             ("a4", "a5"), ("a5", "a1")])
_PATH = {"type": "graph", "vertices": ["a", "b", "c"],
         "edges": [["a", "b"], ["b", "c"]]}
_FULL_DIM = "complex is not a full-dimensional subcomplex of the cover join"
_REACHABLE_COVER_ERRORS = [
    ("empty_cover", _SQUARE_EDGES, [],
     "cover must be a non-empty list of factors"),
    ("bad_type", _SQUARE_EDGES, [{"type": "blob", "vertices": ["a"]}],
     "factor 0: type must be 'points' or 'graph'"),
    ("vertices_not_a_list", _SQUARE_EDGES, [{"type": "points", "vertices": "ab"}],
     "factor 0: vertices must be a list"),
    ("label_not_a_string", _SQUARE_EDGES,
     [{"type": "points", "vertices": ["a", None]}],
     "factor 0: vertices holds a label that is not a string or a number"),
    ("no_vertices", _SQUARE_EDGES, [{"type": "points", "vertices": []}],
     "factor 0: no vertices"),
    ("repeated_label", _SQUARE_EDGES, [{"type": "points", "vertices": ["1", 1]}],
     "factor 0: repeated vertex label"),
    ("edges_not_a_list", _SQUARE_EDGES,
     [dict(_PATH, edges={"a": "b"})], "factor 0: edges must be a list"),
    ("edge_not_a_pair", _SQUARE_EDGES,
     [dict(_PATH, edges=[["a", "b", "c"]])],
     "factor 0: each edge must be a list of 2 labels"),
    ("edge_is_a_loop", _SQUARE_EDGES,
     [dict(_PATH, edges=[["a", "b"], ["b", "b"]])],
     "factor 0: edge ('b', 'b') is a loop"),
    ("edge_endpoint_outside_the_factor", _SQUARE_EDGES,
     [dict(_PATH, edges=[["a", "z"]])],
     "factor 0: edge ('a', 'z') has an endpoint 'z' that is not a vertex of "
     "the factor"),
    ("point_factor_with_edges", _SQUARE_EDGES,
     [dict(_PATH, type="points")], "factor 0: point factors have no edges"),
    ("point_factor_with_removed_edge", _SQUARE_EDGES,
     [{"type": "points", "vertices": ["a", "b"], "removed_edge": ["a", "b"]}],
     "factor 0: point factors have no removed_edge"),
    ("removed_edge_not_a_pair", _SQUARE_EDGES,
     [dict(_PATH, removed_edge="ab")],
     "factor 0: a non-null removed_edge must be a list of 2 labels"),
    ("removed_edge_not_an_edge", _SQUARE_EDGES,
     [dict(_PATH, removed_edge=["a", "c"])],
     "factor 0: removed edge ('a', 'c') is not an edge of the factor"),
    # three ways to fail the subcomplex test: the pentagon's vertices as
    # points lie in its cover but have too small a dimension; a vertex
    # outside the cover; and the 5-cycle's edges, each a non-edge of the
    # pentagram that covers it
    ("wrong_dimension", SimplicialComplex([[v] for v in _pentagram().vertices]),
     [_graph_factor(_pentagram())], _FULL_DIM),
    ("vertex_outside_the_cover", SimplicialComplex([("a", "c"), ("a", "z")]),
     [_points_factor(["a", "b"]), _points_factor(["c", "d"])], _FULL_DIM),
    ("trace_is_a_non_edge", SimplicialComplex(cycle_graph(5).edge_labels()),
     [_graph_factor(_pentagram())], _FULL_DIM),
    ("not_cohen_macaulay", SimplicialComplex([("a", "c"), ("b", "d")]),
     [_points_factor(["a", "b"]), _points_factor(["c", "d"])],
     "complex is not Cohen-Macaulay: link of [] has homology in degree 0"),
    ("triangle", SimplicialComplex([("a", "b"), ("b", "c"), ("a", "c")]),
     [dict(_PATH, edges=[["a", "b"], ["b", "c"], ["a", "c"]])],
     "graph factor contains a triangle"),
    ("no_fixing_edge", _A_TO_E, [_two_pentagons()],
     "no single edge removal makes the factor bipartite"),
    ("removed_edge_leaves_an_odd_cycle", _A_TO_E, [_two_pentagons(["a1", "a2"])],
     "graph factor minus the chosen edge is still odd"),
]

# raised by the pair constructions, which balanced_witness never lets fail
_UNREACHABLE_COVER_ERRORS = [
    # parse_cover rejects an empty factor, and a bipartition's empty side
    # is skipped
    "a point factor needs at least one vertex",
    # a bipartite graph factor is split into two point factors first
    "graph factor is bipartite: split it into two point factors",
    # the subcomplex test rejects colliding labels first, as a ComplexError
    "joined factors share vertex labels",
    # both base pairs build their twists in the block shape
    "twist matrix is not in the block shape",
]


@pytest.mark.parametrize("delta, cover, message",
                         [case[1:] for case in _REACHABLE_COVER_ERRORS],
                         ids=[case[0] for case in _REACHABLE_COVER_ERRORS])
def test_witness_cover_error_messages(delta, cover, message):
    with pytest.raises(CoverError) as caught:
        balanced_witness(delta, cover)
    assert str(caught.value) == message


def test_every_cover_error_message_is_in_the_table():
    # each literal piece of each CoverError message in the module is part of
    # a message above, so a new message needs a trigger in the table
    tree = ast.parse(Path(balancing.__file__).read_text(encoding="utf-8"))
    pieces = {node.value for call in ast.walk(tree)
              if isinstance(call, ast.Call)
              and getattr(call.func, "id", None) == "CoverError"
              for node in ast.walk(call)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    messages = [case[-1] for case in _REACHABLE_COVER_ERRORS]
    messages += _UNREACHABLE_COVER_ERRORS
    assert pieces and not [p for p in pieces
                           if not any(p in m for m in messages)]


# the cover join is never built, and the subcomplex test runs once

def test_witness_never_builds_the_cover_join(monkeypatch):
    # the join of two pentagrams and two points has 5 * 5 * 2 = 50 facets;
    # Ind(C5 + C5) coned from one of the points has 25
    pentagrams = [independence_complex(cycle_graph(5, p)).one_skeleton()
                  for p in "ab"]
    cover = [_graph_factor(g) for g in pentagrams] + [_points_factor(["p", "q"])]
    both = independence_complex(disjoint_union(cycle_graph(5, "a"),
                                               cycle_graph(5, "b")))
    delta = SimplicialComplex([f + ("p",) for f in both.facet_labels()])
    built = []
    init = SimplicialComplex.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(len(self.facets))

    monkeypatch.setattr(SimplicialComplex, "__init__", recording)
    witness = balanced_witness(delta, cover)
    assert all(witness.checks.values())
    assert built and 50 not in built


@pytest.mark.parametrize("resample", [False, True])
def test_witness_tests_the_subcomplex_once(monkeypatch, resample):
    calls, attempts = [], []
    real_test = balancing.is_full_dimensional_subcomplex

    def counting(*args):
        calls.append(args)
        return real_test(*args)

    def fail_first(*args):
        attempts.append(args)
        if resample and len(attempts) == 1:
            raise VerificationError("first attempt fails")
        return standard_monomial_basis(*args)

    monkeypatch.setattr(balancing, "is_full_dimensional_subcomplex", counting)
    monkeypatch.setattr(balancing, "standard_monomial_basis", fail_first)
    pentagon = independence_complex(cycle_graph(5))
    witness = balanced_witness(pentagon, [_graph_factor(_pentagram())])
    assert witness.specialization.attempt == int(resample)
    assert len(calls) == 1


def test_witness_is_deterministic_given_seed():
    pentagon = independence_complex(cycle_graph(5))
    cover = [_graph_factor(_pentagram())]
    w1 = balanced_witness(pentagon, cover, seed=5)
    w2 = balanced_witness(pentagon, cover, seed=5)
    assert json.dumps(w1.to_json_obj(), sort_keys=True) == \
        json.dumps(w2.to_json_obj(), sort_keys=True)


def test_witness_json_fields():
    pentagon = independence_complex(cycle_graph(5))
    obj = balanced_witness(pentagon, [_graph_factor(_pentagram())]).to_json_obj()
    assert obj["h"] == [1, 3, 1]
    assert obj["F"] == [1, 3, 1]
    assert len(obj["basis"]) == 5
    assert obj["checks"] == {"block_degree": True, "divisibility_closure": True,
                             "f_matches_h": True, "kind_kleinschmidt": True,
                             "proper_coloring": True, "squarefree": True}
    assert sorted(obj["coloring"]) == sorted(v for b in obj["blocks"] for v in b)
    assert obj["twist"]["variables"] == obj["order"]
    assert all("/" in entry for row in obj["twist"]["matrix"] for entry in row)


def test_witness_survives_awkward_seed():
    pentagon = independence_complex(cycle_graph(5))
    for seed in (0, 1, 2, 123456):
        witness = balanced_witness(pentagon, [_graph_factor(_pentagram())],
                                   seed=seed)
        assert all(witness.checks.values())


@pytest.mark.parametrize("error", [StandardBasisOverflow, VerificationError])
def test_witness_resamples_after_a_failed_attempt(monkeypatch, error):
    calls = []

    def fail_first(*args):
        calls.append(args)
        if len(calls) == 1:
            raise error("first attempt fails")
        return standard_monomial_basis(*args)

    monkeypatch.setattr(balancing, "standard_monomial_basis", fail_first)
    pentagon = independence_complex(cycle_graph(5))
    witness = balanced_witness(pentagon, [_graph_factor(_pentagram())])
    assert len(calls) == 2
    assert witness.specialization.attempt == 1
    assert all(witness.checks.values())


def test_compose_is_associative():
    p1 = base_pair_points(("a", "b"))
    p2 = base_pair_near_bipartite(_pentagram(), None, Specialization())
    p3 = base_pair_points(("x", "y", "z"))
    left = compose_pairs(compose_pairs(p1, p2), p3)
    right = compose_pairs(p1, compose_pairs(p2, p3))
    assert left.order == right.order
    assert left.blocks == right.blocks
    assert left.matrix.matrix == right.matrix.matrix


def test_witness_on_impure_cover_with_unused_vertex():
    # one factor is a path plus an isolated vertex, so the join is impure;
    # the chosen subcomplex is a simplex avoiding the isolated vertex
    factor = {"type": "graph", "vertices": ["u", "v", "w"],
              "edges": [["u", "v"]], "removed_edge": None}
    cover = [factor, _points_factor(["p"])]
    delta = SimplicialComplex([["u", "v", "p"]])
    witness = balanced_witness(delta, cover)
    assert witness.basis.f_vector() == (1,)  # a simplex has trivial h past h_0
    assert all(witness.checks.values())


def test_witness_subcomplex_missing_a_point():
    # the subcomplex omits one vertex of the cover entirely
    cover = [_points_factor(["a", "b", "c"])]
    delta = SimplicialComplex([["a"], ["b"]])
    witness = balanced_witness(delta, cover)
    assert witness.basis.f_vector() == (1, 1)
    assert all(witness.checks.values())


def test_witness_with_disconnected_graph_factor():
    # a pentagon plus a far-away edge form one graph factor; the subcomplex
    # is a cone over the pentagon that never touches the extra component
    factor = {"type": "graph",
              "vertices": [f"a{i}" for i in range(1, 6)] + ["k1", "k2"],
              "edges": [[f"a{i}", f"a{i % 5 + 1}"] for i in range(1, 6)]
                       + [["k1", "k2"]],
              "removed_edge": None}
    cover = [factor, _points_factor(["p", "q"])]
    delta = SimplicialComplex([[f"a{i}", f"a{i % 5 + 1}", "p"]
                               for i in range(1, 6)])
    witness = balanced_witness(delta, cover)
    assert witness.basis.f_vector() == (1, 3, 1)
    assert h_from_f(delta.f_vector()) == (1, 3, 1, 0)
    assert all(witness.checks.values())
