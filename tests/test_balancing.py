import json
from fractions import Fraction

import pytest

from conftest import (check_sweep, cycle_graph, disjoint_union,
                      identity_automorphism)
from facebalance import balancing
from facebalance.balancing import (BalancingPair, CoverError,
                                   VerificationError, balanced_witness,
                                   base_pair_near_bipartite, base_pair_points,
                                   compose_pairs, factor_complex,
                                   inherit_to_subcomplex, join_of_factors,
                                   kind_kleinschmidt, parse_cover)
from facebalance.complexes import (Graph, SimplicialComplex, convolve,
                                   h_from_f, independence_complex, is_proper)
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
    for v in order.free():
        assert order.monomial_of((v, v)) in result[0]
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
    join = SimplicialComplex([["a"], ["b"]]).join(
        SimplicialComplex([["x"], ["y"], ["z"]]))
    basis = standard_monomial_basis(join, pair.matrix, pair.order)
    assert basis.f_vector() == h_from_f(join.f_vector())  # (1, 3, 2)
    assert basis.is_squarefree()


def test_composed_pentagon_pairs_count_join_h():
    g1 = independence_complex(cycle_graph(5, "a")).one_skeleton()
    g2 = independence_complex(cycle_graph(5, "b")).one_skeleton()
    pair = compose_pairs(
        base_pair_near_bipartite(g1, None, Specialization()),
        base_pair_near_bipartite(g2, None, Specialization()))
    both = disjoint_union(cycle_graph(5, "a"), cycle_graph(5, "b"))
    join = independence_complex(both)
    basis = standard_monomial_basis(join, pair.matrix, pair.order)
    assert basis.f_vector() == convolve((1, 3, 1), (1, 3, 1)) == (1, 6, 11, 6, 1)
    ok, _ = kind_kleinschmidt(join, pair)
    assert ok


# ---------------------------------------------------------------------------
# inheritance
# ---------------------------------------------------------------------------

def test_inherit_identity_case():
    pentagon = independence_complex(cycle_graph(5))
    pair = base_pair_near_bipartite(_pentagram(), None, Specialization())
    assert inherit_to_subcomplex(pair, pentagon, pentagon) is pair


def test_inherit_to_facet_deleted_subcomplex():
    pentagon = independence_complex(cycle_graph(5))
    facets = pentagon.facet_labels()
    smaller = SimplicialComplex(facets[:-1])
    pair = base_pair_near_bipartite(_pentagram(), None, Specialization())
    pair = inherit_to_subcomplex(pair, smaller, pentagon)
    basis = standard_monomial_basis(smaller, pair.matrix, pair.order)
    h = h_from_f(smaller.f_vector())  # (1, 3, 0): the last facet carried h_2
    padded = basis.f_vector() + (0,) * (len(h) - len(basis.f_vector()))
    assert padded == h


def test_inherit_rejects_wrong_dimension():
    pentagon = independence_complex(cycle_graph(5))
    points = SimplicialComplex([[v] for v in pentagon.vertices])
    pair = base_pair_near_bipartite(_pentagram(), None, Specialization())
    with pytest.raises(CoverError):
        inherit_to_subcomplex(pair, points, pentagon)


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
    joined = join_of_factors([_points_factor(["a"]), _points_factor(["b"])])
    assert joined.f_vector() == (1, 2, 1)


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
    delta = SimplicialComplex([["a"], ["b"]]).join(SimplicialComplex([["x"], ["y"]]))
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
