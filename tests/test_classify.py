import itertools
import json
import math
import random

import pytest

import bruteforce as bf
from conftest import (beta, cycle_graph, disjoint_union, join,
                      overlinked_pentagon_graph, path_graph, turan_graph)
from facebalance.balancing import join_of_factors
from facebalance.cli import _turan_counts, main
from facebalance.classify import (basic_5_cycles, classify_girth5,
                                  embed_in_join, exceptional_catalog, girth,
                                  independent_facet_transversal, is_isomorphic,
                                  is_well_covered, pendant_edges,
                                  pg_decomposition)
from facebalance.complexes import (ComplexError, Graph, SimplicialComplex,
                                   independence_complex,
                                   is_full_dimensional_subcomplex)
from facebalance.samples import flag_sphere_graph, pg_sample_graph


def _corona_cycle(n: int) -> Graph:
    """An n-cycle with one pendant vertex hanging off every cycle vertex."""
    g = cycle_graph(n)
    verts = list(g.vertices) + [f"q{i}" for i in range(n)]
    edges = g.edge_labels() + [(g.vertices[i], f"q{i}") for i in range(n)]
    return Graph(verts, edges)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_girth():
    assert girth(cycle_graph(4)) == 4
    assert girth(cycle_graph(5)) == 5
    assert girth(cycle_graph(7)) == 7
    assert girth(path_graph(6)) == math.inf
    assert girth(pg_sample_graph()) == 5
    assert girth(turan_graph(3, 3)) == 3
    assert girth(turan_graph(6, 3)) == 3


def test_beta_and_well_covered():
    assert beta(cycle_graph(7)) == 3
    assert is_well_covered(cycle_graph(7))
    k2 = path_graph(2)
    assert beta(k2) == 1 and is_well_covered(k2)
    assert not is_well_covered(path_graph(3))
    assert not is_well_covered(cycle_graph(6))


def test_beta_against_bruteforce():
    # disjoint unions of one to three random parts: beta adds over components
    rng = random.Random(67)
    for _ in range(20):
        parts = []
        for k in range(rng.randint(1, 3)):
            verts = [f"c{k}v{i}" for i in range(rng.randint(1, 4))]
            parts.append(Graph(verts, [e for e in itertools.combinations(verts, 2)
                                       if rng.random() < 0.35]))
        g = disjoint_union(*parts)
        assert beta(g) == max(len(s) for s in
                              bf.independent_subsets(g.vertices, g.edge_labels()))


def test_pendant_edges():
    assert pendant_edges(path_graph(2)) == [("p1", "p2")]
    assert pendant_edges(cycle_graph(5)) == []
    pg = pg_sample_graph()
    assert pendant_edges(pg) == [("K", "L")]


def test_pendant_matching_on_high_girth_well_covered():
    corona = _corona_cycle(8)
    assert girth(corona) == 8
    dec = pg_decomposition(corona)
    assert dec is not None and not dec.basic_cycles
    assert len(dec.pendant_edges) == 8 and len(dec.pendant_vertices) == 16
    assert is_well_covered(corona)
    assert beta(corona) == len(corona.vertices) // 2


def test_pendant_pair_classes_color_the_independence_complex():
    from facebalance.complexes import is_proper

    corona = _corona_cycle(8)
    ind = independence_complex(corona)
    dec = pg_decomposition(corona)
    coloring = {v: i for i, e in enumerate(dec.pendant_edges) for v in e}
    assert is_proper(ind, coloring)
    assert len(dec.pendant_edges) == ind.dim + 1  # a balanced coloring


# ---------------------------------------------------------------------------
# basic 5-cycles
# ---------------------------------------------------------------------------

def test_plain_pentagon_is_basic():
    assert len(basic_5_cycles(cycle_graph(5))) == 1


def test_sample_graph_has_two_basic_pentagons():
    cycles = basic_5_cycles(pg_sample_graph())
    assert len(cycles) == 2
    assert {frozenset(c) for c in cycles} == {frozenset("ABCDE"), frozenset("FGHIJ")}


def test_adjacent_branch_vertices_break_basicness():
    g = cycle_graph(5)
    verts = list(g.vertices) + ["x", "y"]
    edges = g.edge_labels() + [("1", "x"), ("2", "y")]  # 1 and 2 are adjacent
    assert basic_5_cycles(Graph(verts, edges)) == []


def test_second_bridge_destroys_one_basic_pentagon():
    assert len(basic_5_cycles(overlinked_pentagon_graph())) == 1


def _check_against_subsets(g):
    found = basic_5_cycles(g)
    assert found == bf.basic_5_cycles(g.vertices, g.edge_labels())
    return found


def test_basic_5_cycles_match_subsets_on_pentagon_unions():
    rng = random.Random(73)
    with_cycle = 0
    for trial in range(300):
        parts = [cycle_graph(5, f"c{k}_") for k in range(rng.randint(1, 3))]
        parts.append(Graph([f"i{k}" for k in range(rng.randint(0, 3))], []))
        base = disjoint_union(*parts)
        verts = list(base.vertices)
        extra = [tuple(rng.sample(verts, 2)) for _ in range(rng.randint(0, 6))]
        rng.shuffle(verts)
        g = Graph(verts, base.edge_labels() + extra)
        with_cycle += bool(_check_against_subsets(g))
    # the extra edges destroy some basic cycles but not all of them
    assert 100 < with_cycle < 300


def test_basic_5_cycles_match_subsets_on_random_graphs():
    rng = random.Random(79)
    for trial in range(200):
        n = rng.randint(0, 11)
        p = rng.choice([0.15, 0.3, 0.5, 0.8])
        verts = [f"v{i}" for i in range(n)]
        rng.shuffle(verts)
        _check_against_subsets(
            Graph(verts, [e for e in itertools.combinations(verts, 2)
                          if rng.random() < p]))


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_sample_graph_decomposition():
    dec = pg_decomposition(pg_sample_graph())
    assert dec is not None
    assert len(dec.pendant_edges) == 1 and len(dec.basic_cycles) == 2
    assert dec.beta == 5 == beta(pg_sample_graph())
    assert set(dec.pendant_vertices) == {"K", "L"}
    assert set(dec.cycle_vertices) == set("ABCDEFGHIJ")
    # well-covered, so the independence complex is pure
    assert independence_complex(pg_sample_graph()).is_pure()


def test_k2_decomposition_is_all_pendant():
    dec = pg_decomposition(path_graph(2))
    assert dec is not None
    assert dec.cycle_vertices == () and len(dec.pendant_edges) == 1


def test_heptagon_has_no_decomposition():
    assert pg_decomposition(cycle_graph(7)) is None


def test_overlinked_variant_has_no_decomposition():
    assert pg_decomposition(overlinked_pentagon_graph()) is None


# ---------------------------------------------------------------------------
# the exceptional catalog
# ---------------------------------------------------------------------------

def test_catalog_edge_counts():
    counts = {name: len(g.edges()) for name, g in exceptional_catalog().items()}
    assert counts == {"C7": 7, "P10": 12, "P13": 17, "P14": 21, "Q13": 18}


def test_catalog_girths():
    for name, g in exceptional_catalog().items():
        assert girth(g) == (7 if name == "C7" else 5)


def test_catalog_graphs_are_well_covered_and_connected():
    for g in exceptional_catalog().values():
        assert g.is_connected()
        assert is_well_covered(g)


def test_catalog_alias(capsys):
    results = []
    for name in ("Q14", "Q13"):
        assert main(["--json", "catalog", "--name", name]) == 0
        results.append(json.loads(capsys.readouterr().out)["results"])
    assert results[0].pop("name") == "Q14" and results[1].pop("name") == "Q13"
    assert results[0] == results[1]


def test_catalog_vertex_counts():
    sizes = {name: len(g.vertices) for name, g in exceptional_catalog().items()}
    assert sizes == {"C7": 7, "P10": 10, "P13": 13, "P14": 14, "Q13": 13}


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------

def test_isomorphism_accepts_relabelings():
    rng = random.Random(71)
    for g in (cycle_graph(5), pg_sample_graph(), exceptional_catalog()["P10"]):
        perm = list(g.vertices)
        rng.shuffle(perm)
        mapping = dict(zip(g.vertices, perm))
        h = Graph(perm, [(mapping[u], mapping[w]) for u, w in g.edge_labels()])
        assert is_isomorphic(g, h)


def test_isomorphism_rejects_different_graphs():
    assert not is_isomorphic(cycle_graph(5), path_graph(5))
    assert not is_isomorphic(cycle_graph(6), cycle_graph(5))
    catalog = exceptional_catalog()
    assert not is_isomorphic(catalog["P13"], catalog["Q13"])


def test_isomorphism_against_the_catalog_needs_no_budget(monkeypatch):
    # classify only compares with catalog graphs, all of at most 14
    # vertices: a graph of another size is rejected on its vertex count
    # alone, before any adjacency is read or any backtracking starts
    catalog = exceptional_catalog()
    assert max(len(g.vertices) for g in catalog.values()) == 14
    big, ring = cycle_graph(5000), cycle_graph(14)
    slot = Graph.nb

    def no_adjacency(self):
        raise AssertionError("adjacency read")

    monkeypatch.setattr(Graph, "nb", property(no_adjacency))
    with pytest.raises(AssertionError):
        big.nb
    assert not is_isomorphic(big, catalog["P14"])
    # same vertex count, another edge count: the edge counts are the
    # popcount sums of nb, so each graph's adjacency is read once, and the
    # search, which reads it again, never starts
    reads = []

    def counted(self):
        reads.append(self)
        return slot.__get__(self)

    monkeypatch.setattr(Graph, "nb", property(counted))
    assert not is_isomorphic(ring, catalog["P14"])
    assert len(reads) == 2 and reads[0] is ring


def test_isomorphism_on_regular_lookalikes():
    # same degree sequence, different structure: C6 vs two triangles
    two_triangles = disjoint_union(cycle_graph(3, "a"), cycle_graph(3, "b"))
    assert not is_isomorphic(cycle_graph(6), two_triangles)
    # both 3-regular on 6 vertices: one bipartite, one with triangles
    k33 = Graph([f"v{i}" for i in range(6)],
                [(f"v{i}", f"v{j}") for i in (0, 1, 2) for j in (3, 4, 5)])
    prism = Graph([f"v{i}" for i in range(6)],
                  [("v0", "v1"), ("v1", "v2"), ("v2", "v0"),
                   ("v3", "v4"), ("v4", "v5"), ("v5", "v3"),
                   ("v0", "v3"), ("v1", "v4"), ("v2", "v5")])
    assert not is_isomorphic(k33, prism)


def _shortest_induced_cycle(g: Graph):
    lengths = bf.induced_cycle_lengths(g.vertices, g.edge_labels())
    return min(lengths) if lengths else math.inf


def _with_pendants(g: Graph, at) -> Graph:
    return Graph(list(g.vertices) + [f"{v}_leaf" for v in at],
                 g.edge_labels() + [(v, f"{v}_leaf") for v in at])


def _binary_tree(n: int, prefix: str = "t") -> Graph:
    verts = [f"{prefix}{i}" for i in range(n)]
    return Graph(verts, [(verts[i], verts[(i - 1) // 2]) for i in range(1, n)])


def _hung(tree: Graph, cycle: Graph, at: str) -> Graph:
    """``cycle`` hung off the vertex ``at`` of ``tree`` by a bridge; the
    tree's vertices come first and reversed, so that the leaves of a
    binary tree lead the vertex order."""
    return Graph(list(tree.vertices)[::-1] + list(cycle.vertices),
                 tree.edge_labels() + cycle.edge_labels()
                 + [(at, cycle.vertices[0])])


def test_girth_against_bruteforce_on_shaped_graphs():
    star = Graph(["hub"] + [f"l{i}" for i in range(12)],
                 [("hub", f"l{i}") for i in range(12)])
    cases = [
        # forests, where only a vertex of degree 2 or more is a root: a
        # star with its hub first and last, and a long path
        star,
        Graph(list(star.vertices)[::-1], star.edge_labels()),
        path_graph(15),
        # a tree with one short cycle hung off a leaf or an inner vertex
        _hung(_binary_tree(10), cycle_graph(3, "c"), "t9"),
        _hung(_binary_tree(9), cycle_graph(5, "c"), "t8"),
        _hung(_binary_tree(9), cycle_graph(5, "c"), "t1"),
        _hung(path_graph(10), cycle_graph(3, "c"), "p10"),
        # the longer cycle comes first in the vertex order, so every BFS
        # from it sets a bound the shorter one must still get under
        disjoint_union(cycle_graph(6, "a"), cycle_graph(5, "b")),
        disjoint_union(cycle_graph(9, "a"), cycle_graph(4, "b")),
        disjoint_union(cycle_graph(7, "a"), turan_graph(3, 3)),
        disjoint_union(path_graph(4, "p"), cycle_graph(6, "a"), path_graph(3, "q")),
        disjoint_union(path_graph(5, "p"), path_graph(2, "q")),
        turan_graph(3, 3),
        _with_pendants(cycle_graph(11), ["1", "4", "8"]),
        _with_pendants(cycle_graph(9), ["2", "3"]),
        _corona_cycle(6),
    ]
    # a 5-cycle reached late: a 7-cycle first, then a long path to the pentagon
    c7, c5 = cycle_graph(7, "a"), cycle_graph(5, "b")
    cases.append(Graph(list(c7.vertices) + ["m1", "m2"] + list(c5.vertices),
                       c7.edge_labels() + c5.edge_labels()
                       + [("a4", "m1"), ("m1", "m2"), ("m2", "b3")]))
    for g in cases:
        assert girth(g) == _shortest_induced_cycle(g), g


def test_girth_agrees_with_shortest_induced_cycle():
    # a shortest cycle is always chordless, so the two routes must agree;
    # unions of one to three random parts, in a shuffled vertex order
    rng = random.Random(83)
    for _ in range(60):
        parts = []
        for k in range(rng.randint(1, 3)):
            verts = [f"c{k}v{i}" for i in range(rng.randint(1, 5))]
            parts.append(Graph(verts, [e for e in itertools.combinations(verts, 2)
                                       if rng.random() < 0.4]))
        g = disjoint_union(*parts)
        verts = list(g.vertices)
        rng.shuffle(verts)
        assert girth(Graph(verts, g.edge_labels())) == _shortest_induced_cycle(g)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_examples():
    assert classify_girth5(cycle_graph(7)).kind == "Exceptional"
    assert classify_girth5(cycle_graph(7)).name == "C7"
    assert classify_girth5(pg_sample_graph()).kind == "PG"
    assert classify_girth5(cycle_graph(6)).kind == "NotWellCovered"
    assert classify_girth5(cycle_graph(4)).kind == "GirthTooSmall"
    assert classify_girth5(Graph(["x"], [])).kind == "K1"
    assert classify_girth5(overlinked_pentagon_graph()).kind == "NotWellCovered"


def test_classify_relabelled_exceptional():
    g = exceptional_catalog()["P10"]
    relabeled = Graph([f"w{v}" for v in g.vertices],
                      [(f"w{u}", f"w{w}") for u, w in g.edge_labels()])
    verdict = classify_girth5(relabeled)
    assert verdict.kind == "Exceptional" and verdict.name == "P10"


def test_classify_requires_connected():
    with pytest.raises(ComplexError):
        classify_girth5(disjoint_union(cycle_graph(5, "a"), cycle_graph(5, "b")))


def test_classify_verdict_json():
    obj = classify_girth5(pg_sample_graph()).to_json_obj()
    assert obj["kind"] == "PG"
    assert obj["decomposition"]["beta"] == 5


# ---------------------------------------------------------------------------
# the covering join
# ---------------------------------------------------------------------------

def test_embed_single_pentagon():
    cover, cert = embed_in_join(cycle_graph(5))
    assert len(cover) == 1 and cover[0]["type"] == "graph"
    assert cert["dim_matches"]
    assert is_full_dimensional_subcomplex(independence_complex(cycle_graph(5)),
                                          *join_of_factors(cover))


def test_embed_sample_graph():
    g = pg_sample_graph()
    cover, cert = embed_in_join(g)
    kinds = sorted(f["type"] for f in cover)
    assert kinds == ["graph", "graph", "points"]
    assert cert["dim_matches"] and cert["expected_tail"] == 5
    assert is_full_dimensional_subcomplex(independence_complex(g),
                                          *join_of_factors(cover))


def test_embed_two_disjoint_edges():
    g = disjoint_union(path_graph(2, "a"), path_graph(2, "b"))
    cover, cert = embed_in_join(g)
    assert all(f["type"] == "points" for f in cover) and len(cover) == 2
    ind = independence_complex(g)
    # the independence complex is the whole join (a 4-cycle complex)
    assert ind.f_vector() == join(*join_of_factors(cover)).f_vector() == (1, 4, 4)


def test_embed_finds_beta_one_component_at_a_time(monkeypatch):
    # beta over the whole graph would enumerate the product of the
    # components' maximal independent sets: 11^8 for eight pentagons
    import facebalance.classify as classify
    from facebalance.complexes import _components, _maximal_independent_masks

    def connected_only(nb, within):
        if len(_components(nb, within)) != 1:
            pytest.fail("maximal independent sets of a disconnected graph")
        return _maximal_independent_masks(nb, within)

    monkeypatch.setattr(classify, "_maximal_independent_masks", connected_only)
    g = disjoint_union(*(cycle_graph(5, f"c{k}_") for k in range(8)))
    cover, cert = embed_in_join(g)
    assert len(cover) == 8
    assert cert["expected_tail"] == 16 and cert["dim_matches"]


def test_embed_rejects_exceptional_components():
    with pytest.raises(ComplexError, match="C7"):
        embed_in_join(cycle_graph(7))


def test_embed_isolated_vertices_become_point_factors():
    g = Graph(["z"], [])
    cover, cert = embed_in_join(g)
    assert cover == [{"type": "points", "vertices": ["z"], "edges": [],
                      "removed_edge": None}]
    assert cert["dim_matches"]


# ---------------------------------------------------------------------------
# facet transversals
# ---------------------------------------------------------------------------

def test_transversal_single_facet():
    cx = SimplicialComplex([["a", "b", "c"]])
    hit = independent_facet_transversal(cx)
    assert hit is not None and set(hit) & {"a", "b", "c"}


def test_transversal_in_a_point_join():
    points = SimplicialComplex([["p"], ["q"]])
    other = SimplicialComplex([["x", "y"], ["y", "z"]])
    cx = join(points, other)
    hit = independent_facet_transversal(cx)
    assert hit is not None
    assert all(set(hit) & set(f) for f in cx.facet_labels())


def test_transversal_absent_on_flag_sphere():
    from facebalance.complexes import clique_complex
    sphere = clique_complex(flag_sphere_graph())
    assert independent_facet_transversal(sphere) is None


def test_transversal_requires_pure():
    with pytest.raises(ComplexError):
        independent_facet_transversal(SimplicialComplex([["a", "b"], ["c"]]))


def _transversal_oracle(delta: SimplicialComplex):
    """The least label tuple among the maximal independent sets of the
    1-skeleton that meet every facet, or None, by enumeration."""
    facets = [set(f) for f in delta.facet_labels()]
    edges = {p for f in delta.facet_labels() for p in itertools.combinations(f, 2)}
    indep = bf.independent_subsets(delta.vertices, edges)
    maximal = [s for s in indep if not any(set(s) < set(t) for t in indep)]
    hits = [s for s in maximal if all(set(s) & f for f in facets)]
    return min(hits, default=None)


def test_transversal_agrees_with_a_bruteforce_oracle():
    # pure complexes whose vertex order is not the order of their labels,
    # plus the complex of the empty face alone, which no set meets
    rng = random.Random(28)
    cases = [SimplicialComplex([[]])]
    for _ in range(300):
        size = rng.randint(1, 4)
        n = rng.randint(size, 8)
        labels = [f"v{rng.randrange(100)}" for _ in range(n)]
        facets = rng.sample(list(itertools.combinations(range(n), size)),
                            min(rng.randint(1, 6), math.comb(n, size)))
        if len(set(labels)) == n:
            cases.append(SimplicialComplex([[labels[i] for i in f] for f in facets]))
    found = 0
    for delta in cases:
        expected = _transversal_oracle(delta)
        assert independent_facet_transversal(delta) == expected, delta
        found += expected is not None
    # both answers occur often
    assert 20 < found < len(cases) - 20


# ---------------------------------------------------------------------------
# extremal counts
# ---------------------------------------------------------------------------

def test_turan_counts():
    # the oracle itself, on the pinned T(7, 3)
    t = turan_graph(7, 3)
    assert len(t.edges()) == 16
    assert bf.count_triangles(t.vertices, t.edge_labels()) == 12
    assert not bf.has_k4(t.vertices, t.edge_labels())


def test_turan_counts_match_the_brute_force_graph(capsys):
    # the f-vector of the join of the parts against every edge and triple
    for n in range(1, 16):
        for r in range(1, n + 1):
            t = turan_graph(n, r)
            assert main(["--json", "turan", str(n), str(r)]) == 0
            report = json.loads(capsys.readouterr().out)["results"]
            assert report["edges"] == len(t.edges()), (n, r)
            assert report["triangles"] == bf.count_triangles(
                t.vertices, t.edge_labels()), (n, r)


def test_turan_counts_on_many_parts():
    # T(n, n) is the complete graph; the counts are a closed form in the
    # two part sizes, so any number of parts answers at once
    for n in (100_000, 10**9):
        assert _turan_counts(n, n) == (math.comb(n, 2), math.comb(n, 3))


def test_turan_validates_arguments(capsys):
    for n, r in ((3, 5), (3, 0), (0, 0), (-2, -3)):
        assert main(["--json", "turan", str(n), str(r)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: need 1 <= r <= n\n"


# ---------------------------------------------------------------------------
# induced cycles
# ---------------------------------------------------------------------------

def test_induced_cycle_lengths():
    def lengths(g):
        return bf.induced_cycle_lengths(g.vertices, g.edge_labels())

    assert lengths(cycle_graph(5)) == {5}
    assert lengths(cycle_graph(6)) == {6}
    assert lengths(path_graph(4)) == set()
    assert lengths(pg_sample_graph()) == {5}
    assert lengths(overlinked_pentagon_graph()) == {5, 6, 7, 8}
