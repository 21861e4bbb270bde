import itertools
import random

import pytest
from hypothesis import given, strategies as st

import bruteforce as bf
from conftest import cycle_graph, disjoint_union, path_graph
from facebalance.complexes import (ComplexError, Graph, SimplicialComplex,
                                   clique_complex, convolve, f_from_h,
                                   h_from_f, independence_complex,
                                   is_full_dimensional_subcomplex,
                                   maximal_independent_sets, parse_complex,
                                   parse_graph)


# ---------------------------------------------------------------------------
# f/h calculus
# ---------------------------------------------------------------------------

def test_h_from_f_pinned_values():
    assert h_from_f((1, 10, 24, 16)) == (1, 7, 7, 1)
    assert h_from_f((1, 7, 16, 11)) == (1, 4, 5, 1)
    assert h_from_f((1, 3, 3)) == (1, 1, 1)  # hollow triangle
    assert f_from_h((1, 4, 5, 1)) == (1, 7, 16, 11)


def test_h_from_f_validates_leading_entry():
    with pytest.raises(ComplexError):
        h_from_f((2, 3))
    with pytest.raises(ComplexError):
        f_from_h((0,))


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=0, max_size=8))
def test_roundtrip_f_h(tail):
    f = (1, *tail)
    assert f_from_h(h_from_f(f)) == f
    h = (1, *tail)
    assert h_from_f(f_from_h(h)) == h


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5),
       st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5))
def test_convolution_is_commutative(a, b):
    assert convolve(a, b) == convolve(b, a)
    assert len(convolve(a, b)) == len(a) + len(b) - 1


def test_roundtrip_thousand_random_vectors():
    rng = random.Random(7)
    for _ in range(1000):
        f = (1,) + tuple(rng.randint(0, 10 ** 6) for _ in range(rng.randint(0, 9)))
        assert f_from_h(h_from_f(f)) == f


# ---------------------------------------------------------------------------
# complex construction and face enumeration
# ---------------------------------------------------------------------------

def test_full_triangle_f_vector():
    t = SimplicialComplex([["a", "b", "c"]])
    assert t.f_vector() == (1, 3, 3, 1)
    assert t.dim == 2


def test_facet_normalization_drops_contained():
    c = SimplicialComplex([["a", "b"], ["a"], ["a", "b"]])
    assert c.facet_labels() == [("a", "b")]
    mixed = SimplicialComplex([["a", "b", "c"], ["a", "b"], ["d"], ["c", "d"], ["b"]])
    assert mixed.facet_labels() == [("a", "b", "c"), ("c", "d")]


def test_empty_complex_conventions():
    e = SimplicialComplex([[]])
    assert e.dim == -1
    assert e.f_vector() == (1,)
    assert e.h_vector() == (1,)
    assert e.is_pure()


def test_void_complex_rejected():
    with pytest.raises(ComplexError):
        SimplicialComplex([])


def test_vertices_must_match_support():
    with pytest.raises(ComplexError):
        SimplicialComplex([["a"]], vertices=["a", "b"])


def test_f_vector_matches_bruteforce_on_random_complexes():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        verts = [f"v{i}" for i in range(n)]
        facets = [rng.sample(verts, rng.randint(1, n))
                  for _ in range(rng.randint(1, 5))]
        cx = SimplicialComplex(facets)
        faces = bf.faces_from_facets(cx.facet_labels())
        assert cx.f_vector() == bf.fvector(faces)


# ---------------------------------------------------------------------------
# link and skeleton
# ---------------------------------------------------------------------------

def test_link_of_empty_face_is_identity():
    cx = SimplicialComplex([["a", "b", "c"], ["c", "d"]])
    assert cx.link([]) == cx


def test_link_of_facet_is_empty_complex():
    cx = SimplicialComplex([["a", "b"]])
    assert cx.link(["a", "b"]).dim == -1


def test_link_requires_a_face():
    cx = SimplicialComplex([["a", "b"], ["c"]])
    with pytest.raises(ComplexError):
        cx.link(["a", "c"])


def test_link_errors_name_the_face_or_the_vertex():
    cx = SimplicialComplex([["a", "b"], ["c"]])
    with pytest.raises(ComplexError, match=r"^\('a', 'c'\) is not a face$"):
        cx.link(["c", "a"])
    # the face is named in the complex's vertex order
    with pytest.raises(ComplexError, match=r"^\('c', 'a'\) is not a face$"):
        SimplicialComplex([["c", "b"], ["a"]]).link(["a", "c"])
    with pytest.raises(ComplexError, match=r"^unknown vertex 'z'$"):
        cx.link(["a", "z"])


def test_link_matches_bruteforce_filter():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 6)
        verts = [f"v{i}" for i in range(n)]
        facets = [rng.sample(verts, rng.randint(1, n))
                  for _ in range(rng.randint(1, 4))]
        cx = SimplicialComplex(facets)
        faces = bf.faces_from_facets(cx.facet_labels())
        tau = faces[rng.randrange(len(faces))]
        expected = bf.link_faces(faces, tau)
        link = cx.link(tau)
        assert bf.faces_from_facets(link.facet_labels()) == expected
        # the link keeps the complex's vertex order
        assert link.vertices == tuple(v for v in cx.vertices
                                      if any(v in f for f in expected))


# ---------------------------------------------------------------------------
# join
# ---------------------------------------------------------------------------

def test_join_of_two_points_is_an_edge():
    a = SimplicialComplex([["a"]])
    b = SimplicialComplex([["b"]])
    assert a.join(b).f_vector() == (1, 2, 1)


def test_join_label_collision_is_an_error():
    a = SimplicialComplex([["a"]])
    with pytest.raises(ComplexError):
        a.join(a)


def test_join_f_vector_is_convolution():
    rng = random.Random(3)
    for _ in range(20):
        f1 = [rng.sample([f"a{i}" for i in range(4)], rng.randint(1, 4))
              for _ in range(rng.randint(1, 3))]
        f2 = [rng.sample([f"b{i}" for i in range(4)], rng.randint(1, 4))
              for _ in range(rng.randint(1, 3))]
        c1, c2 = SimplicialComplex(f1), SimplicialComplex(f2)
        j = c1.join(c2)
        assert j.f_vector() == convolve(c1.f_vector(), c2.f_vector())
        assert j.dim == c1.dim + c2.dim + 1


def test_join_of_component_independence_complexes():
    g1, g2 = cycle_graph(5, "a"), cycle_graph(5, "b")
    both = disjoint_union(g1, g2)
    joined = independence_complex(g1).join(independence_complex(g2))
    direct = independence_complex(both)
    assert direct.f_vector() == joined.f_vector() == (1, 10, 35, 50, 25)
    assert set(direct.facet_labels()) == set(joined.facet_labels())


# ---------------------------------------------------------------------------
# purity and flagness
# ---------------------------------------------------------------------------

def test_is_pure():
    assert SimplicialComplex([["a", "b", "c"]]).is_pure()
    assert not SimplicialComplex([["a", "b"], ["c"]]).is_pure()


def test_hollow_triangle_is_not_flag():
    assert not bf.is_flag(bf.faces_from_facets([["a", "b"], ["b", "c"], ["a", "c"]]))
    assert bf.is_flag(bf.faces_from_facets([["a", "b", "c"]]))


def test_independence_complexes_are_flag():
    for g in (cycle_graph(5), cycle_graph(7), path_graph(4)):
        ic = independence_complex(g)
        assert bf.is_flag(bf.faces_from_facets(ic.facet_labels()))


def test_flag_iff_minimal_nonfaces_have_size_two():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(2, 6)
        verts = [f"v{i}" for i in range(n)]
        facets = [rng.sample(verts, rng.randint(1, n))
                  for _ in range(rng.randint(1, 4))]
        cx = SimplicialComplex(facets)
        faces = bf.faces_from_facets(cx.facet_labels())
        nonfaces = bf.minimal_nonfaces(cx.vertices, faces)
        # flag means equal to the clique complex of the 1-skeleton
        assert bf.is_flag(faces) == (clique_complex(cx.one_skeleton()) == cx)
        assert bf.is_flag(faces) == all(len(nf) == 2 for nf in nonfaces)
        got = {frozenset(cx.labels(m)) for m in cx.minimal_nonfaces()}
        assert got == {frozenset(nf) for nf in nonfaces}


# ---------------------------------------------------------------------------
# independence and clique complexes
# ---------------------------------------------------------------------------

def test_single_vertex_independence_complex():
    assert independence_complex(Graph(["x"], [])).f_vector() == (1, 1)


def test_seven_cycle_independence_complex():
    ic = independence_complex(cycle_graph(7))
    assert ic.f_vector() == (1, 7, 14, 7)
    assert ic.dim == 2


def test_independence_dim_is_independence_number_minus_one():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 7)
        verts = [f"v{i}" for i in range(n)]
        edges = [e for e in itertools.combinations(verts, 2) if rng.random() < 0.4]
        g = Graph(verts, edges)
        best = max(len(s) for s in bf.independent_subsets(verts, edges))
        assert independence_complex(g).dim == best - 1


def test_independence_equals_clique_of_complement_small_exhaustive():
    for n in range(1, 5):
        verts = [f"v{i}" for i in range(n)]
        pairs = list(itertools.combinations(verts, 2))
        for mask in range(2 ** len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = Graph(verts, edges)
            assert independence_complex(g) == clique_complex(g.complement())


def test_independence_equals_clique_of_complement_sampled():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(5, 8)
        verts = [f"v{i}" for i in range(n)]
        edges = [e for e in itertools.combinations(verts, 2) if rng.random() < 0.5]
        g = Graph(verts, edges)
        assert independence_complex(g) == clique_complex(g.complement())


def test_maximal_independent_sets_against_bruteforce():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randint(1, 7)
        verts = [f"v{i}" for i in range(n)]
        edges = [e for e in itertools.combinations(verts, 2) if rng.random() < 0.45]
        g = Graph(verts, edges)
        all_ind = bf.independent_subsets(verts, edges)
        ind_set = set(all_ind)
        expected = sorted(s for s in all_ind
                          if not any(set(s) < set(t) for t in all_ind))
        assert maximal_independent_sets(g) == expected
        assert ind_set  # sanity: the empty set is always independent


def test_subgraph_accepts_a_one_shot_iterable():
    path = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    for keep in (["b", "a"], iter(["b", "a"])):
        sub = path.subgraph(keep)
        assert sub.vertices == ("a", "b")
        assert sub.edge_labels() == [("a", "b")]


def test_adjacency_matches_the_edge_set():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(1, 8)
        pairs = [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        g = Graph([f"x{i}" for i in range(n)],
                  [(f"x{a}", f"x{b}") for a, b in pairs])
        adj = g.adjacency()
        assert list(adj) == list(range(n))
        for i in range(n):
            assert adj[i] == {j for e in pairs for j in e if i in e and j != i}
            assert isinstance(adj[i], frozenset)
            assert all(g.has_edge(i, j) == ((min(i, j), max(i, j)) in g.edges)
                       for j in range(n) if j != i)
        adj.clear()  # the caller's copy: the graph keeps its own
        assert len(g.adjacency()) == n


# ---------------------------------------------------------------------------
# full-dimensional subcomplexes
# ---------------------------------------------------------------------------

def test_full_dimensional_subcomplex_cases():
    gamma = SimplicialComplex([["a", "b"], ["b", "c"], ["c", "a"]])
    assert is_full_dimensional_subcomplex(gamma, gamma)
    sub = SimplicialComplex([["a", "b"], ["c", "a"]])
    assert is_full_dimensional_subcomplex(sub, gamma)
    points = SimplicialComplex([[v] for v in gamma.vertices])
    assert not is_full_dimensional_subcomplex(points, gamma)
    other = SimplicialComplex([["a", "d"]])
    assert not is_full_dimensional_subcomplex(other, gamma)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_parse_complex_roundtrip():
    text = "# demo\na b c\nc d\n"
    cx = parse_complex(text)
    assert cx.f_vector() == (1, 4, 4, 1)
    assert parse_complex(cx.to_file_text()) == cx


def test_parse_complex_empty_and_void():
    assert parse_complex("dim: -1\n").dim == -1
    with pytest.raises(ComplexError):
        parse_complex("# nothing here\n")
    with pytest.raises(ComplexError):
        parse_complex("a a b\n")


def test_parse_graph_isolated_vertices():
    g = parse_graph("# demo\nvertex: z\na b\n")
    assert set(g.vertices) == {"z", "a", "b"}
    assert g.edge_labels() == [("a", "b")]
    assert parse_graph(g.to_file_text()) == g


def test_parse_graph_rejects_malformed():
    with pytest.raises(ComplexError):
        parse_graph("a b c\n")
    with pytest.raises(ComplexError):
        Graph(["a"], [("a", "a")])
