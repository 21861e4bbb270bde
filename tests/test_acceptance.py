"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Exact arithmetic throughout; every tolerance is equality.  Random inputs are
drawn from fixed seeds so the suite is reproducible.
"""

import itertools
import random
import time
from functools import reduce

import bruteforce as bf
from conftest import (all_complexes_on, beta, check_sweep, cycle_graph, join,
                      path_graph, pendant_cycle_chain, turan_graph)
from facebalance import polynomials
from facebalance.balancing import balanced_witness, join_of_factors
from facebalance.classify import (classify_girth5, embed_in_join, girth,
                                  exceptional_catalog,
                                  independent_facet_transversal, is_isomorphic,
                                  pendant_edges)
from facebalance.complexes import (Graph, SimplicialComplex, _bits,
                                   clique_complex, convolve, f_from_h, h_from_f,
                                   independence_complex, is_proper)
from facebalance.homology import cm_report, is_cohen_macaulay, reduced_betti
from facebalance.samples import (colorable_h_witness, flag_sphere_graph,
                                 pg_sample_graph)


def _announce(name: str, started: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {name}: PASS in {elapsed:.2f}s{suffix}")


# ---------------------------------------------------------------------------
# 1. h/f conversion
# ---------------------------------------------------------------------------

def test_criterion_1_h_f_conversion():
    started = time.perf_counter()
    assert h_from_f((1, 10, 24, 16)) == (1, 7, 7, 1)
    assert h_from_f((1, 7, 16, 11)) == (1, 4, 5, 1)
    rng = random.Random(101)
    for _ in range(1000):
        f = (1,) + tuple(rng.randint(0, 10 ** 9)
                         for _ in range(rng.randint(0, 10)))
        assert f_from_h(h_from_f(f)) == f
    assert time.perf_counter() - started < 1.0
    _announce("1 (h/f conversion)", started)


# ---------------------------------------------------------------------------
# 2. Turan reproduction
# ---------------------------------------------------------------------------

def test_criterion_2_turan_uniqueness():
    started = time.perf_counter()
    t73 = turan_graph(7, 3)
    assert len(t73.edges()) == 16
    assert bf.count_triangles(t73.vertices, t73.edge_labels()) == 12
    verts = [f"t{i + 1}" for i in range(7)]
    all_pairs = list(itertools.combinations(verts, 2))
    assert len(all_pairs) == 21
    quadruple_pairs = [frozenset(itertools.combinations(q, 2))
                       for q in itertools.combinations(verts, 4)]
    k4_free_found = 0
    for removed in itertools.combinations(range(21), 5):
        removed_pairs = {all_pairs[i] for i in removed}
        # K4-free iff every 4-clique of K7 loses at least one pair
        if all(any(tuple(sorted(p)) in removed_pairs for p in quad)
               for quad in quadruple_pairs):
            g = Graph(verts, [p for i, p in enumerate(all_pairs)
                              if i not in removed])
            assert not bf.has_k4(g.vertices, g.edge_labels())
            assert is_isomorphic(g, t73)
            k4_free_found += 1
    assert k4_free_found > 0
    assert time.perf_counter() - started < 300
    _announce("2 (Turan reproduction)", started,
              f"{k4_free_found} maximal K4-free graphs, all isomorphic")


# ---------------------------------------------------------------------------
# 3. Cohen-Macaulay verdicts
# ---------------------------------------------------------------------------

def test_criterion_3_cm_verdicts():
    started = time.perf_counter()
    cm5, _ = is_cohen_macaulay(independence_complex(cycle_graph(5)))
    assert cm5
    catalog = exceptional_catalog()
    for name in ("C7", "P10", "P13", "P14", "Q13"):
        ic = independence_complex(catalog[name])
        ok, violation = is_cohen_macaulay(ic)
        assert not ok, name
        if name in ("P14", "Q13"):
            assert ic.dim == 4
            assert violation.face == () and violation.degree == 3
            assert violation.link_betti[3 + 1] != 0
    heptagon_skeleton = independence_complex(cycle_graph(7)).one_skeleton()
    link10 = independence_complex(catalog["P10"]).link(["5"])
    assert is_isomorphic(link10.one_skeleton(), heptagon_skeleton)
    link13 = independence_complex(catalog["P13"]).link(["10", "12"])
    assert is_isomorphic(link13.one_skeleton(), heptagon_skeleton)
    assert time.perf_counter() - started < 120
    _announce("3 (CM verdicts)", started)


# ---------------------------------------------------------------------------
# 4. pipeline on the pentagon
# ---------------------------------------------------------------------------

def test_criterion_4_pentagon_pipeline():
    started = time.perf_counter()
    pentagon = independence_complex(cycle_graph(5))
    skel = pentagon.one_skeleton()
    cover = [{"type": "graph", "vertices": list(skel.vertices),
              "edges": [list(e) for e in skel.edge_labels()],
              "removed_edge": None}]
    witness = balanced_witness(pentagon, cover)
    assert witness.basis.f_vector() == (1, 3, 1)
    assert witness.checks == {"kind_kleinschmidt": True, "squarefree": True,
                              "block_degree": True,
                              "divisibility_closure": True,
                              "f_matches_h": True, "proper_coloring": True}
    assert witness.specialization.attempt == 0  # the default specialization
    assert time.perf_counter() - started < 5
    _announce("4 (pentagon pipeline)", started)


# ---------------------------------------------------------------------------
# 5. pipeline on the pendant/cycle sample graph
# ---------------------------------------------------------------------------

def test_criterion_5_sample_graph_pipeline():
    started = time.perf_counter()
    g = pg_sample_graph()
    verdict = classify_girth5(g)
    assert verdict.kind == "PG"
    dec = verdict.decomposition
    assert len(dec.basic_cycles) == 2
    assert len(dec.pendant_edges) == 1
    assert dec.beta == 5 == beta(g)
    ind = independence_complex(g)
    cm, _ = is_cohen_macaulay(ind)
    assert cm  # checked, not assumed
    # independent face enumeration for the h-vector
    sets_by_size = {}
    for s in bf.independent_subsets(g.vertices, g.edge_labels()):
        sets_by_size[len(s)] = sets_by_size.get(len(s), 0) + 1
    f_brute = tuple(sets_by_size[i] for i in range(max(sets_by_size) + 1))
    assert ind.f_vector() == f_brute == (1, 12, 53, 107, 99, 34)
    h = h_from_f(f_brute)
    cover, certificate = embed_in_join(g)
    assert certificate["dim_matches"]
    witness = balanced_witness(ind, cover)
    assert all(witness.checks.values())
    padded = witness.basis.f_vector() + (0,) * (len(h) - len(witness.basis.f_vector()))
    assert padded == h == (1, 7, 15, 10, 1, 0)
    assert time.perf_counter() - started < 120
    _announce("5 (pendant/cycle pipeline)", started, f"F(basis)={padded}")


# ---------------------------------------------------------------------------
# 6. the flag 2-sphere example
# ---------------------------------------------------------------------------

def test_criterion_6_flag_sphere():
    started = time.perf_counter()
    g = flag_sphere_graph()
    sphere = clique_complex(g)
    assert sphere.f_vector() == (1, 10, 24, 16)
    assert sphere.h_vector() == (1, 7, 7, 1)
    assert sphere.one_skeleton() == g
    faces = bf.faces_from_facets(sphere.facet_labels())
    assert bf.is_flag(faces) and sphere.is_pure()
    cm, _ = is_cohen_macaulay(sphere)
    assert cm
    assert reduced_betti(sphere) == (0, 0, 0, 1)
    # every one of the 3^10 colourings leaves an edge monochromatic
    assert not bf.is_colorable(g.vertices, g.edge_labels(), 3)
    assert bf.is_colorable(g.vertices, g.edge_labels(), 4)
    assert independent_facet_transversal(sphere) is None
    # the pinned certificate that h = (1, 7, 7, 1) is the f-vector of a
    # 3-colorable complex, checked by the oracles alone
    witness_cx, coloring = colorable_h_witness()
    faces = bf.faces_from_facets(witness_cx.facet_labels())
    assert bf.fvector(faces) == (1, 7, 7, 1) == sphere.h_vector()
    assert set(coloring) == {v for f in faces for v in f}
    assert all(coloring[f[0]] != coloring[f[1]] for f in faces if len(f) == 2)
    assert len(set(coloring.values())) <= 3
    assert time.perf_counter() - started < 120
    _announce("6 (flag 2-sphere)", started)


# ---------------------------------------------------------------------------
# 7. property suites
# ---------------------------------------------------------------------------

def _random_connected_girth5(rng):
    n = rng.randint(2, 12)
    verts = [str(i) for i in range(n)]
    edges = {(str(rng.randrange(i)), str(i)) for i in range(1, n)}
    g = Graph(verts, edges)
    for _ in range(rng.randint(0, 4)):
        u, w = rng.sample(verts, 2)
        candidate = Graph(verts, list(edges | {(u, w)}))
        if girth(candidate) >= 5:
            edges.add((u, w))
            g = candidate
    return g


def _random_pg_member(rng):
    while True:
        j = rng.randint(0, 2)
        l = rng.randint(0, 3)
        if 0 < 5 * j + 2 * l <= 12:
            break
    verts, edges, slots = [], [], []
    for p in range(j):
        ring = [f"c{p}_{i}" for i in range(5)]
        verts.extend(ring)
        edges.extend((ring[i], ring[(i + 1) % 5]) for i in range(5))
        slots.append(("pentagon", ring, []))
    for q in range(l):
        a, b = f"e{q}a", f"e{q}b"
        verts.extend([a, b])
        edges.append((a, b))
        slots.append(("pendant", [a, b], []))
    for child in range(1, len(slots)):
        parent = rng.randrange(child)
        ends = []
        for comp in (slots[parent], slots[child]):
            kind, members, used = comp
            if kind == "pendant":
                ends.append(members[0])
            else:
                free = [i for i in range(5)
                        if all((i - u) % 5 not in (0, 1, 4) for u in used)]
                if not free:
                    return None
                pick = rng.choice(free)
                used.append(pick)
                ends.append(members[pick])
        edges.append(tuple(ends))
    return Graph(verts, edges)


def test_criterion_7_property_suites():
    started = time.perf_counter()
    rng = random.Random(2024)

    # join-CM equivalence on random small factors
    for _ in range(15):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        a = SimplicialComplex(
            [[f"a{i}" for i in rng.sample(range(n1), rng.randint(1, n1))]
             for _ in range(rng.randint(1, 3))])
        b = SimplicialComplex(
            [[f"b{i}" for i in rng.sample(range(n2), rng.randint(1, n2))]
             for _ in range(rng.randint(1, 3))])
        ok_a, _ = is_cohen_macaulay(a)
        ok_b, _ = is_cohen_macaulay(b)
        ok_join, _ = is_cohen_macaulay(join(a, b))
        assert ok_join == (ok_a and ok_b)

    # f-vector convolution under join, against direct enumeration
    for _ in range(15):
        a = SimplicialComplex(
            [[f"a{i}" for i in rng.sample(range(4), rng.randint(1, 4))]
             for _ in range(rng.randint(1, 3))])
        b = SimplicialComplex(
            [[f"b{i}" for i in rng.sample(range(4), rng.randint(1, 4))]
             for _ in range(rng.randint(1, 3))])
        j = join(a, b)
        assert j.f_vector() == convolve(a.f_vector(), b.f_vector())
        assert j.f_vector() == bf.fvector(bf.faces_from_facets(j.facet_labels()))

    # link-vanishing CM test against brute-force homology: exhaustive on at
    # most 4 vertices, seeded samples on 5 and 6
    empty = SimplicialComplex([[]])
    ok_empty, _ = is_cohen_macaulay(empty)
    assert ok_empty == bf.is_cm([()])
    checked = 1
    for n in range(1, 5):
        for cx in all_complexes_on(n):
            faces = bf.faces_from_facets(cx.facet_labels())
            ok, _ = is_cohen_macaulay(cx)
            assert ok == bf.is_cm(faces)
            assert reduced_betti(cx) == bf.betti(faces)
            checked += 1
    for _ in range(120):
        n = rng.randint(5, 6)
        facets = [rng.sample([f"v{i}" for i in range(n)], rng.randint(1, n))
                  for _ in range(rng.randint(1, 4))]
        cx = SimplicialComplex(facets)
        faces = bf.faces_from_facets(cx.facet_labels())
        ok, _ = is_cohen_macaulay(cx)
        assert ok == bf.is_cm(faces)
        assert reduced_betti(cx) == bf.betti(faces)
        checked += 1

    # classification trichotomy on 200 random connected girth >= 5 graphs
    graphs = [Graph([f"solo{i}"], []) for i in range(5)]
    while len(graphs) < 80:
        g = _random_pg_member(rng)
        if g is not None and girth(g) >= 5:
            graphs.append(g)
    catalog = list(exceptional_catalog().values())
    for _ in range(20):
        src = rng.choice(catalog)
        perm = list(src.vertices)
        rng.shuffle(perm)
        mapping = dict(zip(src.vertices, perm))
        graphs.append(Graph(perm, [(mapping[u], mapping[w])
                                   for u, w in src.edge_labels()]))
    while len(graphs) < 200:
        graphs.append(_random_connected_girth5(rng))
    kinds = {"PG": 0, "K1": 0, "Exceptional": 0, "NotWellCovered": 0}
    for g in graphs:
        assert girth(g) >= 5 and g.is_connected()
        verdict = classify_girth5(g)
        assert verdict.kind in kinds
        kinds[verdict.kind] += 1
        if verdict.kind == "PG":
            dec = verdict.decomposition
            brute_beta = max(len(s) for s in
                             bf.independent_subsets(g.vertices, g.edge_labels()))
            assert dec.beta == len(dec.pendant_edges) + 2 * len(dec.basic_cycles)
            assert dec.beta == brute_beta
        else:
            assert verdict.decomposition is None
    assert all(kinds[k] > 0 for k in kinds)
    assert kinds["PG"] >= 60 and kinds["Exceptional"] >= 20
    assert time.perf_counter() - started < 600
    _announce("7 (property suites)", started,
              f"{checked} complexes dual-checked, verdicts={kinds}")


# ---------------------------------------------------------------------------
# 8. witness soundness on a generated corpus
# ---------------------------------------------------------------------------

def _factor_pool():
    return {
        "points2": lambda p: {"type": "points", "vertices": [f"{p}x", f"{p}y"],
                              "edges": [], "removed_edge": None},
        "points3": lambda p: {"type": "points",
                              "vertices": [f"{p}x", f"{p}y", f"{p}z"],
                              "edges": [], "removed_edge": None},
        "points4": lambda p: {"type": "points",
                              "vertices": [f"{p}w", f"{p}x", f"{p}y", f"{p}z"],
                              "edges": [], "removed_edge": None},
        "path3": lambda p: _graph_factor_dict(path_graph(3, p)),
        "path4": lambda p: _graph_factor_dict(path_graph(4, p)),
        "cycle4": lambda p: _graph_factor_dict(cycle_graph(4, p)),
        "cycle5": lambda p: _graph_factor_dict(cycle_graph(5, p)),
        "cycle6": lambda p: _graph_factor_dict(cycle_graph(6, p)),
        "cycle7": lambda p: _graph_factor_dict(cycle_graph(7, p)),
    }


def _graph_factor_dict(g: Graph) -> dict:
    return {"type": "graph", "vertices": list(g.vertices),
            "edges": [list(e) for e in g.edge_labels()], "removed_edge": None}


def _peel_cm_chain(gamma, rng, steps):
    """Full-dimensional CM subcomplexes made by deleting facets one at a time."""
    out = []
    current = sorted(gamma.facets, key=_bits)
    for _ in range(steps):
        found = None
        for f in rng.sample(current, len(current)):
            rest = [x for x in current if x != f]
            if not rest:
                continue
            cand = SimplicialComplex([gamma.labels(x) for x in rest])
            if cand.dim != gamma.dim:
                continue
            ok, _ = is_cohen_macaulay(cand)
            if ok:
                found = (cand, rest)
                break
        if found is None:
            break
        out.append(found[0])
        current = found[1]
    return out


CORPUS_COVERS = 14


def _witness_corpus():
    """``(config, cover, delta)`` for the CM full-dimensional subcomplexes
    of ``CORPUS_COVERS`` seeded joins of at most 14 vertices."""
    rng = random.Random(4096)
    pool = _factor_pool()
    sizes = {"points2": 2, "points3": 3, "points4": 4, "path3": 3, "path4": 4,
             "cycle4": 4, "cycle5": 5, "cycle6": 6, "cycle7": 7}
    configs = [["cycle5"], ["cycle7"], ["points3"],
               ["cycle5", "points2"], ["cycle5", "cycle5", "points4"]]
    while len(configs) < CORPUS_COVERS:
        k = rng.randint(1, 3)
        names = [rng.choice(sorted(pool)) for _ in range(k)]
        if sum(sizes[x] for x in names) <= 14:
            configs.append(names)
    corpus = []
    for config in configs:
        cover = [pool[name](f"f{i}_") for i, name in enumerate(config)]
        gamma = reduce(join, join_of_factors(cover))
        assert sum(sizes[x] for x in config) <= 14
        facet_pool = sorted(gamma.facets, key=_bits)
        candidates = [gamma]
        for _ in range(4):
            chosen = [f for f in facet_pool if rng.random() < 0.7]
            if chosen:
                candidates.append(SimplicialComplex(
                    [gamma.labels(f) for f in chosen],
                    vertices=None))
        if len(gamma.vertices) <= 10:
            candidates.extend(_peel_cm_chain(gamma, rng, steps=3))
        for delta in candidates:
            if delta.dim != gamma.dim:
                continue
            cm, _ = is_cohen_macaulay(delta)
            if cm:
                corpus.append((config, cover, delta))
    return corpus


def test_criterion_8_witness_corpus():
    started = time.perf_counter()
    corpus = _witness_corpus()
    for config, cover, delta in corpus:
        witness = balanced_witness(delta, cover)
        assert all(witness.checks.values())
        d = delta.dim + 1
        h = h_from_f(delta.f_vector())
        # the emitted complex is d-colorable with f-vector h: the k-th
        # entry of its f-vector counts the degree-k basis monomials
        f_witness = witness.complex.f_vector()
        pad = lambda seq: tuple(seq) + (0,) * (d + 1 - len(seq))
        assert pad(f_witness) == pad(h), (config, h, f_witness)
        assert is_proper(witness.complex, witness.coloring)
        assert len(set(witness.coloring.values())) <= d
    assert len(corpus) >= 25
    assert time.perf_counter() - started < 900
    _announce("8 (witness corpus)", started,
              f"{len(corpus)} complexes verified across {CORPUS_COVERS} covers")


def test_sweep_matches_the_covered_filter_oracle_on_the_witness_corpus(monkeypatch):
    # every degree of every basis, the stop degree included
    real = polynomials.initial_ideal_by_degree
    stops = []

    def compared(gens, order, degree):
        result = real(gens, order, degree)
        check_sweep(result, gens, order, degree)
        if not result[1]:
            stops.append(degree)
        return result

    monkeypatch.setattr(polynomials, "initial_ideal_by_degree", compared)
    corpus = _witness_corpus()
    for _, cover, delta in corpus:
        assert all(balanced_witness(delta, cover).checks.values())
    assert len(stops) >= len(corpus)


def _balanced_complex(faces, coloring, d):
    """Facets ``F + {p_i : i not in coloring(F)}``, one per face ``F``
    (label tuples, the empty one included), with the colouring extended by
    ``p_i -> i``.  Ordered by ``|F|`` this is a shelling whose restriction
    faces are the ``F`` (Stanley, Trans. AMS 249, 1979; Bjorner, Frankl &
    Stanley, Combinatorica 7, 1987): a balanced CM complex whose h-vector is
    the face counts of ``faces``."""
    cone = {i: f"@p{i}" for i in range(d)}
    facets = [tuple(face) + tuple(cone[i] for i in range(d)
                                  if i not in {coloring[v] for v in face})
              for face in faces]
    return SimplicialComplex(facets), {**coloring, **{p: i for i, p in cone.items()}}


def _witness_faces(witness):
    """The supports of the witness's basis monomials, as label tuples."""
    variables = witness.pair.order.variables
    return [tuple(v for v, e in zip(variables, m) if e)
            for m in witness.basis.monomials]


def test_witness_gives_the_balanced_cm_complex_the_paper_promises():
    # Delta's f-vector is the f-vector of a balanced CM complex built from
    # the witness; the sweep computes the witness, not this consequence
    started = time.perf_counter()
    graphs = [pg_sample_graph()] + [
        pendant_cycle_chain(random.Random(31 * j + k), j, k)
        for j, k in ((2, 1), (1, 3), (2, 2), (3, 0))]
    for g in graphs:
        delta = independence_complex(g)
        cover, _ = embed_in_join(g)
        witness = balanced_witness(delta, cover)
        d = delta.dim + 1
        faces = _witness_faces(witness)
        assert set(witness.coloring.values()) <= set(range(d))
        balanced, kappa = _balanced_complex(faces, witness.coloring, d)
        assert len(kappa) == len(witness.coloring) + d  # the p_i are new
        assert balanced.is_pure() and balanced.dim == delta.dim
        assert is_proper(balanced, kappa)
        assert cm_report(balanced)["cm"]
        assert balanced.f_vector() == delta.f_vector()
        # a recoloured vertex meets the cone vertex of its new colour
        v = next(face[0] for face in faces if face)
        recoloured = dict(kappa, **{v: (kappa[v] + 1) % d})
        assert not is_proper(balanced, recoloured)
        # without a top-degree monomial the h-vector, hence f, falls short
        top = max(faces, key=len)
        short, _ = _balanced_complex([f for f in faces if f != top],
                                     witness.coloring, d)
        assert short.f_vector() != delta.f_vector()
    _announce("balanced CM complex", started,
              f"{len(graphs)} witnesses, d up to "
              f"{max(independence_complex(g).dim + 1 for g in graphs)}")
