import itertools
import random
from functools import reduce
from operator import or_

import pytest

import bruteforce as bf
from conftest import (all_complexes_on, cycle_graph, disjoint_union, join,
                      overlinked_pentagon_graph, pendant_cycle_chain, pg_chain,
                      projective_plane)
from facebalance import homology, linalg
from facebalance.classify import exceptional_catalog
from facebalance.complexes import (Graph, SimplicialComplex, VerificationError,
                                   independence_complex, parse_complex)
from facebalance.homology import (boundary_rank, cm_report, is_cohen_macaulay,
                                  reduced_betti)


def _random_complex(rng, max_vertices):
    n = rng.randint(1, max_vertices)
    verts = [f"v{i}" for i in range(n)]
    facets = [rng.sample(verts, rng.randint(1, n))
              for _ in range(rng.randint(1, 4))]
    return SimplicialComplex(facets)


def _levels(cx):
    """The faces of ``cx`` by size, as the ranker takes them."""
    return tuple(cx.faces(k) for k in range(-1, cx.dim + 1))


def _facets_of(levels):
    """The maximal faces among the face levels ``levels``."""
    faces = [f for level in levels for f in level]
    return {f for f in faces if not any(f & g == f != g for g in faces)}


# ---------------------------------------------------------------------------
# boundary ranks
# ---------------------------------------------------------------------------

def test_boundary_rank_edge():
    edge = SimplicialComplex([["a", "b"]])
    assert boundary_rank(edge, 0) == 1
    assert boundary_rank(edge, 1) == 1


def test_boundary_rank_hollow_triangle():
    hollow = SimplicialComplex([["a", "b"], ["b", "c"], ["a", "c"]])
    assert boundary_rank(hollow, 1) == 2


def test_boundary_rank_range_check():
    with pytest.raises(ValueError):
        boundary_rank(SimplicialComplex([["a"]]), 1)


def _signed_rows(levels, i, monkeypatch):
    """The rows the Q tier hands to the rational elimination for the
    boundary map from ``i``-chains of the face levels ``levels``."""
    fed = []
    with monkeypatch.context() as m:
        m.setattr(homology, "sparse_rank", lambda rows: fed.extend(rows) or 0)
        homology._q_rank(homology._boundary_rows(levels, i))
    return fed


def test_boundary_of_boundary_is_zero(monkeypatch):
    # the package's boundary rows, signed as the Q tier signs them, compose
    # to zero, and every boundary rank is the brute-force signed boundary's
    rng = random.Random(17)
    composed = 0
    for _ in range(15):
        cx = _random_complex(rng, 6)
        levels = _levels(cx)
        signed = [_signed_rows(levels, i, monkeypatch)
                  for i in range(len(levels) - 1)]
        assert [len(rows) for rows in signed] == [len(f) for f in levels[1:]]
        for i in range(1, len(signed)):
            for row in signed[i]:
                total = {}
                for k, s in row.items():
                    for k2, s2 in signed[i - 1][k].items():
                        total[k2] = total.get(k2, 0) + s * s2
                assert not any(total.values()), (cx, i)
                composed += 1
        faces = bf.faces_from_facets(cx.facet_labels())
        for i in range(cx.dim + 1):
            assert boundary_rank(cx, i) == bf.dense_rank(
                bf.signed_boundary(faces, i)), (cx, i)
    assert composed > 100


# ---------------------------------------------------------------------------
# Betti numbers
# ---------------------------------------------------------------------------

def test_full_simplex_has_no_reduced_homology():
    simplex = SimplicialComplex([["a", "b", "c", "d"]])
    assert reduced_betti(simplex) == (0, 0, 0, 0, 0)


def test_pentagon_complex_is_a_circle():
    ic = independence_complex(cycle_graph(5))
    betti = reduced_betti(ic)
    assert betti[0 + 1] == 0 and betti[1 + 1] == 1
    assert betti == (0, 0, 1)


def test_empty_complex_betti():
    assert reduced_betti(SimplicialComplex([[]])) == (1,)


def test_two_points_betti():
    two = SimplicialComplex([["a"], ["b"]])
    assert reduced_betti(two) == (0, 1)


@pytest.mark.parametrize("n", range(3, 17))
def test_cycle_independence_complexes_match_kozlov(n, monkeypatch):
    # Kozlov (J. Combin. Theory Ser. A 88, 1999), with k = n // 3: Ind(C_n)
    # is S^{k-1} v S^{k-1} for n = 3k, S^{k-1} for n = 3k + 1 and S^k for
    # n = 3k + 2, past the oracle's sizes.  Its one nonzero entry flanks no
    # map, so no map is ranked over Q; with every map ranked over Q (as
    # _exact_scan ranks them), the rational ranks give the same answer
    k, r = divmod(n, 3)
    degree, count = (k, 1) if r == 2 else (k - 1, 2 - r)
    expected = [0] * (n // 2 + 1)
    expected[degree + 1] = count
    cx = independence_complex(cycle_graph(n))
    ranked_over_q = []
    rank = homology._q_rank
    monkeypatch.setattr(homology, "_q_rank",
                        lambda rows: ranked_over_q.append(n) or rank(rows))
    assert reduced_betti(cx) == tuple(expected)
    assert ranked_over_q == []
    monkeypatch.setattr(homology, "gf2_rank", homology._q_rank)
    assert reduced_betti(cx) == tuple(expected)
    assert len(ranked_over_q) == cx.dim + 1


def test_sphere_boundary_of_simplex():
    boundary = SimplicialComplex(
        [list(f) for f in itertools.combinations("abcd", 3)])
    assert reduced_betti(boundary) == (0, 0, 0, 1)


@pytest.mark.parametrize("betti, degree", [
    ((1,), None),           # {()}: b_-1 is its top entry
    ((0, 3), None),         # three points
    ((1, 0), -1),           # no complex's, but b_-1 is below the top
    ((0, 1, 0), 0),         # an edge and a point
    ((0, 0, 2, 5), 1),
    ((0, 0, 0, 1), None),   # a 2-sphere
])
def test_first_gap_reads_the_betti_tuple(betti, degree):
    # entry i of (b_-1, ..., b_dim) is degree i - 1, and the top is skipped
    assert homology._first_gap(betti) == degree == bf.first_gap(betti)


def test_betti_matches_bruteforce_on_random_complexes():
    rng = random.Random(29)
    for _ in range(30):
        cx = _random_complex(rng, 6)
        faces = bf.faces_from_facets(cx.facet_labels())
        assert reduced_betti(cx) == bf.betti(faces)


# ---------------------------------------------------------------------------
# the Cohen-Macaulay test
# ---------------------------------------------------------------------------

def test_full_simplex_is_cm():
    ok, violation = is_cohen_macaulay(SimplicialComplex([["a", "b", "c"]]))
    assert ok and violation is None


def test_pentagon_cm_and_heptagon_not():
    ok5, _ = is_cohen_macaulay(independence_complex(cycle_graph(5)))
    assert ok5
    ok7, violation = is_cohen_macaulay(independence_complex(cycle_graph(7)))
    assert not ok7
    assert violation.face == () and violation.degree == 1


def test_disconnected_is_not_cm_with_empty_face_certificate():
    two = SimplicialComplex([["a", "b"], ["c", "d"]])
    ok, violation = is_cohen_macaulay(two)
    assert not ok
    assert violation.face == () and violation.degree == 0


def test_bowtie_certificate_is_deterministic():
    bowtie = SimplicialComplex([["a", "b", "x"], ["x", "c", "d"]])
    ok, violation = is_cohen_macaulay(bowtie)
    assert not ok
    assert violation.face == ("x",) and violation.degree == 0
    assert cm_report(bowtie)["violation"] == {"face": ["x"], "degree": 0}


def test_cm_matches_bruteforce_on_random_complexes():
    rng = random.Random(53)
    for _ in range(25):
        cx = _random_complex(rng, 5)
        faces = bf.faces_from_facets(cx.facet_labels())
        ok, _ = is_cohen_macaulay(cx)
        assert ok == bf.is_cm(faces)


def test_cm_report_agrees_with_its_parts_on_random_complexes():
    rng = random.Random(67)
    for _ in range(25):
        cx = _random_complex(rng, 5)
        ok, violation = is_cohen_macaulay(cx)
        assert cm_report(cx) == {
            "cm": ok, "betti": list(reduced_betti(cx)),
            "violation": None if ok else violation.to_json_obj()}
        if violation is not None:
            assert violation.link_betti == reduced_betti(cx.link(violation.face))


def test_cm_implies_pure_on_random_complexes():
    rng = random.Random(59)
    seen_cm = 0
    for _ in range(40):
        cx = _random_complex(rng, 5)
        ok, _ = is_cohen_macaulay(cx)
        if ok:
            seen_cm += 1
            assert cx.is_pure()
    assert seen_cm > 0


def test_join_cm_equivalence():
    rng = random.Random(61)
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


def test_cm_report_shape():
    report = cm_report(independence_complex(cycle_graph(5)))
    assert report == {"cm": True, "betti": [0, 0, 1], "violation": None}


def test_projective_plane_is_rationally_trivial_and_cm():
    # over the rationals the link-vanishing test passes
    cx = projective_plane()
    assert cx.f_vector() == (1, 6, 15, 10)
    assert reduced_betti(cx) == (0, 0, 0, 0)
    ok, _ = is_cohen_macaulay(cx)
    assert ok


# ---------------------------------------------------------------------------
# the GF(2) certificate in front of the rational scan
# ---------------------------------------------------------------------------

def _exact_scan(cx, monkeypatch):
    """cm_report and the violation with every boundary ranked over Q."""
    with monkeypatch.context() as m:
        m.setattr(homology, "gf2_rank", homology._q_rank)
        return cm_report(cx), is_cohen_macaulay(cx)[1]


def _scan_corpus():
    """Every complex on <= 4 vertices (most are not flag complexes), 120
    seeded ones on 5-6 vertices, Ind of the catalog, the empty complex and
    RP^2."""
    rng = random.Random(71)
    cases = [cx for n in range(1, 5) for cx in all_complexes_on(n)]
    for _ in range(120):
        n = rng.randint(5, 6)
        cases.append(SimplicialComplex(
            [rng.sample([f"v{i}" for i in range(n)], rng.randint(1, n))
             for _ in range(rng.randint(1, 4))]))
    cases += [independence_complex(g) for g in exceptional_catalog().values()]
    cases += [SimplicialComplex([[]]), projective_plane()]
    return cases


def test_gf2_scan_agrees_with_the_exact_scan(monkeypatch):
    # on the walk, so that every visited link is ranked both ways
    _walk_only(monkeypatch)
    seen_cm = seen_not = 0
    for cx in _scan_corpus():
        report, violation = _exact_scan(cx, monkeypatch)
        assert cm_report(cx) == report, cx
        fast = is_cohen_macaulay(cx)[1]
        assert (fast is None) == (violation is None), cx
        if violation is not None:
            assert fast.link_betti == violation.link_betti, cx
            seen_not += 1
        else:
            seen_cm += 1
    assert seen_cm > 100 and seen_not > 100


def test_torsion_sends_only_the_projective_planes_to_q(monkeypatch):
    rp2 = projective_plane()
    suspension = join(rp2, SimplicialComplex([["n"], ["s"]]))
    assert reduced_betti(suspension) == (0, 0, 0, 0, 0)
    ranked_over_q = []
    rank = homology._q_rank

    def counting(rows):
        ranked_over_q.append(list(rows))
        return rank(ranked_over_q[-1])

    monkeypatch.setattr(homology, "_q_rank", counting)
    # every other link is a circle, a suspended circle or a set of points,
    # whose one GF(2) entry flanks no map; RP^2's GF(2) entries (0, 0, 1, 1)
    # flank only its map from 2-chains, and the suspension's (0, 0, 0, 1, 1)
    # only its map from 3-chains.  The suspension RP^2 * S^0 is one join
    # factor (its non-edge graph has the component {n, s}, but not the facet
    # count of a join of its components), so it is ranked whole, and then
    # the link of each pole ranks RP^2, once
    for cx, expected in ((rp2, [(rp2, 2)]), (suspension, [(suspension, 3), (rp2, 2)])):
        ranked_over_q.clear()
        ok, violation = is_cohen_macaulay(cx)
        assert ok and violation is None
        assert ranked_over_q == [
            list(homology._boundary_rows(_levels(delta), i)) for delta, i in expected]
    assert suspension.link(["n"]) == suspension.link(["s"]) == rp2


def _torsion_corpus():
    """RP^2, its suspension and double suspension, and RP^2 beside a point,
    a hollow triangle, another RP^2 and joined to a hollow triangle, with
    1 500 seeded complexes on at most 8 vertices and ``_scan_corpus()``."""
    rp2 = projective_plane()
    triangle = SimplicialComplex([["x", "y"], ["y", "z"], ["x", "z"]])
    suspension = join(rp2, SimplicialComplex([["n"], ["s"]]))
    cases = [rp2, suspension,
             join(suspension, SimplicialComplex([["N"], ["S"]])),
             SimplicialComplex(rp2.facet_labels() + [["p"]]),
             SimplicialComplex(rp2.facet_labels() + triangle.facet_labels()),
             SimplicialComplex(rp2.facet_labels()
                               + [["r" + v for v in f] for f in rp2.facet_labels()]),
             join(rp2, triangle)]
    rng = random.Random(32)

    def piece(n, prefix, most):
        verts = [f"{prefix}{i}" for i in range(n)]
        return [rng.sample(verts, min(n, rng.choice((1, 2, 2, 3))))
                for _ in range(rng.randint(1, most))]

    # half are two pieces side by side, so that a cycle in either flanks
    # the map from 1-chains with b_0
    for k in range(1500):
        facets = (piece(rng.randint(1, 8), "v", 10) if k % 2 else
                  piece(rng.randint(1, 4), "a", 6) + piece(rng.randint(1, 4), "b", 6))
        cases.append(SimplicialComplex(facets))
    return cases + _scan_corpus()


_REAL_Q_RANK = homology._q_rank


def _all_q_betti(levels, monkeypatch):
    """``_betti`` with every map ranked by the real ``_q_rank``."""
    with monkeypatch.context() as m:
        m.setattr(homology, "gf2_rank", _REAL_Q_RANK)
        m.setattr(homology, "_q_rank", _REAL_Q_RANK)
        return homology._betti(levels)


def _flank_check(corpus, monkeypatch):
    """The complexes of ``corpus`` whose ``_betti`` differs from the all-Q
    one, as ``(complex, betti, all-Q betti)``; those on which ``_q_rank``
    was handed other rows than the maps flanked by two nonzero GF(2)
    entries (ranked by the dense oracle); and how many were handed any."""
    wrong, misrouted, routed = [], [], 0
    for cx in corpus:
        levels = _levels(cx)
        rows = [list(homology._boundary_rows(levels, i))
                for i in range(len(levels) - 1)]
        ranks = [bf.gf2_rank(r) for r in rows]
        entries = [len(f) - r - s
                   for f, r, s in zip(levels, [0] + ranks, ranks + [0])]
        flanked = [rows[i] for i in range(len(ranks))
                   if entries[i] and entries[i + 1]]
        want = _all_q_betti(levels, monkeypatch)
        fed = []
        q_rank = homology._q_rank
        with monkeypatch.context() as m:
            m.setattr(homology, "_q_rank",
                      lambda r: fed.append(list(r)) or q_rank(fed[-1]))
            got = homology._betti(levels)
        if got != want:
            wrong.append((cx, got, want))
        if fed != flanked:
            misrouted.append(cx)
        routed += bool(fed)
    return wrong, misrouted, routed


def test_flank_rule_agrees_with_the_all_q_ranks(monkeypatch):
    corpus = _torsion_corpus()
    rp2 = projective_plane()
    wrong, misrouted, routed = _flank_check(corpus, monkeypatch)
    assert wrong == misrouted == [] and routed > 80

    # skipping the Q pass (ranking the flanked maps over GF(2) again) keeps
    # RP^2's GF(2) entries, and the check sees it
    with monkeypatch.context() as m:
        m.setattr(homology, "_q_rank", linalg.gf2_rank)
        wrong, _, _ = _flank_check(corpus, monkeypatch)
    assert (rp2, (0, 0, 1, 1), (0, 0, 0, 0)) in wrong

    # a GF(2) rank one short on the map from d-chains (rows of d + 1 bits)
    # raises both of its neighbours, so that map goes to Q and is mended
    for d in range(4):
        short = []

        def under_reporting(rows, d=d):
            rows = list(rows)
            rank = linalg.gf2_rank(rows)
            if rank and rows[0].bit_count() == d + 1:
                short.append(rows)
                return rank - 1
            return rank

        with monkeypatch.context() as m:
            m.setattr(homology, "gf2_rank", under_reporting)
            wrong, _, _ = _flank_check(corpus, monkeypatch)
        assert wrong == [] and short, d


def test_over_reported_gf2_rank_is_caught(monkeypatch):
    monkeypatch.setattr(homology, "gf2_rank", lambda rows: linalg.gf2_rank(rows) + 1)
    with pytest.raises(VerificationError, match="negative Betti number"):
        cm_report(independence_complex(cycle_graph(5)))
    with pytest.raises(VerificationError, match="negative Betti number"):
        is_cohen_macaulay(SimplicialComplex([["a", "b"], ["b", "c"], ["a", "c"]]))
    # a simplex collapses to one facet and is never ranked at all
    assert is_cohen_macaulay(SimplicialComplex([["a", "b", "c"]]))[0]


def _walk_only(monkeypatch):
    """Make the vertex-decomposition certificate decline, so that every
    input whose empty face passes takes the link walk."""
    monkeypatch.setattr(homology, "_vertex_decomposable", lambda facets: False)


_OCTAHEDRON_JOIN_EDGE = SimplicialComplex(
    [[a, b, c, "x", "y"] for a in "aA" for b in "bB" for c in "cC"])


def test_links_of_dimension_at_most_zero_are_not_built(monkeypatch):
    # every visited face has its link's Betti numbers searched for a gap
    # once, so the dimensions seen there list the visited links in order
    _walk_only(monkeypatch)
    seen = []
    first_gap = homology._first_gap

    def recording(betti):
        seen.append(len(betti) - 2)
        return first_gap(betti)

    monkeypatch.setattr(homology, "_first_gap", recording)
    for cx in (_OCTAHEDRON_JOIN_EDGE, independence_complex(cycle_graph(5))):
        seen.clear()
        assert is_cohen_macaulay(cx)[0]
        assert seen == [cx.dim] + [cx.dim - k - 1 for k in range(cx.dim - 1)
                                   for _ in cx.faces(k)]
    # a triangle and an edge sharing a vertex: the link of c is disconnected
    seen.clear()
    ok, violation = is_cohen_macaulay(SimplicialComplex([["a", "b", "c"], ["c", "d"]]))
    assert not ok and violation.face == ("c",) and violation.degree == 0
    assert seen == [2, 1, 1, 1]


def _visit_corpus():
    """Seeded complexes that are not pure, and two CM chains."""
    rng = random.Random(97)
    randoms = [cx for cx in (_random_complex(rng, 6) for _ in range(400))
               if not cx.is_pure()]
    chains = [independence_complex(pendant_cycle_chain(rng, 1, 2)),
              independence_complex(pendant_cycle_chain(rng, 2, 1))]
    return randoms, chains


def test_scan_visits_each_face_once_in_order(monkeypatch):
    # a gap reported on the n-th visit only must name the n-th face of the
    # order: the empty face, then by dimension and lexicographically
    _walk_only(monkeypatch)
    calls = []

    def nth_only(betti):
        calls.append(betti)
        return 0 if len(calls) == n else None

    monkeypatch.setattr(homology, "_first_gap", nth_only)
    randoms, chains = _visit_corpus()
    assert len(randoms) > 20
    for cx in randoms + chains:
        order = [()] + [cx.labels(f) for k in range(cx.dim - 1)
                        for f in sorted(cx.faces(k), key=homology._bits)]
        for n, face in enumerate(order, start=1):
            calls.clear()
            ok, violation = is_cohen_macaulay(cx)
            assert not ok and violation.face == face, (cx, n)
        # past the last face nothing is reported, and nothing more visited
        n = len(order) + 1
        calls.clear()
        if cx.is_pure():
            assert is_cohen_macaulay(cx) == (True, None)
        else:
            with pytest.raises(VerificationError):
                is_cohen_macaulay(cx)
        assert len(calls) == len(order)


def _expansion_corpus():
    """Three pentagons and two pendant edges, the shape of the benchmark's
    pg_chain(3, 2), read back from its file text, and a peeled shelling."""
    graph = pendant_cycle_chain(random.Random(11), 3, 2)
    return (parse_complex(independence_complex(graph).to_file_text()),
            _peeled_shelling())


def test_cm_scan_never_expands_the_complex(monkeypatch):
    # a flag chain and a shelling that is not flag, both walked
    _walk_only(monkeypatch)
    corpus = _expansion_corpus()
    built, expanded, ranked = [], [], []
    init, faces = SimplicialComplex.__init__, SimplicialComplex.faces
    betti = homology._betti

    def building(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def expanding(self, k):
        expanded.append(k)
        return faces(self, k)

    monkeypatch.setattr(SimplicialComplex, "__init__", building)
    monkeypatch.setattr(SimplicialComplex, "faces", expanding)
    monkeypatch.setattr(homology, "_betti",
                        lambda levels: ranked.append(levels) or betti(levels))
    for delta in corpus:
        ranked.clear()
        assert cm_report(delta)["cm"]
        # every factor is ranked from its facet masks: no complex is built
        # inside the scan, and no complex's faces are expanded
        assert ranked and built == [] and expanded == [], delta


# ---------------------------------------------------------------------------
# memoised links, ranked on their strong-collapse cores
# ---------------------------------------------------------------------------

def _chains(seed, count):
    rng = random.Random(seed)
    return [independence_complex(pendant_cycle_chain(rng, rng.randint(1, 2),
                                                     rng.randint(0, 2)))
            for _ in range(count)]


def _with_pentagon(graphs):
    """Ind(X + C5) = Ind(X) * Ind(C5) for each graph X."""
    return [independence_complex(disjoint_union(g, cycle_graph(5, "z")))
            for g in graphs]


def _join_corpus():
    """Joins with a pentagon: of each catalog complex, which are not CM and
    have no dominated vertex, and of seeded chains, which are CM."""
    rng = random.Random(83)
    chains = [pendant_cycle_chain(rng, rng.randint(1, 2), rng.randint(0, 2))
              for _ in range(3)]
    return (_with_pentagon(exceptional_catalog().values())
            + _with_pentagon(chains))


# not a flag complex: the links of e and f have the same vertices, but lk(e)
# is two triangles on an edge and lk(f) adds the edge cd, which closes a
# circle below its top, so links are keyed by their facets
_SHARED = SimplicialComplex([["a", "b", "c", "e"], ["a", "b", "c", "f"],
                             ["a", "b", "e", "d"], ["a", "b", "d", "f"],
                             ["c", "d", "f"]])


def _agrees_with_the_face_by_face_scan(cx, monkeypatch):
    """Check the scan of ``cx``, with the certificate on and forced off, and
    ``cm_report`` against ``bf.link_vanishing_scan``; return the violation."""
    betti, violation = bf.link_vanishing_scan(cx)
    assert homology._link_vanishing(cx) == (betti, violation), cx
    with monkeypatch.context() as m:
        _walk_only(m)
        assert homology._link_vanishing(cx) == (betti, violation), cx
    assert cm_report(cx) == {
        "cm": violation is None, "betti": list(betti),
        "violation": None if violation is None else violation.to_json_obj()}
    return violation


def test_collapsed_scan_agrees_with_the_face_by_face_scan(monkeypatch):
    assert cm_report(_SHARED)["violation"] == {"face": ["f"], "degree": 1}
    seen_cm = seen_not = 0
    # flag inputs, the chains and the joins with a pentagon among them, are
    # checked in test_flag_scan_agrees_with_the_general_and_the_face_by_face_scans
    for cx in _scan_corpus() + [_SHARED]:
        violation = _agrees_with_the_face_by_face_scan(cx, monkeypatch)
        seen_cm += violation is None
        seen_not += violation is not None
    assert seen_cm > 100 and seen_not > 100


def _induced_masks(cx, verts):
    """Facets of the subcomplex of ``cx`` induced on the vertex mask."""
    cut = {f & verts for f in cx.facets}
    return frozenset(f for f in cut if not any(f & g == f != g for g in cut))


def _random_induced(count):
    """Seeded random graphs G on 1-9 vertices, pure Ind(G) or not, each with
    Ind(G) and a random vertex mask U."""
    rng = random.Random(103)
    out = []
    for _ in range(count):
        g = _random_graph(rng, rng.randint(1, 9), rng.choice((0.2, 0.4, 0.6)))
        cx = independence_complex(g)
        out.append((g, cx, rng.getrandbits(len(cx.vertices)) | 1))
    return out


def test_strong_core_keeps_the_reduced_homology():
    rng = random.Random(79)
    cases = [_random_complex(rng, 6) for _ in range(150)]
    cases += [independence_complex(cycle_graph(n)) for n in range(3, 8)]
    cases += [projective_plane(), SimplicialComplex([[]])] + _chains(81, 2)
    collapsed = 0
    cases = [(cx, cx.facets) for cx in cases]
    cases += [(cx, _induced_masks(cx, verts)) for _, cx, verts in _random_induced(300)]
    for cx, facets in cases:
        given = [cx.labels(f) for f in facets]
        core = [cx.labels(f) for f in homology._strong_core(facets)]
        assert {frozenset(f) for f in core} == bf.strong_core(
            given, cx.vertices), (cx, facets)
        assert bf.dominated(core) == [], (cx, facets)
        full = bf.betti(bf.faces_from_facets(given))
        b = bf.betti(bf.faces_from_facets(core))
        assert b + (0,) * (len(full) - len(b)) == full, (cx, facets)
        collapsed += len(set().union(*core)) < len(set().union(*given))
    assert collapsed > 150


def _join_factors(core, order):
    """Facet sets of the finest join factors of a flag complex: the
    components of its non-edge graph, each with the core's projections."""
    verts = sorted(set().union(*core), key=order.index)
    parts = []
    for v in verts:
        far = {p for p in parts if any(
            not any({v, w} <= f for f in core) for w in p)}
        parts = [p for p in parts if p not in far] + [
            frozenset({v}).union(*far)]
    return [frozenset(f & p for f in core) for p in parts]


def _shape(facets, order):
    """Facets relabelled in order onto 0..k-1 over their own vertices."""
    verts = sorted(set().union(*facets), key=order.index)
    return frozenset(frozenset(verts.index(v) for v in f) for f in facets)


def _factor_chain():
    return independence_complex(pendant_cycle_chain(random.Random(5), 2, 1))


def test_each_distinct_factor_is_ranked_once(monkeypatch):
    _walk_only(monkeypatch)
    cx = _factor_chain()
    order = list(cx.vertices)
    visited = [0] + [f for k in range(cx.dim - 1) for f in cx.faces(k)]
    links = {cx.link(cx.labels(f)) for f in visited}
    cores = {bf.strong_core(lk.facet_labels(), order) for lk in links}
    factors = [factor for core in cores if len(core) > 1
               for factor in _join_factors(core, order)]
    expected = {_shape(f, order) for f in factors}
    ranked = []
    betti = homology._betti

    def counting(levels):
        # a factor's vertices are relabelled in order onto 0, 1, ...
        ranked.append(frozenset(frozenset(homology._bits(f))
                                for f in _facets_of(levels)))
        return betti(levels)

    monkeypatch.setattr(homology, "_betti", counting)
    assert cm_report(cx)["cm"]
    assert len(ranked) == len(set(ranked)) == len(expected)
    assert set(ranked) == expected
    assert len(visited) > len(links) > len(cores) > len(expected) > 1
    assert len(factors) > len(cores)


def test_non_edge_components_split_only_when_the_facets_count():
    def parts(cx):
        return {cx.labels(p) for p in homology._join_parts(cx.facets)}

    hollow = SimplicialComplex([["a", "b"], ["b", "c"], ["a", "c"]])
    rp2 = projective_plane()
    # neither has a non-edge, and neither is a join of its vertices
    assert parts(hollow) == {("a", "b", "c")}
    assert parts(rp2) == {rp2.vertices}
    # the poles are a component of the non-edge graph, but RP^2's six
    # vertices are six more, and RP^2 is no join of them, so the suspension
    # is one factor
    suspension = join(rp2, SimplicialComplex([["n"], ["s"]]))
    assert parts(suspension) == {suspension.vertices}
    # Ind(X + C5) splits along the components of X + C5
    for cx in _with_pentagon(exceptional_catalog().values()):
        assert parts(cx) == {
            tuple(v for v in cx.vertices if v.startswith("z")),
            tuple(v for v in cx.vertices if not v.startswith("z"))}, cx
    # every split is a join of the projections: on random complexes, and on
    # the joins of any two complexes on <= 3 vertices whose cores are not a
    # simplex
    rng = random.Random(89)
    cases = [_random_complex(rng, 6) for _ in range(200)]
    small = [cx for n in range(1, 4) for cx in all_complexes_on(n)
             if len(homology._strong_core(cx.facets)) > 1]
    cases += [join(SimplicialComplex([["a" + v for v in f] for f in a.facet_labels()]),
                   SimplicialComplex([["b" + v for v in f] for f in b.facet_labels()]))
              for a in small for b in small]
    split = 0
    for cx in cases:
        core = homology._strong_core(cx.facets)
        masks = homology._join_parts(core)
        assert sum(masks) == reduce(or_, masks) == reduce(or_, core), cx
        product = {reduce(or_, pick) for pick in itertools.product(
            *({f & m for f in core} for m in masks))}
        assert product == core, cx
        split += len(masks) > 1
    # all but the joins with a hollow triangle, the one core here that is
    # not flag: it has no non-edge, so its vertices are three components
    # and it is no join of them, and such a join is ranked whole
    assert split >= (len(small) - 1) ** 2


# ---------------------------------------------------------------------------
# flag and non-flag inputs, walked in the same form
# ---------------------------------------------------------------------------

def _random_graph(rng, n, p):
    verts = [f"g{i}" for i in range(n)]
    return Graph(verts, [e for e in itertools.combinations(verts, 2)
                         if rng.random() < p])


def _pure_random_flag(count):
    """Pure Ind(G) of seeded random graphs on 5-10 vertices, dimension >= 1."""
    rng = random.Random(101)
    out = []
    while len(out) < count:
        cx = independence_complex(_random_graph(rng, rng.randint(5, 10),
                                                rng.choice((0.3, 0.45, 0.6, 0.75))))
        if cx.is_pure() and cx.dim >= 1:
            out.append(cx)
    return out


def _peeled_shelling():
    """C5 * C5 * P2 (5-cycles as graphs, two points) with the last 30 % of
    its lexicographic shelling peeled off: pure, shellable and not flag."""
    cycles = [[(f"{p}{i}", f"{p}{(i + 1) % 5}") for i in range(5)] for p in "xy"]
    shelling = [a + b + (c,) for a in cycles[0] for b in cycles[1] for c in "pq"]
    return SimplicialComplex(shelling[:35])


# two hollow triangles on the edge ab: pure and not flag
_THETA = SimplicialComplex([["a", "b"], ["b", "c"], ["a", "c"],
                            ["b", "d"], ["a", "d"]])


def test_flag_scan_agrees_with_the_general_and_the_face_by_face_scans(monkeypatch):
    # a flag input is scanned in the general form, on its facet masks; with
    # the certificate on and forced off it agrees with the face-by-face scan
    small = _pure_random_flag(160)
    small.append(SimplicialComplex([["a", "b", "c"], ["a", "b", "d"]]))
    catalog = [independence_complex(g) for g in exceptional_catalog().values()]
    for cx in small + catalog:
        assert bf.is_flag(bf.faces_from_facets(cx.facet_labels())), cx
    seen_cm = seen_not = seen_deep = 0
    for cx in small + catalog + _chains(73, 6) + _join_corpus():
        violation = _agrees_with_the_face_by_face_scan(cx, monkeypatch)
        seen_cm += violation is None
        seen_not += violation is not None
        # a flag complex failing below the empty face, found by the walk
        seen_deep += violation is not None and violation.face != ()
    assert seen_cm > 140 and seen_not > 20 and seen_deep > 5


def test_non_flag_or_non_pure_complexes_agree_with_the_face_by_face_scan():
    theta = _THETA
    peeled = _peeled_shelling()
    overlinked = independence_complex(overlinked_pentagon_graph())
    for cx in (projective_plane(), theta, peeled):
        assert cx.is_pure()
        assert not bf.is_flag(bf.faces_from_facets(cx.facet_labels())), cx
    for cx in (_SHARED, overlinked):
        assert not cx.is_pure()
    for cx in (projective_plane(), _SHARED, theta, peeled, overlinked):
        assert homology._link_vanishing(cx) == bf.link_vanishing_scan(cx), cx
    # a connected graph and a shellable complex are CM; theta read as the
    # flag complex of its 1-skeleton would be a cone over the non-edge cd,
    # with no homology
    assert cm_report(theta) == {"cm": True, "betti": [0, 0, 2], "violation": None}
    assert is_cohen_macaulay(peeled)[0]


def _fold_core(nb, verts):
    """Vertex mask left by Engstrom's fold (Discrete Math. 309, 2009) of the
    graph with neighbour masks ``nb`` induced on ``verts``, in the passes of
    ``homology._strong_core``: a pass on the vertex mask P deletes each v for
    which some w != v still present has N(w) & P inside N(v), that is, w
    dominates v in Ind(G[P])."""
    while True:
        alive = verts
        for v in range(len(nb)):
            if verts >> v & 1 and any(
                    w != v and alive >> w & 1 and not nb[w] & verts & ~nb[v]
                    for w in range(len(nb))):
                alive ^= 1 << v
        if alive == verts:
            return verts
        verts = alive


def test_fold_core_is_the_strong_core():
    # on random graphs, pure or not, and random vertex subsets U, the fold
    # core of G[U] carries Ind(G[U])'s strong-collapse core, and the join
    # factors of Ind(G[U]) and of its core are the components of the graph's
    folded = split = 0
    for g, cx, verts in _random_induced(300):
        ind = _induced_masks(cx, verts)
        core = _fold_core(g.nb, verts)
        assert _induced_masks(cx, core) == homology._strong_core(ind), (g, verts)
        assert {frozenset(cx.labels(f))
                for f in _induced_masks(cx, core)} == bf.strong_core(
            [cx.labels(f) for f in ind], cx.vertices), (g, verts)
        folded += core != verts
        for part in (verts, core):
            parts = homology._join_parts(_induced_masks(cx, part))
            sub = g.subgraph(cx.labels(part))
            assert [cx.labels(p) for p in parts] == [
                tuple(c) for c in sub.components()], (g, part)
            split += len(parts) > 1
    assert folded > 100 and split > 100


def test_a_whole_factor_is_ranked_as_the_complex_itself(monkeypatch):
    # Ind(P13) has no dominated vertex and a connected graph, so the empty
    # face's core is one factor: the complex itself is ranked, and no other
    # complex is built before the scan stops there
    cx = independence_complex(exceptional_catalog()["P13"])
    ranked, built = [], []
    init, betti = SimplicialComplex.__init__, homology._betti

    def recording(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(homology, "_betti",
                        lambda levels: ranked.append(tuple(levels)) or betti(levels))
    monkeypatch.setattr(SimplicialComplex, "__init__", recording)
    ok, violation = is_cohen_macaulay(cx)
    assert not ok and violation.face == ()
    assert ranked == [_levels(cx)] and built == []


# ---------------------------------------------------------------------------
# the vertex-decomposition certificate after the empty face
# ---------------------------------------------------------------------------

def _recording_attempts(monkeypatch):
    """Record each complex offered to the certificate, by its facets, and
    what it answered."""
    attempts = []
    search = homology._vertex_decomposable

    def recording(facets):
        attempts.append((frozenset(facets), search(facets)))
        return attempts[-1][1]

    monkeypatch.setattr(homology, "_vertex_decomposable", recording)
    return attempts


def _walk_report(cx, monkeypatch):
    """cm_report and is_cohen_macaulay with the certificate declining."""
    with monkeypatch.context() as m:
        _walk_only(m)
        return cm_report(cx), is_cohen_macaulay(cx)


def test_certificate_answers_on_the_walk_tests_cm_inputs(monkeypatch):
    # the CM inputs of the walk's own tests above: each is certified right
    # after the empty face, with the walk's report, and no other face is
    # visited, no complex built and no face expanded
    _, chains = _visit_corpus()
    cases = [_OCTAHEDRON_JOIN_EDGE, independence_complex(cycle_graph(5)),
             *chains, *_expansion_corpus(), _factor_chain()]
    walked = [_walk_report(cx, monkeypatch) for cx in cases]
    attempts = _recording_attempts(monkeypatch)
    gaps, built, expanded = [], [], []
    first_gap = homology._first_gap
    init, faces = SimplicialComplex.__init__, SimplicialComplex.faces
    monkeypatch.setattr(homology, "_first_gap",
                        lambda betti: gaps.append(betti) or first_gap(betti))
    monkeypatch.setattr(SimplicialComplex, "__init__",
                        lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    monkeypatch.setattr(SimplicialComplex, "faces",
                        lambda self, k: expanded.append(k) or faces(self, k))
    for cx, (report, verdict) in zip(cases, walked):
        attempts.clear()
        gaps.clear()
        assert (cm_report(cx), is_cohen_macaulay(cx)) == (report, verdict), cx
        assert report["cm"] and verdict == (True, None), cx
        assert attempts == [(frozenset(cx.facets), True)] * 2, cx
        assert len(gaps) == 2, cx
    assert built == [] and expanded == []


def _pure_random(count, seed):
    """Seeded pure complexes: 2-9 random facets of one size on 4-7
    vertices."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(4, 7)
        verts = [f"v{i}" for i in range(n)]
        size = rng.randint(2, n - 1)
        out.append(SimplicialComplex(
            [rng.sample(verts, size) for _ in range(rng.randint(2, 9))]))
    return out


def _factor(rng, tag):
    """The facets, in a shelling order, of a cycle, a set of points or a
    simplex on a few vertices labelled by ``tag``."""
    kind, k = rng.choice(("cycle", "points", "simplex")), rng.randint(2, 5)
    vs = [f"{tag}{i}" for i in range(max(k, 3) if kind == "cycle" else k)]
    if kind == "cycle":
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]
    if kind == "points":
        return [(v,) for v in vs]
    return [tuple(vs)]


def _join_shellings(count, seed):
    """Joins of two or three random factors, each as its lexicographic
    shelling (a shelling of a join), and the same with a random tail peeled
    off (a shorter shelling); both are pure and shellable."""
    rng = random.Random(seed)
    joins, peeled = [], []
    while len(joins) < count:
        shelling = [()]
        for tag in "xyz"[:rng.randint(2, 3)]:
            factor = _factor(rng, tag)
            shelling = [f + g for f in shelling for g in factor]
        if len({v for f in shelling for v in f}) > 7:
            continue
        joins.append(SimplicialComplex(shelling))
        peeled.append(SimplicialComplex(shelling[:rng.randint(1, len(shelling))]))
    return joins, peeled


def test_certificate_agrees_with_the_oracle_and_the_walk(monkeypatch):
    # whenever the certificate says yes, the exhaustive search finds a
    # decomposition and the face-list test finds the complex CM; with the
    # certificate declining, every report and verdict is the same
    joins, peeled = _join_shellings(30, 107)
    corpora = {"pure random": _pure_random(200, 109), "join": joins,
               "peeled": peeled, "pure flag": _pure_random_flag(60)}
    certified = {name: 0 for name in corpora}
    declined_cm = declined_not = 0
    for name, cases in corpora.items():
        for cx in cases:
            assert cx.is_pure(), cx
            walked = _walk_report(cx, monkeypatch)
            assert (cm_report(cx), is_cohen_macaulay(cx)) == walked, cx
            if homology._vertex_decomposable(cx.facets):
                assert bf.is_vertex_decomposable(cx.facet_labels()), cx
                assert bf.is_cm(bf.faces_from_facets(cx.facet_labels())), cx
                assert walked[1] == (True, None), cx
                certified[name] += 1
            elif walked[1][0]:
                declined_cm += 1
            else:
                declined_not += 1
    # shellings are always certified here; random complexes both ways
    assert certified["join"] == certified["peeled"] == 30
    assert certified["pure random"] > 30 and certified["pure flag"] > 30
    assert declined_not > 50


def test_non_pure_complexes_make_no_attempt(monkeypatch):
    # a triangle and an edge sharing c, and the overlinked chains, are
    # vertex decomposable but not pure, so not CM: the purity test saves
    # the attempt, the search would decline each one too, and the walk
    # finds each first violation
    search = homology._vertex_decomposable
    attempts = _recording_attempts(monkeypatch)
    bowtie = SimplicialComplex([["a", "b", "c"], ["c", "d"]])
    assert bf.is_vertex_decomposable(bowtie.facet_labels())
    overlinked = {(2, 2): (("p0_b",), 3), (3, 0): ((), 4),
                  (2, 3): (("p1_b",), 4), (3, 1): (("c2_1",), 4)}
    cases = [(bowtie, ("c",), 0)] + [
        (independence_complex(pg_chain(j, l, overlink=True)), face, degree)
        for (j, l), (face, degree) in overlinked.items()]
    for cx, face, degree in cases:
        assert not cx.is_pure()
        assert not search(cx.facets), cx
        ok, violation = is_cohen_macaulay(cx)
        assert not ok and (violation.face, violation.degree) == (face, degree), cx
        assert not cm_report(cx)["cm"], cx
    assert attempts == []
    assert bf.link_vanishing_scan(bowtie)[1] == is_cohen_macaulay(bowtie)[1]
    # every deletion keeps its facets' sizes, so no non-pure complex is
    # certified, decomposable or not
    rng = random.Random(5)
    non_pure = [cx for cx in (_random_complex(rng, 8) for _ in range(3000))
                if not cx.is_pure()]
    for cx in non_pure:
        assert not search(cx.facets), cx
    decomposable = sum(bf.is_vertex_decomposable(cx.facet_labels())
                       for cx in non_pure)
    assert len(non_pure) > 400 and decomposable > 300


def test_flag_rejects_at_the_empty_face_make_no_attempt(monkeypatch):
    # the catalog complexes and their joins with a pentagon are pure and
    # fail at the empty face: the search is never paid for
    attempts = _recording_attempts(monkeypatch)
    catalog = [independence_complex(g) for g in exceptional_catalog().values()]
    cases = catalog + _with_pentagon(exceptional_catalog().values())
    for cx in cases:
        assert cx.is_pure(), cx
        ok, violation = is_cohen_macaulay(cx)
        assert not ok and violation.face == (), cx
        assert cm_report(cx)["violation"]["face"] == [], cx
    assert attempts == []


def test_projective_plane_takes_the_walk(monkeypatch):
    # RP^2 is CM over Q but not over GF(2), so it has no vertex
    # decomposition: the search declines and the walk visits the empty face
    # and the six vertices
    rp2 = projective_plane()
    assert not bf.is_vertex_decomposable(rp2.facet_labels())
    attempts = _recording_attempts(monkeypatch)
    gaps = []
    first_gap = homology._first_gap
    monkeypatch.setattr(homology, "_first_gap",
                        lambda betti: gaps.append(betti) or first_gap(betti))
    assert cm_report(rp2) == {"cm": True, "betti": [0, 0, 0, 0], "violation": None}
    assert attempts == [(frozenset(rp2.facets), False)]
    assert len(gaps) == 1 + len(rp2.vertices)


def _certified_corpus():
    """Seeded CM chains, joins with a pentagon, and the shellings."""
    joins, peeled = _join_shellings(10, 113)
    chains = _chains(127, 4)
    return chains + _with_pentagon(
        [pendant_cycle_chain(random.Random(131), 1, 1)]) + joins + peeled


def test_a_budget_of_zero_changes_no_answer(monkeypatch):
    # the budget counts shedding tests: with none allowed, only a simplex
    # is certified, and every other input takes the walk to the same answer
    cases = _certified_corpus()
    answers = [(cm_report(cx), is_cohen_macaulay(cx)) for cx in cases]
    for cx in cases:
        assert homology._vertex_decomposable(cx.facets), cx
    monkeypatch.setattr(homology, "_SHED_BUDGET", 0)
    for cx, answer in zip(cases, answers):
        assert homology._vertex_decomposable(cx.facets) == (len(cx.facets) == 1), cx
        assert (cm_report(cx), is_cohen_macaulay(cx)) == answer, cx
        assert answer[1] == (True, None), cx


def test_pg_chain_6_2_certifies_inside_the_budget(monkeypatch):
    # Ind(pg_chain(6, 2)): n = 34, d = 14 and 17 711 facets, each of its
    # subcomplexes decomposed once; the search's path is pinned by its
    # exact count, 141 871 shedding tests
    cx = independence_complex(pg_chain(6, 2))
    assert len(cx.vertices) == 34 and cx.dim == 13 and len(cx.facets) == 17711
    assert homology._vertex_decomposable(cx.facets)
    monkeypatch.setattr(homology, "_SHED_BUDGET", 141_870)
    assert not homology._vertex_decomposable(cx.facets)
    monkeypatch.setattr(homology, "_SHED_BUDGET", 141_871)
    assert homology._vertex_decomposable(cx.facets)
