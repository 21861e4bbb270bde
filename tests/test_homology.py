import itertools
import random

import pytest

import bruteforce as bf
from conftest import all_complexes_on, cycle_graph
from facebalance import homology, linalg
from facebalance.classify import exceptional_catalog
from facebalance.complexes import (SimplicialComplex, VerificationError,
                                   independence_complex)
from facebalance.homology import (boundary_rank, cm_report, is_cohen_macaulay,
                                  reduced_betti)


def _random_complex(rng, max_vertices):
    n = rng.randint(1, max_vertices)
    verts = [f"v{i}" for i in range(n)]
    facets = [rng.sample(verts, rng.randint(1, n))
              for _ in range(rng.randint(1, 4))]
    return SimplicialComplex(facets)


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


def test_boundary_of_boundary_is_zero():
    rng = random.Random(17)
    for _ in range(15):
        cx = _random_complex(rng, 6)
        for i in range(1, cx.dim + 1):
            below = {f: k for k, f in enumerate(cx.faces(i - 1))}
            above = {f: k for k, f in enumerate(cx.faces(i))}
            # compose two boundary maps entrywise and check they cancel
            if i == 1:
                continue
            below2 = {f: k for k, f in enumerate(cx.faces(i - 2))}
            for face in cx.faces(i):
                total = {}
                for pos in range(len(face)):
                    sub = face[:pos] + face[pos + 1:]
                    s1 = (-1) ** pos
                    for pos2 in range(len(sub)):
                        sub2 = sub[:pos2] + sub[pos2 + 1:]
                        s2 = (-1) ** pos2
                        total[below2[sub2]] = total.get(below2[sub2], 0) + s1 * s2
                assert all(v == 0 for v in total.values())
            assert below and above  # loop ran over real faces


# ---------------------------------------------------------------------------
# Betti profiles
# ---------------------------------------------------------------------------

def test_full_simplex_has_no_reduced_homology():
    simplex = SimplicialComplex([["a", "b", "c", "d"]])
    assert tuple(reduced_betti(simplex)) == (0, 0, 0, 0, 0)


def test_pentagon_complex_is_a_circle():
    ic = independence_complex(cycle_graph(5))
    profile = reduced_betti(ic)
    assert profile.degree(0) == 0 and profile.degree(1) == 1
    assert tuple(profile) == (0, 0, 1)


def test_empty_complex_betti():
    assert tuple(reduced_betti(SimplicialComplex([[]]))) == (1,)


def test_two_points_betti():
    two = SimplicialComplex([["a"], ["b"]])
    assert tuple(reduced_betti(two)) == (0, 1)


def test_sphere_boundary_of_simplex():
    boundary = SimplicialComplex(
        [list(f) for f in itertools.combinations("abcd", 3)])
    assert tuple(reduced_betti(boundary)) == (0, 0, 0, 1)


def test_betti_matches_bruteforce_on_random_complexes():
    rng = random.Random(29)
    for _ in range(30):
        cx = _random_complex(rng, 6)
        faces = bf.faces_from_facets(cx.facet_labels())
        assert tuple(reduced_betti(cx)) == bf.betti(faces)


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
        ok_join, _ = is_cohen_macaulay(a.join(b))
        assert ok_join == (ok_a and ok_b)


def test_cm_report_shape():
    report = cm_report(independence_complex(cycle_graph(5)))
    assert report == {"cm": True, "betti": [0, 0, 1], "violation": None}


def _projective_plane():
    # the 6-vertex non-orientable surface: chi = 1, so no rational homology
    # at all, but H_1 has 2-torsion, so over GF(2) it has b_1 = b_2 = 1
    faces = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
             (2, 3, 5), (3, 5, 6), (3, 4, 6), (2, 4, 6), (2, 4, 5)]
    return SimplicialComplex([[str(v) for v in f] for f in faces])


def test_projective_plane_is_rationally_trivial_and_cm():
    # over the rationals the link-vanishing test passes
    cx = _projective_plane()
    assert cx.f_vector() == (1, 6, 15, 10)
    assert tuple(reduced_betti(cx)) == (0, 0, 0, 0)
    ok, _ = is_cohen_macaulay(cx)
    assert ok


# ---------------------------------------------------------------------------
# the GF(2) certificate in front of the rational scan
# ---------------------------------------------------------------------------

def _exact_scan(cx, monkeypatch):
    """cm_report and the violation with every boundary ranked over Q."""
    with monkeypatch.context() as m:
        m.setattr(homology, "_gf2_boundary_rank", boundary_rank)
        return cm_report(cx), is_cohen_macaulay(cx)[1]


def test_gf2_scan_agrees_with_the_exact_scan(monkeypatch):
    rng = random.Random(71)
    cases = [cx for n in range(1, 5) for cx in all_complexes_on(n)]
    for _ in range(120):
        n = rng.randint(5, 6)
        cases.append(SimplicialComplex(
            [rng.sample([f"v{i}" for i in range(n)], rng.randint(1, n))
             for _ in range(rng.randint(1, 4))]))
    cases += [independence_complex(g) for g in exceptional_catalog().values()]
    cases += [SimplicialComplex([[]]), _projective_plane()]
    seen_cm = seen_not = 0
    for cx in cases:
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
    rp2 = _projective_plane()
    suspension = rp2.join(SimplicialComplex([["n"], ["s"]]))
    assert tuple(reduced_betti(suspension)) == (0, 0, 0, 0, 0)
    ranked_over_q = []

    def counting(delta, i):
        ranked_over_q.append((delta, i))
        return boundary_rank(delta, i)

    monkeypatch.setattr(homology, "boundary_rank", counting)
    # every other link is a circle, a suspended circle or a set of points
    for cx, expected in ((rp2, [rp2]), (suspension, [suspension, rp2, rp2])):
        ranked_over_q.clear()
        ok, violation = is_cohen_macaulay(cx)
        assert ok and violation is None
        assert ranked_over_q == [(delta, i) for delta in expected
                                 for i in range(delta.dim + 1)]
    assert suspension.link(["n"]) == suspension.link(["s"]) == rp2


def test_over_reported_gf2_rank_is_caught(monkeypatch):
    monkeypatch.setattr(homology, "gf2_rank", lambda rows: linalg.gf2_rank(rows) + 1)
    with pytest.raises(VerificationError, match="negative Betti number"):
        cm_report(independence_complex(cycle_graph(5)))
    with pytest.raises(VerificationError, match="negative Betti number"):
        is_cohen_macaulay(SimplicialComplex([["a", "b", "c"]]))


def test_links_of_dimension_at_most_zero_are_not_built(monkeypatch):
    built = []
    original = SimplicialComplex.link

    def counting(self, face_labels):
        face_labels = tuple(face_labels)
        built.append(len(face_labels) - 1)
        return original(self, face_labels)

    monkeypatch.setattr(SimplicialComplex, "link", counting)
    octahedron_join_edge = SimplicialComplex(
        [[a, b, c, "x", "y"] for a in "aA" for b in "bB" for c in "cC"])
    for cx in (octahedron_join_edge, independence_complex(cycle_graph(5))):
        built.clear()
        assert is_cohen_macaulay(cx)[0]
        assert built == [k for k in range(cx.dim - 1) for _ in cx.faces(k)]
    # a triangle and an edge sharing a vertex: the link of c is disconnected
    built.clear()
    ok, violation = is_cohen_macaulay(SimplicialComplex([["a", "b", "c"], ["c", "d"]]))
    assert not ok and violation.face == ("c",) and violation.degree == 0
    assert built == [0, 0, 0]
