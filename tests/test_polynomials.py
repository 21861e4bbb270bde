import itertools
import random
from fractions import Fraction

import pytest

import bruteforce as bf
from facebalance.balancing import base_pair_points
from facebalance.complexes import SimplicialComplex, independence_complex
from facebalance.polynomials import (LinearAutomorphism, Multicomplex,
                                     Specialization, SpecializationError,
                                     StandardBasisOverflow, TermOrder,
                                     apply_automorphism,
                                     initial_ideal_by_degree,
                                     monomial_divides,
                                     specialization_stream,
                                     stanley_reisner_generators,
                                     standard_monomial_basis)
from conftest import (cycle_graph, disjoint_union, identity_automorphism,
                      path_graph)


from hypothesis import given, strategies as st

_exponents = st.tuples(*[st.integers(min_value=0, max_value=4)] * 3)


@given(_exponents, _exponents)
def test_revlex_is_a_total_order(m1, m2):
    # tuple keys are totally preordered; distinct keys make the order total
    key = TermOrder(("x", "y", "z"), 0).sort_key
    assert (key(m1) < key(m2)) == _rule_precedes(m1, m2)
    assert (key(m1) == key(m2)) == (m1 == m2)


def _rule_precedes(m1, m2):
    """The order definition, written independently of the library."""
    if sum(m1) != sum(m2):
        return sum(m1) < sum(m2)
    for i in range(len(m1) - 1, -1, -1):
        if m1[i] != m2[i]:
            return m1[i] > m2[i]
    return False


# ---------------------------------------------------------------------------
# the monomial order
# ---------------------------------------------------------------------------

def test_revlex_degree_two_chain():
    order = TermOrder(("x", "y", "z"), 0)
    monomials = [m for m in order.monomials_of_degree(2)]
    descending = sorted(monomials, key=order.sort_key, reverse=True)
    # x^2, xy, y^2, xz, yz, z^2
    assert descending == [(2, 0, 0), (1, 1, 0), (0, 2, 0),
                          (1, 0, 1), (0, 1, 1), (0, 0, 2)]


def test_revlex_matches_rule_bruteforce():
    order = TermOrder(("a", "b", "c", "d"), 0)
    monos = list(order.monomials_of_degree(3)) + list(order.monomials_of_degree(2))
    for m1, m2 in itertools.product(monos, repeat=2):
        if m1 == m2:
            assert order.sort_key(m1) == order.sort_key(m2)
        else:
            assert (order.sort_key(m1) < order.sort_key(m2)) == _rule_precedes(m1, m2)


def test_revlex_degree_first():
    order = TermOrder(("x", "y"), 0)
    assert order.sort_key((1, 0)) < order.sort_key((1, 1))
    assert order.sort_key((0, 2)) == order.sort_key((0, 2))


# ---------------------------------------------------------------------------
# Stanley-Reisner generators
# ---------------------------------------------------------------------------

def test_sr_generators_full_simplex_empty():
    simplex = SimplicialComplex([["a", "b", "c"]])
    assert stanley_reisner_generators(simplex, TermOrder(simplex.vertices, 0)) == []


def test_sr_generators_hollow_triangle():
    hollow = SimplicialComplex([["a", "b"], ["b", "c"], ["a", "c"]])
    gens = stanley_reisner_generators(hollow, TermOrder(hollow.vertices, 0))
    assert gens == [(1, 1, 1)]


def test_sr_generators_of_flag_complexes_are_quadratic():
    for n in (4, 5, 7):
        ic = independence_complex(cycle_graph(n))
        gens = stanley_reisner_generators(ic, TermOrder(ic.vertices, 0))
        assert all(sum(m) == 2 for m in gens)
        assert len(gens) == n  # one generator per cycle edge


def test_sr_generators_with_missing_universe_vertices():
    cx = SimplicialComplex([["a", "b"]])
    order = TermOrder(("a", "b", "c"), 0)
    gens = stanley_reisner_generators(cx, order)
    assert (0, 0, 1) in gens  # the absent vertex is a minimal non-face


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def test_identity_automorphism_fixes_polynomials():
    order = TermOrder(("x", "y"), 0)
    g = identity_automorphism(order.variables)
    p = {(2, 0): Fraction(3), (1, 1): Fraction(-1)}
    assert apply_automorphism(g, p) == p


def test_points_twist_on_a_product():
    # last variable maps to the sum of all variables
    pair = base_pair_points(("u", "v", "w"))
    g = pair.matrix
    p = {(1, 0, 1): Fraction(1)}  # u*w with w last
    image = apply_automorphism(g, p)
    assert image == {(2, 0, 0): Fraction(1), (1, 1, 0): Fraction(1),
                     (1, 0, 1): Fraction(1)}


def test_automorphism_inverse_roundtrip_random():
    rng = random.Random(13)
    labels = ("a", "b", "c")
    for _ in range(15):
        while True:
            rows = tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
                         for _ in range(3))
            if bf.dense_rank(rows) == 3:
                break
        g = LinearAutomorphism(labels, rows)
        ginv = g.inverse()
        p = {tuple(rng.randint(0, 2) for _ in range(3)): Fraction(rng.randint(-5, 5))
             for _ in range(3)}
        p = {m: c for m, c in p.items() if c}
        assert apply_automorphism(ginv, apply_automorphism(g, p)) == p


def test_automorphism_json_uses_rational_strings():
    g = LinearAutomorphism(("x",), ((Fraction(1, 2),),))
    assert g.to_json_obj()["matrix"] == [["1/2"]]


# ---------------------------------------------------------------------------
# per-degree initial ideal
# ---------------------------------------------------------------------------

def test_all_variables_leave_nothing_standard():
    order = TermOrder(("x", "y", "z"), 0)
    gens = [{order.variable(v): Fraction(1)} for v in order.variables]
    leading, standard = initial_ideal_by_degree(gens, order, 1)
    assert standard == set()
    assert leading == set(order.monomials_of_degree(1))


def test_no_generators_leave_everything_standard():
    order = TermOrder(("x", "y"), 0)
    leading, standard = initial_ideal_by_degree([], order, 2)
    assert leading == set()
    assert standard == set(order.monomials_of_degree(2))


def test_initial_ideal_rejects_inhomogeneous():
    order = TermOrder(("x", "y"), 0)
    bad = {(1, 0): Fraction(1), (1, 1): Fraction(1)}
    with pytest.raises(ValueError):
        initial_ideal_by_degree([bad], order, 2)


def _random_homogeneous(order, degree, rng):
    monos = list(order.monomials_of_degree(degree))
    p = {}
    for m in rng.sample(monos, rng.randint(1, min(4, len(monos)))):
        p[m] = Fraction(rng.randint(-4, 4))
    return {m: c for m, c in p.items() if c}


def test_initial_ideal_matches_dense_macaulay_oracle():
    rng = random.Random(41)
    order = TermOrder(("x", "y", "z"), 0)
    key_desc = lambda m: tuple(-k for k in
                               ((sum(m),) + tuple(-e for e in reversed(m))))
    for _ in range(25):
        gens = []
        for _ in range(rng.randint(1, 3)):
            p = _random_homogeneous(order, rng.choice([1, 2]), rng)
            if p:
                gens.append(p)
        for degree in (1, 2, 3):
            _, standard = initial_ideal_by_degree(gens, order, degree)
            expected = bf.macaulay_standard(gens, order.variables, degree, key_desc)
            assert standard == expected


def test_pivot_set_invariant_under_generator_shuffles():
    rng = random.Random(43)
    order = TermOrder(("x", "y", "z", "w"), 0)
    gens = [
        {(1, 1, 0, 0): Fraction(1), (0, 0, 1, 1): Fraction(2)},
        {(0, 2, 0, 0): Fraction(1), (1, 0, 0, 1): Fraction(-1)},
        {(0, 0, 2, 0): Fraction(3)},
        {(1, 0, 1, 0): Fraction(1), (0, 1, 1, 0): Fraction(1), (0, 0, 0, 2): Fraction(5)},
    ]
    reference = initial_ideal_by_degree(gens, order, 3)
    for _ in range(6):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = [{m: c * rng.choice([1, 2, -3]) for m, c in p.items()}
                  for p in shuffled]
        assert initial_ideal_by_degree(scaled, order, 3) == reference


# ---------------------------------------------------------------------------
# standard monomial basis
# ---------------------------------------------------------------------------

def test_single_point_basis_is_unit():
    pt = SimplicialComplex([["p"]])
    pair = base_pair_points(("p",))
    basis = standard_monomial_basis(pt, pair.matrix, pair.order)
    assert basis.monomials == {(0,)}
    assert basis.f_vector() == (1,)


def test_three_points_basis_counts_h():
    pts = SimplicialComplex([["a"], ["b"], ["c"]])
    pair = base_pair_points(("a", "b", "c"))
    basis = standard_monomial_basis(pts, pair.matrix, pair.order)
    assert basis.f_vector() == (1, 2)
    assert basis.is_squarefree()


def test_points_squares_are_leading_terms():
    # for any non-last vertices the product survives the twist unchanged
    pair = base_pair_points(("a", "b", "c", "d"))
    pts = SimplicialComplex([["a"], ["b"], ["c"], ["d"]])
    order = pair.order
    gens = [{order.variable(t): Fraction(1)} for t in order.tail()]
    for nu in stanley_reisner_generators(pts, order):
        gens.append(apply_automorphism(pair.matrix, {nu: Fraction(1)}))
    leading, _ = initial_ideal_by_degree(gens, order, 2)
    for v in order.free():
        square = tuple(2 * e for e in order.variable(v))
        assert square in leading
    assert order.monomial_of(("a", "b")) in leading


def test_overflow_guard_when_tail_is_not_a_parameter_system():
    two = SimplicialComplex([["a"], ["b"]])
    order = TermOrder(("a", "b"), 1)
    g = identity_automorphism(order.variables)
    with pytest.raises(StandardBasisOverflow):
        standard_monomial_basis(two, g, order)


def test_basis_requires_matching_tail_size():
    pt = SimplicialComplex([["p"]])
    order = TermOrder(("p",), 0)
    with pytest.raises(ValueError):
        standard_monomial_basis(pt, identity_automorphism(("p",)), order)


def test_basis_of_the_empty_complex():
    order = TermOrder((), 0)
    basis = standard_monomial_basis(SimplicialComplex([[]]),
                                    identity_automorphism(()), order)
    assert basis.monomials == {()}
    assert basis.f_vector() == (1,)


def test_basis_with_universe_larger_than_the_complex():
    # the complex misses a universe vertex: its variable joins the ideal
    pts = SimplicialComplex([["a"], ["b"]])
    pair = base_pair_points(("a", "b", "c"))
    basis = standard_monomial_basis(pts, pair.matrix, pair.order)
    assert basis.f_vector() == (1, 1)  # h of two points with d = 1
    unused = pair.order.index("c")
    assert all(m[unused] == 0 for m in basis.monomials)


# ---------------------------------------------------------------------------
# multicomplexes
# ---------------------------------------------------------------------------

def test_multicomplex_f_vector_unit():
    mc = Multicomplex(("x",), frozenset({(0,)}))
    assert mc.is_divisibility_closed()
    assert mc.f_vector() == (1,)


def test_squarefree_multicomplex_shifts_f_vector():
    cx = SimplicialComplex([["a", "b"], ["b", "c"]])
    order = TermOrder(cx.vertices, 0)
    monomials = {order.monomial_of(cx.labels(f))
                 for k in range(-1, cx.dim + 1) for f in cx.faces(k)}
    mc = Multicomplex(order.variables, frozenset(monomials))
    assert mc.is_squarefree() and mc.is_divisibility_closed()
    assert mc.f_vector() == cx.f_vector()
    assert mc.to_complex() == cx


def test_divisibility_closure_detection():
    mc = Multicomplex(("x", "y"), frozenset({(0, 0), (1, 1)}))
    assert not mc.is_divisibility_closed()
    assert Multicomplex(("x", "y"), frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})
                        ).is_divisibility_closed()


def test_multicomplex_json_shape():
    mc = Multicomplex(("x", "y"), frozenset({(0, 0), (1, 0), (1, 1)}))
    obj = mc.to_json_obj()
    assert obj["F"] == [1, 1, 1]
    assert {"x": 1, "y": 1} in obj["monomials"]


# ---------------------------------------------------------------------------
# scalar specialization
# ---------------------------------------------------------------------------

def test_default_specialization_values():
    spec = Specialization()
    assert spec.values == (1, 2, 3, 5)
    assert spec.z_matrix() == ((1, 2), (3, 5))


def test_degenerate_specialization_rejected():
    with pytest.raises(SpecializationError):
        Specialization((Fraction(1), Fraction(2), Fraction(2), Fraction(4)))


def test_specialization_stream_is_deterministic():
    a = list(itertools.islice(specialization_stream(99), 5))
    b = list(itertools.islice(specialization_stream(99), 5))
    assert a == b
    assert a[0] == Specialization()
    assert all(s.values[0] * s.values[3] != s.values[1] * s.values[2] for s in a)


def test_monomial_divides():
    assert monomial_divides((1, 0), (2, 3))
    assert not monomial_divides((1, 1), (0, 5))


def test_pipeline_generators_match_dense_oracle():
    # the basis sweeps the free variables with the tail set to zero; the
    # dense no-shortcut Macaulay matrix over all n variables, with the tail
    # variables as generators, must give the same standard monomials
    from facebalance.balancing import base_pair_near_bipartite, compose_pairs

    pentagon = independence_complex(cycle_graph(5))
    pentagon_pair = base_pair_near_bipartite(pentagon.one_skeleton(), None,
                                             Specialization())
    cases = [
        (pentagon, pentagon_pair),
        (SimplicialComplex([["a"], ["b"], ["c"]]), base_pair_points(("a", "b", "c"))),
        (independence_complex(disjoint_union(cycle_graph(5), path_graph(2))),
         compose_pairs(pentagon_pair, base_pair_points(("p1", "p2")))),
    ]
    key_desc = lambda m: tuple(-k for k in
                               ((sum(m),) + tuple(-e for e in reversed(m))))
    for delta, pair in cases:
        order = pair.order
        gens = [{order.variable(t): Fraction(1)} for t in order.tail()]
        for nu in stanley_reisner_generators(delta, order):
            gens.append(apply_automorphism(pair.matrix, {nu: Fraction(1)}))
        expected = set()
        for degree in range(order.d + 2):
            expected |= bf.macaulay_standard(gens, order.variables, degree, key_desc)
        basis = standard_monomial_basis(delta, pair.matrix, order)
        assert basis.monomials == expected
