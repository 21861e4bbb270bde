import itertools
import random
from fractions import Fraction

import pytest

import bruteforce as bf
from facebalance import linalg
from facebalance.balancing import (base_pair_near_bipartite, base_pair_points,
                                   compose_pairs)
from facebalance.complexes import SimplicialComplex, independence_complex
from facebalance.polynomials import (LinearAutomorphism, Multicomplex,
                                     Specialization, SpecializationError,
                                     StandardBasisOverflow, TermOrder,
                                     apply_automorphism,
                                     initial_ideal_by_degree,
                                     specialization_stream,
                                     stanley_reisner_generators,
                                     standard_monomial_basis)
from conftest import (check_sweep, cycle_graph, disjoint_union,
                      identity_automorphism, path_graph)


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
    descending = sorted(bf.monomials(order.n, 2), key=order.sort_key, reverse=True)
    # x^2, xy, y^2, xz, yz, z^2
    assert descending == [(2, 0, 0), (1, 1, 0), (0, 2, 0),
                          (1, 0, 1), (0, 1, 1), (0, 0, 2)]


def test_revlex_matches_rule_bruteforce():
    order = TermOrder(("a", "b", "c", "d"), 0)
    monos = bf.monomials(order.n, 3) + bf.monomials(order.n, 2)
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


def _evaluate(p, point):
    total = Fraction(0)
    for m, c in p.items():
        for x, e in zip(point, m):
            c *= x ** e
        total += c
    return total


def test_automorphism_cancels_the_terms_of_a_product():
    # x -> a + b and y -> a - b: the two ab terms of x*y cancel
    g = LinearAutomorphism(("a", "b"), ((Fraction(1), Fraction(1)),
                                        (Fraction(1), Fraction(-1))))
    assert apply_automorphism(g, {(1, 1): Fraction(1)}) == {
        (2, 0): Fraction(1), (0, 2): Fraction(-1)}


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
def test_automorphism_substitutes_the_columns(rational):
    # variable j becomes column j of M, so g(p) at x is p at M^T x; the
    # round trip above holds for a row reading as well, and this does not
    rng = random.Random(29 + rational)

    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4) if rational else 1)

    n = 3
    for _ in range(15):
        rows = tuple(tuple(entry() for _ in range(n)) for _ in range(n))
        g = LinearAutomorphism(tuple("abc"), rows)
        p = {tuple(rng.randint(0, 2) for _ in range(n)): entry() for _ in range(4)}
        polys = [p]
        if bf.dense_rank(rows) == n:
            # g(g^-1(p)) is p again, so most product terms cancel
            polys.append(apply_automorphism(g.inverse(), p))
        for q in polys:
            image = apply_automorphism(g, q)
            assert 0 not in image.values()
            for _ in range(3):
                x = [entry() for _ in range(n)]
                moved = [sum(rows[i][j] * x[i] for i in range(n)) for j in range(n)]
                assert _evaluate(image, x) == _evaluate(q, moved)


def test_automorphism_json_uses_rational_strings():
    g = LinearAutomorphism(("x",), ((Fraction(1, 2),),))
    assert g.to_json_obj()["matrix"] == [["1/2"]]


# ---------------------------------------------------------------------------
# per-degree initial ideal
# ---------------------------------------------------------------------------

def test_all_variables_leave_nothing_standard():
    order = TermOrder(("x", "y", "z"), 0)
    gens = [{order.variable(v): Fraction(1)} for v in order.variables]
    result = initial_ideal_by_degree(gens, order, 1)
    # every monomial is divided, so none is a column at all
    assert result == (0, set())
    check_sweep(result, gens, order, 1)


def test_no_generators_leave_everything_standard():
    order = TermOrder(("x", "y"), 0)
    result = initial_ideal_by_degree([], order, 2)
    assert result == (0, set(bf.monomials(order.n, 2)))
    check_sweep(result, [], order, 2)


def test_initial_ideal_rejects_inhomogeneous():
    order = TermOrder(("x", "y"), 0)
    bad = {(1, 0): Fraction(1), (1, 1): Fraction(1)}
    with pytest.raises(ValueError):
        initial_ideal_by_degree([bad], order, 2)


def _random_homogeneous(order, degree, rng):
    monos = bf.monomials(order.n, degree)
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


def test_initial_ideal_matches_the_covered_filter_oracle():
    # monomial generators that are not squarefree, with exponents up to the
    # degree: the largest exponent a packed field has to hold
    rng = random.Random(47)
    order = TermOrder(("x", "y", "z", "w"), 0)
    for _ in range(40):
        degree = rng.randint(0, 7)
        gens = []
        for _ in range(rng.randint(0, 4)):
            m = [0] * order.n
            for _ in range(rng.randint(1, max(1, degree))):
                m[rng.randrange(order.n)] += 1
            gens.append({tuple(m): Fraction(rng.randint(1, 5))})
        gens.append({(degree,) + (0,) * (order.n - 1): Fraction(1)}
                    if degree else {order.variable("w"): Fraction(1)})
        for _ in range(rng.randint(0, 3)):
            p = _random_homogeneous(order, rng.randint(1, 3), rng)
            if p:
                gens.append(p)
        check_sweep(initial_ideal_by_degree(gens, order, degree),
                    gens, order, degree)


def test_a_square_generator_does_not_cover_its_variable():
    # divisibility compares exponents, not supports: z^2 leaves z standard
    order = TermOrder(("x", "y", "z", "w"), 0)
    gens = [{(0, 0, 2, 0): Fraction(3)}]
    result = initial_ideal_by_degree(gens, order, 1)
    assert result == (0, set(bf.monomials(order.n, 1)))
    check_sweep(result, gens, order, 1)
    result = initial_ideal_by_degree(gens, order, 2)
    rank, standard = result
    # z^2 is divided, not a pivot; the other nine are standard
    assert rank == 0 and (0, 0, 2, 0) not in standard
    assert (1, 0, 1, 0) in standard and len(standard) == 9
    check_sweep(result, gens, order, 2)


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


def _koszul_generators(order, rng):
    """A random generator set for the Koszul criterion: polynomials of
    degrees 1 to 3, some sharing a leading monomial (a second tail on the
    same leader, a scalar multiple, an exact repeat), and monomials."""
    gens = []
    for _ in range(rng.randint(1, 5)):
        p = _random_homogeneous(order, rng.randint(1, 3), rng)
        if len(p) < 2:
            continue
        gens.append(p)
        lead = max(p, key=order.sort_key)  # the revlex leader
        roll = rng.random()
        if roll < 0.3:
            q = _random_homogeneous(order, sum(lead), rng)
            q = {m: c for m, c in q.items() if order.sort_key(m) < order.sort_key(lead)}
            q[lead] = Fraction(rng.choice([1, -2, 3]))
            gens.append(q)
        elif roll < 0.45:
            gens.append({m: c * rng.choice([-1, 2]) for m, c in p.items()})
        elif roll < 0.55:
            gens.append(dict(p))
    for _ in range(rng.randint(0, 2)):
        m = [0] * order.n
        for _ in range(rng.randint(1, 3)):
            m[rng.randrange(order.n)] += 1
        gens.append({tuple(m): Fraction(rng.randint(1, 5))})
    rng.shuffle(gens)
    return gens


def test_koszul_pruned_sweep_matches_the_covered_filter_oracle():
    # the oracle feeds every row whose multiplier no monomial generator
    # divides; the package skips the rows the Koszul criterion proves
    # redundant, and must still find the same pivots in every degree
    rng = random.Random(53)
    order = TermOrder(("x", "y", "z", "w"), 0)
    shared = 0
    for _ in range(120):
        gens = _koszul_generators(order, rng)
        leads = [max(p, key=order.sort_key) for p in gens if len(p) > 1]
        shared += len(set(leads)) < len(leads)
        for degree in range(6):
            check_sweep(initial_ideal_by_degree(gens, order, degree),
                        gens, order, degree)
    assert shared > 20


def _fed_rows(sweep, gens, order, degree):
    """``sweep(gens, order, degree)`` and the number of rows it handed to
    ``SparseEchelon.add_row``."""
    fed = []
    real = linalg.SparseEchelon.add_row

    def add_row(self, row):
        fed.append(row)
        return real(self, row)

    linalg.SparseEchelon.add_row = add_row
    try:
        return sweep(gens, order, degree), len(fed)
    finally:
        linalg.SparseEchelon.add_row = real


def test_koszul_criterion_feeds_fewer_rows_for_the_same_pivots():
    # the sweep's generators for Ind(C5 + C5) under the composed pentagon
    # twist, at its stop degree 5: 296 rows are undivided, 60 of them are
    # multiples m g_i with LM(g_j) | m for an earlier g_j, and the 236 left
    # span the same rows
    spec = Specialization()
    pentagons = [base_pair_near_bipartite(
        independence_complex(cycle_graph(5, tag)).one_skeleton(), None, spec)
        for tag in ("", "q")]
    pair = compose_pairs(*pentagons)
    delta = independence_complex(disjoint_union(cycle_graph(5),
                                                cycle_graph(5, "q")))
    order, free = pair.order, TermOrder(pair.order.free(), 0)
    gens = []
    for nu in stanley_reisner_generators(delta, order):
        image = apply_automorphism(pair.matrix, {nu: Fraction(1)})
        gens.append({m[:free.n]: c for m, c in image.items()
                     if not any(m[free.n:])})
    result, rows = _fed_rows(initial_ideal_by_degree, gens, free, 5)
    _, oracle_rows = _fed_rows(bf.initial_ideal_by_degree, gens, free, 5)
    assert (rows, oracle_rows) == (236, 296)
    # the same pivots as the oracle's: all 146 undivided monomials
    check_sweep(result, gens, free, 5)
    assert result == (146, set())


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
    result = initial_ideal_by_degree(gens, order, 2)
    _, standard = result
    # a pivot is an undivided monomial that is not standard
    undivided = bf.undivided_monomials(gens, order.n, 2)
    for v in order.free():
        square = tuple(2 * e for e in order.variable(v))
        assert square in undivided and square not in standard
    # ab is a generator itself, so it is divided and no column
    ab = order.monomial_of(("a", "b"))
    assert {ab: Fraction(1)} in gens
    assert ab not in undivided | standard
    check_sweep(result, gens, order, 2)


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
    assert bf.monomial_divides((1, 0), (2, 3))
    assert not bf.monomial_divides((1, 1), (0, 5))


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
