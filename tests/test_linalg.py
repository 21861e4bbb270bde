"""The exact rational elimination and the GF(2) rank against dense oracles."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

import bruteforce as bf
from facebalance import linalg
from facebalance.linalg import (SparseEchelon, bareiss_rank, gf2_rank,
                                integer_row, invert, sparse_rank)
from facebalance.polynomials import TermOrder


def _random_rational_matrix(rng):
    nrows, ncols = rng.randint(0, 6), rng.randint(0, 6)
    rows = []
    for _ in range(nrows):
        if rng.random() < 0.2:
            rows.append([0] * ncols)
        else:
            rows.append([Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                         if rng.random() < 0.6 else 0 for _ in range(ncols)])
    # low-rank matrices: append combinations of earlier rows
    for _ in range(rng.randint(0, 2) if rows else 0):
        a, b = rng.choice(rows), rng.choice(rows)
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        rows.append([x + s * y for x, y in zip(a, b)])
    return rows


def _random_sparse_rows(rng, ncols=10):
    rows = []
    for _ in range(rng.randint(0, 12)):
        support = rng.sample(range(ncols), rng.randint(0, 4))
        rows.append({c: rng.randint(-3, 3) for c in support})
    return rows


def _dense(rows, ncols=10):
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def test_bareiss_rank_matches_dense_oracle():
    rng = random.Random(11)
    for _ in range(300):
        rows = _random_rational_matrix(rng)
        assert bareiss_rank(rows) == bf.dense_rank(rows), rows
    assert bareiss_rank([]) == bf.dense_rank([]) == 0
    assert bareiss_rank([[], []]) == bf.dense_rank([[], []]) == 0


def test_sparse_rank_matches_dense_oracle():
    rng = random.Random(12)
    for _ in range(300):
        rows = _random_sparse_rows(rng)
        assert sparse_rank(rows) == bf.dense_rank(_dense(rows)), rows


def test_gf2_rank_matches_dense_oracle():
    rng = random.Random(14)
    for _ in range(300):
        width = rng.randint(0, 12)
        rows = [rng.getrandbits(width) if rng.random() < 0.8 else 0
                for _ in range(rng.randint(0, 10))]
        # low-rank row sets: append sums of earlier rows
        for _ in range(rng.randint(0, 3) if rows else 0):
            rows.append(rng.choice(rows) ^ rng.choice(rows))
        assert gf2_rank(rows) == bf.gf2_rank(rows), rows
    assert gf2_rank([]) == bf.gf2_rank([]) == 0
    assert gf2_rank([0, 0]) == bf.gf2_rank([0, 0]) == 0
    # over GF(2) the rows 0b011, 0b101, 0b110 sum to zero; over Q they do not
    assert gf2_rank([0b011, 0b101, 0b110]) == 2
    assert sparse_rank([{0: 1, 1: 1}, {0: 1, 2: 1}, {1: 1, 2: 1}]) == 3


def _pivot_columns(rows):
    ech = SparseEchelon()
    for row in rows:
        ech.add_row(row)
    return set(ech.pivots)


def test_pivot_columns_do_not_depend_on_row_order():
    rng = random.Random(13)
    for _ in range(100):
        rows = _random_sparse_rows(rng)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert _pivot_columns(rows) == _pivot_columns(shuffled), rows


def test_rational_entries_are_not_truncated():
    # int(1/2) == 0 would turn the first row into (0, 1) and report rank 2
    assert bareiss_rank([[Fraction(1, 2), 1], [1, 2]]) == 1
    with pytest.raises(TypeError):
        SparseEchelon().add_row({0: Fraction(1, 2), 1: 1})


def test_integer_row():
    p = {(1, 0): Fraction(1, 2), (0, 1): Fraction(-3, 4)}
    scaled = integer_row(p)
    assert scaled == {(1, 0): 2, (0, 1): -3}
    order = TermOrder(("x", "y"), 0)
    assert max(p, key=order.sort_key) == max(scaled, key=order.sort_key)
    whole = integer_row({0: Fraction(4), 1: Fraction(-6), 2: Fraction(0)})
    assert whole == {0: 2, 1: -3}
    assert all(type(v) is int for v in whole.values())
    assert integer_row({}) == {}


def _fraction_scaled(row):
    """The scaling ``integer_row`` did through one Fraction per entry."""
    row = {k: Fraction(v) for k, v in row.items() if v}
    denom = lcm(*(v.denominator for v in row.values()))
    scaled = {k: int(v * denom) for k, v in row.items()}
    g = gcd(*scaled.values())
    return {k: v // g for k, v in scaled.items()} if g > 1 else scaled


def test_integer_row_matches_the_fraction_scaling():
    rng = random.Random(15)
    kinds = {
        "int": lambda: rng.randint(-9, 9),
        "fraction": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
        "whole fraction": lambda: Fraction(rng.randint(-9, 9)),
        "zero": lambda: rng.choice([0, Fraction(0)]),
    }
    for _ in range(400):
        mix = rng.sample(sorted(kinds), rng.randint(1, len(kinds)))
        row = {c: kinds[rng.choice(mix)]() for c in range(rng.randint(0, 8))}
        scaled = integer_row(row)
        assert scaled == _fraction_scaled(row), row
        assert all(type(v) is int for v in scaled.values())
        assert 0 not in scaled.values()
    assert integer_row({}) == _fraction_scaled({}) == {}
    assert integer_row({0: 0, 1: Fraction(0)}) == {}
    # a negative entry keeps its sign, and a negative lead is not flipped
    assert integer_row({0: Fraction(-1, 2), 1: Fraction(1, 3)}) == {0: -3, 1: 2}


def _block_sum_under_permutation(rng, blocks):
    """The block sum of ``blocks`` with its indices shuffled: a random
    simultaneous permutation of its rows and columns."""
    n = sum(len(b) for b in blocks)
    dense = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                dense[at + i][at + j] = x
        at += len(b)
    perm = list(range(n))
    rng.shuffle(perm)
    return [tuple(dense[perm[i]][perm[j]] for j in range(n)) for i in range(n)]


def _random_block(rng, size):
    return [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
             if rng.random() < 0.7 else 0 for _ in range(size)]
            for _ in range(size)]


def test_invert_matches_the_dense_oracle_on_permuted_block_sums():
    rng = random.Random(16)
    inverted = singular = 0
    for _ in range(200):
        blocks = [_random_block(rng, rng.randint(1, 4))
                  for _ in range(rng.randint(1, 4))]
        a = _block_sum_under_permutation(rng, blocks)
        expected = bf.dense_inverse(a)
        if expected is None:
            with pytest.raises(ValueError, match="^matrix is singular$"):
                invert(a)
            singular += 1
            continue
        inverse = invert(a)
        assert [list(row) for row in inverse] == expected
        n = len(a)
        product = [[sum(a[i][k] * inverse[k][j] for k in range(n))
                    for j in range(n)] for i in range(n)]
        assert product == [[int(i == j) for j in range(n)] for i in range(n)]
        assert all(type(x) is Fraction for row in inverse for x in row)
        inverted += 1
    assert inverted > 50 and singular > 20
    assert invert([]) == ()


def test_invert_raises_on_a_singular_block():
    # an invertible 2 x 2 block and a rank-one one, interleaved
    a = [[1, 0, 2, 0],
         [0, 1, 0, 2],
         [3, 0, 4, 0],
         [0, 2, 0, 4]]
    assert bf.dense_inverse(a) is None
    with pytest.raises(ValueError, match="^matrix is singular$"):
        invert(a)
    with pytest.raises(ValueError, match="^matrix is singular$"):
        invert([[1, 0], [0, 0]])


def test_invert_rejects_a_non_square_input_before_any_elimination(monkeypatch):
    def eliminated(rows):
        raise AssertionError("a block was eliminated")

    monkeypatch.setattr(linalg, "_gauss_jordan", eliminated)
    for rows in ([[1, 0], [0]], [[1, 0, 0], [0, 1, 0]], [[1], [0, 1]],
                 [[0, 0], [0, 0, 0]]):
        with pytest.raises(ValueError, match="^inverse of a non-square matrix$"):
            invert(rows)
