"""The exact rational elimination and the GF(2) rank against dense oracles."""

import random
from fractions import Fraction

import pytest

import bruteforce as bf
from facebalance.linalg import (SparseEchelon, bareiss_rank, gf2_rank,
                                integer_row, sparse_rank)
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
