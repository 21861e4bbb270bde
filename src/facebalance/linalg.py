"""Exact linear algebra over the rationals, and ranks over GF(2).

Every rational rank and pivot set comes from one elimination,
:class:`SparseEchelon`: rows are integer dicts keyed by integer column,
reduced by cross-multiplication followed by content stripping
(fraction-free, so no rational blow-up occurs).  A dense rational matrix is
ranked by clearing each row to integers with :func:`integer_row` and feeding
it to the same elimination.  The dense inverse is Gauss-Jordan over
Fractions, one connected block of the matrix's nonzero pattern at a time.
:func:`gf2_rank` is the one elimination over another field: it ranks
bitmask rows over GF(2) by XOR.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .complexes import _components


def _strip_content(row: dict) -> dict:
    """Divide an integer row by the gcd of its entries; raises TypeError on a
    non-integer entry."""
    g = gcd(*row.values())
    if g > 1:
        return {k: v // g for k, v in row.items()}
    return row


def integer_row(row: dict) -> dict:
    """The row of ints or Fractions scaled to integers with content 1,
    zeros dropped; no Fraction is built."""
    row = {k: v for k, v in row.items() if v}
    denom = lcm(*(v.denominator for v in row.values()))
    return _strip_content({k: v.numerator * (denom // v.denominator)
                           for k, v in row.items()})


def bareiss_rank(rows) -> int:
    """Exact rank of a dense matrix given as an iterable of rows of rationals.

    Each row is cleared to integers and ranked by :func:`sparse_rank`.  The
    name is kept because the benchmark's tracer (``bench/tracer.py``) wraps
    it by name.
    """
    return sparse_rank(integer_row(dict(enumerate(r))) for r in rows)


def _gauss_jordan(rows) -> list[list[Fraction]]:
    """Gauss-Jordan inverse over Fractions; ValueError if singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv_p = 1 / aug[c][c]
        aug[c] = [x * inv_p for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def invert(rows):
    """Exact inverse as a tuple of tuples of Fractions.

    Permuted, the matrix is the block sum of the connected blocks of its
    symmetric nonzero pattern, so its inverse is the block sum of theirs.
    Raises ValueError on a non-square or singular input.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse of a non-square matrix")
    nb = [0] * n
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x:
                nb[i] |= 1 << j
                nb[j] |= 1 << i
    out = [[Fraction(0)] * n for _ in range(n)]
    for part in _components(nb, (1 << n) - 1):
        block = [i for i in range(n) if part >> i & 1]
        inverse = _gauss_jordan([[rows[i][j] for j in block] for i in block])
        for i, inv_row in zip(block, inverse):
            for j, x in zip(block, inv_row):
                out[i][j] = x
    return tuple(tuple(row) for row in out)


class SparseEchelon:
    """Incremental integer row echelon over integer columns.

    Rows are dicts column->int; a row's lowest column leads, so lower
    columns are eliminated first.  A non-integer entry raises TypeError.
    The pivot column set is invariant under the order rows are fed in.
    """

    def __init__(self):
        self.pivots: dict = {}

    def add_row(self, row: dict) -> bool:
        """Reduce ``row`` against current pivots; returns True if independent."""
        row = _strip_content({c: v for c, v in row.items() if v})
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                self.pivots[lead] = row
                return True
            a, b = piv[lead], row[lead]
            new = {}
            for c in row.keys() | piv.keys():
                val = a * row.get(c, 0) - b * piv.get(c, 0)
                if val:
                    new[c] = val
            row = _strip_content(new)
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)


def sparse_rank(rows) -> int:
    """Rank of an iterable of sparse rows (dicts column->int)."""
    ech = SparseEchelon()
    for row in rows:
        ech.add_row(row)
    return ech.rank


def gf2_rank(rows) -> int:
    """Rank over GF(2) of rows given as int bitmasks (bit k is column k).

    A row is reduced by XOR against the pivot that shares its highest set
    bit until it vanishes or leads a new pivot.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            piv = pivots.get(row.bit_length())
            if piv is None:
                pivots[row.bit_length()] = row
                break
            row ^= piv
    return len(pivots)
