"""Exact linear algebra over the rationals.

Every rank and pivot set comes from one elimination, :class:`SparseEchelon`:
rows are integer dicts keyed by integer column, reduced by
cross-multiplication followed by content stripping (fraction-free, so no
rational blow-up occurs).  A dense rational matrix is ranked by clearing
each row to integers with :func:`integer_row` and feeding it to the same
elimination.  The dense inverse is Gauss-Jordan over Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _strip_content(row: dict) -> dict:
    """Divide an integer row by the gcd of its entries; raises TypeError on a
    non-integer entry."""
    g = gcd(*row.values())
    if g > 1:
        return {k: v // g for k, v in row.items()}
    return row


def integer_row(row: dict) -> dict:
    """The rational row scaled to integers with content 1; zeros dropped."""
    row = {k: Fraction(v) for k, v in row.items() if v}
    denom = lcm(*(v.denominator for v in row.values()))
    return _strip_content({k: int(v * denom) for k, v in row.items()})


def bareiss_rank(rows) -> int:
    """Exact rank of a dense matrix given as an iterable of rows of rationals.

    Each row is cleared to integers and ranked by :func:`sparse_rank`.  The
    name is kept because the benchmark's tracer (``bench/tracer.py``) wraps
    it by name.
    """
    return sparse_rank(integer_row(dict(enumerate(r))) for r in rows)


def invert(rows):
    """Exact inverse as a tuple of tuples of Fractions.

    Raises ValueError on a singular input.
    """
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for row in aug:
        if len(row) != 2 * n:
            raise ValueError("inverse of a non-square matrix")
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
    return tuple(tuple(row[n:]) for row in aug)


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
