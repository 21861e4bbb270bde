"""Exact linear algebra over the rationals, and ranks over GF(2).

Every rational rank and pivot set comes from one elimination,
:class:`SparseEchelon`: rows are integer dicts keyed by integer column,
reduced by cross-multiplication followed by content stripping
(fraction-free, so no rational blow-up occurs).  A dense rational matrix is
ranked by clearing each row to integers with :func:`integer_row` and feeding
it to the same elimination, and the dense inverse is read off the same
elimination of ``[A | I]``, back-substituted to a diagonal left half.
:func:`gf2_rank` is the one elimination over another field: it ranks
bitmask rows over GF(2) by XOR.
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
    """The row of ints or Fractions scaled to integers with content 1,
    zeros dropped; no Fraction is built."""
    row = {k: v for k, v in row.items() if v}
    denom = lcm(*(v.denominator for v in row.values()))
    return _strip_content({k: v.numerator * (denom // v.denominator)
                           for k, v in row.items()})


def bareiss_rank(rows) -> int:
    """Exact rank of a dense matrix given as an iterable of rows of rationals.

    Each row is cleared to integers and ranked by :func:`sparse_rank`.  No
    code of the package calls it; the name is kept because the benchmark's
    tracer (``bench/tracer.py``) wraps it by name.
    """
    return sparse_rank(integer_row(dict(enumerate(r))) for r in rows)


def _cross(row: dict, piv: dict, c) -> dict:
    """``row`` with column ``c`` cleared by the pivot row ``piv``:
    cross-multiplied, then content-stripped."""
    a, b = piv[c], row[c]
    new = {}
    for k in row.keys() | piv.keys():
        val = a * row.get(k, 0) - b * piv.get(k, 0)
        if val:
            new[k] = val
    return _strip_content(new)


def invert(rows):
    """Exact inverse as a tuple of tuples of Fractions.

    Row i of ``[A | I]`` is fed to one :class:`SparseEchelon` with the
    identity half in columns ``n + i``; a pivot there means A is singular.
    Back-substitution clears each pivot column from the rows of lower lead,
    so the rows are E·[A | I] = [D | M] with D diagonal: E·A = D and E = M,
    hence A⁻¹ = D⁻¹M.  Raises ValueError on a non-square or singular input.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse of a non-square matrix")
    ech = SparseEchelon()
    for i, row in enumerate(rows):
        ech.add_row(integer_row({**dict(enumerate(row)), n + i: 1}))
    pivots = ech.pivots
    if any(c >= n for c in pivots):
        raise ValueError("matrix is singular")
    for c in range(n - 1, 0, -1):
        piv = pivots[c]
        for r in range(c):
            if c in pivots[r]:
                pivots[r] = _cross(pivots[r], piv, c)
    return tuple(tuple(Fraction(pivots[i].get(n + j, 0), pivots[i][i])
                       for j in range(n)) for i in range(n))


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
            row = _cross(row, piv, lead)
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
