"""Exact linear algebra over the rationals.

The dense rank uses fraction-free Bareiss elimination on an integer-scaled
copy, so no rational blow-up occurs in the pivoting loop; the dense inverse
is Gauss-Jordan over Fractions.  The sparse echelon form used for boundary
maps and Macaulay matrices keeps rows as integer dicts and reduces by
cross-multiplication followed by content stripping, which is the same
fraction-free scheme in sparse form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _scaled_int_rows(rows):
    """Copy rows as lists of ints, clearing denominators row by row."""
    out = []
    for row in rows:
        denom = 1
        for x in row:
            f = Fraction(x)
            denom = denom * f.denominator // gcd(denom, f.denominator)
        out.append([int(Fraction(x) * denom) for x in row])
    return out


def bareiss_rank(rows) -> int:
    """Exact rank of a matrix given as an iterable of rows of rationals."""
    m = _scaled_int_rows(rows)
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        rank += 1
        if r == nrows:
            break
    return rank


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


def _strip_content(row: dict) -> dict:
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            return row
    if g > 1:
        return {k: v // g for k, v in row.items()}
    return row


class SparseEchelon:
    """Incremental integer row echelon keyed by a fixed column order.

    Columns are any sortable keys; ``column_rank`` maps a key to its pivot
    priority (lower = eliminated first).  Rows are dicts column->int.  The
    pivot column set is invariant under the order rows are fed in.
    """

    def __init__(self, column_rank):
        self.column_rank = column_rank
        self.pivots: dict = {}

    def _leading(self, row: dict):
        return min(row, key=self.column_rank)

    def add_row(self, row: dict) -> bool:
        """Reduce ``row`` against current pivots; returns True if independent."""
        row = {c: int(v) for c, v in row.items() if v != 0}
        while row:
            lead = self._leading(row)
            piv = self.pivots.get(lead)
            if piv is None:
                self.pivots[lead] = _strip_content(row)
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

    def pivot_columns(self):
        return set(self.pivots)


def sparse_rank(rows) -> int:
    """Rank of an iterable of sparse rows (dicts column->int)."""
    ech = SparseEchelon(lambda c: c)
    for row in rows:
        ech.add_row(row)
    return ech.rank
