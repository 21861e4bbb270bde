"""Exact monomial and polynomial arithmetic for initial-ideal computations.

Monomials are exponent tuples over the variable sequence of a
:class:`TermOrder`; polynomials are dicts mapping exponent tuples to nonzero
Fractions.  The only monomial order is graded reverse lexicographic built on
the order's variable sequence: lower degree compares smaller, and within a
degree the monomial with the larger exponent at the last differing variable
is the smaller one.  The last ``d`` variables form the parameter tail that is
quotiented away in the standard-monomial computation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .complexes import SimplicialComplex, VerificationError
from .linalg import SparseEchelon, integer_row, invert

Monomial = tuple  # exponent tuple aligned with a TermOrder's variables


class SpecializationError(ValueError):
    """The sampled parameter values degenerate a required matrix."""


class StandardBasisOverflow(RuntimeError):
    """Standard monomials persist past the degree cap.

    Signals that the tail variables are not a linear system of parameters for
    the twisted face ideal under the chosen matrix and specialization.
    """


# ---------------------------------------------------------------------------
# term order
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TermOrder:
    """A variable sequence (smallest first) with a parameter tail of size d."""

    variables: tuple[str, ...]
    d: int

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variables")
        if not 0 <= self.d <= len(self.variables):
            raise ValueError("tail size out of range")

    @property
    def n(self) -> int:
        return len(self.variables)

    def tail(self) -> tuple[str, ...]:
        return self.variables[self.n - self.d:]

    def free(self) -> tuple[str, ...]:
        return self.variables[:self.n - self.d]

    def index(self, v: str) -> int:
        return self.variables.index(v)

    def unit(self) -> Monomial:
        return (0,) * self.n

    def variable(self, v: str) -> Monomial:
        m = [0] * self.n
        m[self.index(v)] = 1
        return tuple(m)

    def monomial_of(self, labels: Iterable[str]) -> Monomial:
        m = [0] * self.n
        for v in labels:
            m[self.index(v)] += 1
        return tuple(m)

    def monomial_label(self, m: Monomial) -> dict[str, int]:
        return {v: e for v, e in zip(self.variables, m) if e}

    def sort_key(self, m: Monomial):
        """Ascending revlex key: bigger exponent at the last difference sorts first."""
        return (sum(m), tuple(-e for e in reversed(m)))

    def monomials_of_degree(self, i: int):
        """All degree-``i`` exponent tuples."""
        for combo in itertools.combinations_with_replacement(range(self.n), i):
            m = [0] * self.n
            for j in combo:
                m[j] += 1
            yield tuple(m)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = monomial_mul(ma, mb)
            c = out.get(m, 0) + ca * cb
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


@dataclass(frozen=True)
class LinearAutomorphism:
    """Invertible matrix acting on the degree-1 span of a variable sequence.

    Column ``j`` holds the coordinates of the image of variable ``j`` in the
    same variable basis.
    """

    variables: tuple[str, ...]
    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.variables)
        if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
            raise ValueError("matrix shape does not match the variable count")

    @classmethod
    def identity(cls, variables: Sequence[str]) -> "LinearAutomorphism":
        n = len(variables)
        return cls(tuple(variables),
                   tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    def inverse(self) -> "LinearAutomorphism":
        return LinearAutomorphism(self.variables, invert(self.matrix))

    def image_of(self, j: int) -> dict:
        """Image of variable ``j`` as a polynomial dict."""
        n = len(self.variables)
        out = {}
        for i in range(n):
            if self.matrix[i][j]:
                m = [0] * n
                m[i] = 1
                out[tuple(m)] = Fraction(self.matrix[i][j])
        return out

    def is_block_upper_triangular(self, d: int) -> bool:
        """Zero block below the free variables: tail rows vs free columns."""
        n = len(self.variables)
        return all(self.matrix[i][j] == 0
                   for i in range(n - d, n) for j in range(n - d))

    def to_json_obj(self) -> dict:
        return {"variables": list(self.variables),
                "matrix": [[f"{Fraction(x).numerator}/{Fraction(x).denominator}"
                            for x in row] for row in self.matrix]}


def apply_automorphism(g: LinearAutomorphism, p: dict) -> dict:
    """Substitute each variable by its matrix image and expand exactly."""
    images = {}
    out: dict = {}
    for m, c in p.items():
        term = {tuple(0 for _ in g.variables): Fraction(c)}
        for j, e in enumerate(m):
            for _ in range(e):
                if j not in images:
                    images[j] = g.image_of(j)
                term = poly_mul(term, images[j])
        for mm, cc in term.items():
            val = out.get(mm, 0) + cc
            if val:
                out[mm] = val
            else:
                out.pop(mm, None)
    return out


# ---------------------------------------------------------------------------
# Stanley-Reisner generators
# ---------------------------------------------------------------------------

def stanley_reisner_generators(delta: SimplicialComplex,
                               order: Optional[TermOrder] = None
                               ) -> list[Monomial]:
    """Squarefree monomials of the minimal non-faces of ``delta``.

    When ``order`` names variables beyond the complex's vertex set, each
    missing vertex contributes its degree-1 monomial (the vertex is a minimal
    non-face in the larger universe).
    """
    if order is None:
        order = TermOrder(delta.vertices, 0)
    gens = []
    present = set(delta.vertices)
    for v in order.variables:
        if v not in present:
            gens.append(order.variable(v))
    for nf in delta.minimal_nonfaces():
        gens.append(order.monomial_of(delta.labels(nf)))
    return sorted(gens, key=order.sort_key)


# ---------------------------------------------------------------------------
# per-degree initial ideal (Macaulay matrix)
# ---------------------------------------------------------------------------

def initial_ideal_by_degree(gens: Sequence[dict], order: TermOrder, degree: int
                            ) -> tuple[set, set]:
    """Leading and standard monomials of the generated ideal in one degree.

    The degree-``degree`` piece of the ideal is spanned by the monomial
    multiples of the (homogeneous) generators; its leading monomials are the
    pivot columns of that span under the descending revlex column order.
    Monomial generators are pivoted first, so the elimination only runs over
    columns not divisible by any of them.
    """
    mono_gens: list[Monomial] = []
    poly_gens: list[dict] = []
    for p in gens:
        p = {m: c for m, c in p.items() if c}
        if not p:
            continue
        degs = {sum(m) for m in p}
        if len(degs) != 1:
            raise ValueError("generators must be homogeneous")
        if degs == {0}:
            raise ValueError("unit generator")
        if len(p) == 1:
            mono_gens.append(next(iter(p)))
        else:
            poly_gens.append(integer_row(p))

    # variables that are themselves generators cover in one exponent check
    var_gens = {next(i for i, e in enumerate(mg) if e)
                for mg in mono_gens if sum(mg) == 1}
    big_gens = [mg for mg in mono_gens if sum(mg) > 1]

    def covered(m: Monomial) -> bool:
        return (any(m[i] for i in var_gens)
                or any(monomial_divides(mg, m) for mg in big_gens))

    all_monomials = list(order.monomials_of_degree(degree))
    leading = {m for m in all_monomials if covered(m)}
    working = [m for m in all_monomials if m not in leading]
    if not working:
        return leading, set()

    columns = sorted(working, key=order.sort_key, reverse=True)
    rank_of = {m: r for r, m in enumerate(columns)}
    ech = SparseEchelon()
    for p in poly_gens:
        dp = sum(next(iter(p)))
        if dp > degree:
            continue
        for mult in order.monomials_of_degree(degree - dp):
            if covered(mult):
                continue
            row = {}
            for t, c in p.items():
                r = rank_of.get(monomial_mul(mult, t))
                if r is not None:
                    row[r] = c
            if row:
                ech.add_row(row)
    pivots = {columns[c] for c in ech.pivots}
    leading |= pivots
    standard = {m for m in working if m not in pivots}
    return leading, standard


# ---------------------------------------------------------------------------
# multicomplexes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Multicomplex:
    """A divisibility-closed monomial set containing the unit monomial."""

    variables: tuple[str, ...]
    monomials: frozenset

    def f_vector(self) -> tuple[int, ...]:
        """Counts by degree, from degree 0 up to the largest present."""
        top = max(sum(m) for m in self.monomials)
        counts = [0] * (top + 1)
        for m in self.monomials:
            counts[sum(m)] += 1
        return tuple(counts)

    def is_divisibility_closed(self) -> bool:
        for m in self.monomials:
            for i, e in enumerate(m):
                if e:
                    lower = m[:i] + (e - 1,) + m[i + 1:]
                    if lower not in self.monomials:
                        return False
        return True

    def is_squarefree(self) -> bool:
        return all(e <= 1 for m in self.monomials for e in m)

    def max_degree_in(self, indices: Iterable[int]) -> int:
        idx = list(indices)
        if not self.monomials:
            return 0
        return max(sum(m[i] for i in idx) for m in self.monomials)

    def to_complex(self) -> SimplicialComplex:
        """The simplicial complex of supports; requires squarefreeness."""
        if not self.is_squarefree():
            raise ValueError("only a squarefree multicomplex is a complex")
        supports = sorted((tuple(i for i, e in enumerate(m) if e)
                           for m in self.monomials),
                          key=lambda f: (len(f), f))
        faces = [[self.variables[i] for i in f] for f in supports]
        return SimplicialComplex(faces)

    def to_json_obj(self) -> dict:
        order = TermOrder(self.variables, 0)
        mons = sorted(self.monomials, key=order.sort_key)
        return {"monomials": [order.monomial_label(m) for m in mons],
                "F": list(self.f_vector())}


def standard_monomial_basis(delta: SimplicialComplex, g: LinearAutomorphism,
                            order: TermOrder) -> Multicomplex:
    """Monomials outside the initial ideal of the twisted face ideal plus tail.

    Generators are the images under ``g`` of the Stanley-Reisner generators
    together with the tail variables.  Degrees are swept upward until a degree
    with no standard monomials appears; divisibility closure makes everything
    above empty as well.  If standard monomials persist past degree ``d + 1``
    (one more than the tail size) the tail is not a linear system of
    parameters for this twist and :class:`StandardBasisOverflow` is raised.
    A basis that touches the tail or is not divisibility-closed raises
    :class:`VerificationError`.
    """
    if g.variables != order.variables:
        raise ValueError("matrix and order disagree on the variable sequence")
    d = order.d
    if d != delta.dim + 1:
        raise ValueError(f"tail size {d} but the complex needs {delta.dim + 1}")
    cap = d + 1
    gens: list[dict] = [{order.variable(t): Fraction(1)} for t in order.tail()]
    for nu in stanley_reisner_generators(delta, order):
        gens.append(apply_automorphism(g, {nu: Fraction(1)}))
    collected = set()
    degree = 0
    while True:
        _, std = initial_ideal_by_degree(gens, order, degree)
        if not std:
            break
        collected |= std
        degree += 1
        if degree > cap:
            raise StandardBasisOverflow(
                f"standard monomials persist past degree {cap}: the tail "
                f"variables are not a linear system of parameters for this "
                f"twist/specialization")
    tail_idx = range(order.n - d, order.n)
    if any(m[i] for m in collected for i in tail_idx):
        raise VerificationError("standard monomial touches the parameter tail")
    basis = Multicomplex(order.variables, frozenset(collected) | {order.unit()})
    if not basis.is_divisibility_closed():
        raise VerificationError("standard set not divisibility-closed")
    return basis


# ---------------------------------------------------------------------------
# scalar specialization
# ---------------------------------------------------------------------------

DEFAULT_SEED = 1729
_DEFAULT_VALUES = (Fraction(1), Fraction(2), Fraction(3), Fraction(5))


@dataclass(frozen=True)
class Specialization:
    """Rational values substituted for the four field indeterminates."""

    values: tuple[Fraction, Fraction, Fraction, Fraction] = _DEFAULT_VALUES
    attempt: int = 0

    def __post_init__(self):
        z1, z2, z3, z4 = self.values
        if z1 * z4 - z2 * z3 == 0:
            raise SpecializationError("degenerate parameter block")

    def z_matrix(self) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
        z1, z2, z3, z4 = self.values
        return ((z1, z2), (z3, z4))


def specialization_stream(seed: int = DEFAULT_SEED):
    """Deterministic stream: the fixed default first, then seeded resamples."""
    yield Specialization()
    rng = random.Random(seed)
    attempt = 1
    while True:
        vals = tuple(Fraction(rng.randint(1, 97)) for _ in range(4))
        if vals[0] * vals[3] - vals[1] * vals[2] == 0:
            continue
        yield Specialization(vals, attempt)
        attempt += 1
