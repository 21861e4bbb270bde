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
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

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
        return self.monomial_of((v,))

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


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

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

    def inverse(self) -> "LinearAutomorphism":
        return LinearAutomorphism(self.variables, invert(self.matrix))

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
    """Substitute each variable by its matrix image and expand exactly.

    Variable ``j`` becomes column ``j``, ``sum_i matrix[i][j] * x_i``, so
    the image at a point ``x`` is ``p`` at ``M^T x``.  Only the columns of
    a term's own variables are read; zero coefficients are dropped once.
    """
    n = len(g.variables)
    out: dict = {}
    for m, c in p.items():
        term = {(0,) * n: Fraction(c)}
        for j in [j for j, e in enumerate(m) for _ in range(e)]:
            column = [(i, r[j]) for i, r in enumerate(g.matrix) if r[j]]
            grown: dict = {}
            for t, a in term.items():
                for i, b in column:
                    u = t[:i] + (t[i] + 1,) + t[i + 1:]
                    grown[u] = grown.get(u, 0) + a * b
            term = grown
        for t, a in term.items():
            out[t] = out.get(t, 0) + a
    return {t: a for t, a in out.items() if a}


# ---------------------------------------------------------------------------
# Stanley-Reisner generators
# ---------------------------------------------------------------------------

def stanley_reisner_generators(delta: SimplicialComplex, order: TermOrder
                               ) -> list[Monomial]:
    """Squarefree monomials of the minimal non-faces of ``delta``.

    When ``order`` names variables beyond the complex's vertex set, each
    missing vertex contributes its degree-1 monomial (the vertex is a minimal
    non-face in the larger universe).
    """
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

def _pack(m: Monomial, width: int) -> int:
    """The exponent tuple as one int, ``width`` bits per variable, last
    variable highest."""
    return sum(e << (i * width) for i, e in enumerate(m))


def _uncovered_levels(mono_gens: Sequence[Monomial], n: int, width: int,
                      degree: int) -> list[list[int]]:
    """Packed monomials of degree 0 to ``degree`` that no monomial generator
    divides, each degree ascending.

    Each one is its predecessor, the monomial without one factor of its last
    variable, times that variable; a multiple of a divisible monomial is
    divisible, so only the undivided ones of the degree below are extended.
    """
    guard = _pack((1 << (width - 1),) * n, width)
    # a generator that divides m * x_j but not the undivided m holds x_j
    holding: list[list[int]] = [[] for _ in range(n)]
    for g in mono_gens:
        if sum(g) <= degree:
            packed = _pack(g, width)
            for j, e in enumerate(g):
                if e:
                    holding[j].append(packed)
    levels = [[0]]
    for _ in range(degree):
        below, level = levels[-1], []
        for j in range(n):
            x = 1 << (j * width)
            divisors = holding[j]
            # the monomials of ``below`` whose last variable is at most x_j
            # are a prefix of it; extending them in order, variable by
            # variable, keeps ``level`` ascending too
            for u in itertools.islice(below, bisect_left(below, x << width)):
                m = u + x
                top = m | guard
                for g in divisors:
                    if (top - g) & guard == guard:
                        break
                else:
                    level.append(m)
        levels.append(level)
    return levels


def _pivot_ranks(poly_gens: Sequence[dict], levels: list[list[int]],
                 width: int) -> set[int]:
    """Positions in ``levels[-1]`` of the pivots of the Macaulay rows that
    the Koszul criterion keeps; the echelon is freed on return.  An
    undivided multiple of LM(g_j) in level e is u + LM(g_j), u undivided
    in level e - deg g_j: ascending u are bisected into the level."""
    degree = len(levels) - 1
    rank_of = {m: r for r, m in enumerate(levels[degree])}
    ech = SparseEchelon()
    # (degree, packed LM) of each generator fed so far; flags on levels[e]
    # mark the multiples of the first pruned[e] of those LMs
    leads: list[tuple[int, int]] = []
    skip: dict[int, bytearray] = {}
    pruned: dict[int, int] = {}
    for p in poly_gens:
        dp = sum(next(iter(p)))
        if dp > degree:
            continue
        terms = [(_pack(t, width), c) for t, c in p.items()]
        e = degree - dp
        level = levels[e]
        flags = skip.setdefault(e, bytearray(len(level)))
        for dj, lead in leads[pruned.get(e, 0):]:
            if dj <= e:
                k = 0
                for u in levels[e - dj]:
                    multiple = u + lead
                    k = bisect_left(level, multiple, k)
                    if k == len(level):
                        break
                    if level[k] == multiple:
                        flags[k] = 1
        pruned[e] = len(leads)
        leads.append((dp, min(t for t, _ in terms)))
        for mult, flag in zip(level, flags):
            if flag:
                continue
            row = {}
            for t, c in terms:
                r = rank_of.get(mult + t)
                if r is not None:
                    row[r] = c
            if row:
                ech.add_row(row)
    return set(ech.pivots)


def initial_ideal_by_degree(gens: Sequence[dict], order: TermOrder, degree: int
                            ) -> tuple[int, set]:
    """``(rank, standard)`` of the degree-``degree`` monomials that no
    monomial generator divides: ``rank`` of them lead a row of the reduced
    span of the other generators' monomial multiples, and ``standard`` are
    the rest.

    The leading monomials of the ideal's degree-``degree`` piece are the
    divided monomials and the pivot columns under the descending revlex
    column order, ``rank`` of them; neither kind is listed.  ``standard`` is
    the degree's share of the standard monomial basis:
    :func:`standard_monomial_basis` calls this once per degree and reads
    ``result[1]``, as does ``bench/tracer.py``, whose count ``bench/run.py``
    checks against the sum of the h-vector.  The undivided monomials form an
    order ideal, built here degree by degree: the elimination runs over its
    top degree only, with multipliers from its lower degrees, and a
    divisible monomial is never enumerated.

    Inside, an exponent tuple is packed into one int, ``degree.bit_length()
    + 1`` bits per variable with the last variable highest.  A product is
    then a sum, ascending int order within one degree is the descending
    revlex order, and ``g`` divides ``m`` iff subtracting ``g`` from ``m``
    with the top bit of every field set clears none of those bits (every
    exponent stays below that bit, so no field borrows from the next).

    Rows are pruned by the Koszul criterion (Buchberger's first, on
    Macaulay rows).  Take the polynomial generators g_1, g_2, ... in the
    given order and write g = c LM(g) + tail(g), LM(g) its smallest packed
    term (the revlex leader).  The row m g_i is skipped when LM(g_j)
    divides m for some j < i.  With m = m' LM(g_j),

        c m g_i = m' g_i g_j - m' tail(g_j) g_i,

    whose right side expands into rows (m' t) g_j for the terms t of g_i,
    rows (m' t) g_i for the terms t of tail(g_j), whose multipliers pack
    larger than m, and rows whose multiplier a monomial generator divides,
    which are 0.  By induction on i, then on m from the largest packed
    down, every skipped row is in the span of the kept ones.  The pivot
    set depends only on the span, so (rank, standard) is unchanged.
    With j = i the identity would use m g_i itself.
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

    n, width = order.n, degree.bit_length() + 1
    levels = _uncovered_levels(mono_gens, n, width, degree)
    pivot_ranks = _pivot_ranks(poly_gens, levels, width)
    mask = (1 << width) - 1
    standard = {tuple(m >> (i * width) & mask for i in range(n))
                for r, m in enumerate(levels[degree]) if r not in pivot_ranks}
    return len(pivot_ranks), standard


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

    The tail is quotiented out rather than carried as generators: the sweep
    runs over the free variables only, on the images under ``g`` of the
    Stanley-Reisner generators with the tail set to zero.  This is exact,
    since the initial ideal of I + (tail) is in(I with tail = 0) + (tail), so
    the standard monomials are the free ones, padded with zero tail
    exponents.  Degrees are swept upward until a degree with no standard
    monomials appears; divisibility closure makes everything above empty as
    well.  If standard monomials persist past degree ``d + 1`` (one more than
    the tail size) the tail is not a linear system of parameters for this
    twist and :class:`StandardBasisOverflow` is raised.  A basis that lacks
    the unit or is not divisibility-closed raises :class:`VerificationError`.
    """
    if g.variables != order.variables:
        raise ValueError("matrix and order disagree on the variable sequence")
    d = order.d
    if d != delta.dim + 1:
        raise ValueError(f"tail size {d} but the complex needs {delta.dim + 1}")
    cap = d + 1
    free = TermOrder(order.free(), 0)
    gens: list[dict] = []
    for nu in stanley_reisner_generators(delta, order):
        image = apply_automorphism(g, {nu: Fraction(1)})
        gens.append({m[:free.n]: c for m, c in image.items() if not any(m[free.n:])})
    collected = set()
    degree = 0
    while True:
        _, std = initial_ideal_by_degree(gens, free, degree)
        if not std:
            break
        collected |= {m + (0,) * d for m in std}
        degree += 1
        if degree > cap:
            raise StandardBasisOverflow(
                f"standard monomials persist past degree {cap}: the tail "
                f"variables are not a linear system of parameters for this "
                f"twist/specialization")
    basis = Multicomplex(order.variables, frozenset(collected))
    if order.unit() not in collected or not basis.is_divisibility_closed():
        raise VerificationError("standard set not divisibility-closed from the unit")
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
