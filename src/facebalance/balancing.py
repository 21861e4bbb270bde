"""Balancing pairs and the verified d-colorable witness pipeline.

A balancing pair for a complex is a variable order together with an
invertible degree-1 twist whose standard-monomial basis (after quotienting
the parameter tail) is squarefree and has degree at most one in each block of
a partition of the non-tail variables.  Pairs are built for two base shapes,
point complexes and triangle-free graph complexes that are bipartite after
one edge removal, then composed along joins and inherited by full-dimensional
subcomplexes.  The join of the cover's factors is never built: the complex is
tested against the factor complexes, once per witness.  Nothing is trusted:
every property the construction promises is re-verified on the specialized
rational data, and any failure triggers a resample of the specialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Optional, Sequence

from .complexes import (ComplexError, Graph, SimplicialComplex, VerificationError,
                        is_full_dimensional_subcomplex, is_proper)
from .homology import is_cohen_macaulay
from .linalg import integer_row, invert, sparse_rank
from .polynomials import (DEFAULT_SEED, LinearAutomorphism, Multicomplex,
                          Specialization, StandardBasisOverflow, TermOrder,
                          specialization_stream, standard_monomial_basis)


class CoverError(ComplexError):
    """The cover or the complex violates a pipeline hypothesis."""


@dataclass(frozen=True)
class BalancingPair:
    """Variable order, twist matrix, and a block partition of the free part."""

    order: TermOrder
    matrix: LinearAutomorphism
    blocks: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if self.matrix.variables != self.order.variables:
            raise ValueError("matrix and order disagree on variables")
        flat = [v for b in self.blocks for v in b]
        if sorted(flat) != sorted(self.order.free()):
            raise ValueError("blocks must partition the non-tail variables")
        if len(self.blocks) != self.order.d:
            raise ValueError("need exactly one block per tail variable")


# ---------------------------------------------------------------------------
# the rank condition
# ---------------------------------------------------------------------------

def kind_kleinschmidt(delta: SimplicialComplex, pair: BalancingPair
                      ) -> tuple[bool, Optional[tuple[str, ...]]]:
    """Facet-wise full-rank test on the tail columns of the inverse twist.

    For every facet, the rows of the inverse matrix indexed by its vertices,
    restricted to the last ``d`` columns, must have rank equal to the facet
    size.  Each vertex's tail row is cleared to integers once.  Returns the
    first failing facet in lexicographic order of its vertex positions, if
    any.
    """
    tail_start = pair.order.n - pair.order.d
    tail = {v: integer_row(dict(enumerate(row[tail_start:])))
            for v, row in zip(pair.order.variables,
                              pair.matrix.inverse().matrix)}
    for labels in delta.facet_labels():
        if sparse_rank(tail[v] for v in labels) != len(labels):
            return False, labels
    return True, None


# ---------------------------------------------------------------------------
# base pairs
# ---------------------------------------------------------------------------

def base_pair_points(labels: Sequence[str]) -> BalancingPair:
    """Pair for the 0-dimensional complex on the given points.

    The twist is the identity except that the last variable maps to the sum
    of all variables; the single block holds everything but the last
    variable.
    """
    labels = tuple(labels)
    if not labels:
        raise CoverError("a point factor needs at least one vertex")
    n = len(labels)
    rows = [[Fraction(int(i == j or j == n - 1)) for j in range(n)]
            for i in range(n)]
    order = TermOrder(labels, 1)
    g = LinearAutomorphism(labels, tuple(tuple(r) for r in rows))
    return BalancingPair(order, g, (labels[:-1],))


def base_pair_near_bipartite(graph: Graph, removed_edge: Optional[Sequence[str]],
                             spec: Specialization) -> BalancingPair:
    """Pair for a triangle-free graph complex that one edge away from
    bipartite.

    The removed edge's endpoints become the parameter tail; their color class
    minus the endpoints is one block and the opposite class the other.  The
    twist sends each tail variable to a sum over a column of ones (all free
    variables for the first, the opposite class for the second) twisted by
    the inverse of the 2x2 parameter block.  With no ``removed_edge``, the
    first edge whose removal leaves the graph bipartite is used; a given one
    must be an edge of the graph, which :func:`parse_cover` checks.
    """
    if not graph.is_triangle_free():
        raise CoverError("graph factor contains a triangle")
    if graph.bipartition() is not None:
        raise CoverError("graph factor is bipartite: split it into two point factors")
    edges = graph.edge_labels()
    for ends in edges if removed_edge is None else [removed_edge]:
        y, z = sorted(ends, key=graph.vertices.index)
        trimmed = Graph(graph.vertices, [e for e in edges if set(e) != {y, z}])
        sides = trimmed.bipartition()
        if sides is not None:
            break
    else:
        raise CoverError("no single edge removal makes the factor bipartite"
                         if removed_edge is None else
                         "graph factor minus the chosen edge is still odd")
    class_a, class_b = sides if y in sides[0] else sides[::-1]
    if z not in class_a:
        raise VerificationError("edge endpoints split across the 2-coloring")
    rest = tuple(v for v in class_a if v not in (y, z))
    ordered = class_b + rest + (y, z)
    order = TermOrder(ordered, 2)
    n = len(ordered)
    zinv = invert(spec.z_matrix())
    rows = []
    for i in range(n - 2):
        row = [Fraction(int(i == j)) for j in range(n - 2)]
        row.append(Fraction(1))                      # ones column
        row.append(Fraction(int(i < len(class_b))))  # ones on the B-class rows
        rows.append(tuple(row))
    for i in range(2):
        rows.append(tuple([Fraction(0)] * (n - 2) + [zinv[i][0], zinv[i][1]]))
    g = LinearAutomorphism(ordered, tuple(rows))
    return BalancingPair(order, g, (rest, class_b))


# ---------------------------------------------------------------------------
# composition and inheritance
# ---------------------------------------------------------------------------

def compose_pairs(p1: BalancingPair, p2: BalancingPair) -> BalancingPair:
    """Pair for the join: free variables first, then the two tails.

    Both twists must vanish below their diagonal blocks (tail rows against
    free columns); the composite is the block sum arranged for the merged
    order.
    """
    if set(p1.order.variables) & set(p2.order.variables):
        raise CoverError("joined factors share vertex labels")
    for p in (p1, p2):
        if not p.matrix.is_block_upper_triangular(p.order.d):
            raise CoverError("twist matrix is not in the block shape")
    merged = (p1.order.free() + p2.order.free() + p1.order.tail() + p2.order.tail())
    order = TermOrder(merged, p1.order.d + p2.order.d)
    position = {v: (p, i) for p in (p1, p2)
                for i, v in enumerate(p.order.variables)}
    cells = [position[v] for v in merged]
    zero = Fraction(0)
    rows = [tuple(p.matrix.matrix[i][j] if p is q else zero
                  for q, j in cells) for p, i in cells]
    g = LinearAutomorphism(merged, tuple(rows))
    return BalancingPair(order, g, p1.blocks + p2.blocks)


def inherit_to_subcomplex(pair: BalancingPair,
                          delta: SimplicialComplex) -> BalancingPair:
    """The same pair, revalidated by the rank condition on ``delta``."""
    ok, facet = kind_kleinschmidt(delta, pair)
    if not ok:
        raise VerificationError(f"rank condition fails on facet {facet!r}")
    return pair


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------

def _labels(k: int, what: str, seq, size: Optional[int] = None) -> tuple[str, ...]:
    """A list of JSON string or number labels, as strings; ``size`` pins
    its length.  Checked here so that a malformed cover is an input error
    (exit 2), not a crash further down the pipeline."""
    if not isinstance(seq, (list, tuple)) or (size is not None and len(seq) != size):
        raise CoverError(f"factor {k}: {what} must be a list"
                         + (f" of {size} labels" if size is not None else ""))
    if any(isinstance(v, bool) or not isinstance(v, (str, int, float)) for v in seq):
        raise CoverError(f"factor {k}: {what} holds a label that is not a "
                         "string or a number")
    return tuple(str(v) for v in seq)


def parse_cover(obj) -> list[dict]:
    """Validate the JSON cover format: a list (or tuple) of factor objects."""
    if not isinstance(obj, (list, tuple)) or not obj:
        raise CoverError("cover must be a non-empty list of factors")
    out = []
    for k, factor in enumerate(obj):
        if not isinstance(factor, dict) or factor.get("type") not in ("points", "graph"):
            raise CoverError(f"factor {k}: type must be 'points' or 'graph'")
        vertices = list(_labels(k, "vertices", factor.get("vertices", [])))
        if not vertices:
            raise CoverError(f"factor {k}: no vertices")
        if len(set(vertices)) != len(vertices):
            raise CoverError(f"factor {k}: repeated vertex label")
        edges = factor.get("edges", [])
        if not isinstance(edges, (list, tuple)):
            raise CoverError(f"factor {k}: edges must be a list")
        edges = [_labels(k, "each edge", e, 2) for e in edges]
        if factor["type"] == "points" and edges:
            raise CoverError(f"factor {k}: point factors have no edges")
        for e in edges:
            if e[0] == e[1]:
                raise CoverError(f"factor {k}: edge {e!r} is a loop")
            outside = [v for v in e if v not in vertices]
            if outside:
                raise CoverError(f"factor {k}: edge {e!r} has an endpoint "
                                 f"{outside[0]!r} that is not a vertex of "
                                 "the factor")
        removed = factor.get("removed_edge")
        if removed is not None:
            if factor["type"] == "points":
                raise CoverError(f"factor {k}: point factors have no removed_edge")
            removed = _labels(k, "a non-null removed_edge", removed, 2)
            if set(removed) not in [set(e) for e in edges]:
                raise CoverError(f"factor {k}: removed edge {removed!r} is not "
                                 "an edge of the factor")
        out.append({"type": factor["type"], "vertices": vertices,
                    "edges": edges, "removed_edge": removed})
    return out


def factor_complex(factor: dict) -> SimplicialComplex:
    """The simplicial complex of one cover factor."""
    g = Graph(factor["vertices"], factor["edges"])
    lonely = [v for v, m in zip(g.vertices, g.nb) if not m]
    return SimplicialComplex(list(g.edge_labels()) + [[v] for v in lonely],
                             vertices=g.vertices)


def join_of_factors(factors: Iterable[dict]) -> list[SimplicialComplex]:
    """The factor complexes of a cover; their join is never built."""
    return [factor_complex(f) for f in factors]


def _base_pairs_for(factor: dict, spec: Specialization) -> list[BalancingPair]:
    """Base pairs for one factor; bipartite graph factors split into two
    point factors, and an edgeless one is a single point factor."""
    g = Graph(factor["vertices"], factor["edges"])
    sides = g.bipartition()
    if sides is not None:
        return [base_pair_points(side) for side in sides if side]
    return [base_pair_near_bipartite(g, factor["removed_edge"], spec)]


# ---------------------------------------------------------------------------
# the witness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BalancedWitness:
    """A verified d-colorable multicomplex with face counts equal to h."""

    pair: BalancingPair
    basis: Multicomplex
    complex: SimplicialComplex
    coloring: dict[str, int]
    verified_h: tuple[int, ...]
    checks: dict[str, bool]
    specialization: Specialization
    seed: int

    def to_json_obj(self) -> dict:
        basis_obj = self.basis.to_json_obj()
        return {"h": list(self.verified_h),
                "F": basis_obj["F"],
                "basis": basis_obj["monomials"],
                "coloring": {v: self.coloring[v] for v in sorted(self.coloring)},
                "blocks": [list(b) for b in self.pair.blocks],
                "checks": {k: self.checks[k] for k in sorted(self.checks)},
                "seed": self.seed,
                "specialization": [f"{v.numerator}/{v.denominator}"
                                   for v in self.specialization.values],
                "order": list(self.pair.order.variables),
                "tail": list(self.pair.order.tail()),
                "twist": self.pair.matrix.to_json_obj()}


CHECK_NAMES = ("kind_kleinschmidt", "squarefree", "block_degree",
               "divisibility_closure", "f_matches_h", "proper_coloring")


RETRIES = 8  # extra specialization attempts after the first


def balanced_witness(delta: SimplicialComplex, cover: Sequence[dict],
                     seed: int = DEFAULT_SEED) -> BalancedWitness:
    """Build and verify the witness for a full-dimensional CM subcomplex of a
    join of admissible factors.

    Hypothesis violations (bad factor, not a subcomplex, not CM) raise
    :class:`CoverError` naming the failed condition.  Check failures under a
    specialization trigger a resample, up to ``RETRIES`` extra attempts, then
    raise :class:`VerificationError` naming the failed check.
    """
    cover = parse_cover(cover)
    if not is_full_dimensional_subcomplex(delta, *join_of_factors(cover)):
        raise CoverError("complex is not a full-dimensional subcomplex of the "
                         "cover join")
    cm, violation = is_cohen_macaulay(delta)
    if not cm:
        raise CoverError(
            f"complex is not Cohen-Macaulay: link of {list(violation.face)!r} "
            f"has homology in degree {violation.degree}")
    h = delta.h_vector()
    failures = []
    stream = specialization_stream(seed)
    for _ in range(RETRIES + 1):
        spec = next(stream)
        try:
            # every factor yields a base pair and the cover is not empty
            pair = reduce(compose_pairs, (base for factor in cover
                                          for base in _base_pairs_for(factor, spec)))
            pair = inherit_to_subcomplex(pair, delta)
            checks = {"kind_kleinschmidt": True}
            basis = standard_monomial_basis(delta, pair.matrix, pair.order)
            block_idx = [tuple(pair.order.index(v) for v in b) for b in pair.blocks]
            checks["squarefree"] = basis.is_squarefree()
            checks["block_degree"] = all(basis.max_degree_in(idx) <= 1
                                         for idx in block_idx)
            checks["divisibility_closure"] = basis.is_divisibility_closed()
            f = basis.f_vector()
            checks["f_matches_h"] = f + (0,) * (len(h) - len(f)) == h
            # only a squarefree basis is a complex that can be colored
            witness_complex = basis.to_complex() if checks["squarefree"] else None
            coloring = {v: i for i, b in enumerate(pair.blocks) for v in b}
            checks["proper_coloring"] = (witness_complex is not None
                                         and is_proper(witness_complex, coloring))
            if all(checks.values()):
                return BalancedWitness(pair, basis, witness_complex, coloring,
                                       h, checks, spec, seed)
            failed = sorted(k for k, v in checks.items() if not v)
            failures.append(f"attempt {spec.attempt}: failed {', '.join(failed)}")
        except (VerificationError, StandardBasisOverflow) as e:
            failures.append(f"attempt {spec.attempt}: {e}")
    raise VerificationError(
        "no specialization verified the witness: " + "; ".join(failures))
