"""Rational simplicial homology and the link-vanishing Cohen-Macaulay test.

Chains are augmented: the empty face spans the (-1)-st chain group, so the
boundary of a vertex is the empty face and the Betti numbers are reduced.
Faces are oriented by their sorted vertex order with alternating signs, and
all rational ranks are exact.

Every boundary matrix is ranked over GF(2) first.  An integer matrix has
rank over GF(2) at most its rank over Q, so every Betti number over GF(2) is
at least the rational one (the universal coefficient theorem).  When the
GF(2) numbers vanish below the top degree, the rational ones provably vanish
too; only a complex where GF(2) sees homology (say, torsion, as in the real
projective plane) is ranked again over Q.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
from math import prod
from operator import and_, or_
from typing import Iterable, Optional

from .complexes import SimplicialComplex, VerificationError, convolve
from .linalg import gf2_rank, sparse_rank


@dataclass(frozen=True)
class BettiProfile:
    """Reduced Betti numbers ``(b_-1, b_0, ..., b_dim)`` over the rationals."""

    entries: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.entries) - 2

    def degree(self, i: int) -> int:
        return self.entries[i + 1]

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class CMViolation:
    """A face whose link has homology below its top dimension."""

    face: tuple[str, ...]
    degree: int
    link_betti: BettiProfile

    def to_json_obj(self) -> dict:
        return {"face": list(self.face), "degree": self.degree}


def _boundary_rows(delta: SimplicialComplex, i: int) -> list[list[int]]:
    """For each ``i``-face, the positions in ``faces(i - 1)`` of its
    codimension-1 faces, by the position of the deleted vertex."""
    below = {f: k for k, f in enumerate(delta.faces(i - 1))}
    return [[below[face[:pos] + face[pos + 1:]] for pos in range(len(face))]
            for face in delta.faces(i)]


def boundary_rank(delta: SimplicialComplex, i: int) -> int:
    """Exact rank of the boundary map from ``i``-chains to ``(i-1)``-chains."""
    if i < 0 or i > delta.dim:
        raise ValueError(f"no boundary map in degree {i}")
    return sparse_rank([{k: 1 if pos % 2 == 0 else -1
                         for pos, k in enumerate(cols)}
                        for cols in _boundary_rows(delta, i)])


def _gf2_boundary_rank(delta: SimplicialComplex, i: int) -> int:
    """Rank over GF(2) of the boundary map from ``i``-chains."""
    return gf2_rank(sum(1 << k for k in cols) for cols in _boundary_rows(delta, i))


def _betti_entries(delta: SimplicialComplex, rank) -> list[int]:
    """``(b_-1, ..., b_dim)`` from the boundary ranks ``rank(delta, i)``.

    The entries sum, with alternating signs, to the reduced Euler
    characteristic whatever the ranks are; an over-reported rank makes an
    entry negative, which raises.
    """
    d = delta.dim
    ranks = [rank(delta, i) for i in range(d + 1)] + [0]
    entries = [1 - ranks[0]]
    for i in range(d + 1):
        entries.append(len(delta.faces(i)) - ranks[i] - ranks[i + 1])
    if min(entries) < 0:
        raise VerificationError(f"negative Betti number in {entries}")
    return entries


def reduced_betti(delta: SimplicialComplex) -> BettiProfile:
    """Reduced rational Betti numbers of the complex.

    If the GF(2) Betti numbers vanish below the top degree, the rational
    ones do too, and the top entry is then the reduced Euler characteristic
    up to sign, the same over every field.  Otherwise the rational numbers
    are computed from exact boundary ranks over Q.
    """
    entries = _betti_entries(delta, _gf2_boundary_rank)
    if any(entries[:-1]):
        entries = _betti_entries(delta, boundary_rank)
    return BettiProfile(tuple(entries))


def _first_gap(betti: BettiProfile) -> Optional[int]:
    """Lowest degree below the top with nonzero reduced homology."""
    return next((i for i in range(-1, betti.dim) if betti.degree(i)), None)


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _strong_core(facets: Iterable[int]) -> frozenset[int]:
    """Strong-collapse core of a complex given by its facets as bitmasks.

    A vertex ``v`` is dominated by a vertex ``w != v`` when every facet
    containing ``v`` contains ``w``; deleting ``v`` is then a strong
    collapse, a homotopy equivalence (Barmak & Minian, "Strong homotopy
    types, nerves and collapses", DCG 47, 2012).  A pass walks the vertices
    in index order and deletes each one that, in the complex the pass
    started from, is dominated by a vertex still present.  That domination
    survives the deletion of other vertices, because every facet of the
    deletion through ``v`` is a facet through ``v`` minus deleted vertices.
    Passes repeat until one deletes nothing.
    """
    facets = frozenset(facets)
    while True:
        present = alive = reduce(or_, facets)
        for v in _bits(present):
            bit = 1 << v
            if reduce(and_, [f for f in facets if f & bit]) & alive & ~bit:
                alive ^= bit
        if alive == present:
            return facets
        # a facet that lost no vertex stays maximal; a cut one is kept
        # unless it lies inside another facet of the deletion
        kept = {f & alive for f in facets}
        facets = frozenset(
            f for f in kept
            if f in facets or not any(f & g == f != g for g in kept))


def _join_parts(core: frozenset[int]) -> list[int]:
    """Vertex masks of join factors of the complex with facets ``core``
    (bitmasks), certified by counting facets.

    Every minimal non-face of a join lies in one factor, and a non-edge is
    a minimal non-face, so the components of the non-edge graph refine the
    finest join partition.  The facets lie in the product of their
    projections onto the parts, so when they are as many as that product
    the complex is the join of the projections.  When the components fail
    that count, the complex is one factor.
    """
    verts = reduce(or_, core)

    def size(part: int) -> int:
        return len({f & part for f in core})

    parts, left = [], verts
    while left:
        part = grow = left & -left
        while grow:
            v = grow & -grow
            grow ^= v
            far = left & ~part & ~reduce(or_, [f for f in core if f & v])
            part |= far
            grow |= far
        parts.append(part)
        left ^= part
    return parts if prod(map(size, parts)) == len(core) else [verts]


def _collapsed_betti(delta: SimplicialComplex, link: tuple[int, ...],
                     factors: dict[tuple[int, ...], tuple[int, ...]]
                     ) -> BettiProfile:
    """Reduced Betti numbers of the subcomplex of ``delta`` with facets
    ``link`` (bitmasks), ranked on the join factors of its strong-collapse
    core.

    The core has the same reduced homology in every degree, so its Betti
    numbers padded with zeros up to the link's dimension are the link's.  A
    core with one nonempty facet is a simplex and has none.  Any other core
    is split by ``_join_parts``; each factor is built with the link's labels
    in their order and ranked, once per ``factors`` memo, which is keyed by
    its facets relabelled in order onto the factor's own vertices.  Over a
    field the reduced homology of a join is the shifted tensor product of
    the factors' (Milnor, Ann. Math. 63, 1956), so the core's entries, from
    b_-1, are the convolution of the factors' entries.
    """
    core = _strong_core(link)
    entries: tuple[int, ...] = ()
    if len(core) > 1 or 0 in core:
        entries = (1,)
        for part in _join_parts(core):
            facets = sorted({f & part for f in core})
            pos = _bits(part)
            key = tuple(sum(1 << i for i, v in enumerate(pos) if f >> v & 1)
                        for f in facets)
            if key not in factors:
                factors[key] = reduced_betti(SimplicialComplex(
                    [delta.labels(_bits(f)) for f in facets],
                    vertices=delta.labels(pos))).entries
            entries = convolve(entries, factors[key])
    size = max(map(int.bit_count, link)) + 1  # entries b_-1 .. b_dim
    return BettiProfile(entries + (0,) * (size - len(entries)))


def _link_vanishing(delta: SimplicialComplex
                    ) -> tuple[BettiProfile, Optional[CMViolation]]:
    """Global Betti numbers and the first face whose link fails to vanish.

    Faces are visited the empty one first, then by dimension and
    lexicographic order.  The empty face's link is the complex itself, so
    its Betti numbers are the global ones.  A face of dimension at least
    ``dim - 1`` has a link of dimension at most 0, which is ``{()}`` or a
    nonempty set of points; neither has homology below its top, so those
    faces are not visited.

    Faces and facets are bitmasks over the vertex indices here.  Each link
    is read off its parent's, one vertex at a time: ``tau`` is extended by
    each vertex ``v`` of ``lk(tau)`` after its last, and
    ``lk(tau + v) = lk_{lk(tau)}(v)`` keeps the facets of ``lk(tau)``
    through ``v``, minus ``v``, still sorted.  The queue holds the rest of
    one dimension and what is read of the next.  Links with the same facets
    are ranked once per call, each on the join factors of its
    strong-collapse core, and factors of the same shape once per call.
    """
    # keyed by the sorted facet masks: a tuple holds them in a fraction of
    # the memory a frozenset takes
    memo: dict[tuple[int, ...], BettiProfile] = {}
    factors: dict[tuple[int, ...], tuple[int, ...]] = {}
    queue = deque([(0, tuple(sorted(sum(1 << v for v in f)
                                    for f in delta.facets)))])
    while queue:
        t, link = queue.popleft()
        link_betti = memo.get(link)
        if link_betti is None:
            link_betti = memo[link] = _collapsed_betti(delta, link, factors)
        if not t:
            betti = link_betti
        degree = _first_gap(link_betti)
        if degree is not None:
            return betti, CMViolation(delta.labels(_bits(t)), degree, link_betti)
        if t.bit_count() < delta.dim - 1:
            above = reduce(or_, link) >> t.bit_length() << t.bit_length()
            queue.extend((t | 1 << v, tuple(f ^ 1 << v for f in link if f >> v & 1))
                         for v in _bits(above))
    if not delta.is_pure():
        raise VerificationError("link-vanishing passed on a non-pure complex")
    return betti, None


def is_cohen_macaulay(delta: SimplicialComplex
                      ) -> tuple[bool, Optional[CMViolation]]:
    """Link-vanishing Cohen-Macaulay test over the rationals.

    Every face (the empty one first, then by dimension and lexicographic
    order) must have a link with vanishing reduced homology below its top
    dimension.  Returns the first failing face as a certificate.
    """
    _, violation = _link_vanishing(delta)
    return violation is None, violation


def cm_report(delta: SimplicialComplex) -> dict:
    """JSON-ready report: verdict, global Betti numbers, violation if any."""
    betti, violation = _link_vanishing(delta)
    return {"cm": violation is None,
            "betti": list(betti),
            "violation": None if violation is None else violation.to_json_obj()}
