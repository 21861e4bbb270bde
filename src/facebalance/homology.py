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

from dataclasses import dataclass
from typing import Optional

from .complexes import SimplicialComplex, VerificationError
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
    if i == 0:
        return 1 if delta.faces(0) else 0
    return sparse_rank([{k: 1 if pos % 2 == 0 else -1
                         for pos, k in enumerate(cols)}
                        for cols in _boundary_rows(delta, i)])


def _gf2_boundary_rank(delta: SimplicialComplex, i: int) -> int:
    """Rank over GF(2) of the boundary map from ``i``-chains."""
    if i == 0:
        return 1 if delta.faces(0) else 0
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


def _link_vanishing(delta: SimplicialComplex
                    ) -> tuple[BettiProfile, Optional[CMViolation]]:
    """Global Betti numbers and the first face whose link fails to vanish.

    Faces are visited the empty one first, then by dimension and
    lexicographic order.  The empty face's link is the complex itself, so
    its Betti numbers are the global ones.  A face of dimension at least
    ``dim - 1`` has a link of dimension at most 0, which is ``{()}`` or a
    nonempty set of points; neither has homology below its top, so those
    faces are not visited.
    """
    betti = reduced_betti(delta)
    degree = _first_gap(betti)
    if degree is not None:
        return betti, CMViolation((), degree, betti)
    for k in range(delta.dim - 1):
        for tau in delta.faces(k):
            labels = delta.labels(tau)
            link_betti = reduced_betti(delta.link(labels))
            degree = _first_gap(link_betti)
            if degree is not None:
                return betti, CMViolation(labels, degree, link_betti)
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
