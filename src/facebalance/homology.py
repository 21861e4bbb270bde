"""Rational simplicial homology and the link-vanishing Cohen-Macaulay test.

Chains are augmented: the empty face spans the (-1)-st chain group, so the
boundary of a vertex is the empty face and the Betti numbers are reduced.
Faces are oriented by their sorted vertex order with alternating signs, and
all ranks are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complexes import SimplicialComplex, VerificationError
from .linalg import sparse_rank


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


def boundary_rank(delta: SimplicialComplex, i: int) -> int:
    """Exact rank of the boundary map from ``i``-chains to ``(i-1)``-chains."""
    if i < 0 or i > delta.dim:
        raise ValueError(f"no boundary map in degree {i}")
    if i == 0:
        return 1 if delta.faces(0) else 0
    below = {f: k for k, f in enumerate(delta.faces(i - 1))}
    rows = []
    for face in delta.faces(i):
        row = {}
        for pos in range(len(face)):
            sub = face[:pos] + face[pos + 1:]
            row[below[sub]] = 1 if pos % 2 == 0 else -1
        rows.append(row)
    return sparse_rank(rows)


def reduced_betti(delta: SimplicialComplex) -> BettiProfile:
    """Reduced rational Betti numbers of the complex."""
    d = delta.dim
    if d == -1:
        return BettiProfile((1,))
    ranks = {i: boundary_rank(delta, i) for i in range(d + 1)}
    ranks[d + 1] = 0
    entries = [1 - ranks[0]]
    for i in range(d + 1):
        entries.append(len(delta.faces(i)) - ranks[i] - ranks[i + 1])
    profile = BettiProfile(tuple(entries))
    f = delta.f_vector()
    euler_faces = sum((-1) ** i * f[i + 1] for i in range(-1, d + 1))
    euler_betti = sum((-1) ** i * profile.degree(i) for i in range(-1, d + 1))
    if euler_betti != euler_faces:
        raise VerificationError("Euler characteristic mismatch")
    return profile


def _first_gap(betti: BettiProfile) -> Optional[int]:
    """Lowest degree below the top with nonzero reduced homology."""
    return next((i for i in range(-1, betti.dim) if betti.degree(i)), None)


def _link_vanishing(delta: SimplicialComplex
                    ) -> tuple[BettiProfile, Optional[CMViolation]]:
    """Global Betti numbers and the first face whose link fails to vanish.

    Faces are visited the empty one first, then by dimension and
    lexicographic order.  The empty face's link is the complex itself, so
    its Betti numbers are the global ones.
    """
    betti = reduced_betti(delta)
    degree = _first_gap(betti)
    if degree is not None:
        return betti, CMViolation((), degree, betti)
    for k in range(delta.dim + 1):
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
