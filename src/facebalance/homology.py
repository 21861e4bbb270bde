"""Rational simplicial homology and the link-vanishing Cohen-Macaulay test.

Chains are augmented: the empty face spans the (-1)-st chain group, so the
boundary of a vertex is the empty face and the Betti numbers are reduced.
Faces are vertex masks, oriented by their vertex order with alternating
signs, and all rational ranks are exact.

Every boundary map is one sequence of bitmask rows, ranked over GF(2) first.
By the universal coefficient theorem, GF(2) can under-rank a map only by
the 2-torsion it leaves behind, which GF(2) sees as homology on both sides
of that map.  So only a map whose two neighbouring GF(2) Betti numbers are
both nonzero (in the real projective plane, the map from 2-chains) has its
rows ranked again over Q, and every other map keeps its GF(2) rank.

The Cohen-Macaulay test ranks the complex itself first.  When that passes
and the complex is pure, a vertex decomposition, checked step by step on the
facets, certifies it; only when none is found are the other faces' links
walked, and the walk is what reports every violation.  The real projective
plane, Cohen-Macaulay over Q but not over GF(2), has no decomposition and
always takes the walk.  Every complex, flag or not, is walked in one form:
each link is its facet masks, ranked on the join factors of its
strong-collapse core.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
from math import prod
from operator import and_, or_
from typing import Iterable, Optional

from .complexes import (SimplicialComplex, VerificationError, _bits,
                        _components, _face_levels, _skeleton, convolve)
from .linalg import gf2_rank, sparse_rank


@dataclass(frozen=True)
class CMViolation:
    """A face whose link has homology below its top dimension; the link's
    reduced Betti numbers are the tuple ``(b_-1, b_0, ..., b_dim)``."""

    face: tuple[str, ...]
    degree: int
    link_betti: tuple[int, ...]

    def to_json_obj(self) -> dict:
        return {"face": list(self.face), "degree": self.degree}


def _boundary_rows(levels: list[tuple[int, ...]], i: int) -> Iterable[int]:
    """The boundary map from ``i``-chains as lazy bitmask rows, one per face of
    ``levels[i + 1]``, bit ``k`` set for a codimension-1 face ``levels[i][k]``."""
    below = {f: k for k, f in enumerate(levels[i])}
    for face in levels[i + 1]:
        row, rest = 0, face
        while rest:
            row |= 1 << below[face ^ (rest & -rest)]
            rest &= rest - 1
        yield row


def _q_rank(rows: Iterable[int]) -> int:
    """Exact rank over Q of bitmask boundary rows, the ``j``-th set bit from
    the lowest signed ``(-1)^j``: levels ascend, so on a face of ``i + 1``
    vertices it drops the vertex at place ``i - j``, and ``(-1)^j`` is one
    sign ``(-1)^i`` times the oriented one, which leaves the rank alone."""
    signed = []
    for row in rows:
        entries, sign = {}, 1
        while row:
            entries[(row & -row).bit_length() - 1] = sign
            row, sign = row & (row - 1), -sign
        signed.append(entries)
    return sparse_rank(signed)


def _betti(levels: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Reduced rational Betti numbers ``(b_-1, ..., b_dim)`` of the complex
    whose faces, by size, are ``levels``.

    Each map's ``_boundary_rows`` are ranked over GF(2), and ``_q_rank``
    ranks again only the maps that GF(2) shows homology on both sides of.
    The augmented chain complex is free over Z, so by the universal
    coefficient theorem (Hatcher, Algebraic Topology, Thm 3A.3)
    ``b_i(GF(2)) = b_i(Q) + t_i + t_{i-1}``, where ``t_i`` counts the
    2-primary cyclic summands of the torsion of reduced ``H_i(Z)``, and the
    map from ``(i+1)``-chains has rank over Q ``t_i`` more than over GF(2).
    That map is therefore under-ranked by GF(2) only when ``b_i`` and
    ``b_{i+1}`` are both nonzero over GF(2).  Here ``ranks[i]`` is the map
    from ``i``-chains, between ``entries[i]`` (``b_{i-1}``) and
    ``entries[i + 1]`` (``b_i``), so it is ranked again over Q iff those
    two entries are both nonzero.  A lone entry, such as the top one of a
    sphere, flanks no map.

    The entries sum, with alternating signs, to the reduced Euler
    characteristic whatever the ranks are.  An over-reported rank that
    makes an entry negative raises, on either pass, and an under-reported
    one raises both of its neighbours, so the map is ranked again over Q.
    """
    def entries_of(ranks: list[int]) -> list[int]:
        entries = [len(f) - r - s for f, r, s in zip(levels, [0] + ranks, ranks + [0])]
        if min(entries) < 0:
            raise VerificationError(f"negative Betti number in {entries}")
        return entries

    ranks = [gf2_rank(_boundary_rows(levels, i)) for i in range(len(levels) - 1)]
    entries = entries_of(ranks)
    flanked = [i for i in range(len(ranks)) if entries[i] and entries[i + 1]]
    if flanked:
        for i in flanked:
            ranks[i] = _q_rank(_boundary_rows(levels, i))
        entries = entries_of(ranks)
    return tuple(entries)


def boundary_rank(delta: SimplicialComplex, i: int) -> int:
    """Exact rank of the boundary map from ``i``-chains to ``(i-1)``-chains."""
    if i < 0 or i > delta.dim:
        raise ValueError(f"no boundary map in degree {i}")
    return _q_rank(_boundary_rows([delta.faces(k) for k in range(-1, i + 1)], i))


def reduced_betti(delta: SimplicialComplex) -> tuple[int, ...]:
    """Reduced rational Betti numbers ``(b_-1, b_0, ..., b_dim)`` of the
    complex (see :func:`_betti`)."""
    return _betti([delta.faces(k) for k in range(-1, delta.dim + 1)])


def _first_gap(entries: tuple[int, ...]) -> Optional[int]:
    """Lowest degree below the top with nonzero reduced homology, given the
    Betti numbers ``(b_-1, ..., b_dim)``: entry ``i`` is degree ``i - 1``."""
    return next((i - 1 for i in range(len(entries) - 1) if entries[i]), None)


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
        # meet[v]: the vertices that every facet through v holds
        meet = [present] * present.bit_length()
        for f in facets:
            for v in _bits(f):
                meet[v] &= f
        for v in _bits(present):
            if meet[v] & alive & ~(1 << v):
                alive ^= 1 << v
        if alive == present:
            return facets
        # a facet that lost no vertex stays maximal; a cut one is kept when
        # it lies in no other facet of the deletion: bit i of holds[v] is
        # set when kept[i] holds v, so the faces holding all of a cut
        # face's vertices are the AND of their masks
        kept = list({f & alive for f in facets})
        holds = [0] * present.bit_length()
        for i, f in enumerate(kept):
            for v in _bits(f):
                holds[v] |= 1 << i
        facets = frozenset(
            f for i, f in enumerate(kept)
            if f in facets or reduce(and_, [holds[v] for v in _bits(f)]) == 1 << i)


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
    # far[v]: the vertices sharing no facet with v
    far = [verts & ~m for m in _skeleton(core, verts.bit_length())]
    parts = _components(far, verts)
    if prod(len({f & part for f in core}) for part in parts) == len(core):
        return parts
    return [verts]


def _collapsed_betti(link: tuple[int, ...],
                     factors: dict[tuple[int, ...], tuple[int, ...]]
                     ) -> tuple[int, ...]:
    """Reduced Betti numbers ``(b_-1, ..., b_dim)`` of the complex with
    facets ``link`` (bitmasks), ranked on the join factors of its
    strong-collapse core.

    A core has the same reduced homology in every degree as the complex it
    collapses from, so its Betti numbers padded with zeros are that
    complex's.  A core with one nonempty facet is a simplex and has none.
    Any other core is split by ``_join_parts``.  A factor on the vertices
    ``pos`` (the bits of ``part``) is keyed by its facets, the sorted
    projections of the core onto ``part`` relabelled in order onto ``pos``,
    and ranked once per ``factors`` memo.  Over a field the reduced
    homology of a join is the shifted tensor product of the factors'
    (Milnor, Ann. Math. 63, 1956), so the core's entries, from b_-1, are
    the convolution of the factors' entries.
    """
    core = _strong_core(link)
    size = max(map(int.bit_count, link)) + 1  # entries b_-1 .. b_dim
    if len(core) == 1 and 0 not in core:
        return (0,) * size
    entries: tuple[int, ...] = (1,)
    for part in _join_parts(core):
        pos = _bits(part)
        key = tuple(sum(1 << i for i, v in enumerate(pos) if m >> v & 1)
                    for m in sorted({f & part for f in core}))
        if key not in factors:
            factors[key] = _betti(_face_levels(key))
        entries = convolve(entries, factors[key])
    return entries + (0,) * (size - len(entries))


def _extends(face: int, free: int, facets: frozenset[int]) -> bool:
    """True when ``face`` plus one vertex of the mask ``free`` is in
    ``facets``."""
    while free:
        low = free & -free
        if face | low in facets:
            return True
        free ^= low
    return False


# shedding tests one vertex-decomposition attempt may make before it gives
# up; Ind(pg_chain(6, 2)), the largest rung in CI, needs 141 871 of them
_SHED_BUDGET = 200_000


def _vertex_decomposable(facets: Iterable[int]) -> bool:
    """True when a search finds a vertex decomposition of the complex whose
    facets are ``facets`` (bitmasks); False means "not certified", not "not
    decomposable".

    A simplex (one facet) is decomposable.  A vertex ``v`` sheds when every
    facet through ``v``, minus ``v``, lies inside a facet that misses ``v``;
    the complex is then decomposable when the deletion (the facets that miss
    ``v``) and the link (the facets through ``v``, minus ``v``) are
    (Björner & Wachs, Trans. AMS 349, 1997).  For each facet ``F`` through
    ``v``, ``F - v`` plus one vertex outside ``F`` is looked up among the
    facets, where it lies iff it is a facet of the deletion, as it misses
    ``v``.  It has the size of ``F`` and a deletion keeps every facet's size,
    so a complex that is not pure leaves a part that is not pure and is
    never certified.  The search takes the first shedding vertex in
    ``_bits`` order, builds only its two parts, and never backtracks.  Each
    subcomplex is decomposed once, from a stack, and every vertex tested
    for shedding counts against ``_SHED_BUDGET``; running out gives False.
    """
    stack, seen, tests = [frozenset(facets)], set(), 0
    while stack:
        fs = stack.pop()
        if len(fs) == 1 or fs in seen:
            continue
        seen.add(fs)
        verts = reduce(or_, fs)
        for v in _bits(verts):
            if tests == _SHED_BUDGET:
                return False
            tests += 1
            bit = 1 << v
            if all(_extends(f ^ bit, verts & ~f, fs) for f in fs if f & bit):
                stack += [frozenset(f for f in fs if not f & bit),
                          frozenset(f ^ bit for f in fs if f & bit)]
                break
        else:
            return False
    return True


def _link_vanishing(delta: SimplicialComplex
                    ) -> tuple[tuple[int, ...], Optional[CMViolation]]:
    """Global Betti numbers and the first face whose link fails to vanish.

    Faces are visited the empty one first, then by dimension and
    lexicographic order.  The empty face's link is the complex itself, so
    its Betti numbers are the global ones.  A face of dimension at least
    ``dim - 1`` has a link of dimension at most 0, which is ``{()}`` or a
    nonempty set of points; neither has homology below its top, so those
    faces are not visited.

    Faces are bitmasks over the vertex indices here, and a link is its
    facets as sorted bitmasks.  Each link is read off its parent's, one
    vertex at a time: ``tau`` is extended by each vertex ``v`` of
    ``lk(tau)`` after its last, and ``lk(tau + v) = lk_{lk(tau)}(v)`` has
    the facets through ``v``, minus ``v``, still sorted.  The queue holds
    the rest of one dimension and what is read of the next.  Links that are
    equal are ranked once per call by ``_collapsed_betti``, and factors of
    the same shape once per call.  A tuple holds the facets in a fraction
    of the memory a frozenset takes.  No complex is built and the complex's
    own faces are never expanded: every factor is ranked from its facet
    masks.

    Once the empty face passes, a pure complex is offered to
    ``_vertex_decomposable``; a decomposition ends the walk there, with the
    Betti numbers already ranked.  A complex that is not pure, which the
    search never certifies, is not offered; the walk reports its failure.
    """
    facets = tuple(sorted(delta.facets))
    factors: dict[tuple[int, ...], tuple[int, ...]] = {}
    memo: dict[tuple[int, ...], tuple[int, ...]] = {}

    def children(t: int, link: tuple[int, ...]) -> list:
        above = reduce(or_, link) >> t.bit_length() << t.bit_length()
        return [(t | 1 << v, tuple(f ^ 1 << v for f in link if f >> v & 1))
                for v in _bits(above)]

    queue = deque([(0, facets)])
    while queue:
        t, link = queue.popleft()
        link_betti = memo.get(link)
        if link_betti is None:
            link_betti = memo[link] = _collapsed_betti(link, factors)
        degree = _first_gap(link_betti)
        if degree is not None:
            return memo[facets], CMViolation(delta.labels(t), degree, link_betti)
        if not t and delta.is_pure() and _vertex_decomposable(facets):
            return link_betti, None
        if t.bit_count() < delta.dim - 1:
            queue.extend(children(t, link))
    if not delta.is_pure():
        raise VerificationError("link-vanishing passed on a non-pure complex")
    return memo[facets], None


def is_cohen_macaulay(delta: SimplicialComplex
                      ) -> tuple[bool, Optional[CMViolation]]:
    """Cohen-Macaulay test over the rationals, by link vanishing.

    Every face (the empty one first, then by dimension and lexicographic
    order) must have a link with vanishing reduced homology below its top
    dimension.  The empty face is ranked first.  If it passes and the
    complex is pure, a vertex decomposition is searched for: a pure vertex
    decomposable complex is shellable (Provan & Billera, Math. Oper. Res. 5,
    1980; Björner & Wachs, Trans. AMS 349, 1997, for the definition used),
    so Cohen-Macaulay over every field, and a decomposition found answers
    without walking the other faces.  The search never certifies a complex
    that is not pure, which may be only sequentially Cohen-Macaulay.
    When no decomposition is found, or the search runs out of its count of
    shedding tests, the remaining faces are walked, and the first failing
    face is returned as a certificate.  Only the walk answers False.
    """
    _, violation = _link_vanishing(delta)
    return violation is None, violation


def cm_report(delta: SimplicialComplex) -> dict:
    """JSON-ready report: verdict, global Betti numbers, violation if any.

    The verdict is :func:`is_cohen_macaulay`'s: after the empty face, a
    pure complex is certified by a vertex decomposition when one is found
    (Provan & Billera, Math. Oper. Res. 5, 1980; Björner & Wachs, Trans. AMS
    349, 1997), and otherwise by walking the remaining links, which also
    finds the violation.  The Betti numbers are always the empty face's
    rational ones from :func:`_betti` (GF(2) ranks, with each map that
    GF(2) shows homology on both sides of ranked again over Q), so both
    routes print the same report.
    """
    betti, violation = _link_vanishing(delta)
    return {"cm": violation is None,
            "betti": list(betti),
            "violation": None if violation is None else violation.to_json_obj()}
