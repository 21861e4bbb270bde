"""Rational simplicial homology and the link-vanishing Cohen-Macaulay test.

Chains are augmented: the empty face spans the (-1)-st chain group, so the
boundary of a vertex is the empty face and the Betti numbers are reduced.
Faces are vertex masks, oriented by their vertex order with alternating
signs, and all rational ranks are exact.

Every boundary matrix is ranked over GF(2) first.  An integer matrix has
rank over GF(2) at most its rank over Q, so every Betti number over GF(2) is
at least the rational one (the universal coefficient theorem).  When the
GF(2) numbers vanish below the top degree, the rational ones provably vanish
too; only a complex where GF(2) sees homology (say, torsion, as in the real
projective plane) is ranked again over Q.

The Cohen-Macaulay test ranks the complex itself first.  When that passes
and the complex is pure, a vertex decomposition, checked step by step on the
facets, certifies it; only when none is found are the other faces' links
walked, and the walk is what reports every violation.  The real projective
plane, Cohen-Macaulay over Q but not over GF(2), has no decomposition and
always takes the walk.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
from math import prod
from operator import and_, or_
from typing import Iterable, Optional

from .complexes import (SimplicialComplex, VerificationError, _bits,
                        _components, _face_levels, _maximal_independent_masks,
                        _skeleton, convolve)
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


def _boundary_rows(levels: list[tuple[int, ...]], i: int) -> list[list[int]]:
    """For each ``i``-face, the positions in ``levels[i]`` (the faces of
    ``i`` vertices) of its codimension-1 faces ``face ^ low``, one per
    vertex bit ``low``, lowest first."""
    below = {f: k for k, f in enumerate(levels[i])}
    rows = []
    for face in levels[i + 1]:
        row, rest = [], face
        while rest:
            low = rest & -rest
            row.append(below[face ^ low])
            rest ^= low
        rows.append(row)
    return rows


def _q_boundary_rank(levels: list[tuple[int, ...]], i: int) -> int:
    """Exact rank over Q of the boundary map from ``i``-chains."""
    return sparse_rank([{k: (-1) ** pos for pos, k in enumerate(cols)}
                        for cols in _boundary_rows(levels, i)])


def _gf2_boundary_rank(levels: list[tuple[int, ...]], i: int) -> int:
    """Rank over GF(2) of the boundary map from ``i``-chains."""
    return gf2_rank(sum(1 << k for k in cols) for cols in _boundary_rows(levels, i))


def _betti(levels: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Reduced rational Betti numbers ``(b_-1, ..., b_dim)`` of the complex
    whose faces, by size, are ``levels``.

    If the GF(2) Betti numbers vanish below the top degree, the rational
    ones do too, and the top entry is then the reduced Euler characteristic
    up to sign, the same over every field.  Otherwise the rational numbers
    are computed from exact boundary ranks over Q.  The entries sum, with
    alternating signs, to the reduced Euler characteristic whatever the
    ranks are; an over-reported rank makes an entry negative, which raises.
    """
    for rank in (_gf2_boundary_rank, _q_boundary_rank):
        ranks = [rank(levels, i) for i in range(len(levels) - 1)] + [0]
        entries = [1 - ranks[0]] + [len(levels[i + 1]) - ranks[i] - ranks[i + 1]
                                    for i in range(len(levels) - 1)]
        if min(entries) < 0:
            raise VerificationError(f"negative Betti number in {entries}")
        if not any(entries[:-1]):
            break
    return tuple(entries)


def boundary_rank(delta: SimplicialComplex, i: int) -> int:
    """Exact rank of the boundary map from ``i``-chains to ``(i-1)``-chains."""
    if i < 0 or i > delta.dim:
        raise ValueError(f"no boundary map in degree {i}")
    return _q_boundary_rank([delta.faces(k) for k in range(-1, i + 1)], i)


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
    # far[v]: the vertices sharing no facet with v
    far = [verts & ~m for m in _skeleton(core, verts.bit_length())]
    parts = _components(far, verts)
    if prod(len({f & part for f in core}) for part in parts) == len(core):
        return parts
    return [verts]


def _join_betti(parts: list[int], size: int, rows, facets_of,
                factors: dict[tuple[int, ...], tuple[int, ...]]
                ) -> tuple[int, ...]:
    """Reduced Betti numbers, ``size`` entries from b_-1, of a core that is
    the join of factors on the vertex masks ``parts``.

    A factor on the vertices ``pos`` (the bits of ``part``) is ranked once
    per ``factors`` memo, keyed by the masks ``rows(part, pos)`` relabelled
    in order onto ``pos``; its facets, in those labels, are
    ``facets_of(key)``.  Over a field the reduced homology of a join is the
    shifted tensor product of the factors' (Milnor, Ann. Math. 63, 1956), so
    the core's entries, from b_-1, are the convolution of the factors'
    entries.  A core has the same reduced homology in every degree as the
    complex it collapses from, so its Betti numbers padded with zeros are
    that complex's.
    """
    entries: tuple[int, ...] = (1,)
    for part in parts:
        pos = _bits(part)
        key = tuple(sum(1 << i for i, v in enumerate(pos) if m >> v & 1)
                    for m in rows(part, pos))
        if key not in factors:
            factors[key] = _betti(_face_levels(facets_of(key)))
        entries = convolve(entries, factors[key])
    return entries + (0,) * (size - len(entries))


def _collapsed_betti(link: tuple[int, ...],
                     factors: dict[tuple[int, ...], tuple[int, ...]]
                     ) -> tuple[int, ...]:
    """Reduced Betti numbers of the complex with facets ``link``
    (bitmasks), ranked on the join factors of its strong-collapse core by
    ``_join_betti``.

    A core with one nonempty facet is a simplex and has none.  Any other
    core is split by ``_join_parts``; each factor is keyed by its facets,
    which are ranked as they are.
    """
    core = _strong_core(link)
    size = max(map(int.bit_count, link)) + 1  # entries b_-1 .. b_dim
    if len(core) == 1 and 0 not in core:
        return (0,) * size
    return _join_betti(_join_parts(core), size,
                       lambda part, pos: sorted({f & part for f in core}),
                       lambda key: key, factors)


def _flag_graph(facets: tuple[int, ...], n: int) -> Optional[list[int]]:
    """Neighbour masks of the graph G with Ind(G) equal to the complex whose
    facets are ``facets`` (bitmasks over ``n`` vertices), or None when the
    complex is not pure or not Ind(G).

    G is the non-edge graph of the 1-skeleton: ``u`` and ``v`` are adjacent
    iff no facet holds both.  Every face is a clique of the 1-skeleton, so
    an independent set of G.  When every maximal independent set of G is a
    facet, every independent set lies in a facet and is a face, so the
    complex is Ind(G).  The search stops at the first maximal independent
    set that is not a facet, and a complex that is not pure is not looked
    at at all.
    """
    size = facets[0].bit_count()
    if any(f.bit_count() != size for f in facets):
        return None
    full = (1 << n) - 1
    nb = [full & ~m for m in _skeleton(facets, n)]
    if _maximal_independent_masks(nb, full, set(facets)):
        return None
    return nb


def _fold(nb: list[int], verts: int) -> int:
    """Vertex mask of the fold core of the graph with neighbour masks ``nb``
    induced on ``verts``: Ind of it is the strong-collapse core of
    Ind(G[verts]).

    In Ind(G[P]) a vertex ``v`` is dominated by ``w != v`` (every facet
    through ``v`` holds ``w``) iff N(w) & P <= N(v).  If the inclusion
    holds, ``w`` is not adjacent to ``v`` (else ``v`` is its own
    neighbour), and a maximal independent set I through ``v`` meets no
    neighbour of ``w``, so I + w is independent and ``w`` lies in I.  If it
    fails at some ``u`` in N(w) & P outside N(v), either ``u = v``, and no
    facet through ``v`` holds its neighbour ``w``, or ``{v, u}`` is
    independent and lies in a facet that misses ``w``.  Deleting ``v`` is
    then Engstrom's fold (Discrete Math. 309, 2009), and the complex left is
    Ind(G[P - v]), whose facets are the maximal traces of Ind(G[P])'s.  The
    passes are ``_strong_core``'s, so the core is the same.
    """
    while True:
        present = alive = verts
        for v in _bits(present):
            far = present & ~nb[v]  # w dominates v iff nb[w] misses it
            cand = alive & far & ~(1 << v)
            while cand:
                low = cand & -cand
                if not nb[low.bit_length() - 1] & far:
                    alive ^= 1 << v
                    break
                cand ^= low
        if alive == present:
            return alive
        verts = alive


def _folded_betti(nb: list[int], verts: int, size: int,
                  factors: dict[tuple[int, ...], tuple[int, ...]]
                  ) -> tuple[int, ...]:
    """Reduced Betti numbers, ``size`` entries from b_-1, of Ind(G[verts])
    for the graph G with neighbour masks ``nb``, ranked on the join factors
    of its fold core by ``_join_betti``.

    The fold core is the strong-collapse core (``_fold``); one vertex is a
    simplex and has none.  Ind of a disjoint union is the join of the
    parts' Ind, so every component of the core's graph is a join factor,
    with no facet count needed.  A factor is keyed by its graph, which
    fixes Ind of it, and ranked on its maximal independent sets.
    """
    core = _fold(nb, verts)
    if core and not core & (core - 1):
        return (0,) * size
    return _join_betti(_components(nb, core), size,
                       lambda part, pos: [nb[v] for v in pos],
                       lambda key: _maximal_independent_masks(key, (1 << len(key)) - 1),
                       factors)


def _extends(face: int, free: int, facets: set[int]) -> bool:
    """True when ``face`` plus one vertex of the mask ``free`` is in
    ``facets``."""
    while free:
        low = free & -free
        if face | low in facets:
            return True
        free ^= low
    return False


# shedding tests one vertex-decomposition attempt may make before it gives up
_SHED_BUDGET = 200_000


def _vertex_decomposable(facets: Iterable[int]) -> bool:
    """True when a search finds a vertex decomposition of the complex whose
    facets are ``facets`` (bitmasks); False means "not certified", not "not
    decomposable".

    A simplex (one facet) is decomposable.  A vertex ``v`` sheds when every
    facet through ``v``, minus ``v``, lies inside a facet that misses ``v``;
    the complex is then decomposable when the deletion (the facets that miss
    ``v``) and the link (the facets through ``v``, minus ``v``) are
    (Björner & Wachs, Trans. AMS 349, 1997).  That facet is looked up first
    among ``F - v`` plus one vertex, the only candidates when the complex is
    pure, and only then searched for.  The search takes the first shedding
    vertex in ``_bits`` order and never backtracks, so one subcomplex with
    no shedding vertex ends it.  Each subcomplex is decomposed once, from a
    stack, and every vertex tested for shedding counts against
    ``_SHED_BUDGET``; running out gives False.
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
            rest = {f for f in fs if not f & bit}
            link = [f ^ bit for f in fs if f & bit]
            if all(_extends(g, verts & ~(g | bit), rest)
                   or any(not g & ~f for f in rest) for g in link):
                stack += [frozenset(rest), frozenset(link)]
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

    Faces are bitmasks over the vertex indices here.  Each link is read off
    its parent's, one vertex at a time: ``tau`` is extended by each vertex
    ``v`` of ``lk(tau)`` after its last, and ``lk(tau + v) =
    lk_{lk(tau)}(v)``.  The queue holds the rest of one dimension and what
    is read of the next.  Links that are equal are ranked once per call,
    each on the join factors of its strong-collapse core, and factors of
    the same shape once per call.  A link takes one of two forms.

    - Flag: when ``_flag_graph`` proves the complex pure and equal to
      Ind(G), a link is the vertex mask U with ``lk(tau) = Ind(G[U])``, U the
      vertices outside ``tau`` with no neighbour in it, and the child through
      ``v`` keeps U minus ``v`` and its neighbours.  Purity fixes each link's
      dimension at ``dim - |tau|``.  It is ranked by ``_folded_betti``.
    - General: a link is its facets as sorted bitmasks, and the child keeps
      the facets through ``v``, minus ``v``, still sorted.  It is ranked by
      ``_collapsed_betti``.  A tuple holds the facets in a fraction of the
      memory a frozenset takes.

    No complex is built and the complex's own faces are never expanded:
    every factor is ranked from its facet masks.

    Once the empty face passes, a pure complex is offered to
    ``_vertex_decomposable``; a decomposition ends the walk there, with the
    Betti numbers already ranked.  A complex that is not pure is never
    offered, and the walk alone reports a failure.
    """
    n = len(delta.vertices)
    facets = tuple(sorted(delta.facets))
    nb = _flag_graph(facets, n)
    factors: dict[tuple[int, ...], tuple[int, ...]] = {}
    if nb is None:
        root: object = facets

        def rank(t: int, link: tuple[int, ...]) -> tuple[int, ...]:
            return _collapsed_betti(link, factors)

        def children(t: int, link: tuple[int, ...]) -> list:
            above = reduce(or_, link) >> t.bit_length() << t.bit_length()
            return [(t | 1 << v, tuple(f ^ 1 << v for f in link if f >> v & 1))
                    for v in _bits(above)]
    else:
        root = (1 << n) - 1

        def rank(t: int, link: int) -> tuple[int, ...]:
            return _folded_betti(nb, link, delta.dim - t.bit_count() + 2, factors)

        def children(t: int, link: int) -> list:
            return [(t | 1 << v, link & ~nb[v] & ~(1 << v))
                    for v in _bits(link >> t.bit_length() << t.bit_length())]

    memo: dict = {}
    queue = deque([(0, root)])
    while queue:
        t, link = queue.popleft()
        link_betti = memo.get(link)
        if link_betti is None:
            link_betti = memo[link] = rank(t, link)
        if not t:
            betti = link_betti
        degree = _first_gap(link_betti)
        if degree is not None:
            return betti, CMViolation(delta.labels(t), degree, link_betti)
        if not t and delta.is_pure() and _vertex_decomposable(facets):
            return betti, None
        if t.bit_count() < delta.dim - 1:
            queue.extend(children(t, link))
    if not delta.is_pure():
        raise VerificationError("link-vanishing passed on a non-pure complex")
    return betti, None


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
    without walking the other faces.  The purity gate matters: a complex
    that is decomposable but not pure is only sequentially Cohen-Macaulay.
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
    exact ranks, so both routes print the same report.
    """
    betti, violation = _link_vanishing(delta)
    return {"cm": violation is None,
            "betti": list(betti),
            "violation": None if violation is None else violation.to_json_obj()}
