"""Simplicial complexes, graphs, and face-number calculus.

Complexes are immutable: a fixed vertex order plus the set of facets.  A
face is an int vertex mask, bit i standing for the i-th vertex.  All faces
are expanded on demand from the facets and cached, which is cheap at the
intended scale (a few dozen vertices).  The complex containing only the
empty face is allowed (dimension -1); the void complex with no faces at all
is rejected everywhere.
"""

from __future__ import annotations

from functools import reduce
from math import comb
from operator import or_
from typing import Collection, Iterable, Optional, Sequence


class ComplexError(ValueError):
    """Malformed complex, graph, or input file."""


class VerificationError(RuntimeError):
    """A property the program claims failed its re-check on exact data."""


# ---------------------------------------------------------------------------
# f/h-vector calculus
# ---------------------------------------------------------------------------

def h_from_f(f: Sequence[int]) -> tuple[int, ...]:
    """h-vector of the f-vector ``(f_-1, f_0, ..., f_{d-1})``.

    The entries satisfy sum h_i x^i = sum f_{i-1} x^i (1-x)^{d-i}; the
    transform is exact over the integers and inverse to :func:`f_from_h`.
    """
    if not f or f[0] != 1:
        raise ComplexError("f-vector must start with the single empty face")
    d = len(f) - 1
    return tuple(sum((-1) ** (j - i) * comb(d - i, j - i) * f[i] for i in range(j + 1))
                 for j in range(d + 1))


def f_from_h(h: Sequence[int]) -> tuple[int, ...]:
    """Inverse transform of :func:`h_from_f`."""
    if not h or h[0] != 1:
        raise ComplexError("h-vector must start with h_0 = 1")
    d = len(h) - 1
    return tuple(sum(comb(d - i, j - i) * h[i] for i in range(j + 1))
                 for j in range(d + 1))


def convolve(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Coefficient-wise product of two integer sequences."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


# ---------------------------------------------------------------------------
# vertex bitmasks
# ---------------------------------------------------------------------------

def _bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _components(nb: Sequence[int], verts: int) -> list[int]:
    """Vertex masks of the connected components of the graph with
    neighbour masks ``nb`` induced on ``verts``, by their lowest vertex."""
    parts = []
    while verts:
        part = grow = verts & -verts
        while grow:
            low = grow & -grow
            grow ^= low
            new = nb[low.bit_length() - 1] & verts & ~part
            part |= new
            grow |= new
        parts.append(part)
        verts ^= part
    return parts


def _skeleton(facets: Iterable[int], n: int) -> list[int]:
    """The 1-skeleton of the complex with facets ``facets`` (bitmasks over
    ``n`` vertices): ``seen[v]`` masks the vertices that share a facet with
    ``v``, ``v`` itself included when it lies in a facet."""
    seen = [0] * n
    for f in facets:
        for v in _bits(f):
            seen[v] |= f
    return seen


def _face_levels(facets: Collection[int]) -> list[tuple[int, ...]]:
    """Every face of the complex with facets ``facets`` (bitmasks, maximal
    or not), by size: entry j holds the faces of j vertices, ascending.
    Each level is read off the one above, every face minus each vertex."""
    levels = [set() for _ in range(max(map(int.bit_count, facets)) + 1)]
    for f in facets:
        levels[f.bit_count()].add(f)
    for k in range(len(levels) - 1, 0, -1):
        below = levels[k - 1]
        for face in levels[k]:
            rest = face
            while rest:
                low = rest & -rest
                below.add(face ^ low)
                rest ^= low
    return [tuple(sorted(level)) for level in levels]


def _maximal_independent_masks(nb: Sequence[int], within: int,
                               among: Optional[set[int]] = None) -> list[int]:
    """Maximal independent sets of the graph induced on the vertex mask
    ``within``, as masks, where ``nb[i]`` masks the neighbours of vertex i.

    Bron-Kerbosch with pivoting (Tomita, Tanaka & Takahashi, TCS 363, 2006)
    on int bitmasks, bit i standing for vertex i.  It lists the maximal
    cliques of the complement graph, where ``co[i]`` masks the
    non-neighbours of i; each branch tries only the candidates outside
    ``co`` of a pivot that has the most candidates there.  Given ``among``,
    only a set outside it is listed, and the search stops there.
    """
    co = [within & ~m & ~(1 << i) for i, m in enumerate(nb)]
    found: list[int] = []

    def rec(r: int, p: int, x: int) -> bool:
        """Search the branch; False once a set outside ``among`` is found."""
        if not p and not x:
            if among is not None and r in among:
                return True
            found.append(r)
            return among is None
        best = -1
        rest = p | x
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            k = (co[i] & p).bit_count()
            if k > best:
                best, pivot = k, i
            rest ^= low
        cand = p & ~co[pivot]
        while cand:
            low = cand & -cand
            i = low.bit_length() - 1
            if not rec(r | low, p & co[i], x & co[i]):
                return False
            p ^= low
            x |= low
            cand ^= low
        return True

    rec(0, within, 0)
    return found


# ---------------------------------------------------------------------------
# simplicial complexes
# ---------------------------------------------------------------------------

class SimplicialComplex:
    """Finite simplicial complex with string vertex labels.

    ``facets`` is any iterable of label iterables; non-maximal and duplicate
    entries are dropped.  The vertex order is the order of first appearance
    unless ``vertices`` is given, and the vertex set always equals the union
    of the facets.  A face is a vertex mask, bit i for ``vertices[i]``:
    ``self.facets`` is a frozenset of them, and ``faces(k)`` lists them.
    """

    __slots__ = ("vertices", "_bit", "facets", "dim", "_levels")

    def __init__(self, facets: Iterable[Iterable[str]],
                 vertices: Optional[Sequence[str]] = None):
        facet_sets = [frozenset(str(v) for v in f) for f in facets]
        if not facet_sets:
            raise ComplexError("void complex: no faces at all (use [[]] for the "
                               "complex containing only the empty face)")
        if vertices is None:
            seen: dict[str, None] = {}
            for f in facet_sets:
                for v in sorted(f):
                    seen.setdefault(v)
            vertices = tuple(seen)
        else:
            vertices = tuple(str(v) for v in vertices)
            if len(set(vertices)) != len(vertices):
                raise ComplexError("duplicate vertex labels")
            support = set().union(*facet_sets)
            if support != set(vertices):
                raise ComplexError("vertex list must equal the union of the facets")
        self.vertices = vertices
        self._bit = {v: 1 << i for i, v in enumerate(vertices)}
        masks = {sum(map(self._bit.__getitem__, f)) for f in facet_sets}
        # a strict subset is smaller, so a facet is tested against larger ones only
        larger = {k: [g for g in masks if g.bit_count() > k]
                  for k in {f.bit_count() for f in masks}}
        self.facets = frozenset(f for f in masks
                                if not any(f & g == f for g in larger[f.bit_count()]))
        self.dim = max(map(int.bit_count, self.facets)) - 1
        self._levels: Optional[list[tuple[int, ...]]] = None

    # -- basic structure ----------------------------------------------------

    def facet_labels(self) -> list[tuple[str, ...]]:
        """The facets' labels, lexicographic in vertex positions."""
        return [self.labels(f) for f in sorted(self.facets, key=_bits)]

    def labels(self, face: int) -> tuple[str, ...]:
        """The labels of the vertices of the mask ``face``, in vertex order."""
        return tuple([self.vertices[i] for i in _bits(face)])

    def faces(self, k: int) -> tuple[int, ...]:
        """All faces of dimension ``k`` as vertex masks, ascending."""
        if k < -1 or k > self.dim:
            return ()
        if self._levels is None:
            self._levels = _face_levels(self.facets)
        return self._levels[k + 1]

    def __eq__(self, other) -> bool:
        return (isinstance(other, SimplicialComplex)
                and self.vertices == other.vertices
                and self.facets == other.facets)

    def __hash__(self):
        return hash((self.vertices, self.facets))

    def __repr__(self):
        return f"SimplicialComplex({self.facet_labels()!r})"

    # -- invariants ----------------------------------------------------------

    def f_vector(self) -> tuple[int, ...]:
        """``(f_-1, f_0, ..., f_{d-1})`` counting faces by dimension."""
        return tuple(len(self.faces(k)) for k in range(-1, self.dim + 1))

    def h_vector(self) -> tuple[int, ...]:
        return h_from_f(self.f_vector())

    def is_pure(self) -> bool:
        return len({f.bit_count() for f in self.facets}) == 1

    def one_skeleton(self) -> "Graph":
        vs, seen = self.vertices, _skeleton(self.facets, len(self.vertices))
        return Graph(vs, [(vs[a], vs[b]) for a in range(len(vs))
                          for b in _bits(seen[a] & -(2 << a))])

    def minimal_nonfaces(self) -> list[int]:
        """Inclusion-minimal vertex sets that are not faces, as masks, by
        size and then lexicographically in vertex positions.

        Every vertex is a face, so the pairs are the non-edges of the
        1-skeleton.  Every pair inside a larger minimal non-face is an edge,
        so a candidate of size ``k >= 3`` is a face of size ``k - 1``
        extended by a common neighbour above its last vertex; common
        neighbours are carried up a level at a time, one vertex more.
        """
        n = len(self.vertices)
        seen = _skeleton(self.facets, n)
        out = [1 << a | 1 << b for a in range(n)
               for b in _bits((1 << n) - 1 & ~seen[a] & -(2 << a))]
        common = {1 << v: m for v, m in enumerate(seen)}
        for k in range(3, self.dim + 3):
            lower, here, carried = set(self.faces(k - 2)), set(self.faces(k - 1)), {}
            for f in self.faces(k - 2):
                last = f.bit_length() - 1
                carried[f] = both = common[f ^ 1 << last] & seen[last]
                for w in _bits(both & -(2 << last)):
                    c = f | 1 << w
                    if c not in here and all(c ^ 1 << v in lower for v in _bits(f)):
                        out.append(c)
            common = carried
        return sorted(out, key=lambda m: (m.bit_count(), _bits(m)))

    # -- constructions -------------------------------------------------------

    def link(self, face_labels: Iterable[str]) -> "SimplicialComplex":
        """Link of a face: faces disjoint from it whose union with it is a face."""
        try:
            tau = reduce(or_, (self._bit[str(v)] for v in face_labels), 0)
        except KeyError as e:
            raise ComplexError(f"unknown vertex {e.args[0]!r}") from None
        rest = [f ^ tau for f in self.facets if f & tau == tau]
        if not rest:
            raise ComplexError(f"{self.labels(tau)!r} is not a face")
        return SimplicialComplex([self.labels(f) for f in rest],
                                 vertices=self.labels(reduce(or_, rest)) or None)

    # -- serialization -------------------------------------------------------

    def to_file_text(self) -> str:
        if self.dim == -1:
            return "dim: -1\n"
        return "".join(" ".join(f) + "\n" for f in self.facet_labels())


def is_full_dimensional_subcomplex(inner: SimplicialComplex,
                                   *factors: SimplicialComplex) -> bool:
    """True iff every face of ``inner`` is a face of the join of ``factors``
    and the dimensions agree.  The join is never built: a set is one of its
    faces iff its trace on each factor is a face of that factor, and its
    dimension plus one is the factors' sum.  One factor is the plain test.
    """
    where: dict[str, tuple[int, int]] = {}  # vertex -> (factor, its bit there)
    for k, f in enumerate(factors):
        clash = where.keys() & set(f.vertices)
        if clash:
            raise ComplexError(f"join with colliding vertex labels: {sorted(clash)}")
        where.update((v, (k, 1 << i)) for i, v in enumerate(f.vertices))
    if (inner.dim + 1 != sum(f.dim + 1 for f in factors)
            or not where.keys() >= set(inner.vertices)):
        return False
    for face in inner.facets:
        trace = [0] * len(factors)
        for k, bit in map(where.get, inner.labels(face)):
            trace[k] |= bit
        if not all(m in f.facets or any(m & g == m for g in f.facets)
                   for m, f in zip(trace, factors)):
            return False
    return True


def parse_complex(text: str) -> SimplicialComplex:
    """Parse the facet-per-line format; '#' starts a comment line."""
    facets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.replace(" ", "") == "dim:-1":
            facets.append(())
            continue
        parts = line.split()
        if len(set(parts)) != len(parts):
            raise ComplexError(f"line {lineno}: repeated vertex in facet")
        facets.append(tuple(parts))
    if not facets:
        raise ComplexError("no facets: the void complex is not accepted")
    return SimplicialComplex(facets)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

class Graph:
    """Undirected simple graph with string vertex labels.

    ``nb`` is its adjacency, built once: bit j of ``nb[i]`` is set iff the
    vertices at positions i and j are adjacent.
    """

    __slots__ = ("vertices", "_index", "edges", "nb")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Iterable[str]]):
        self.vertices = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ComplexError("duplicate vertex labels")
        self._index = {v: i for i, v in enumerate(self.vertices)}
        es = set()
        for e in edges:
            pair = tuple(str(v) for v in e)
            if len(pair) != 2 or pair[0] == pair[1]:
                raise ComplexError(f"bad edge {pair!r}")
            try:
                i, j = self._index[pair[0]], self._index[pair[1]]
            except KeyError as exc:
                raise ComplexError(f"edge endpoint {exc.args[0]!r} not declared") from None
            es.add((min(i, j), max(i, j)))
        self.edges = frozenset(es)
        nb = [0] * len(self.vertices)
        for a, b in es:
            nb[a] |= 1 << b
            nb[b] |= 1 << a
        self.nb = tuple(nb)

    def labels(self, idxs: Iterable[int]) -> tuple[str, ...]:
        return tuple([self.vertices[i] for i in idxs])

    def edge_labels(self) -> list[tuple[str, str]]:
        return [self.labels(e) for e in sorted(self.edges)]

    def complement(self) -> "Graph":
        n = len(self.vertices)
        return Graph(self.vertices,
                     [(self.vertices[i], self.vertices[j]) for i in range(n)
                      for j in _bits((1 << n) - 1 & ~self.nb[i] & -(2 << i))])

    def subgraph(self, keep_labels: Iterable[str]) -> "Graph":
        keep_set = set(keep_labels)
        keep = [v for v in self.vertices if v in keep_set]
        ki = sum(1 << self._index[v] for v in keep)
        return Graph(keep, [(self.vertices[i], self.vertices[j]) for i in _bits(ki)
                            for j in _bits(self.nb[i] & ki & -(2 << i))])

    def components(self) -> list[list[str]]:
        """Connected components, each ordered, listed by smallest vertex position."""
        return [list(self.labels(_bits(part)))
                for part in _components(self.nb, (1 << len(self.vertices)) - 1)]

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def bipartition(self) -> Optional[tuple[tuple[str, ...], tuple[str, ...]]]:
        """A 2-coloring as two label tuples, or None.  Deterministic: each
        component is colored by BFS from its smallest vertex, which lands in
        the first class.  The BFS goes a layer at a time, the layers
        alternating between the classes; a component is bipartite iff no
        edge joins two vertices of one layer."""
        sides = [0, 0]
        todo = (1 << len(self.vertices)) - 1
        while todo:
            layer, k = todo & -todo, 0
            while layer:
                todo ^= layer
                reach = 0
                for v in _bits(layer):
                    reach |= self.nb[v]
                if reach & layer:
                    return None
                sides[k] |= layer
                layer, k = reach & todo, 1 - k
        return self.labels(_bits(sides[0])), self.labels(_bits(sides[1]))

    def is_triangle_free(self) -> bool:
        return not any(self.nb[a] & self.nb[b] for a, b in self.edges)

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.vertices == other.vertices
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph({list(self.vertices)!r}, {self.edge_labels()!r})"

    def to_file_text(self) -> str:
        lonely = [v for v, m in zip(self.vertices, self.nb) if not m]
        lines = [f"vertex: {v}" for v in lonely]
        lines += [f"{u} {w}" for u, w in self.edge_labels()]
        return "".join(line + "\n" for line in lines)


def parse_graph(text: str) -> Graph:
    """Parse 'u v' edge lines plus 'vertex: u' lines; '#' starts a comment."""
    vertices: dict[str, None] = {}
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("vertex:"):
            label = line.split(":", 1)[1].split()
            if len(label) != 1:
                raise ComplexError(f"line {lineno}: expected one label after 'vertex:'")
            vertices.setdefault(label[0])
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ComplexError(f"line {lineno}: expected 'u v' or 'vertex: u'")
        vertices.setdefault(parts[0])
        vertices.setdefault(parts[1])
        edges.append((parts[0], parts[1]))
    return Graph(tuple(vertices), edges)


def maximal_independent_sets(g: Graph) -> list[tuple[str, ...]]:
    """All maximal independent sets, as sorted label tuples."""
    labels, out = g.vertices, []
    for m in _maximal_independent_masks(g.nb, (1 << len(labels)) - 1):
        face = []  # built inline, not by _bits: this loop is the hot one
        while m:
            low = m & -m
            face.append(labels[low.bit_length() - 1])
            m ^= low
        out.append(tuple(face))
    return sorted(out)


def independence_complex(g: Graph) -> SimplicialComplex:
    """Complex whose faces are the independent sets of ``g``."""
    facets = maximal_independent_sets(g)
    return SimplicialComplex(facets, vertices=g.vertices)


def clique_complex(g: Graph) -> SimplicialComplex:
    """Complex whose faces are the cliques of ``g``."""
    return independence_complex(g.complement())


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------

def is_proper(delta: SimplicialComplex, coloring: dict[str, int]) -> bool:
    return all(coloring[a] != coloring[b] for a, b in map(delta.labels, delta.faces(1)))
