"""Simplicial complexes, graphs, and face-number calculus.

Complexes are immutable: a fixed vertex order plus the set of facets, stored
as sorted index tuples.  All faces are expanded on demand from the facets and
cached per dimension, which is cheap at the intended scale (a few dozen
vertices).  The complex containing only the empty face is allowed (dimension
-1); the void complex with no faces at all is rejected everywhere.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterable, Optional, Sequence


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
# simplicial complexes
# ---------------------------------------------------------------------------

class SimplicialComplex:
    """Finite simplicial complex with string vertex labels.

    ``facets`` is any iterable of label iterables; non-maximal and duplicate
    entries are dropped.  The vertex order is the order of first appearance
    unless ``vertices`` is given, and the vertex set always equals the union
    of the facets.
    """

    __slots__ = ("vertices", "_index", "facets", "dim", "_faces_by_dim")

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
        self._index = {v: i for i, v in enumerate(vertices)}
        idx_facets = {tuple(sorted(self._index[v] for v in f)) for f in facet_sets}
        # a strict subset is shorter, so a facet is tested against longer ones only
        sets = {f: frozenset(f) for f in idx_facets}
        longer = {n: [g for g in sets.values() if len(g) > n]
                  for n in {len(f) for f in idx_facets}}
        self.facets = frozenset(f for f, fs in sets.items()
                                if not any(fs < g for g in longer[len(f)]))
        self.dim = max(len(f) for f in self.facets) - 1
        self._faces_by_dim: dict[int, tuple[tuple[int, ...], ...]] = {}

    # -- basic structure ----------------------------------------------------

    def facet_labels(self) -> list[tuple[str, ...]]:
        return [self.labels(f) for f in sorted(self.facets)]

    def labels(self, face: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.vertices[i] for i in face)

    def index_face(self, labels: Iterable[str]) -> tuple[int, ...]:
        try:
            return tuple(sorted(self._index[str(v)] for v in labels))
        except KeyError as e:
            raise ComplexError(f"unknown vertex {e.args[0]!r}") from None

    def faces(self, k: int) -> tuple[tuple[int, ...], ...]:
        """All faces of dimension ``k`` as sorted index tuples, sorted."""
        if k < -1 or k > self.dim:
            return ()
        if k not in self._faces_by_dim:
            found = set()
            for f in self.facets:
                if len(f) >= k + 1:
                    found.update(itertools.combinations(f, k + 1))
            self._faces_by_dim[k] = tuple(sorted(found))
        return self._faces_by_dim[k]

    def has_face(self, face: Iterable[int]) -> bool:
        fs = set(face)
        return any(fs <= set(g) for g in self.facets)

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
        sizes = {len(f) for f in self.facets}
        return len(sizes) == 1

    def one_skeleton(self) -> "Graph":
        verts = self.labels(range(len(self.vertices)))
        edges = [self.labels(e) for e in self.faces(1)]
        return Graph(verts, edges)

    def minimal_nonfaces(self) -> list[tuple[int, ...]]:
        """Inclusion-minimal index sets that are not faces."""
        out = []
        for k in range(2, self.dim + 3):  # every vertex is a face: start at pairs
            lower = set(self.faces(k - 2))
            here = set(self.faces(k - 1))
            candidates = set()
            for f in self.faces(k - 2):
                for v in range(len(self.vertices)):
                    if v not in f:
                        candidates.add(tuple(sorted(f + (v,))))
            for c in sorted(candidates):
                if c in here:
                    continue
                if all(c[:i] + c[i + 1:] in lower for i in range(k)):
                    out.append(c)
        return out

    # -- constructions -------------------------------------------------------

    def link(self, face_labels: Iterable[str]) -> "SimplicialComplex":
        """Link of a face: faces disjoint from it whose union with it is a face."""
        tau = self.index_face(face_labels)
        taus = set(tau)
        # facets are sorted, so each remainder is too
        rest = [tuple(v for v in f if v not in taus)
                for f in self.facets if taus.issubset(f)]
        if not rest:
            raise ComplexError(f"{self.labels(tau)!r} is not a face")
        return SimplicialComplex([self.labels(f) for f in rest],
                                 vertices=self.labels(sorted(set().union(*rest))) or None)

    def join(self, other: "SimplicialComplex") -> "SimplicialComplex":
        """Simplicial join; vertex labels must be disjoint."""
        clash = set(self.vertices) & set(other.vertices)
        if clash:
            raise ComplexError(f"join with colliding vertex labels: {sorted(clash)}")
        facets = [self.labels(f) + other.labels(g)
                  for f in self.facets for g in other.facets]
        out = SimplicialComplex(facets, vertices=self.vertices + other.vertices)
        if out.f_vector() != convolve(self.f_vector(), other.f_vector()):
            raise VerificationError("join f-vector is not the convolution")
        return out

    # -- serialization -------------------------------------------------------

    def to_file_text(self) -> str:
        if self.dim == -1:
            return "dim: -1\n"
        return "".join(" ".join(f) + "\n" for f in self.facet_labels())


def is_full_dimensional_subcomplex(inner: SimplicialComplex,
                                   outer: SimplicialComplex) -> bool:
    """True iff every face of ``inner`` is a face of ``outer`` and dims agree."""
    if inner.dim != outer.dim:
        return False
    if not set(inner.vertices) <= set(outer.vertices):
        return False
    for f in inner.facets:
        if not outer.has_face(outer.index_face(inner.labels(f))):
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
    """Undirected simple graph with string vertex labels."""

    __slots__ = ("vertices", "_index", "edges", "_adj")

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
        nbrs: list[set[int]] = [set() for _ in self.vertices]
        for a, b in es:
            nbrs[a].add(b)
            nbrs[b].add(a)
        self._adj = tuple(frozenset(s) for s in nbrs)

    def labels(self, idxs: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.vertices[i] for i in idxs)

    def edge_labels(self) -> list[tuple[str, str]]:
        return [self.labels(e) for e in sorted(self.edges)]

    def adjacency(self) -> dict[int, frozenset[int]]:
        """Neighbour sets by vertex position, built once in the constructor."""
        return dict(enumerate(self._adj))

    def has_edge(self, i: int, j: int) -> bool:
        return j in self._adj[i]

    def complement(self) -> "Graph":
        n = len(self.vertices)
        edges = [(self.vertices[i], self.vertices[j])
                 for i in range(n) for j in range(i + 1, n)
                 if (i, j) not in self.edges]
        return Graph(self.vertices, edges)

    def subgraph(self, keep_labels: Iterable[str]) -> "Graph":
        keep_set = set(keep_labels)
        keep = [v for v in self.vertices if v in keep_set]
        ki = {self._index[v] for v in keep}
        edges = [self.labels(e) for e in self.edges if set(e) <= ki]
        return Graph(keep, edges)

    def components(self) -> list[list[str]]:
        """Connected components, each ordered, listed by smallest vertex position."""
        adj = self.adjacency()
        seen: set[int] = set()
        comps = []
        for s in range(len(self.vertices)):
            if s in seen:
                continue
            stack, comp = [s], []
            seen.add(s)
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            comps.append([self.vertices[i] for i in sorted(comp)])
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def bipartition(self) -> Optional[tuple[tuple[str, ...], tuple[str, ...]]]:
        """A 2-coloring as two label tuples, or None.  Deterministic: each
        component is colored by BFS from its smallest vertex, which lands in
        the first class."""
        adj = self.adjacency()
        color: dict[int, int] = {}
        for s in range(len(self.vertices)):
            if s in color:
                continue
            color[s] = 0
            queue = [s]
            while queue:
                u = queue.pop(0)
                for w in sorted(adj[u]):
                    if w not in color:
                        color[w] = 1 - color[u]
                        queue.append(w)
                    elif color[w] == color[u]:
                        return None
        side = lambda c: tuple(v for i, v in enumerate(self.vertices) if color[i] == c)
        return side(0), side(1)

    def is_triangle_free(self) -> bool:
        adj = self.adjacency()
        return not any(adj[a] & adj[b] for a, b in self.edges)

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.vertices == other.vertices
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph({list(self.vertices)!r}, {self.edge_labels()!r})"

    def to_file_text(self) -> str:
        lonely = [v for v, nbrs in zip(self.vertices, self._adj) if not nbrs]
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
            vertices.setdefault(line.split(":", 1)[1].strip())
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ComplexError(f"line {lineno}: expected 'u v' or 'vertex: u'")
        vertices.setdefault(parts[0])
        vertices.setdefault(parts[1])
        edges.append((parts[0], parts[1]))
    return Graph(tuple(vertices), edges)


def _bron_kerbosch(candidates: set[int], adj: dict[int, frozenset[int]]):
    """Maximal cliques of a graph given by an adjacency dict."""
    def rec(r: set, p: set, x: set):
        if not p and not x:
            yield tuple(sorted(r))
            return
        pivot = max(p | x, key=lambda v: len(adj[v] & p))
        for v in sorted(p - adj[pivot]):
            yield from rec(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}
    yield from rec(set(), set(candidates), set())


def maximal_independent_sets(g: Graph) -> list[tuple[str, ...]]:
    """All maximal independent sets, as sorted label tuples."""
    n = len(g.vertices)
    adj = g.adjacency()
    co_adj = {i: set(range(n)) - adj[i] - {i} for i in range(n)}
    return sorted(g.labels(c) for c in _bron_kerbosch(set(range(n)), co_adj))


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
    return all(coloring[delta.vertices[a]] != coloring[delta.vertices[b]]
               for a, b in delta.faces(1))
