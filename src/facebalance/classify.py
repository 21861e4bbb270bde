"""Well-covered graph classification at girth five and related graph tools.

A 5-cycle is *basic* when no two adjacent vertices on it both have degree at
least three; a graph is in the pendant/cycle class when its pendant edges
perfectly match the vertices they touch and the basic 5-cycles partition the
rest.  Connected well-covered graphs of girth at least five are either in
that class, a single vertex, or one of five exceptional graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .complexes import (ComplexError, Graph, SimplicialComplex,
                        VerificationError, _bits, _maximal_independent_masks,
                        _skeleton, maximal_independent_sets)

INFINITE = math.inf


# ---------------------------------------------------------------------------
# elementary invariants
# ---------------------------------------------------------------------------

def girth(g: Graph):
    """Length of a shortest cycle; ``math.inf`` for forests.

    A BFS from every vertex, a layer of vertex masks at a time.  An edge
    inside layer k closes a walk of length 2k + 1 through the root, which
    contains a cycle at most that long; a vertex of layer k + 1 with two
    neighbours in layer k lies on two paths from the root, which close a
    cycle of length at most 2k + 2.  A shortest cycle through the root is
    found at its far end, so the least of these over all roots is the
    girth.  Deeper layers close only longer cycles, so each BFS stops once
    2k + 1 reaches the shortest cycle found so far.  A vertex of degree at
    most 1 lies on no cycle and is not a root: every vertex of a shortest
    cycle has degree at least 2, so the cycle is still found from one of
    its own vertices, and no BFS reports less than the girth.
    """
    nb = g.nb
    best = INFINITE
    for s in range(len(nb)):
        if nb[s] & (nb[s] - 1) == 0:
            continue
        seen = layer = 1 << s
        k = 0
        while layer and 2 * k + 1 < best:
            inside = once = twice = 0
            for v in _bits(layer):
                inside |= nb[v] & layer
                new = nb[v] & ~seen
                twice |= once & new
                once |= new
            if inside:
                best = 2 * k + 1
            elif twice:
                best = 2 * k + 2
            seen |= once
            layer = once
            k += 1
        if best == 3:
            return 3
    return best


def is_well_covered(g: Graph) -> bool:
    """True iff all maximal independent sets share one size.

    The enumeration oracle: it lists every maximal independent set, so its
    cost grows exponentially.  ``classify_girth5`` decides well-coveredness
    by certificates instead, and the tests check it against this oracle.
    """
    sizes = {len(s) for s in maximal_independent_sets(g)}
    return len(sizes) == 1


def pendant_edges(g: Graph) -> list[tuple[str, str]]:
    """Edges incident to a degree-1 vertex, sorted."""
    return sorted(g.labels((a, b)) for a, b in g.edges()
                  if g.nb[a].bit_count() == 1 or g.nb[b].bit_count() == 1)


def basic_5_cycles(g: Graph) -> list[tuple[str, ...]]:
    """Induced 5-cycles with no adjacent pair of degree >= 3 vertices.

    Each cycle is returned in traversal order starting at its smallest
    vertex, toward its smaller neighbor; the list is sorted.  The cycles are
    walked as induced paths s-a-b-c closed by a common neighbour e of c and
    s, with every vertex above s and a < e; each vertex added misses the
    earlier path vertices it is not next to.  That is O(n * D^4) mask
    operations for maximum degree D, and pruning the path as it grows keeps
    dense graphs cheap too.
    """
    nb = g.nb
    high = sum(1 << v for v, m in enumerate(nb) if m.bit_count() >= 3)
    out = []
    for s in range(len(nb)):
        up = -(2 << s)  # the vertices above s
        for a in _bits(nb[s] & up):
            for b in _bits(nb[a] & up & ~nb[s]):
                for c in _bits(nb[b] & up & ~nb[s] & ~nb[a]):
                    for e in _bits(nb[c] & nb[s] & ~nb[a] & ~nb[b] & -(2 << a)):
                        cyc = (s, a, b, c, e)
                        if not any(high >> u & 1 and high >> w & 1
                                   for u, w in zip(cyc, cyc[1:] + cyc[:1])):
                            out.append(g.labels(cyc))
    return sorted(out)


# ---------------------------------------------------------------------------
# the pendant/cycle decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PGDecomposition:
    """Vertex split into pendant-matched vertices and basic 5-cycle vertices."""

    pendant_vertices: tuple[str, ...]
    cycle_vertices: tuple[str, ...]
    pendant_edges: tuple[tuple[str, str], ...]
    basic_cycles: tuple[tuple[str, ...], ...]

    @property
    def beta(self) -> int:
        return len(self.pendant_edges) + 2 * len(self.basic_cycles)

    def to_json_obj(self) -> dict:
        return {"pendant_edges": [list(e) for e in self.pendant_edges],
                "basic_cycles": [list(c) for c in self.basic_cycles],
                "beta": self.beta}


def pg_decomposition(g: Graph) -> Optional[PGDecomposition]:
    """The unique candidate decomposition, validated; None when it fails."""
    pend = pendant_edges(g)
    p_vertices = sorted({v for e in pend for v in e})
    count = {v: 0 for v in p_vertices}
    for u, w in pend:
        count[u] += 1
        count[w] += 1
    if any(c != 1 for c in count.values()):
        return None
    cycles = basic_5_cycles(g)
    cycle_vertices: list[str] = []
    seen: set[str] = set()
    for c in cycles:
        if seen & set(c) or set(c) & set(p_vertices):
            return None
        seen.update(c)
        cycle_vertices.extend(c)
    rest = set(g.vertices) - set(p_vertices)
    if seen != rest:
        return None
    return PGDecomposition(tuple(p_vertices), tuple(sorted(cycle_vertices)),
                           tuple(pend), tuple(cycles))


# ---------------------------------------------------------------------------
# exceptional graphs
# ---------------------------------------------------------------------------

def _cycle_graph(n: int) -> Graph:
    verts = [str(i) for i in range(1, n + 1)]
    return Graph(verts, [(str(i), str(i % n + 1)) for i in range(1, n + 1)])


# each member as its vertex count and its edges, letter pairs on the
# vertices A = 1, B = 2, ..., so a graph is compared only with the members
# of its own size
_CATALOG = {
    "C7": (7, "AB BC CD DE EF FG GA"),
    "P10": (10, "AB CB CD DE EA FC FG GH DH IB IJ HJ"),
    "P13": (13, "AG AH BD CB DE EF FC DG FH EJ GI IJ JK KH KM ML LI"),
    "P14": (14, "AB CB CD ED EF FG AG AH BI CJ DK EL FM GN IK KM MH HJ JL LN NI"),
    "Q13": (13, "AB AI KB AD CB CE DG EF FG EI GK FH HJ IJ JK IL KM LM"),
}


def _catalog_graph(n: int, pairs: str) -> Graph:
    return Graph([str(i) for i in range(1, n + 1)],
                 [(str(ord(a) - 64), str(ord(b) - 64)) for a, b in pairs.split()])


def exceptional_catalog() -> dict[str, Graph]:
    """The five connected well-covered girth >= 5 graphs outside the
    pendant/cycle class (besides the single vertex)."""
    return {name: _catalog_graph(*member) for name, member in _CATALOG.items()}


# ---------------------------------------------------------------------------
# graph isomorphism (small graphs)
# ---------------------------------------------------------------------------

def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact backtracking isomorphism test with degree-profile pruning.

    Graphs whose vertex or edge counts differ are rejected before any
    search, so classify's comparisons with the catalog (at most 14
    vertices) backtrack only on graphs that small.
    """
    n = len(g1.vertices)
    if n != len(g2.vertices) or (sum(map(int.bit_count, g1.nb))
                                 != sum(map(int.bit_count, g2.nb))):
        return False
    nb1, nb2 = g1.nb, g2.nb

    def profile(nb):
        deg = [m.bit_count() for m in nb]
        return [(deg[v], tuple(sorted(deg[w] for w in _bits(m))))
                for v, m in enumerate(nb)]

    p1, p2 = profile(nb1), profile(nb2)
    if sorted(p1) != sorted(p2):
        return False
    by_profile: dict = {}
    for w, key in enumerate(p2):
        by_profile.setdefault(key, []).append(w)
    order = sorted(range(n), key=lambda v: (len(by_profile[p1[v]]),
                                            -nb1[v].bit_count(), v))
    image = [0] * n  # image[v]: the bit of v's image, for v mapped so far

    def extend(pos: int, mapped: int, used: int) -> bool:
        """Map ``order[pos:]``, given the masks of the vertices mapped so
        far and of their images: w can take v iff w's neighbours among
        the images are the images of v's mapped neighbours."""
        if pos == n:
            return True
        v = order[pos]
        want = 0
        for u in _bits(nb1[v] & mapped):
            want |= image[u]
        for w in by_profile[p1[v]]:
            bit = 1 << w
            if not used & bit and nb2[w] & used == want:
                image[v] = bit
                if extend(pos + 1, mapped | 1 << v, used | bit):
                    return True
        return False

    return extend(0, 0, 0)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _greedy(nb, order) -> int:
    """The maximal independent set that takes each vertex of ``order`` in
    turn that has no neighbour taken yet."""
    s = blocked = 0
    for v in order:
        if not blocked >> v & 1:
            s |= 1 << v
            blocked |= nb[v] | 1 << v
    return s


def _checked_size(nb, s: int, full: int) -> int:
    """The size of ``s``, a certificate's maximal independent set, once
    plain code (which ``python -O`` keeps) has checked that no two of its
    vertices are adjacent and that it covers ``full`` with its
    neighbours."""
    covered = s
    for v in _bits(s):
        if nb[v] & s:
            raise VerificationError("certificate set is not independent")
        covered |= nb[v]
    if covered != full:
        raise VerificationError("certificate set is not maximal")
    return s.bit_count()


@dataclass(frozen=True)
class Verdict:
    """Outcome of the girth >= 5 classification."""

    kind: str  # PG | K1 | Exceptional | NotWellCovered | GirthTooSmall
    name: Optional[str] = None
    decomposition: Optional[PGDecomposition] = None
    # on a well-covered graph, the size of a checked greedy maximal
    # independent set, which all of them share; not part of the JSON
    beta: Optional[int] = None

    def to_json_obj(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.name is not None:
            out["name"] = self.name
        if self.decomposition is not None:
            out["decomposition"] = self.decomposition.to_json_obj()
        return out


def classify_girth5(g: Graph) -> Verdict:
    """Classify a connected graph of girth at least five.

    Well-covered inputs land in exactly one of: single vertex, exceptional
    catalog member, or the pendant/cycle class (Finbow, Hartnell &
    Nowakowski, JCTB 57, 1993).  Every maximal independent set of a
    pendant/cycle graph takes one vertex of each pendant edge and two of
    each basic 5-cycle, so a validated decomposition proves the graph
    well-covered, as the catalog lists only well-covered graphs.  A verdict
    of not well-covered rests on two checked maximal independent sets of
    different sizes, from two greedy passes by ascending and by descending
    degree.  Only a graph that none of these settles has its maximal
    independent sets enumerated; if they all share one size, the
    classification itself is wrong, and that raises.
    """
    if not g.is_connected():
        raise ComplexError("classification needs a connected graph")
    if girth(g) < 5:
        return Verdict("GirthTooSmall")
    nb = g.nb
    n = len(nb)
    full = (1 << n) - 1
    size, other = (_checked_size(nb, _greedy(nb, order), full) for order in (
        sorted(range(n), key=lambda v: (nb[v].bit_count(), v)),
        sorted(range(n), key=lambda v: (-nb[v].bit_count(), v))))
    if size != other:
        return Verdict("NotWellCovered")
    if n == 1:
        return Verdict("K1", beta=size)
    for name, (m, pairs) in sorted(_CATALOG.items()):
        if m == n and is_isomorphic(g, _catalog_graph(m, pairs)):
            if pg_decomposition(g) is not None:
                raise VerificationError("catalog graph also decomposes")
            return Verdict("Exceptional", name=name, beta=size)
    dec = pg_decomposition(g)
    if dec is not None:
        if dec.beta != size:
            raise VerificationError("decomposition size disagrees with beta")
        return Verdict("PG", decomposition=dec, beta=size)
    if len({m.bit_count() for m in _maximal_independent_masks(nb, full)}) != 1:
        return Verdict("NotWellCovered")
    raise VerificationError(
        "well-covered girth >= 5 graph is neither exceptional nor decomposable")


# ---------------------------------------------------------------------------
# the covering join
# ---------------------------------------------------------------------------

def embed_in_join(g: Graph) -> tuple[list[dict], dict]:
    """Cover of the independence complex by a join of admissible factors.

    Each component must classify as a single vertex or as pendant/cycle
    class; pendant edges become two-point factors and basic 5-cycles become
    pentagon edge-complex factors.  Returns (factor list, certificate).
    """
    factors: list[dict] = []
    per_component = []
    measured = 0
    for comp in g.components():
        sub = g.subgraph(comp)
        verdict = classify_girth5(sub)
        if verdict.kind == "K1":
            factors.append({"type": "points", "vertices": list(comp),
                            "edges": [], "removed_edge": None})
            per_component.append({"vertices": list(comp), "pendant_edges": 0,
                                  "basic_cycles": 0, "kind": "K1"})
        elif verdict.kind == "PG":
            dec = verdict.decomposition
            for cyc in dec.basic_cycles:
                # the complement of an induced 5-cycle is the pentagon of
                # Ind(C5)'s edges
                pentagon = g.subgraph(cyc).complement()
                factors.append({"type": "graph", "vertices": list(pentagon.vertices),
                                "edges": [list(e) for e in pentagon.edge_labels()],
                                "removed_edge": None})
            for edge in dec.pendant_edges:
                factors.append({"type": "points", "vertices": list(edge),
                                "edges": [], "removed_edge": None})
            per_component.append({"vertices": list(comp),
                                  "pendant_edges": len(dec.pendant_edges),
                                  "basic_cycles": len(dec.basic_cycles),
                                  "kind": "PG"})
        else:
            raise ComplexError(
                f"component {comp} does not admit the covering join "
                f"(classified {verdict.kind}"
                + (f": {verdict.name}" if verdict.name else "") + ")")
        measured += verdict.beta
    expected_d = sum(2 * c["basic_cycles"] + c["pendant_edges"] + (c["kind"] == "K1")
                     for c in per_component)
    # Ind(g)'s facets are the maximal independent sets, so its dim + 1 is
    # beta, the sum of the sizes of each component's checked greedy set
    certificate = {"components": per_component,
                   "expected_tail": expected_d,
                   "dim_matches": measured == expected_d}
    return factors, certificate


def independent_facet_transversal(delta: SimplicialComplex
                                  ) -> Optional[tuple[str, ...]]:
    """An independent set of the 1-skeleton meeting every facet, or None."""
    if not delta.is_pure():
        raise ComplexError("facet transversals are defined for pure complexes")
    n = len(delta.vertices)
    nb = [m & ~(1 << v) for v, m in enumerate(_skeleton(delta.facets, n))]
    hits = [m for m in _maximal_independent_masks(nb, (1 << n) - 1)
            if all(m & f for f in delta.facets)]
    return min(map(delta.labels, hits), default=None)
