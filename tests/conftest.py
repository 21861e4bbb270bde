import itertools
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import bruteforce as bf
from facebalance.complexes import (ComplexError, Graph, SimplicialComplex,
                                   VerificationError, convolve,
                                   maximal_independent_sets)
from facebalance.polynomials import LinearAutomorphism
from facebalance.samples import pg_sample_graph


def check_sweep(result, gens, order, degree: int) -> None:
    """``result``, the package's ``(rank, standard)`` in one degree,
    against the covered-filter oracle's ``(leading, standard)``: the same
    standard monomials, as many pivots as the oracle's leading ones that no
    monomial generator divides, and together as many as the undivided
    monomials.  The package splits the undivided monomials into pivots and
    standard ones, so equal standard sets already force equal pivots."""
    rank, standard = result
    leading, expected = bf.initial_ideal_by_degree(gens, order, degree)
    undivided = bf.undivided_monomials(gens, order.n, degree)
    divided = set(bf.monomials(order.n, degree)) - undivided
    assert standard == expected
    assert rank == len(leading - divided)
    assert rank + len(standard) == len(undivided)


def cycle_graph(n: int, prefix: str = "") -> Graph:
    verts = [f"{prefix}{i}" for i in range(1, n + 1)]
    return Graph(verts, [(verts[i], verts[(i + 1) % n]) for i in range(n)])


def path_graph(n: int, prefix: str = "p") -> Graph:
    verts = [f"{prefix}{i}" for i in range(1, n + 1)]
    return Graph(verts, [(verts[i], verts[i + 1]) for i in range(n - 1)])


def disjoint_union(*graphs: Graph) -> Graph:
    verts: list[str] = []
    edges: list[tuple[str, str]] = []
    for g in graphs:
        verts.extend(g.vertices)
        edges.extend(g.edge_labels())
    return Graph(verts, edges)


def join(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join on disjoint labels, every facet of ``a`` beside every
    facet of ``b``; its f-vector is checked against the convolution."""
    clash = set(a.vertices) & set(b.vertices)
    if clash:
        raise ComplexError(f"join with colliding vertex labels: {sorted(clash)}")
    out = SimplicialComplex([f + g for f in a.facet_labels()
                             for g in b.facet_labels()],
                            vertices=a.vertices + b.vertices)
    if out.f_vector() != convolve(a.f_vector(), b.f_vector()):
        raise VerificationError("join f-vector is not the convolution")
    return out


def beta(g: Graph) -> int:
    """Independence number, summed over the components."""
    return sum(max(len(s) for s in maximal_independent_sets(g.subgraph(c)))
               for c in g.components())


def pendant_cycle_chain(rng, pentagons: int, pendants: int) -> Graph:
    """Basic pentagons and pendant edges in a seeded order, each bridged to
    the one before, with the vertex order shuffled.

    A pentagon is entered at its vertex 0 and left from vertex 2 or 3, so
    its two bridged vertices are never adjacent and it stays basic; a
    pendant edge is entered and left through the same end, so the other end
    stays a leaf.  The graph is in the pendant/cycle class, so its
    independence complex is Cohen-Macaulay.
    """
    units = ["c"] * pentagons + ["p"] * pendants
    rng.shuffle(units)
    verts: list[str] = []
    edges: list[tuple[str, str]] = []
    leave = None
    for k, unit in enumerate(units):
        if unit == "c":
            vs = [f"c{k}_{i}" for i in range(5)]
            edges += [(vs[i], vs[(i + 1) % 5]) for i in range(5)]
            entry, exit_ = vs[0], vs[rng.choice((2, 3))]
        else:
            vs = [f"p{k}_a", f"p{k}_b"]
            edges.append((vs[0], vs[1]))
            entry = exit_ = vs[0]
        if leave is not None:
            edges.append((leave, entry))
        verts += vs
        leave = exit_
    rng.shuffle(verts)
    return Graph(verts, edges)


def pg_chain(j: int, l: int, overlink: bool = False) -> Graph:
    """The benchmark's chain, with its construction labels: j basic
    pentagons ``ck_0 .. ck_4``, each entered at vertex 0 and left from
    vertex 2, then l pendant edges ``pk_a - pk_b``, entered and left through
    ``pk_a``, each bridged to the one before.  ``overlink`` adds the bridge
    ``c0_4 - c1_1``, which makes pentagon 1 not basic and the graph not
    well-covered."""
    verts: list[str] = []
    edges: list[tuple[str, str]] = []
    prev = None
    for k in range(j + l):
        if k < j:
            vs = [f"c{k}_{i}" for i in range(5)]
            edges += [(vs[i], vs[(i + 1) % 5]) for i in range(5)]
            entry, exit_ = vs[0], vs[2]
        else:
            vs = [f"p{k - j}_a", f"p{k - j}_b"]
            edges.append((vs[0], vs[1]))
            entry = exit_ = vs[0]
        if prev is not None:
            edges.append((prev, entry))
        verts += vs
        prev = exit_
    if overlink:
        edges.append(("c0_4", "c1_1"))
    return Graph(verts, edges)


def turan_graph(n: int, r: int) -> Graph:
    """Complete multipartite graph with r classes as equal as possible,
    every edge listed."""
    sizes = [n // r + (1 if i < n % r else 0) for i in range(r)]
    verts = [f"t{i + 1}" for i in range(n)]
    part = []
    pos = 0
    for s in sizes:
        part.append(verts[pos:pos + s])
        pos += s
    edges = [(u, w) for a, b in itertools.combinations(range(r), 2)
             for u in part[a] for w in part[b]]
    return Graph(verts, edges)


def identity_automorphism(variables) -> LinearAutomorphism:
    n = len(variables)
    return LinearAutomorphism(
        tuple(variables),
        tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))


def overlinked_pentagon_graph() -> Graph:
    """The two pentagons of ``pg_sample_graph`` with a second bridge.

    The extra bridge puts two adjacent degree-3 vertices on the second
    pentagon, so it is no longer basic and the graph is not well-covered
    (maximal independent sets of sizes 4 and 5 both occur).
    """
    g = pg_sample_graph()
    return Graph(g.vertices, g.edge_labels() + [("B", "G")])


def projective_plane() -> SimplicialComplex:
    """The 6-vertex real projective plane.

    chi = 1, so it has no rational homology at all, but H_1 has 2-torsion,
    so over GF(2) it has b_1 = b_2 = 1.  It is not flag: its 1-skeleton is
    complete, and its minimal non-faces are the ten triangles that are not
    faces.
    """
    faces = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
             (2, 3, 5), (3, 5, 6), (3, 4, 6), (2, 4, 6), (2, 4, 5)]
    return SimplicialComplex([[str(v) for v in f] for f in faces])


def all_complexes_on(n: int):
    """Every complex whose support is exactly the n given vertices."""
    verts = [f"v{i}" for i in range(n)]
    subsets = [tuple(c) for r in range(1, n + 1)
               for c in itertools.combinations(verts, r)]
    for mask in range(1, 2 ** len(subsets)):
        family = [subsets[i] for i in range(len(subsets)) if mask >> i & 1]
        maximal = [f for f in family
                   if not any(set(f) < set(g) for g in family)]
        if sorted(maximal) != sorted(family):
            continue  # not an antichain: same complex appears elsewhere
        if set().union(*map(set, family)) != set(verts):
            continue  # smaller support: enumerated at the smaller n
        yield SimplicialComplex(family)
