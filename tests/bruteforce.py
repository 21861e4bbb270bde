"""Independent brute-force oracles for the test suite.

Everything here recomputes results from first principles with subset
enumeration and dense Gaussian elimination over Fractions, deliberately
sharing no code paths with the package.  The two exceptions are the
package's earlier routines, kept as references for their replacements:
:func:`link_vanishing_scan`, the face-by-face scan, for the memoised,
collapsed one; and :func:`initial_ideal_by_degree`, the Macaulay step that
filters every monomial of the degree through the monomial generators, for
the one that enumerates only the monomials they leave uncovered.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from facebalance.complexes import VerificationError
from facebalance.homology import CMViolation, reduced_betti
from facebalance.linalg import SparseEchelon, integer_row


def faces_from_facets(facet_labels):
    """Every face (as a sorted tuple), including the empty one."""
    out = {()}
    for f in facet_labels:
        f = tuple(sorted(f))
        for r in range(1, len(f) + 1):
            out.update(itertools.combinations(f, r))
    return sorted(out, key=lambda t: (len(t), t))


def fvector(faces) -> tuple[int, ...]:
    top = max(len(f) for f in faces)
    counts = [0] * (top + 1)
    for f in faces:
        counts[len(f)] += 1
    return tuple(counts)


def link_faces(faces, tau):
    tau = set(tau)
    found = set()
    for g in faces:
        gs = set(g)
        if tau <= gs:
            found.add(tuple(sorted(gs - tau)))
    return sorted(found, key=lambda t: (len(t), t))


def independent_subsets(vertices, edges):
    edge_set = {frozenset(e) for e in edges}
    vs = list(vertices)
    out = []
    for r in range(len(vs) + 1):
        for combo in itertools.combinations(vs, r):
            if not any(frozenset(p) in edge_set
                       for p in itertools.combinations(combo, 2)):
                out.append(combo)
    return out


def dense_rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                factor = m[i][c] / m[r][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        r += 1
        rank += 1
    return rank


def dense_inverse(rows):
    """Inverse of a square matrix by Gauss-Jordan on the whole matrix, as
    lists of Fractions; None when it is singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def gf2_rank(rows) -> int:
    """Rank over GF(2) of int bitmask rows (bit c is column c), by dense
    elimination on lists of 0/1 entries."""
    ncols = max((r.bit_length() for r in rows), default=0)
    m = [[r >> c & 1 for c in range(ncols)] for r in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                m[i] = [a ^ b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def signed_boundary(faces, i) -> list[list[int]]:
    """The boundary map from the ``i``-faces of a face list, as dense rows
    over the sorted ``(i-1)``-faces: a face minus its vertex at place
    ``pos`` (in sorted order) has the entry ``(-1) ** pos``."""
    def level(size):
        return sorted({tuple(f) for f in faces if len(f) == size})

    below = {f: k for k, f in enumerate(level(i))}
    rows = []
    for face in level(i + 1):
        row = [0] * len(below)
        for pos in range(len(face)):
            row[below[face[:pos] + face[pos + 1:]]] = (-1) ** pos
        rows.append(row)
    return rows


def betti(faces) -> tuple[int, ...]:
    """Reduced Betti numbers (b_-1, b_0, ..., b_dim) of a face list."""
    by_dim: dict[int, list] = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(f))
    for k in by_dim:
        by_dim[k] = sorted(set(by_dim[k]))
    dim = max(by_dim)
    if dim == -1:
        return (1,)
    ranks = {i: dense_rank(signed_boundary(faces, i)) for i in range(dim + 1)}
    ranks[dim + 1] = 0
    out = [1 - ranks[0]]
    for i in range(dim + 1):
        out.append(len(by_dim.get(i, [])) - ranks[i] - ranks[i + 1])
    return tuple(out)


def is_cm(faces) -> bool:
    """Link-vanishing test recomputed from the face list alone."""
    for tau in faces:
        lk = link_faces(faces, tau)
        lkdim = max(len(f) for f in lk) - 1
        b = betti(lk)
        if any(b[i + 1] != 0 for i in range(-1, lkdim)):
            return False
    return True


def first_gap(b):
    """Lowest degree ``i`` below the top, ``dim = len(b) - 2``, with
    ``b_i = b[i + 1]`` nonzero, or None."""
    return next((i for i in range(-1, len(b) - 2) if b[i + 1]), None)


def link_vanishing_scan(delta):
    """``(global Betti numbers, first violation or None)`` with every link
    built by ``SimplicialComplex.link`` and ranked by ``reduced_betti``, one
    visited face at a time: the empty face, then the faces of dimension at
    most ``dim - 2`` by dimension and lexicographic order of their vertex
    positions."""
    betti = reduced_betti(delta)
    degree = first_gap(betti)
    if degree is not None:
        return betti, CMViolation((), degree, betti)
    position = {v: i for i, v in enumerate(delta.vertices)}
    for tau in faces_from_facets([position[v] for v in f]
                                 for f in delta.facet_labels()):
        if 0 < len(tau) < delta.dim:
            labels = tuple(delta.vertices[i] for i in tau)
            link_betti = reduced_betti(delta.link(labels))
            degree = first_gap(link_betti)
            if degree is not None:
                return betti, CMViolation(labels, degree, link_betti)
    if not delta.is_pure():
        raise VerificationError("link-vanishing passed on a non-pure complex")
    return betti, None


def is_vertex_decomposable(facets) -> bool:
    """Vertex decomposability in the sense of Björner and Wachs, by trying
    every shedding vertex at every step.

    A simplex is decomposable, and so is a complex with a vertex ``v`` such
    that no facet of its link is a facet of its deletion (``v`` sheds) and
    the deletion and the link are both decomposable.  The deletion and the
    link are read off the full face list.
    """
    memo: dict = {}

    def maximal(faces):
        return frozenset(f for f in faces if not any(f < g for g in faces))

    def search(fs):
        if len(fs) == 1:
            return True
        if fs not in memo:
            faces = {frozenset(c) for f in fs for r in range(len(f) + 1)
                     for c in itertools.combinations(sorted(f), r)}
            memo[fs] = any(
                not (lk & dl) and search(dl) and search(lk)
                for v in sorted(set().union(*fs))
                for dl, lk in [(maximal({f for f in faces if v not in f}),
                                maximal({f - {v} for f in faces if v in f}))])
        return memo[fs]

    return search(frozenset(frozenset(f) for f in facets))


def dominated(facets) -> list:
    """Vertices v such that another vertex lies in every facet through v."""
    facets = [set(f) for f in facets]
    return sorted(v for v in set().union(*facets)
                  if len(set.intersection(*(f for f in facets if v in f))) > 1)


def strong_core(facets, order) -> frozenset:
    """Facets (as frozensets) of the strong-collapse core reached in passes.

    A pass walks the vertices in ``order`` and deletes each one that a vertex
    still present dominates in the complex the pass started from; the
    maximal restricted facets then start the next pass.  Passes end when
    one deletes nothing.
    """
    facets = frozenset(frozenset(f) for f in facets)
    while True:
        alive = set().union(*facets)
        for v in sorted(alive, key=list(order).index):
            common = frozenset.intersection(*(f for f in facets if v in f))
            if (common & alive) - {v}:
                alive.discard(v)
        cut = {f & alive for f in facets}
        cut = frozenset(f for f in cut if not any(f < g for g in cut))
        if cut == facets:
            return facets
        facets = cut


def minimal_nonfaces(vertices, faces):
    face_set = set(tuple(sorted(f)) for f in faces)
    out = []
    for r in range(1, len(vertices) + 1):
        for combo in itertools.combinations(sorted(vertices), r):
            if combo in face_set:
                continue
            if all(combo[:i] + combo[i + 1:] in face_set for i in range(r)):
                out.append(combo)
    return out


def monomials(n: int, degree: int) -> list[tuple[int, ...]]:
    """Every exponent tuple of length ``n`` and total ``degree``."""
    return [tuple(sum(1 for j in combo if j == i) for i in range(n))
            for combo in itertools.combinations_with_replacement(range(n), degree)]


def monomial_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def undivided_monomials(gens, n: int, degree: int) -> set:
    """The degree-``degree`` monomials that no one-term generator divides."""
    mono_gens = []
    for p in gens:
        terms = [m for m, c in p.items() if c]
        if len(terms) == 1:
            mono_gens += terms
    return {m for m in monomials(n, degree)
            if not any(monomial_divides(g, m) for g in mono_gens)}


def initial_ideal_by_degree(gens, order, degree):
    """``(leading, standard)`` monomials of one degree, by the package's
    earlier sweep: every monomial of the degree and of each multiplier
    degree is tested against every monomial generator, and the ones left
    uncovered are eliminated under ``order.sort_key``, descending."""
    mono_gens = []
    poly_gens = []
    for p in gens:
        p = {m: c for m, c in p.items() if c}
        if not p:
            continue
        degs = {sum(m) for m in p}
        if len(degs) != 1:
            raise ValueError("generators must be homogeneous")
        if degs == {0}:
            raise ValueError("unit generator")
        if len(p) == 1:
            mono_gens.append(next(iter(p)))
        else:
            poly_gens.append(integer_row(p))

    def covered(m):
        return any(monomial_divides(mg, m) for mg in mono_gens)

    all_monomials = monomials(order.n, degree)
    leading = {m for m in all_monomials if covered(m)}
    working = [m for m in all_monomials if m not in leading]
    if not working:
        return leading, set()

    columns = sorted(working, key=order.sort_key, reverse=True)
    rank_of = {m: r for r, m in enumerate(columns)}
    ech = SparseEchelon()
    for p in poly_gens:
        dp = sum(next(iter(p)))
        if dp > degree:
            continue
        for mult in monomials(order.n, degree - dp):
            if covered(mult):
                continue
            row = {}
            for t, c in p.items():
                r = rank_of.get(tuple(a + b for a, b in zip(mult, t)))
                if r is not None:
                    row[r] = c
            if row:
                ech.add_row(row)
    pivots = {columns[c] for c in ech.pivots}
    leading |= pivots
    standard = {m for m in working if m not in pivots}
    return leading, standard


def macaulay_standard(gens, variables, degree, key_desc):
    """Standard monomials at one degree via the full dense Macaulay matrix.

    ``gens``: list of dicts exponent-tuple -> Fraction; ``key_desc``: sort key
    putting the largest monomial first.  No monomial shortcuts.
    """
    n = len(variables)
    columns = sorted(monomials(n, degree), key=key_desc)
    col_of = {m: i for i, m in enumerate(columns)}
    rows = []
    for p in gens:
        dp = sum(next(iter(p)))
        if dp > degree:
            continue
        for mult in monomials(n, degree - dp):
            row = [Fraction(0)] * len(columns)
            for t, c in p.items():
                row[col_of[tuple(a + b for a, b in zip(mult, t))]] += Fraction(c)
            rows.append(row)
    # row-reduce, collect pivot columns
    pivots = set()
    r = 0
    for c in range(len(columns)):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c] / rows[r][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.add(columns[c])
        r += 1
    return {m for m in columns if m not in pivots}


def basic_5_cycles(vertices, edges):
    """Basic 5-cycles by testing every 5-vertex subset.

    A subset qualifies when it induces a 2-regular graph (on five vertices,
    a single 5-cycle) in which no two adjacent vertices both have degree at
    least three in the whole graph.  Each cycle is listed from its earliest
    vertex in ``vertices`` toward its earlier neighbour; the list is sorted.
    """
    pos = {v: i for i, v in enumerate(vertices)}
    nbrs = {v: set() for v in vertices}
    for u, w in edges:
        nbrs[u].add(w)
        nbrs[w].add(u)
    out = []
    for combo in itertools.combinations(vertices, 5):
        inside = {v: nbrs[v] & set(combo) for v in combo}
        if any(len(inside[v]) != 2 for v in combo):
            continue
        if any(len(nbrs[u]) >= 3 and len(nbrs[w]) >= 3
               for u in combo for w in inside[u]):
            continue
        start = combo[0]
        prev, cur = start, min(inside[start], key=pos.__getitem__)
        walk = [start]
        while cur != start:
            walk.append(cur)
            prev, cur = cur, next(x for x in inside[cur] if x != prev)
        out.append(tuple(walk))
    return sorted(out)


def is_flag(faces) -> bool:
    """True iff every minimal non-face on the faces' vertices is a pair."""
    vertices = {v for f in faces for v in f}
    return all(len(nf) == 2 for nf in minimal_nonfaces(vertices, faces))


def has_k4(vertices, edges) -> bool:
    """True iff some four vertices are pairwise adjacent."""
    edge_set = {frozenset(e) for e in edges}
    return any(all(frozenset(p) in edge_set for p in itertools.combinations(q, 2))
               for q in itertools.combinations(vertices, 4))


def count_triangles(vertices, edges) -> int:
    """Number of pairwise adjacent triples, by testing every triple."""
    edge_set = {frozenset(e) for e in edges}
    return sum(all(frozenset(p) in edge_set for p in itertools.combinations(t, 2))
               for t in itertools.combinations(vertices, 3))


def is_colorable(vertices, edges, k: int) -> bool:
    """True iff some map of the vertices to ``k`` colours, out of all
    ``k ** len(vertices)``, gives every edge two colours."""
    vertices = list(vertices)
    pairs = [(vertices.index(u), vertices.index(w)) for u, w in edges]
    return any(all(c[i] != c[j] for i, j in pairs)
               for c in itertools.product(range(k), repeat=len(vertices)))


def distances(vertices, edges) -> dict:
    """Edge distance of every connected ordered pair, keyed ``(u, w)``, by
    relaxing every pair through every edge until nothing shortens."""
    dist = {(v, v): 0 for v in vertices}
    changed = True
    while changed:
        changed = False
        for (a, b), d in list(dist.items()):
            for u, w in edges:
                for x, y in ((u, w), (w, u)):
                    if x == b and dist.get((a, y), d + 2) > d + 1:
                        dist[a, y] = d + 1
                        changed = True
    return dist


def components(vertices, edges) -> list[list]:
    """Connected components in ``vertices`` order, each listed by its
    earliest vertex."""
    dist = distances(vertices, edges)
    out = []
    for v in vertices:
        if not any(v in comp for comp in out):
            out.append([w for w in vertices if (v, w) in dist])
    return out


def bipartition(vertices, edges) -> tuple[tuple, tuple]:
    """The vertices at even and at odd distance from the earliest vertex
    of their component, each in ``vertices`` order (a 2-colouring only
    when there is no odd cycle)."""
    dist = distances(vertices, edges)
    parity = {w: dist[comp[0], w] % 2 for comp in components(vertices, edges)
              for w in comp}
    return (tuple(v for v in vertices if parity[v] == 0),
            tuple(v for v in vertices if parity[v] == 1))


def induced_cycle_lengths(vertices, edges) -> set[int]:
    """Lengths of all chordless cycles, by testing every vertex subset.

    A subset qualifies when it induces a connected 2-regular graph.
    """
    nbrs = {v: set() for v in vertices}
    for u, w in edges:
        nbrs[u].add(w)
        nbrs[w].add(u)
    lengths = set()
    for r in range(3, len(vertices) + 1):
        for combo in itertools.combinations(vertices, r):
            inside = {v: nbrs[v] & set(combo) for v in combo}
            if any(len(inside[v]) != 2 for v in combo):
                continue
            seen, stack = {combo[0]}, [combo[0]]
            while stack:
                for w in inside[stack.pop()] - seen:
                    seen.add(w)
                    stack.append(w)
            if len(seen) == r:
                lengths.add(r)
    return lengths
