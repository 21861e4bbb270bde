"""Independent brute-force oracles for the test suite.

Everything here recomputes results from first principles with subset
enumeration and dense Gaussian elimination over Fractions, deliberately
sharing no code paths with the package.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


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
    ranks = {}
    for i in range(0, dim + 1):
        below = {f: k for k, f in enumerate(by_dim.get(i - 1, []))}
        rows = []
        for face in by_dim.get(i, []):
            row = [0] * len(below)
            for pos in range(len(face)):
                row[below[face[:pos] + face[pos + 1:]]] = (-1) ** pos
            rows.append(row)
        ranks[i] = dense_rank(rows)
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


def macaulay_standard(gens, variables, degree, key_desc):
    """Standard monomials at one degree via the full dense Macaulay matrix.

    ``gens``: list of dicts exponent-tuple -> Fraction; ``key_desc``: sort key
    putting the largest monomial first.  No monomial shortcuts.
    """
    n = len(variables)
    columns = sorted(
        (tuple(sum(1 for j in combo if j == i) for i in range(n))
         for combo in itertools.combinations_with_replacement(range(n), degree)),
        key=key_desc)
    col_of = {m: i for i, m in enumerate(columns)}
    rows = []
    for p in gens:
        dp = sum(next(iter(p)))
        if dp > degree:
            continue
        for combo in itertools.combinations_with_replacement(range(n), degree - dp):
            mult = tuple(sum(1 for j in combo if j == i) for i in range(n))
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


def is_colorable(vertices, edges, k: int) -> bool:
    """True iff some map of the vertices to ``k`` colours, out of all
    ``k ** len(vertices)``, gives every edge two colours."""
    vertices = list(vertices)
    pairs = [(vertices.index(u), vertices.index(w)) for u, w in edges]
    return any(all(c[i] != c[j] for i, j in pairs)
               for c in itertools.product(range(k), repeat=len(vertices)))


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
