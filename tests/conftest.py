import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from facebalance.complexes import Graph, SimplicialComplex


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
