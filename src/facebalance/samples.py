"""Bundled sample graphs used by the golden suite and the docs, and the
pinned certificates the golden suite re-checks."""

from __future__ import annotations

from .complexes import Graph, SimplicialComplex


def pg_sample_graph() -> Graph:
    """A 12-vertex member of the pendant/cycle class.

    Two basic 5-cycles joined by a bridge, with a pendant path of two more
    vertices: girth 5, well-covered with independence number 5, and every
    induced cycle has length 5.
    """
    return Graph(list("ABCDEFGHIJKL"), [
        ("A", "B"), ("B", "C"), ("A", "D"), ("D", "E"), ("E", "C"),
        ("F", "G"), ("G", "H"), ("F", "I"), ("I", "J"), ("J", "H"),
        ("E", "I"), ("H", "K"), ("K", "L"),
    ])


def flag_sphere_graph() -> Graph:
    """A 10-vertex graph whose clique complex is a flag 2-sphere.

    The clique complex has f-vector (1, 10, 24, 16) and h-vector (1, 7, 7, 1);
    the graph is not 3-colorable and no independent set meets every triangle.
    """
    edges = [(0, 1), (1, 2), (0, 2), (0, 9), (2, 9), (0, 3), (3, 9), (3, 4),
             (0, 4), (1, 4), (4, 5), (1, 5), (5, 6), (1, 6), (6, 7), (7, 8),
             (8, 9), (2, 7), (2, 8), (1, 7), (6, 8), (5, 8), (4, 8), (3, 8)]
    return Graph([str(i) for i in range(10)],
                 [(str(a), str(b)) for a, b in edges])


def colorable_h_witness() -> tuple[SimplicialComplex, dict[str, int]]:
    """A 3-colorable complex whose f-vector is the flag sphere's h-vector.

    f = (1, 7, 7, 1): one triangle v1 v6 v7, four more edges from v2 and v3
    to v6 and v7, and two isolated points, colored by {v1..v5}, {v6}, {v7}.
    """
    facets = [("v1", "v6", "v7"), ("v2", "v6"), ("v2", "v7"), ("v3", "v6"),
              ("v3", "v7"), ("v4",), ("v5",)]
    coloring = {f"v{i}": 0 for i in range(1, 6)} | {"v6": 1, "v7": 2}
    return SimplicialComplex(facets, vertices=list(coloring)), coloring


def odd_wheel() -> tuple[str, tuple[str, ...]]:
    """A hub and a closed odd walk through its neighbours in the flag
    sphere's graph: the rim needs 3 colours and the hub a fourth.

    The rim is the link of vertex 0, the 5-cycle 1 2 9 3 4.
    """
    return "0", ("1", "2", "9", "3", "4")

