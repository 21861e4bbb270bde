"""Seeded inputs for the four benchmark workloads, built without the program.

Every graph and complex is made here from its construction, so the expected
verdict of each command is known without asking the program: a pendant/cycle
chain is well-covered with a Cohen-Macaulay independence complex, a vertex
with two pendant leaves makes a graph not well-covered, a prefix of a
shelling is Cohen-Macaulay, and so on.  The program only sees the files.

Vertex labels come from ``--seed`` through an order-preserving relabelling
(sorted random numbers, zero-padded), so on the fixed-structure workloads a
seed changes the bytes of every input but not the order the program meets
the vertices in.  That keeps the work of one pass, and the first-violation
certificates pinned below, the same for every seed.
"""

from __future__ import annotations

import itertools
import json
import random
from math import comb
from pathlib import Path

WORKLOADS = ("cm_ladder", "cm_reject", "balance", "graphs")


# ---------------------------------------------------------------------------
# graphs by construction
# ---------------------------------------------------------------------------

def pentagon_ring(tag: str) -> tuple[list[str], list[tuple[str, str]]]:
    vs = [f"{tag}_{i}" for i in range(5)]
    return vs, [(vs[i], vs[(i + 1) % 5]) for i in range(5)]


def pg_chain(j: int, l: int, overlink: bool = False):
    """j basic 5-cycles then l pendant edges, chained by bridges.

    Pentagon k is entered at its vertex 0 and left from vertex 2, so the two
    degree-3 vertices of a ring are never adjacent and every ring is basic.
    A pendant edge ``(p_a, p_b)`` hangs its leaf ``p_b`` and is bridged on
    through ``p_a``.  ``overlink`` adds one more bridge from ring 0's vertex
    4 to ring 1's vertex 1; ring 1's vertex 0 is its entry, so ring 1 gets
    two adjacent degree-3 vertices and stops being basic.  Every cycle that
    bridge closes has length at least 5.
    """
    verts: list[str] = []
    edges: list[tuple[str, str]] = []
    prev = None
    for k in range(j):
        vs, es = pentagon_ring(f"c{k}")
        verts += vs
        edges += es
        if prev is not None:
            edges.append((prev, vs[0]))
        prev = vs[2]
    for k in range(l):
        a, b = f"p{k}_a", f"p{k}_b"
        verts += [a, b]
        edges.append((a, b))
        if prev is not None:
            edges.append((prev, a))
        prev = a
    if overlink:
        edges.append(("c0_4", "c1_1"))
    return verts, edges


def _numbered(n: int, pairs) -> tuple[list[str], list[tuple[str, str]]]:
    return [str(i) for i in range(1, n + 1)], [(str(a), str(b)) for a, b in pairs]


def _lettered(letters: str, pairs: list[str]):
    key = {c: i + 1 for i, c in enumerate(letters)}
    return _numbered(len(letters), [(key[p[0]], key[p[1]]) for p in pairs])


# The five exceptional well-covered girth >= 5 graphs (besides K1).
CATALOG = {
    "C7": _numbered(7, [(i, i % 7 + 1) for i in range(1, 8)]),
    "P10": _numbered(10, [(1, 2), (3, 2), (3, 4), (4, 5), (5, 1), (6, 3),
                          (6, 7), (7, 8), (4, 8), (9, 2), (9, 10), (8, 10)]),
    "P13": _numbered(13, [(1, 7), (1, 8), (2, 4), (3, 2), (4, 5), (5, 6),
                          (6, 3), (4, 7), (6, 8), (5, 10), (7, 9), (9, 10),
                          (10, 11), (11, 8), (11, 13), (13, 12), (12, 9)]),
    "P14": _lettered("ABCDEFGHIJKLMN",
                     ["AB", "CB", "CD", "ED", "EF", "FG", "AG", "AH", "BI",
                      "CJ", "DK", "EL", "FM", "GN", "IK", "KM", "MH", "HJ",
                      "JL", "LN", "NI"]),
    "Q13": _lettered("ABCDEFGHIJKLM",
                     ["AB", "AI", "KB", "AD", "CB", "CE", "DG", "EF", "FG",
                      "EI", "GK", "FH", "HJ", "IJ", "JK", "IL", "KM", "LM"]),
}


def disjoint_union(*graphs):
    verts, edges = [], []
    for k, (vs, es) in enumerate(graphs):
        verts += [f"g{k}_{v}" for v in vs]
        edges += [(f"g{k}_{a}", f"g{k}_{b}") for a, b in es]
    return verts, edges


def _distances(adj: dict, s) -> dict:
    dist = {s: 0}
    frontier = [s]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def random_pg_member(rng: random.Random, tag: str, j: int, l: int):
    """A connected pendant/cycle-class graph of j pentagons and l pendant
    edges, joined at random.

    The units are joined by bridges along a random tree.  A pentagon
    vertex takes a bridge only if neither ring neighbour has one, so every
    ring stays basic; a pendant edge takes bridges at its non-leaf end only.
    """
    units = []
    verts, edges = [], []
    for k in range(j):
        vs, es = pentagon_ring(f"{tag}c{k}")
        verts += vs
        edges += es
        units.append(("ring", vs, set()))
    for k in range(l):
        a, b = f"{tag}p{k}_a", f"{tag}p{k}_b"
        verts += [a, b]
        edges.append((a, b))
        units.append(("pendant", [a, b], set()))
    rng.shuffle(units)

    def port(unit):
        kind, vs, used = unit
        if kind == "pendant":
            return vs[0]
        free = [i for i in range(5) if i in used
                or ((i + 1) % 5 not in used and (i - 1) % 5 not in used)]
        i = rng.choice(free)
        used.add(i)
        return vs[i]

    for child in range(1, len(units)):
        parent = units[rng.randrange(child)]
        edges.append((port(parent), port(units[child])))
    return verts, edges


def random_not_well_covered(rng: random.Random, tag: str, m: int, tries: int):
    """A connected girth >= 5 graph with a vertex carrying two leaves, on a
    base of m vertices with up to ``tries`` extra edges.

    With leaves u1, u2 on v, a maximal independent set through v loses v and
    gains both leaves when v is swapped out, so two sizes occur.  The base
    is a random tree plus edges whose endpoints are at distance >= 4, which
    keeps every cycle at length 5 or more.
    """
    verts = [f"{tag}_{i}" for i in range(m)]
    edges = [(verts[rng.randrange(i)], verts[i]) for i in range(1, m)]
    adj = {v: set() for v in verts}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    for _ in range(tries):
        a, b = rng.sample(verts, 2)
        if _distances(adj, a).get(b, 0) >= 4:
            edges.append((a, b))
            adj[a].add(b)
            adj[b].add(a)
    hub = rng.choice(verts)
    leaves = [f"{tag}_l0", f"{tag}_l1"]
    return verts + leaves, edges + [(hub, x) for x in leaves]


# ---------------------------------------------------------------------------
# complexes by construction
# ---------------------------------------------------------------------------

def maximal_independent_sets(verts, edges) -> list[tuple[str, ...]]:
    """Bron-Kerbosch with pivoting on bitmasks, over the complement graph."""
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    nbr = [0] * n
    for a, b in edges:
        nbr[index[a]] |= 1 << index[b]
        nbr[index[b]] |= 1 << index[a]
    full = (1 << n) - 1
    co = [full & ~nbr[i] & ~(1 << i) for i in range(n)]
    out = []

    def rec(r: int, p: int, x: int):
        if not p and not x:
            out.append(r)
            return
        px = p | x
        pivot = max((i for i in range(n) if px >> i & 1),
                    key=lambda i: bin(co[i] & p).count("1"))
        cand = p & ~co[pivot]
        while cand:
            low = cand & -cand
            i = low.bit_length() - 1
            rec(r | low, p & co[i], x & co[i])
            p &= ~low
            x |= low
            cand &= ~low

    rec(0, full, 0)
    return [tuple(verts[i] for i in range(n) if m >> i & 1) for m in out]


def f_vector(facets) -> tuple[int, ...]:
    """(f_-1, f_0, ...) of the complex generated by the facets."""
    faces = set()
    for f in facets:
        f = tuple(sorted(f))
        for k in range(len(f) + 1):
            faces.update(itertools.combinations(f, k))
    top = max(len(f) for f in faces)
    counts = [0] * (top + 1)
    for f in faces:
        counts[len(f)] += 1
    return tuple(counts)


def h_from_f(f) -> tuple[int, ...]:
    d = len(f) - 1
    return tuple(sum((-1) ** (k - i) * comb(d - i, k - i) * f[i]
                     for i in range(k + 1)) for k in range(d + 1))


def cycle_factor(tag: str, n: int):
    vs = [f"{tag}{i}" for i in range(n)]
    return {"type": "graph", "vertices": vs,
            "edges": [[vs[i], vs[(i + 1) % n]] for i in range(n)],
            "removed_edge": None}


def points_factor(tag: str, n: int):
    return {"type": "points", "vertices": [f"{tag}{i}" for i in range(n)],
            "edges": [], "removed_edge": None}


def factor_shelling(factor) -> list[tuple[str, ...]]:
    """A shelling of one factor's complex.

    Points shell in any order.  A connected graph shells when each edge
    after the first meets an earlier one, as in edge-search order.
    """
    if factor["type"] == "points":
        return [(v,) for v in factor["vertices"]]
    edges = [tuple(e) for e in factor["edges"]]
    seen = set(edges[0])
    order = [edges.pop(0)]
    while edges:
        k = next(i for i, e in enumerate(edges) if seen & set(e))
        e = edges.pop(k)
        seen |= set(e)
        order.append(e)
    return order


def join_shelling(cover) -> list[tuple[str, ...]]:
    """Facets of the join in a shelling order: lexicographic in the factors'
    own shellings, which shells a join of shellable complexes."""
    return [sum(parts, ()) for parts in
            itertools.product(*(factor_shelling(f) for f in cover))]


# ---------------------------------------------------------------------------
# labels and files
# ---------------------------------------------------------------------------

def relabel(rng: random.Random, names: list[str]) -> dict[str, str]:
    """Order-preserving random labels: sorted distinct zero-padded numbers."""
    picks = sorted(rng.sample(range(10 ** 6), len(names)))
    return {v: f"v{p:06d}" for v, p in zip(names, picks)}


def complex_text(facets, label) -> str:
    rows = sorted(tuple(sorted(label[v] for v in f)) for f in facets)
    return "".join(" ".join(r) + "\n" for r in rows)


def graph_text(verts, edges, label) -> str:
    rows = sorted(tuple(sorted((label[a], label[b]))) for a, b in edges)
    lonely = sorted(label[v] for v in verts if not any(v in e for e in edges))
    return "".join(f"vertex: {v}\n" for v in lonely) + \
        "".join(f"{a} {b}\n" for a, b in rows)


class Plan:
    """Files to write and commands to run, each with its expected outcome."""

    def __init__(self):
        self.files: dict[str, str] = {}
        self.commands: list[dict] = []

    def add_file(self, name: str, text: str) -> str:
        path = f"inputs/{name}"
        self.files[path] = text
        return path

    def add(self, cid: str, argv: list[str], expect: dict):
        self.commands.append({"id": cid, "argv": argv + ["--json"],
                              "expect": expect})

    def write(self, root: Path):
        for path, text in self.files.items():
            target = root / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8")
        (root / "plan.json").write_text(json.dumps({"commands": self.commands}),
                                        encoding="utf-8")


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

# n = 14..17; the n >= 19 rungs cost 12-20 s per command, see README.md
LADDER = ((2, 2), (3, 0), (2, 3), (3, 1))

# First violation (face as construction vertices, homology degree) of each
# non-CM input, pinned from the program at the commit that added the
# benchmark.  Catalog independence complexes ...
REJECT_CATALOG = {"C7": ((), 1), "P10": ((), 2), "P13": ((), 3),
                  "P14": ((), 3), "Q13": ((), 3)}
# ... Ind(X + C5), a join with the pentagon's circle ...
REJECT_WITH_PENTAGON = {"P13": ((), 5), "P14": ((), 5), "Q13": ((), 5)}
# ... and overlinked chains, whose independence complexes are not pure.
REJECT_OVERLINKED = {(2, 2): (("p1_b",), 3), (3, 0): ((), 4),
                     (2, 3): (("p1_b",), 4), (3, 1): (("p0_b",), 4)}

BALANCE_COVERS = {
    "C5*C5*P4": (("cycle", 5), ("cycle", 5), ("points", 4)),
    "C7*P3*P3": (("cycle", 7), ("points", 3), ("points", 3)),
    "C5*C5*C5": (("cycle", 5), ("cycle", 5), ("cycle", 5)),
    "C7*C5*P2": (("cycle", 7), ("cycle", 5), ("points", 2)),
    "P3^5": (("points", 3),) * 5,
    "C6*C4*P3": (("cycle", 6), ("cycle", 4), ("points", 3)),
}
# The two largest joins (n = 15, d = 5 and 6) run only peeled, to keep a
# pass near 6 s.
PEEL_ONLY = ("C5*C5*C5", "P3^5")
# share of the facets peeled off the end of a shelling
PEEL_SHARE = 0.3
BALANCE_CHAINS = ((2, 2), (3, 0))

GRAPH_CHAINS = ((4, 0), (4, 2), (5, 0))
GRAPH_COUNTS = {"K1": 5, "PG": 80, "Exceptional": 20, "NotWellCovered": 95}
# the random graphs' sizes cycle through fixed lists, so that a seed changes
# their structure but not how much work they make: (pentagons, pendant
# edges) of a pendant/cycle member, and (base vertices, extra-edge tries) of
# a graph that is not well-covered
PG_SHAPES = tuple((j, l) for j in range(3) for l in range(4) if j + l)
NWC_SHAPES = tuple((m, m % 5) for m in range(2, 10))


def _cm_command(plan: Plan, cid: str, verts, facets, rng, expect_face=None,
                degree=None):
    label = relabel(rng, verts)
    path = plan.add_file(f"{cid}.cx", complex_text(facets, label))
    if degree is None:
        expect = {"kind": "cm", "cm": True, "violation": None}
    else:
        expect = {"kind": "cm", "cm": False,
                  "violation": {"face": sorted(label[v] for v in expect_face),
                                "degree": degree}}
    plan.add(cid, ["cm", path], expect)


def build_cm_ladder(plan: Plan, rng: random.Random):
    for j, l in LADDER:
        verts, edges = pg_chain(j, l)
        _cm_command(plan, f"ind_pg_chain_{j}_{l}", verts,
                    maximal_independent_sets(verts, edges), rng)


def build_cm_reject(plan: Plan, rng: random.Random):
    for name, (face, degree) in REJECT_CATALOG.items():
        verts, edges = CATALOG[name]
        _cm_command(plan, f"ind_{name}", verts,
                    maximal_independent_sets(verts, edges), rng, face, degree)
    for name, (face, degree) in REJECT_WITH_PENTAGON.items():
        verts, edges = disjoint_union(CATALOG[name], pentagon_ring("c"))
        _cm_command(plan, f"ind_{name}_plus_C5", verts,
                    maximal_independent_sets(verts, edges), rng, face, degree)
    for (j, l), (face, degree) in REJECT_OVERLINKED.items():
        verts, edges = pg_chain(j, l, overlink=True)
        _cm_command(plan, f"ind_overlinked_{j}_{l}", verts,
                    maximal_independent_sets(verts, edges), rng, face, degree)


def _balance_command(plan: Plan, cid: str, facets, cover, rng):
    verts = sorted({v for f in facets for v in f} |
                   {v for fac in cover for v in fac["vertices"]})
    label = relabel(rng, verts)
    cx = plan.add_file(f"{cid}.cx", complex_text(facets, label))
    cover_obj = [{"type": f["type"],
                  "vertices": [label[v] for v in f["vertices"]],
                  "edges": [[label[a], label[b]] for a, b in f["edges"]],
                  "removed_edge": None} for f in cover]
    cv = plan.add_file(f"{cid}.cover.json", json.dumps(cover_obj))
    plan.add(cid, ["balance", "--complex", cx, "--cover", cv],
             {"kind": "balance", "h": list(h_from_f(f_vector(facets)))})


def build_balance(plan: Plan, rng: random.Random):
    for name, shape in BALANCE_COVERS.items():
        cover = [cycle_factor(f"f{k}_", n) if kind == "cycle"
                 else points_factor(f"f{k}_", n)
                 for k, (kind, n) in enumerate(shape)]
        shelling = join_shelling(cover)
        if name not in PEEL_ONLY:
            _balance_command(plan, f"join_{name}", shelling, cover, rng)
        keep = len(shelling) - round(PEEL_SHARE * len(shelling))
        _balance_command(plan, f"peel_{name}", shelling[:keep], cover, rng)
    for j, l in BALANCE_CHAINS:
        verts, edges = pg_chain(j, l)
        cover = []
        for k in range(j):
            ring = [f"c{k}_{i}" for i in range(5)]
            # the independence complex of a pentagon is the pentagram
            cover.append({"type": "graph", "vertices": ring,
                          "edges": [[ring[i], ring[(i + 2) % 5]] for i in range(5)],
                          "removed_edge": None})
        for k in range(l):
            cover.append({"type": "points", "vertices": [f"p{k}_a", f"p{k}_b"],
                          "edges": [], "removed_edge": None})
        _balance_command(plan, f"ind_pg_chain_{j}_{l}",
                         maximal_independent_sets(verts, edges), cover, rng)


def _graph_commands(plan: Plan, cid: str, graph, rng, verdict: dict,
                    embed: bool, shuffle: bool = False):
    verts, edges = graph
    if shuffle:
        perm = relabel(rng, verts)
        names = list(perm.values())
        rng.shuffle(names)
        label = dict(zip(verts, names))
    else:
        label = relabel(rng, verts)
    path = plan.add_file(f"{cid}.el", graph_text(verts, edges, label))
    plan.add(f"classify_{cid}", ["classify", "--graph", path],
             {"kind": "classify", **verdict})
    if embed:
        tail = verdict.get("cycles", 0) * 2 + verdict.get("pendants", 0) \
            + (verdict["verdict"] == "K1")
        plan.add(f"embed_{cid}", ["embed", "--graph", path],
                 {"kind": "embed", "tail": tail})


def build_graphs(plan: Plan, rng: random.Random):
    for k in range(GRAPH_COUNTS["K1"]):
        _graph_commands(plan, f"k1_{k}", ([f"solo{k}"], []), rng,
                        {"verdict": "K1"}, embed=True)
    for k in range(GRAPH_COUNTS["PG"]):
        j, l = PG_SHAPES[k % len(PG_SHAPES)]
        graph = random_pg_member(rng, f"u{k}", j, l)
        _graph_commands(plan, f"pg_{k}", graph, rng,
                        {"verdict": "PG", "cycles": j, "pendants": l},
                        embed=True, shuffle=True)
    names = sorted(CATALOG)
    for k in range(GRAPH_COUNTS["Exceptional"]):
        name = rng.choice(names)
        _graph_commands(plan, f"catalog_{k}", CATALOG[name], rng,
                        {"verdict": "Exceptional", "name": name}, embed=False,
                        shuffle=True)
    for k in range(GRAPH_COUNTS["NotWellCovered"]):
        m, tries = NWC_SHAPES[k % len(NWC_SHAPES)]
        _graph_commands(plan, f"nwc_{k}", random_not_well_covered(rng, f"w{k}", m, tries),
                        rng, {"verdict": "NotWellCovered"}, embed=False,
                        shuffle=True)
    for j, l in GRAPH_CHAINS:
        _graph_commands(plan, f"pg_chain_{j}_{l}", pg_chain(j, l), rng,
                        {"verdict": "PG", "cycles": j, "pendants": l},
                        embed=True)


BUILDERS = {"cm_ladder": build_cm_ladder, "cm_reject": build_cm_reject,
            "balance": build_balance, "graphs": build_graphs}


def make_plan(workload: str, seed: int) -> Plan:
    """The workload's files and commands for this seed (deterministic)."""
    plan = Plan()
    BUILDERS[workload](plan, random.Random(f"{workload}:{seed}"))
    return plan
