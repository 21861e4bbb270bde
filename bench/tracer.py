"""Spans around the program's public functions, installed from outside.

The traced worker rebinds the functions listed below before the first
command runs: a module-level function is replaced under every name a
``facebalance`` module binds it to (``linalg.sparse_rank`` and the
``homology.sparse_rank`` import alike), and a method is replaced on its
class.  Nothing in the program changes; the untraced passes never import
this file.

A span is ``[name, start_ns, end_ns, parent, command, note]``, where
``parent`` indexes the span that was open when it started (-1 for a
command's root, ``cli.main``) and ``note`` carries per-call data such as the
degree of one Macaulay sweep step.  Spans stay in memory until the pass ends.
``SparseEchelon.add_row`` runs hundreds of thousands of times per pass, so it
gets counters (rows and pivots, by the layer that asked for the rank) rather
than spans; its time stays in the self time of the caller's span.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
from collections import Counter
from time import perf_counter_ns

LAYERS = ("cli", "complexes", "homology", "linalg", "polynomials",
          "balancing", "classify")

# module -> public functions that get a span named "<module>.<function>"
FUNCTIONS = {
    "cli": ("main",),
    "complexes": ("parse_complex", "parse_graph", "maximal_independent_sets",
                  "independence_complex", "is_proper"),
    "homology": ("cm_report", "is_cohen_macaulay", "reduced_betti",
                 "boundary_rank"),
    "linalg": ("sparse_rank", "bareiss_rank", "invert"),
    "polynomials": ("standard_monomial_basis", "initial_ideal_by_degree",
                    "stanley_reisner_generators", "apply_automorphism"),
    "balancing": ("balanced_witness", "parse_cover", "base_pair_points",
                  "base_pair_near_bipartite", "compose_pairs",
                  "inherit_to_subcomplex", "kind_kleinschmidt",
                  "join_of_factors"),
    "classify": ("classify_girth5", "girth", "is_well_covered",
                 "basic_5_cycles", "is_isomorphic", "pg_decomposition",
                 "embed_in_join"),
}

# (module, class, method) -> span name
METHODS = {
    ("complexes", "SimplicialComplex", "__init__"): "complexes.init",
    ("complexes", "SimplicialComplex", "link"): "complexes.link",
    ("complexes", "SimplicialComplex", "faces"): "complexes.faces",
    ("complexes", "SimplicialComplex", "minimal_nonfaces"):
        "complexes.minimal_nonfaces",
    ("polynomials", "Multicomplex", "is_squarefree"): "polynomials.is_squarefree",
    ("polynomials", "Multicomplex", "max_degree_in"): "polynomials.max_degree_in",
    ("polynomials", "Multicomplex", "is_divisibility_closed"):
        "polynomials.is_divisibility_closed",
    ("polynomials", "Multicomplex", "f_vector"): "polynomials.multicomplex_f_vector",
}

# the five witness checks plus the coloring check
CHECK_SPANS = ("balancing.kind_kleinschmidt", "polynomials.is_squarefree",
               "polynomials.max_degree_in", "polynomials.is_divisibility_closed",
               "polynomials.multicomplex_f_vector", "complexes.is_proper")
CHECK_PARENTS = ("balancing.balanced_witness", "balancing.inherit_to_subcomplex")
PAIR_SPANS = ("balancing.base_pair_points", "balancing.base_pair_near_bipartite",
              "balancing.compose_pairs")


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.counters: Counter = Counter()
        self.command = -1
        self._stack: list[int] = []
        self._layer: list[str] = []  # layer that asked, for the row counters

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, note=None):
        """``fn`` with a span per call; ``note(args, result)`` adds data."""
        nid = self.name_id(name)
        layer = name.split(".")[0]
        spans, stack, asking = self.spans, self._stack, self._layer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            asking.append(asking[-1] if layer == "linalg" and asking else layer)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                asking.pop()
                spans[idx] = [nid, start, end, parent, self.command, None]
            if note is not None:
                spans[idx][5] = note(args, result)
            return result

        return traced

    def count_rows(self, add_row):
        counters, asking = self.counters, self._layer

        @functools.wraps(add_row)
        def counted(echelon, row):
            independent = add_row(echelon, row)
            layer = asking[-1] if asking else "none"
            counters[layer + ".rows"] += 1
            if independent:
                counters[layer + ".pivots"] += 1
            return independent

        return counted

    def count_inputs(self, init):
        counters = self.counters

        @functools.wraps(init)
        def counted(cx, facets, vertices=None):
            facets = list(facets)
            counters["complexes.input_faces"] += len(facets)
            return init(cx, facets, vertices)

        return counted

    def count_attempts(self, stream):
        counters = self.counters

        @functools.wraps(stream)
        def counted(*args, **kwargs):
            for spec in stream(*args, **kwargs):
                counters["balancing.attempts"] += 1
                yield spec

        return counted

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counters": dict(self.counters)}


def _rebind(package, original, replacement):
    """Point every ``facebalance`` module name bound to ``original`` at
    ``replacement``."""
    prefix = package.__name__
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == prefix or modname.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _degree_note(args, result):
    return [args[2], len(result[1])]


def _cycles_note(args, result):
    return [len(result), math.comb(len(args[0].vertices), 5)]


def install(tracer: Tracer, package) -> None:
    """Wrap the program's functions in spans; ``package`` is ``facebalance``
    with all of its modules imported."""
    mods = {name: sys.modules[f"{package.__name__}.{name}"] for name in LAYERS}
    notes = {"polynomials.initial_ideal_by_degree": _degree_note,
             "classify.basic_5_cycles": _cycles_note}
    for modname, functions in FUNCTIONS.items():
        for fname in functions:
            original = getattr(mods[modname], fname)
            name = f"{modname}.{fname}"
            _rebind(package, original, tracer.wrap(original, name, notes.get(name)))
    build_parser = mods["cli"].build_parser
    _rebind(package, build_parser,
            tracer.wrap(_parse_spans(tracer, build_parser), "cli.parse"))
    for (modname, cls, meth), name in METHODS.items():
        klass = getattr(mods[modname], cls)
        original = getattr(klass, meth)
        if meth == "__init__":
            original = tracer.count_inputs(original)
        setattr(klass, meth, tracer.wrap(original, name))
    echelon = mods["linalg"].SparseEchelon
    echelon.add_row = tracer.count_rows(echelon.add_row)
    stream = mods["polynomials"].specialization_stream
    _rebind(package, stream, tracer.count_attempts(stream))


def _parse_spans(tracer: Tracer, build_parser):
    """``build_parser`` whose parser also times ``parse_args`` as cli.parse."""

    @functools.wraps(build_parser)
    def build():
        parser = build_parser()
        parser.parse_args = tracer.wrap(parser.parse_args, "cli.parse")
        return parser

    return build


# ---------------------------------------------------------------------------
# arithmetic on a finished trace
# ---------------------------------------------------------------------------

def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Children of one span are sequential (one thread), so their durations
    add up to the part of the parent's interval they cover, and the self
    times of all spans add up to the durations of the roots.
    """
    covered = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    out = [span[2] - span[1] - covered[i] for i, span in enumerate(spans)]
    if any(t < 0 for t in out):
        raise ValueError("a span's children outlast it")
    return out


def outermost(spans) -> list[bool]:
    """True for spans with no ancestor of the same name (recursion-safe sums).

    Spans are in start order and a parent starts before its children, so a
    single sweep with the chain of open ancestors suffices.
    """
    chain: list[int] = []
    active: Counter = Counter()
    out = []
    for i, span in enumerate(spans):
        while chain and chain[-1] != span[3]:
            active[spans[chain.pop()][0]] -= 1
        out.append(active[span[0]] == 0)
        chain.append(i)
        active[span[0]] += 1
    return out


def sample_parents(spans, samples) -> list[int]:
    """The innermost span around each sample, or -1 outside every span.

    A sample runs in a signal handler, between two bytecodes, so it lies
    wholly inside or outside each span.  Spans are in start order and
    nested, so the open ones form a stack as the sweep goes forward in time.
    """
    out, chain, j = [], [], 0
    for start, _ in samples:
        while j < len(spans) and spans[j][1] <= start:
            while chain and spans[chain[-1]][2] <= spans[j][1]:
                chain.pop()
            chain.append(j)
            j += 1
        while chain and spans[chain[-1]][2] <= start:
            chain.pop()
        out.append(chain[-1] if chain else -1)
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, pass_ns: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, by the names in BENCHMARK.json."""
    names, spans, counters = trace["names"], trace["spans"], trace["counters"]
    selfs = self_times(spans)
    # speed.py's samples are bench time: out of their span, into the harness
    sampled = 0
    samples = trace["samples"]
    for (start, end), parent in zip(samples, sample_parents(spans, samples)):
        if parent >= 0:
            selfs[parent] -= end - start
            sampled += end - start
    outer = outermost(spans)
    incl, calls, self_by = Counter(), Counter(), Counter()
    layer_self = Counter()
    for i, span in enumerate(spans):
        name = names[span[0]]
        calls[name] += 1
        self_by[name] += selfs[i]
        layer_self[name.split(".")[0]] += selfs[i]
        if outer[i]:
            incl[name] += span[2] - span[1]

    def parent_name(span):
        return names[spans[span[3]][0]] if span[3] >= 0 else None

    links_checked = checks = pairs = 0
    standard = found = tried = 0
    for span in spans:
        name = names[span[0]]
        if name == "complexes.link" and parent_name(span) == "homology.is_cohen_macaulay":
            links_checked += 1
        elif name in CHECK_SPANS and parent_name(span) in CHECK_PARENTS:
            checks += span[2] - span[1]
        elif name in PAIR_SPANS:
            pairs += span[2] - span[1]
        elif name == "polynomials.initial_ideal_by_degree":
            standard += span[5][1]
        elif name == "classify.basic_5_cycles":
            found += span[5][0]
            tried += span[5][1]

    s = lambda ns: ns / 1e9  # noqa: E731
    roots = sum(span[2] - span[1] for span in spans if span[3] < 0)
    m = {
        "homology.is_cohen_macaulay.s": s(incl["homology.is_cohen_macaulay"]),
        "homology.links_checked": links_checked,
        "homology.reduced_betti.self_s": s(self_by["homology.reduced_betti"]),
        "homology.boundary_rank.calls": calls["homology.boundary_rank"],
        "homology.boundary_rank.self_s": s(self_by["homology.boundary_rank"]),
        "homology.rank_rows": counters.get("homology.rows", 0),
        "homology.rank_pivot_ratio": _ratio(counters.get("homology.pivots", 0),
                                            counters.get("homology.rows", 0)),
        "linalg.sparse_rank.calls": calls["linalg.sparse_rank"],
        "linalg.sparse_rank.s": s(incl["linalg.sparse_rank"]),
        "linalg.bareiss_rank.s": s(incl["linalg.bareiss_rank"]),
        "linalg.invert.s": s(incl["linalg.invert"]),
        "complexes.init.calls": calls["complexes.init"],
        "complexes.init.s": s(incl["complexes.init"]),
        "complexes.link.calls": calls["complexes.link"],
        "complexes.link.s": s(incl["complexes.link"]),
        "complexes.faces.s": s(incl["complexes.faces"]),
        "complexes.input_faces": counters.get("complexes.input_faces", 0),
        "complexes.parse.s": s(incl["complexes.parse_complex"]
                               + incl["complexes.parse_graph"]),
        "complexes.minimal_nonfaces.s": s(incl["complexes.minimal_nonfaces"]),
        "complexes.maximal_independent_sets.s":
            s(incl["complexes.maximal_independent_sets"]),
        "complexes.independence_complex.s": s(incl["complexes.independence_complex"]),
        "polynomials.standard_monomial_basis.s":
            s(incl["polynomials.standard_monomial_basis"]),
        "polynomials.initial_ideal_by_degree.calls":
            calls["polynomials.initial_ideal_by_degree"],
        "polynomials.initial_ideal_by_degree.s":
            s(incl["polynomials.initial_ideal_by_degree"]),
        "polynomials.macaulay_rows": counters.get("polynomials.rows", 0),
        "polynomials.macaulay_pivot_ratio":
            _ratio(counters.get("polynomials.pivots", 0),
                   counters.get("polynomials.rows", 0)),
        "polynomials.standard_monomials": standard,
        "polynomials.stanley_reisner_generators.s":
            s(incl["polynomials.stanley_reisner_generators"]),
        "polynomials.apply_automorphism.s": s(incl["polynomials.apply_automorphism"]),
        "balancing.balanced_witness.self_s": s(self_by["balancing.balanced_witness"]),
        "balancing.attempts": counters.get("balancing.attempts", 0),
        "balancing.pair_construction.s": s(pairs),
        "balancing.inherit_to_subcomplex.s":
            s(incl["balancing.inherit_to_subcomplex"]),
        "balancing.join_of_factors.s": s(incl["balancing.join_of_factors"]),
        "balancing.checks.s": s(checks),
        "classify.classify_girth5.s": s(incl["classify.classify_girth5"]),
        "classify.girth.s": s(incl["classify.girth"]),
        "classify.is_well_covered.s": s(incl["classify.is_well_covered"]),
        "classify.basic_5_cycles.s": s(incl["classify.basic_5_cycles"]),
        "classify.basic_5_cycles.hit_ratio": _ratio(found, tried),
        "classify.is_isomorphic.calls": calls["classify.is_isomorphic"],
        "classify.pg_decomposition.s": s(incl["classify.pg_decomposition"]),
        "classify.embed_in_join.self_s": s(self_by["classify.embed_in_join"]),
        "cli.parse.s": s(incl["cli.parse"]),
        "cli.overhead.self_s": s(layer_self["cli"]),
        "trace.pass_s": s(pass_ns),
        "trace.harness_s": s(pass_ns - roots + sampled),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = s(layer_self[layer])
    return m


def median_metrics(runs: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
