"""Tests of the benchmark's own code: generators, checker, span arithmetic
and speed normalisation."""

from __future__ import annotations

import json

import pytest

import check
import speed
import tracer
import workloads as W


def _ind(j, l):
    verts, edges = W.pg_chain(j, l)
    return W.maximal_independent_sets(verts, edges)


def test_pg_chain_face_counts_match_the_roadmap_table():
    assert sum(W.f_vector(_ind(3, 2))) == 8524
    assert sum(W.f_vector(_ind(4, 0))) == 11644
    assert W.h_from_f(W.f_vector(_ind(2, 1))) == (1, 7, 15, 10, 1, 0)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_plans_are_deterministic_per_seed(workload):
    a, b, c = (W.make_plan(workload, s) for s in (7, 7, 8))
    assert a.files == b.files and a.commands == b.commands
    assert a.files != c.files
    assert [x["id"] for x in a.commands] == [x["id"] for x in c.commands]


def test_fixed_structure_workloads_keep_vertex_order_across_seeds():
    # order-preserving labels: the same facet lines, position by position
    def shape(plan):
        out = []
        for text in plan.files.values():
            labels = sorted(set(text.split()) - {"vertex:"})
            rank = {v: i for i, v in enumerate(labels)}
            out.append([[rank[v] for v in line.split()] for line in text.splitlines()])
        return out

    for workload in ("cm_ladder", "cm_reject"):
        assert shape(W.make_plan(workload, 1)) == shape(W.make_plan(workload, 2))


def test_graphs_workload_mix():
    kinds = [c["expect"].get("verdict") for c in W.make_plan("graphs", 3).commands
             if c["expect"]["kind"] == "classify"]
    assert len(kinds) == sum(W.GRAPH_COUNTS.values()) + len(W.GRAPH_CHAINS)
    for kind, count in W.GRAPH_COUNTS.items():
        assert kinds.count(kind) >= count


def _report(results, code=0):
    return code, json.dumps({"command": [], "inputs": {}, "seed": 1,
                             "results": results})


def _good_reports():
    checks = {k: True for k in check.WITNESS_CHECKS}
    return {
        "cm_accept": ({"kind": "cm", "cm": True, "violation": None},
                      {"cm": True, "betti": [0], "violation": None}),
        "cm_reject": ({"kind": "cm", "cm": False,
                       "violation": {"face": ["v1"], "degree": 3}},
                      {"cm": False, "betti": [0],
                       "violation": {"face": ["v1"], "degree": 3}}),
        "balance": ({"kind": "balance", "h": [1, 4, 3, 0]},
                    {"h": [1, 4, 3, 0], "F": [1, 4, 3], "checks": dict(checks)}),
        "classify": ({"kind": "classify", "verdict": "Exceptional", "name": "P10"},
                     {"girth": 5, "components": [{"kind": "Exceptional",
                                                  "name": "P10"}]}),
        "classify_pg": ({"kind": "classify", "verdict": "PG", "cycles": 1,
                         "pendants": 1},
                        {"girth": 5, "components": [{"kind": "PG", "decomposition": {
                            "basic_cycles": [["a"]], "pendant_edges": [["b", "c"]],
                            "beta": 3}}]}),
        "embed": ({"kind": "embed", "tail": 3},
                  {"cover": [], "certificate": {"dim_matches": True,
                                                "expected_tail": 3}}),
    }


def test_untampered_reports_pass():
    for expect, results in _good_reports().values():
        assert check.problems(expect, *_report(results)) == []


def _tampered(name, edit):
    expect, results = json.loads(json.dumps(_good_reports()[name]))
    edit(results)
    return check.problems(expect, *_report(results))


def test_tampered_reports_fail():
    assert _tampered("cm_accept", lambda r: r.update(cm=False))
    assert _tampered("cm_reject", lambda r: r.update(cm=True))
    assert _tampered("cm_reject", lambda r: r["violation"].update(degree=2))
    assert _tampered("cm_reject", lambda r: r["violation"].update(face=[]))
    assert _tampered("balance", lambda r: r["checks"].update(squarefree=False))
    assert _tampered("balance", lambda r: r["checks"].pop("f_matches_h"))
    assert _tampered("balance", lambda r: r["checks"].update(proper_coloring=False))
    assert _tampered("balance", lambda r: r.update(F=[1, 4, 2]))
    assert _tampered("classify", lambda r: r["components"][0].update(name="P13"))
    assert _tampered("classify", lambda r: r["components"][0].update(kind="PG"))
    assert _tampered("classify_pg", lambda r: r["components"][0]["decomposition"]
                     .update(pendant_edges=[]))
    assert _tampered("embed", lambda r: r["certificate"].update(dim_matches=False))


def test_wrong_exit_code_or_garbage_fails():
    expect, results = _good_reports()["cm_accept"]
    assert check.problems(expect, 1, _report(results)[1])
    assert check.problems(expect, 0, "not json")


# a hand-built trace: one command, root cli.main over [0, 100] ns
#   0 cli.main             [0, 100]
#   1   homology.x         [10, 60]   parent 0
#   2     linalg.y         [15, 25]   parent 1
#   3     linalg.y         [30, 50]   parent 1
#   4       linalg.y       [35, 45]   parent 3  (recursive call)
#   5   classify.z         [70, 90]   parent 0
SPANS = [[0, 0, 100, -1, 0, None], [1, 10, 60, 0, 0, None],
         [2, 15, 25, 1, 0, None], [2, 30, 50, 1, 0, None],
         [2, 35, 45, 3, 0, None], [3, 70, 90, 0, 0, None]]


def test_self_times_subtract_direct_children():
    assert tracer.self_times(SPANS) == [30, 20, 10, 10, 10, 20]


def test_self_times_reject_children_outlasting_parents():
    bad = [[0, 0, 10, -1, 0, None], [1, 2, 30, 0, 0, None]]
    with pytest.raises(ValueError):
        tracer.self_times(bad)


def test_outermost_skips_recursive_calls():
    assert tracer.outermost(SPANS) == [True, True, True, True, False, True]


def test_layer_self_times_sum_to_the_pass():
    trace = {"names": ["cli.main", "homology.x", "linalg.y", "classify.z"],
             "spans": SPANS, "counters": {}, "samples": []}
    m = tracer.layer_metrics(trace, pass_ns=130)
    layers = sum(m[f"layer.{x}.self_s"] for x in tracer.LAYERS)
    assert m["layer.linalg.self_s"] == pytest.approx(30e-9)
    assert m["trace.harness_s"] == pytest.approx(30e-9)
    assert layers + m["trace.harness_s"] == pytest.approx(m["trace.pass_s"])


# one sample in each of: before every span, cli.main itself, a linalg span,
# the nested linalg span, between spans of one command, after every span
SAMPLES = [[-5, -3], [2, 4], [16, 18], [36, 38], [62, 64], [110, 112]]


def test_samples_find_their_innermost_span():
    assert tracer.sample_parents(SPANS, SAMPLES) == [-1, 0, 2, 4, 0, -1]


def test_sample_time_moves_from_its_span_to_the_harness():
    trace = {"names": ["cli.main", "homology.x", "linalg.y", "classify.z"],
             "spans": SPANS, "counters": {}, "samples": SAMPLES}
    m = tracer.layer_metrics(trace, pass_ns=130)
    layers = sum(m[f"layer.{x}.self_s"] for x in tracer.LAYERS)
    assert m["layer.linalg.self_s"] == pytest.approx(26e-9)
    assert m["layer.cli.self_s"] == pytest.approx(26e-9)
    assert m["trace.harness_s"] == pytest.approx(38e-9)
    assert layers + m["trace.harness_s"] == pytest.approx(m["trace.pass_s"])


STARTS, DURATIONS = [0.0, 1.0, 2.0, 3.0], [0.1, 0.1, 0.1, 0.1]


def test_normalised_leaves_out_the_samples_and_scales_by_speed():
    at_nominal = [speed.NOMINAL_S] * 4
    assert speed.normalised(STARTS, DURATIONS, at_nominal, 0.5, 2.5) == pytest.approx(1.8)
    # twice the nominal sample time: the host ran at half speed
    slow = [2 * speed.NOMINAL_S] * 4
    assert speed.normalised(STARTS, DURATIONS, slow, 0.5, 2.5) == pytest.approx(0.9)
    # a gap runs at the mean of the local speeds on its two sides
    mixed = [speed.NOMINAL_S, speed.NOMINAL_S, 3 * speed.NOMINAL_S, 3 * speed.NOMINAL_S]
    assert speed.normalised(STARTS, DURATIONS, mixed, 0.1, 3.0) == pytest.approx(
        0.9 + 0.9 / 2 + 0.9 / 3)


def test_normalised_rejects_intervals_outside_the_samples():
    with pytest.raises(ValueError):
        speed.normalised(STARTS, DURATIONS, DURATIONS, -0.5, 1.5)
    with pytest.raises(ValueError):
        speed.normalised(STARTS, DURATIONS, DURATIONS, 1.5, 3.5)


def test_sampler_samples_during_work_and_stops():
    sampler = speed.Sampler()
    sampler.start()
    t0 = speed.perf_counter()
    while speed.perf_counter() - t0 < 0.1:
        sum(range(1000))
    t1 = speed.perf_counter()
    sampler.stop()
    assert len(sampler.starts) >= 4
    at_nominal = [speed.NOMINAL_S] * len(sampler.starts)
    inside = sum(sampler.durations[1:-1])
    assert speed.normalised(sampler.starts, sampler.durations, at_nominal, t0, t1) \
        == pytest.approx(t1 - t0 - inside)
