"""Metric arithmetic of the benchmark, on synthetic data.

    python3 -m pytest perfbench/tests
"""

import json
import random

import pytest

import metrics
import run
import tracing
import workloads
from metrics import CaseResult


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert metrics.tail_percentile(0) is None
    assert metrics.tail_percentile(99) is None
    assert metrics.tail_percentile(100) == 90.0
    assert metrics.tail_percentile(120) == 90.0
    assert metrics.tail_percentile(999) == 90.0
    assert metrics.tail_percentile(1000) == 99.0
    assert metrics.tail_percentile(10000) == 99.9


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(10, 0, -1)]
    assert metrics.percentile(values, 50) == 5.0
    assert metrics.percentile(values, 90) == 9.0
    assert metrics.percentile(values, 100) == 10.0
    assert metrics.percentile([3.0], 90) == 3.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 4.0, 0),    # child
        (3.0, 6.0, 0),    # child overlapping the first: union is 1..6
        (2.0, 3.0, 1),    # grandchild
        (20.0, 21.0, -1),  # second root, no children
    ]
    assert metrics.self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0, 1.0])


def test_child_reaching_past_its_parent_counts_only_inside_it():
    assert metrics.self_times([(0.0, 2.0, -1), (1.0, 5.0, 0)]) == pytest.approx([1.0, 4.0])


def test_speed_factors_follow_the_calibration_loop_around_each_case():
    # Two cases at normal speed, then the host runs at half speed.
    gaps = [[1.0], [1.0], [1.0], [2.0, 2.0], [2.0]]
    assert metrics.speed_factors(gaps, 0, 1.0) == [1.0, 1.0, 0.5, 0.5]
    # A wider window takes the median over more gaps.
    assert metrics.speed_factors(gaps, 1, 1.0)[0] == 1.0
    assert metrics.speed_factors(gaps, 1, 1.0)[3] == 0.5


def test_summary_with_failed_cases():
    results = [
        CaseResult("a", 100, 1.0, "ok"),
        CaseResult("b", 200, 3.0, "ok"),
        CaseResult("c", 300, 2.0, "error:RecursionError"),
        CaseResult("d", 400, 2.0, "check:below prediction"),
    ]
    s = metrics.summarize(results)
    assert s["attempted"] == 4 and s["failed"] == 2
    assert s["fail_ratio"] == 0.5
    assert s["rows_per_s"] == pytest.approx(300 / 8.0)  # failed: time, no rows
    assert s["case_s.p50"] == 2.0  # over completed cases only
    assert s["case_s.p90"] is None  # two samples support no tail


def test_summary_reports_p90_at_a_hundred_completed_cases():
    results = [CaseResult(str(i), 10, float(i), "ok") for i in range(1, 121)]
    s = metrics.summarize(results)
    assert s["case_s.tail_percentile"] == 90.0
    assert s["case_s.p90"] == 108.0


def test_case_times_are_null_when_nothing_completed():
    s = metrics.summarize([CaseResult("a", 10, 1.0, "error:RecursionError")])
    assert s["case_s.p50"] is None and s["case_s.p90"] is None
    assert s["rows_per_s"] == 0.0 and s["fail_ratio"] == 1.0


def test_tracer_self_times_add_up_to_the_traced_time(monkeypatch):
    ticks = iter(range(1000))
    monkeypatch.setattr(tracing, "CLOCK", lambda: float(next(ticks)))
    tracer = tracing.Tracer()

    def call(name, inner=()):
        idx = tracer.open(name)
        for child in inner:
            call(*child)
        tracer.close(idx)

    root = tracer.open(tracing.ROOT_SPAN)
    call("pipeline.evolve", [("chase.chase@pipeline", [("provenance.poly_add",)])])
    call("pipeline.backchase", [("pipeline.execute_plan", [("chase.chase@pipeline",)]),
                                ("analysis.find_homomorphism",)])
    tracer.close(root)
    m = tracer.layer_metrics({-1: 1.0})
    # Each open and close reads the clock once, so every span's self time is
    # the number of its own ticks.
    assert m["chase.forward_s"] == 2.0 and m["chase.inverse_s"] == 1.0
    assert m["provenance.poly_add_s"] == 1.0
    assert m["pipeline.evolve.self_s"] == 2.0
    assert m["provenance.poly_add.calls"] == 1
    assert m["analysis.find_homomorphism.calls"] == 1
    total = sum(m[name] for name in tracing.TIME_METRICS) + m["trace.unattributed_s"]
    assert total == m["trace.traced_s"] == tracer.end[root] - tracer.start[root]


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.CASES)


def test_generated_inputs_meet_operator_preconditions():
    import backchase as bc

    seed = random.Random(7).randint(0, 10**6)
    cases = workloads.roundtrip_cases(bc, seed)
    assert len(cases) == 120 and len({c.name for c in cases}) == 120
    for case in cases:
        smo, inst = case.script[0], case.instance
        if smo.kind in ("COPY_COLUMN", "MOVE_COLUMN"):
            partners = [f.values[0] for f in inst.facts("V")]
            assert len(partners) == len(set(partners))
            assert all(f.values[1] in set(partners) for f in inst.facts("R"))
        if smo.kind == "SPLIT_COLUMN":
            assert all("|" in f.values[1].lexical for f in inst.facts("R"))
        if smo.kind == "MERGE_COLUMN":
            assert all(v.kind == "decimal" for f in inst.facts("R") for v in f.values[1:])
        if smo.kind == "MERGE_TABLE":
            assert inst.schema.relation("R").attributes == inst.schema.relation("V").attributes
    again = workloads.roundtrip_cases(bc, seed)
    assert run.input_digest(again) == run.input_digest(cases)
    assert run.input_digest(workloads.roundtrip_cases(bc, seed + 1)) != run.input_digest(cases)
