"""The benchmark's tracer (``perfbench/tracing.py``) wraps library functions
by rebinding names in the library's modules, and fails with
``AttributeError`` when one of them is gone, but only when a trace is taken.
This checks, without installing the tracer, that every name it rebinds still
resolves, and then that a short traced pass completes: a structural break,
such as a chase called from a function the tracer does not attribute chases
to, shows only when the spans are added up."""

from __future__ import annotations

import importlib
from pathlib import Path

import backchase
from backchase.model import instance_dumps

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Rebound by Tracer.install next to the names in SPANS, to count matches.
CHASE_COUNTERS = (("chase", "iter_body_matches"), ("chase", "conditions_hold"))
# The library modules the benchmark loads and traces.
LIBRARY = ("analysis", "catalog", "chase", "pipeline", "storage")
# Exact counts of the traced pass below: a chase that skipped
# iter_body_matches or conditions_hold for a match would change them.
COUNTS = {
    "chase.body_matches": 12_960,
    "chase.triggers_fired": 12_560,
    "chase.facts_out": 10_980,
    "provenance.poly_add.calls": 6_640,
    "analysis.hom_facts": 2_400,
    "analysis.find_homomorphism.calls": 4,
}


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    names = [(module, attr) for module, attr, _ in tracing.SPANS]
    assert names, "the tracer lists no names"
    for module, attr in names + list(CHASE_COUNTERS):
        target = importlib.import_module(f"backchase.{module}")
        assert callable(getattr(target, attr, None)), f"backchase.{module}.{attr}"


def test_a_traced_pass_completes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    mods = {name: importlib.import_module(f"backchase.{name}") for name in LIBRARY}
    pipeline = mods["pipeline"]
    cases = [case for case in workloads.CASES["roundtrip"](backchase, 3)
             if case.provenance == "how" and case.side_tables]
    assert len(cases) == 20

    def roundtrip(case):
        run = pipeline.evolve(case.instance, list(case.script), case.provenance,
                              case.side_tables)
        result = pipeline.backchase(run)
        return (instance_dumps(result.instance),
                [pipeline.step_report(s) for s in result.steps], result.composed)

    untraced = [roundtrip(case) for case in cases]
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        traced = []
        for i, case in enumerate(cases):
            tracer.case_id = i
            root = tracer.open(tracing.ROOT_SPAN)
            try:
                traced.append(roundtrip(case))
            finally:
                tracer.close(root)
    finally:
        tracer.uninstall()
    assert traced == untraced
    values = tracer.layer_metrics(dict.fromkeys(range(len(cases)), 1.0))
    attributed = sum(values[name] for name in tracing.TIME_METRICS)
    assert values["trace.traced_s"] > 0
    assert abs(attributed + values["trace.unattributed_s"]
               - values["trace.traced_s"]) < 1e-6
    assert {name: values[name] for name in COUNTS} == COUNTS
