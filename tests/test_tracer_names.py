"""The benchmark's tracer (``perfbench/tracing.py``) wraps library functions
by rebinding names in the library's modules, and fails with
``AttributeError`` when one of them is gone, but only when a trace is taken.
This checks, without installing the tracer, that every name it rebinds still
resolves."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Rebound by Tracer.install next to the names in SPANS, to count matches.
CHASE_COUNTERS = (("chase", "iter_body_matches"), ("chase", "conditions_hold"))


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    names = [(module, attr) for module, attr, _ in tracing.SPANS]
    assert names, "the tracer lists no names"
    for module, attr in names + list(CHASE_COUNTERS):
        target = importlib.import_module(f"backchase.{module}")
        assert callable(getattr(target, attr, None)), f"backchase.{module}.{attr}"
