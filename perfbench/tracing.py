"""Tracing from outside the program.

The tracer rebinds public names in the library's module namespaces to
wrappers that record a span (name, start, end, parent span, case) around each
call, and count the work that passes through.  Callers look these names up in
their module globals at call time, so a rebinding catches every call made
from that module.  Spans are kept in compact arrays and written out when the
pass ends.

Each wrapper adds stack frames, which lowers the recursion ceiling of the
recursive searches below it; the runner therefore checks that every traced
case ends as it did untraced.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter

from metrics import self_times

CLOCK = time.process_time  # the runner's clock: CPU time of the process

# (module, attribute, span name).  The same function bound in two modules is
# wrapped in both, so that calls from either are seen.
SPANS = (
    ("pipeline", "evolve", "pipeline.evolve"),
    ("pipeline", "backchase", "pipeline.backchase"),
    ("pipeline", "execute_plan", "pipeline.execute_plan"),
    ("pipeline", "compile_forward", "catalog.compile_forward"),
    ("pipeline", "compile_inverse", "catalog.compile_inverse"),
    ("pipeline", "instance_features", "catalog.instance_features"),
    ("pipeline", "chase", "chase.chase@pipeline"),
    ("pipeline", "matched_source_ids", "chase.matched_source_ids"),
    ("pipeline", "expand_duplicates", "chase.expand_duplicates"),
    ("pipeline", "build_side_table", "provenance.build_side_table"),
    ("pipeline", "classify_report", "analysis.classify_report"),
    ("catalog", "compile_forward", "catalog.compile_forward"),
    ("catalog", "chase", "chase.chase@catalog"),
    ("catalog", "matched_source_ids", "chase.matched_source_ids"),
    ("analysis", "find_homomorphism", "analysis.find_homomorphism"),
    ("analysis", "isomorphic", "analysis.isomorphic"),
    ("analysis", "instances_equal", "analysis.instances_equal"),
    ("analysis", "data_exchange_equivalent", "analysis.data_exchange_equivalent"),
    ("analysis", "chase", "chase.chase@analysis"),
    ("chase", "poly_add", "provenance.poly_add"),
    ("storage", "save_run", "storage.save_run"),
    ("storage", "load_run", "storage.load_run"),
    ("storage", "write_json", "storage.write_json"),
    ("storage", "load_instance", "storage.load_instance"),
    ("storage", "store_from_json", "storage.store_from_json"),
    ("storage", "compile_forward", "catalog.compile_forward"),
)

ROOT_SPAN = "segment"  # one timed segment of a case; parent of its calls

# Span name -> per-layer time metric.  Every time metric is a self time, so
# the metrics plus the unattributed remainder add up to the traced time.
TIME_METRIC = {
    "pipeline.evolve": "pipeline.evolve.self_s",
    "pipeline.backchase": "pipeline.backchase.self_s",
    "pipeline.execute_plan": "pipeline.execute_plan.self_s",
    "catalog.compile_forward": "catalog.compile_forward_s",
    "catalog.compile_inverse": "catalog.compile_inverse_s",
    "catalog.instance_features": "catalog.instance_features.self_s",
    "chase.chase@catalog": "chase.features_s",
    "chase.chase@analysis": "chase.de_s",
    "chase.matched_source_ids": "chase.matched_source_ids_s",
    "chase.expand_duplicates": "chase.expand_duplicates_s",
    "provenance.build_side_table": "provenance.build_side_table_s",
    "provenance.poly_add": "provenance.poly_add_s",
    "analysis.classify_report": "analysis.classify_report.self_s",
    "analysis.find_homomorphism": "analysis.find_homomorphism_s",
    "analysis.isomorphic": "analysis.isomorphic_s",
    "analysis.instances_equal": "analysis.instances_equal_s",
    "analysis.data_exchange_equivalent": "analysis.data_exchange_equivalent.self_s",
    "storage.save_run": "storage.save_run_s",
    "storage.load_run": "storage.load_run_s",
    "storage.write_json": "storage.write_json_s",
    "storage.load_instance": "storage.load_instance_s",
    "storage.store_from_json": "storage.store_from_json_s",
}
# chase() called from pipeline is the forward chase under evolve and the
# inverse chase under execute_plan.
CHASE_BY_PARENT = {"pipeline.evolve": "chase.forward_s",
                   "pipeline.execute_plan": "chase.inverse_s"}

COUNT_METRICS = (
    "analysis.find_homomorphism.calls", "analysis.hom_facts",
    "chase.body_matches", "chase.triggers_fired", "chase.facts_out",
    "provenance.poly_add.calls", "storage.bytes_written",
)
CALLS = {"analysis.find_homomorphism": "analysis.find_homomorphism.calls",
         "provenance.poly_add": "provenance.poly_add.calls"}

TIME_METRICS = tuple(sorted(set(TIME_METRIC.values()) | set(CHASE_BY_PARENT.values())))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.case = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.case_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.case.append(self.case_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(CLOCK())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = CLOCK()
        self._stack.pop()

    # -- installation ------------------------------------------------------

    def _rebind(self, module, attr: str, wrapper) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self, mods: dict) -> None:
        """Wrap the names in SPANS, plus the per-match counters of the chase
        engine, in those of the given modules that are loaded."""
        for mod_name, attr, span in SPANS:
            module = mods.get(mod_name)
            if module is None:
                continue
            self._rebind(module, attr,
                         self._span_wrapper(getattr(module, attr), span))
        counts = self.counts
        chase_mod = mods["chase"]
        iter_body_matches = chase_mod.iter_body_matches
        conditions_hold = chase_mod.conditions_hold

        def counted_matches(tgd, facts):
            for item in iter_body_matches(tgd, facts):
                counts["chase.body_matches"] += 1
                yield item

        def counted_conditions(conditions, bindings):
            held = conditions_hold(conditions, bindings)
            if held:
                counts["chase.triggers_fired"] += 1
            return held

        self._rebind(chase_mod, "iter_body_matches", counted_matches)
        self._rebind(chase_mod, "conditions_hold", counted_conditions)

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _span_wrapper(self, fn, span: str):
        counts = self.counts
        open_, close = self.open, self.close
        # Counts taken from a call's arguments and result; a call that
        # raises adds none.
        if span.startswith("chase.chase@"):
            def after(args, result):
                counts["chase.facts_out"] += result[0].size()
        elif span == "analysis.find_homomorphism":
            def after(args, result):
                counts["analysis.hom_facts"] += args[0].size() + args[1].size()
        elif span == "storage.write_json":
            def after(args, result):
                counts["storage.bytes_written"] += os.path.getsize(args[0])
        else:
            after = None

        def wrapper(*args, **kwargs):
            idx = open_(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------

    def layer_metrics(self, speed: dict[int, float]) -> dict[str, float]:
        """Per-layer self times, scaled by the speed factor of each span's
        case, and counts.  ``trace.unattributed_s`` is the self time of the
        root spans: traced time no wrapped call accounts for."""
        selfs = [own * speed[case] for own, case in zip(
            self_times(list(zip(self.start, self.end, self.parent))), self.case)]
        out = {name: 0.0 for name in TIME_METRICS}
        out.update({name: 0 for name in COUNT_METRICS})
        out["trace.unattributed_s"] = 0.0
        out["trace.traced_s"] = 0.0
        calls: Counter = Counter()
        for i, own in enumerate(selfs):
            span = self.names[self.name[i]]
            calls[span] += 1
            if span == ROOT_SPAN:
                out["trace.unattributed_s"] += own
                out["trace.traced_s"] += (self.end[i] - self.start[i]) * speed[self.case[i]]
                continue
            metric = TIME_METRIC.get(span)
            if metric is None:
                parent = self.parent[i]
                metric = CHASE_BY_PARENT[self.names[self.name[parent]]]
            out[metric] += own
        for span, metric in CALLS.items():
            out[metric] = calls[span]
        for name in COUNT_METRICS:
            if name not in CALLS.values():
                out[name] = self.counts[name]
        matched = out["chase.body_matches"]
        out["chase.fire_ratio"] = out["chase.triggers_fired"] / matched if matched else 0.0
        return out

    def write(self, path) -> None:
        """One line per span: case, name, parent span index, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tcase\tname\tparent\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.case[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.parent[i]}\t{self.start[i]!r}\t{self.end[i]!r}\n")
