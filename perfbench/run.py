"""Benchmark of the evolve -> backchase -> classify loop.

Run from the repository root::

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 45 --trace 0

Workloads (see workloads.py for the inputs):

* ``roundtrip``: 120 single-step evolve/backchase/classify cases, 20 operator
  specs x 6 resource levels, about 200 rows per relation.
* ``migrate``: a 7-step forward migration of 2120 rows (Emp 1000, Dept 20,
  Log 1000, Old 100) with how-provenance and side tables, written with
  ``storage.save_run`` and read back with ``storage.load_run``; about
  fifteen migrations make a 45-second run.
* ``scale``: how+side-table roundtrips at 2*10^3 and 10^4 rows.

The process runs single-threaded and starts no other process.  With
``--trace 0`` it measures whole passes over the workload's cases until the
next pass would end after ``--seconds``, and reports the end-to-end metrics.
Times are CPU seconds scaled to a nominal host speed (see CLOCK below).
With ``--trace 1`` it runs one untraced pass and then one pass with every
layer boundary wrapped (tracing.py), checks that each case ends the same way
in both, and reports per-layer self times and counts.

Every case is checked: step and composed predictions, value-level equality
with the original where the prediction is ``exact``, the report digest
against golden.json, and for ``migrate`` the reloaded run and the migrated
values against a reference computed without the library.  A failed case is
counted and listed by name; the run goes on.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 2 means the library
could not be loaded and nothing was measured.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"

import metrics  # noqa: E402  (perfbench/ is on sys.path as the script's dir)
import tracing  # noqa: E402
import workloads  # noqa: E402

# Times are CPU time of this single-threaded process, scaled to a nominal
# host speed.  On a shared host the wall clock also counts time the host
# gives to other machines (steal), and the CPU time of a fixed loop itself
# drifts by +-20 % over minutes as neighbours load the machine.  So a fixed
# calibration loop runs CALIBRATION_RUNS times between every two timed
# segments, and each segment's CPU time is scaled by NOMINAL_KERNEL_S over
# the median loop time in the CALIBRATION_WINDOW gaps on either side
# (metrics.speed_factors).  NOMINAL_KERNEL_S is about the loop's median time
# on a 2-core Intel Xeon 2.0 GHz VM, so scaled times read as CPU seconds
# there.
CLOCK = time.process_time
CALIBRATION_RUNS = 3
CALIBRATION_WINDOW = 5
NOMINAL_KERNEL_S = 0.0035
SETUP_REPEATS = 3
LIBRARY = ("analysis", "catalog", "chase", "pipeline", "storage")

END_TO_END = {  # name -> unit; what --trace 0 reports
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "case_s.p50": "s",
    "peak_rss_mb": "MB",
}
# Printed for reading but not reported in the result line: they are not
# defined on every workload (p90 needs >= 100 completed cases, the run
# directory exists only on migrate) or are zero when nothing fails.
EXTRA = {
    "case_s.p90": "s",
    "fail_ratio": "ratio",
    "run_bytes_per_source_byte": "ratio",
}
PER_LAYER = dict(  # name -> unit; what --trace 1 reports
    [(name, "s") for name in tracing.TIME_METRICS]
    + [(name, "count") for name in tracing.COUNT_METRICS if name != "storage.bytes_written"]
    + [("storage.bytes_written", "bytes"),
       ("chase.fire_ratio", "ratio"),
       ("storage.run_bytes_per_source_byte", "ratio"),
       ("trace.unattributed_s", "s"),
       ("trace.traced_s", "s"),
       ("trace.untraced_s", "s"),
       ("trace.overhead_ratio", "ratio")]
)
# Counts that must repeat exactly from run to run of the same code.
EXACT_COUNTS = ("chase.body_matches", "chase.triggers_fired", "analysis.hom_facts",
                "provenance.poly_add.calls", "storage.bytes_written",
                "storage.run_bytes_per_source_byte")

REPORT_STEP_KEYS = ("step", "kind", "type", "predicted", "meets_prediction",
                    "hom_forward", "hom_backward", "cardinality_equal",
                    "de_equivalent", "post_steps", "flagged_non_invertible", "notes")


# ---------------------------------------------------------------------------
# set-up


def calibration_kernel() -> int:
    """Fixed pure-Python work (tuples, dicts, sorting) resembling the
    library's own mix; it uses nothing of the library.  Keys are integers,
    whose hashes, unlike those of strings, do not change from process to
    process."""
    rows = [(i * 7919 % 1009, i % 97, i) for i in range(3000)]
    index: dict = {}
    for a, b, c in rows:
        index.setdefault((a % 50, b), []).append(c)
    return sum(len(index[key]) for key in sorted(index))


def calibrate() -> list[float]:
    times = []
    for _ in range(CALIBRATION_RUNS):
        start = CLOCK()
        calibration_kernel()
        times.append(CLOCK() - start)
    return times


class Meter:
    """Times segments of benchmark work with the calibration loop run in
    every gap between them, over a whole run."""

    def __init__(self):
        self.gaps = [calibrate()]
        self.cpu: list[float] = []
        self.tracer: tracing.Tracer | None = None

    def time(self, fn, *args):
        """Call ``fn`` as one timed segment; the segment's index is
        ``len(self.cpu) - 1`` once it returns or raises.  With a tracer set,
        the segment is a root span; the calibration loop stays outside."""
        root = self.tracer.open(tracing.ROOT_SPAN) if self.tracer else None
        start = CLOCK()
        try:
            return fn(*args)
        finally:
            self.cpu.append(CLOCK() - start)
            if root is not None:
                self.tracer.close(root)
            self.gaps.append(calibrate())

    def apply(self, results: list[metrics.CaseResult]) -> None:
        """Set each case's speed factor from those of its segments."""
        factors = metrics.speed_factors(self.gaps, CALIBRATION_WINDOW, NOMINAL_KERNEL_S)
        for res in results:
            cpu = [self.cpu[k] for k in res.segments]
            total = sum(cpu)
            res.speed = (sum(c * factors[k] for c, k in zip(cpu, res.segments)) / total
                         if total else 1.0)


def load_library(workload: str) -> dict:
    """Import the library afresh (module bodies run again) and return its
    modules by short name, reached through importlib because the package
    re-exports functions under some module names."""
    for name in [m for m in sys.modules if m == "backchase" or m.startswith("backchase.")]:
        del sys.modules[name]
    mods = {"bc": importlib.import_module("backchase")}
    for name in LIBRARY:
        if name != "storage" or workload == "migrate":
            mods[name] = importlib.import_module(f"backchase.{name}")
    return mods


def setup(workload: str, seed: int) -> tuple[float, dict, list, Path | None]:
    start = CLOCK()
    mods = load_library(workload)
    cases = workloads.CASES[workload](mods["bc"], seed)
    run_dir = None
    if workload == "migrate":
        WORK.mkdir(exist_ok=True)
        run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    return CLOCK() - start, mods, cases, run_dir


def input_digest(cases: list) -> str:
    h = hashlib.sha256()
    for case in cases:
        h.update(repr((case.name, case.provenance, case.side_tables,
                       [(s.kind, sorted(s.params.items(), key=str), s.variant)
                        for s in case.script])).encode())
        for rel, fact in case.instance.iter_facts():
            h.update(repr((rel, str(fact.id), value_vector(fact))).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# output checks (computed here, independently of the library's comparisons)


def value_vector(fact) -> tuple:
    return tuple(("c", v.lexical) if hasattr(v, "lexical") else ("n", v.label)
                 for v in fact.values)


def multisets(instance) -> dict[str, Counter]:
    return {rel: Counter(value_vector(f) for f in instance.facts(rel))
            for rel in instance.schema.names()}


def report_json(pipeline, case, result) -> dict:
    """The classification report, as ``roundtrip_report`` builds it."""
    return {
        "provenance_mode": case.provenance,
        "side_tables": case.side_tables,
        "steps": [pipeline.step_report(s) for s in result.steps],
        "composed": {
            "type": result.composed.value,
            "predicted": result.composed_predicted.value,
            "meets_prediction": result.composed_meets,
        },
    }


def report_digest(report: dict) -> str:
    """Digest of the report's documented fields; keys added later do not
    change it."""
    kept = {
        "provenance_mode": report["provenance_mode"],
        "side_tables": report["side_tables"],
        "steps": [{k: s.get(k) for k in REPORT_STEP_KEYS} for s in report["steps"]],
        "composed": {k: report["composed"][k]
                     for k in ("type", "predicted", "meets_prediction")},
    }
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()


def instance_rows(instance) -> list:
    return [(rel.name, rel.attributes,
             [(str(f.id), value_vector(f)) for f in instance.facts(rel.name)])
            for rel in instance.schema.relations]


def shape_digest(instance) -> str:
    """Digest of the seed-independent part of an instance: relations,
    attributes and tuple ids.  The values are checked against the
    reference instead."""
    shape = [(name, list(attrs), sorted(tid for tid, _ in rows))
             for name, attrs, rows in instance_rows(instance)]
    return hashlib.sha256(json.dumps(shape).encode()).hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# cases


def run_roundtrip_case(mods, case, golden: dict, meter: Meter) -> metrics.CaseResult:
    pipeline = mods["pipeline"]

    def roundtrip():
        run = pipeline.evolve(case.instance, list(case.script), case.provenance,
                              case.side_tables)
        result = pipeline.backchase(run)
        return result, report_json(pipeline, case, result)

    first = len(meter.cpu)
    try:
        result, report = meter.time(roundtrip)
    except Exception as exc:  # a failed case is recorded; the run goes on
        return metrics.CaseResult(case.name, case.rows, meter.cpu[first],
                                  f"error:{type(exc).__name__}", segments=range(first, first + 1))
    seconds = meter.cpu[first]
    digest = report_digest(report)
    outcome = "ok"
    if not (all(s.meets_prediction for s in result.steps) and result.composed_meets):
        outcome = "check:below prediction"
    elif (result.composed_predicted.value == "exact"
          and multisets(result.instance) != multisets(case.instance)):
        outcome = "check:exact case differs from the original"
    elif golden.get("digest") not in (None, digest):
        outcome = "check:report digest differs from golden"
    return metrics.CaseResult(case.name, case.rows, seconds, outcome, digest,
                              segments=range(first, first + 1))


def run_migrate_case(mods, case, golden: dict, meter: Meter, run_dir: Path,
                     expected) -> metrics.CaseResult:
    """Evolve, save and reload, timed as three segments so that each is
    scaled by the host speed measured around it."""
    pipeline, storage = mods["pipeline"], mods["storage"]
    shutil.rmtree(run_dir, ignore_errors=True)
    first = len(meter.cpu)
    try:
        run = meter.time(pipeline.evolve, case.instance, list(case.script),
                         case.provenance, case.side_tables)
        meter.time(storage.save_run, run, run_dir)
        loaded = meter.time(storage.load_run, run_dir)
    except Exception as exc:  # a failed case is recorded; the run goes on
        segments = range(first, len(meter.cpu))
        return metrics.CaseResult(case.name, case.rows, sum(meter.cpu[first:]),
                                  f"error:{type(exc).__name__}", segments=segments)
    segments = range(first, len(meter.cpu))
    seconds = sum(meter.cpu[first:])
    final = run.final
    digest = shape_digest(final)
    got = {rel: sorted(tuple(v for _, v in value_vector(f)) for f in final.facts(rel))
           for rel in final.schema.names()}
    ratio = dir_bytes(run_dir) / (run_dir / "initial.json").stat().st_size
    outcome = "ok"
    if instance_rows(loaded.final) != instance_rows(final):
        outcome = "check:reloaded final instance differs"
    elif got != expected:
        outcome = "check:migrated values differ from the reference"
    elif golden.get("digest") not in (None, digest):
        outcome = "check:final instance digest differs from golden"
    return metrics.CaseResult(case.name, case.rows, seconds, outcome, digest,
                              {"storage.run_bytes_per_source_byte": ratio},
                              segments=segments)


def run_pass(workload, mods, cases, golden, meter: Meter, run_dir, expected,
             tracer: tracing.Tracer | None = None) -> list[metrics.CaseResult]:
    gc.collect()
    results = []
    meter.tracer = tracer
    for i, case in enumerate(cases):
        ref = golden.get(case.name, {})
        if tracer is not None:
            tracer.case_id = i
        if workload == "migrate":
            results.append(run_migrate_case(mods, case, ref, meter, run_dir, expected))
        else:
            results.append(run_roundtrip_case(mods, case, ref, meter))
    meter.tracer = None
    return results


# ---------------------------------------------------------------------------
# reporting


def load_golden(workload: str) -> dict:
    return json.loads(GOLDEN.read_text())["workloads"].get(workload, {}).get("cases", {})


def check_counts_repeat(workload: str, seed: int, counts: dict) -> list[str]:
    """Record this run's exact counts and compare them with those of earlier
    runs of the same checkout; returns the mismatches."""
    OUT.mkdir(exist_ok=True)
    problems = []
    for path in sorted(OUT.glob(f"counts-{workload}-seed*.json")):
        other = json.loads(path.read_text())
        for name in EXACT_COUNTS:
            if other.get(name) != counts.get(name):
                problems.append(f"{name} = {counts.get(name)} here, "
                                f"{other.get(name)} in {path.name}")
    (OUT / f"counts-{workload}-seed{seed}.json").write_text(
        json.dumps({k: counts[k] for k in EXACT_COUNTS}, indent=1))
    return problems


def bytes_ratio(results: list[metrics.CaseResult], problems: list[str]) -> float:
    """The run directory's size over its initial.json, which every migration
    of a run must repeat exactly; 0 when no migration completed."""
    ratios = sorted({r.counts["storage.run_bytes_per_source_byte"] for r in results
                     if "storage.run_bytes_per_source_byte" in r.counts})
    if len(ratios) > 1:
        problems.append(f"run directory sizes differ between migrations: {ratios}")
    return ratios[0] if ratios else 0.0


def emit(values: dict, units: dict, problems: list[str], results, extra_lines=()) -> None:
    for name, unit in units.items():
        print(f"{name} = {values.get(name)} {unit}")
    for line in extra_lines:
        print(line)
    for r in results:
        if not r.ok:
            print(f"FAILED {r.name}: {r.outcome}")
    for p in problems:
        print(f"CHECK FAILED: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "backchase").is_dir():
        print(f"perfbench: no library sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    problems: list[str] = []
    setups, digests, run_dirs, gaps = [], set(), [], [calibrate()]
    try:
        for _ in range(SETUP_REPEATS):
            seconds, mods, cases, run_dir = setup(args.workload, args.seed)
            gaps.append(calibrate())
            setups.append(seconds)
            digests.add(input_digest(cases))
            run_dirs.append(run_dir)
    except ImportError as exc:
        print(f"perfbench: cannot load the library: {exc}", file=sys.stderr)
        return 2
    try:
        if len(digests) != 1:
            problems.append("the same seed generated different inputs")
        golden = load_golden(args.workload)
        expected = (workloads.expected_migrate_final(args.seed)
                    if args.workload == "migrate" else None)
        run_dir = run_dirs[-1]
        if args.trace:
            return traced_run(args, mods, cases, golden, run_dir, expected, problems)
        results, passes, meter = [], 0, Meter()
        while True:
            results += run_pass(args.workload, mods, cases, golden, meter, run_dir,
                                expected)
            passes += 1
            meter.apply(results)
            timed = sum(r.seconds for r in results)
            if timed + timed / passes > args.seconds:
                break
        summary = metrics.summarize(results)
        values = {
            "setup_s": statistics.median(
                s * f for s, f in zip(setups, metrics.speed_factors(
                    gaps, SETUP_REPEATS, NOMINAL_KERNEL_S))),
            "rows_per_s": summary["rows_per_s"],
            "case_s.p50": summary["case_s.p50"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "case_s.p90": summary["case_s.p90"],
            "fail_ratio": summary["fail_ratio"],
            "run_bytes_per_source_byte": bytes_ratio(results, problems) if run_dir else None,
        }
        emit(values, {**END_TO_END, **EXTRA}, problems, results, [
            f"passes = {passes}, cases = {summary['attempted']}, "
            f"completed case samples = {summary['case_s.samples']}, "
            f"timed = {timed:.3f} s at nominal speed, "
            f"{sum(r.cpu_seconds for r in results):.3f} s of CPU time",
        ])
        result_metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
        ok = not problems and summary["failed"] == 0
        if summary["case_s.p50"] is None:
            ok = False
            result_metrics.pop("case_s.p50")
        print(json.dumps({"correct": ok, "attempted": summary["attempted"],
                          "failed": summary["failed"], "metrics": result_metrics}))
        return 0
    finally:
        for d in run_dirs:
            if d is not None:
                shutil.rmtree(d, ignore_errors=True)


def traced_run(args, mods, cases, golden, run_dir, expected, problems) -> int:
    meter = Meter()
    plain = run_pass(args.workload, mods, cases, golden, meter, run_dir, expected)
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        traced = run_pass(args.workload, mods, cases, golden, meter, run_dir, expected,
                          tracer)
    finally:
        tracer.uninstall()
    meter.apply(plain + traced)
    failed = 0
    for a, b in zip(plain, traced):
        if (a.outcome, a.digest) != (b.outcome, b.digest):
            b.outcome = f"check:traced outcome {b.outcome} differs from untraced {a.outcome}"
        failed += not b.ok
    values = tracer.layer_metrics({i: r.speed for i, r in enumerate(traced)})
    untraced_s = sum(r.seconds for r in plain)
    values["trace.untraced_s"] = untraced_s
    values["trace.overhead_ratio"] = values["trace.traced_s"] / untraced_s
    values["storage.run_bytes_per_source_byte"] = bytes_ratio(plain, problems)
    attributed = sum(values[name] for name in tracing.TIME_METRICS)
    if abs(attributed + values["trace.unattributed_s"] - values["trace.traced_s"]) > 1e-6:
        problems.append("self times do not add up to the traced time")
    problems += check_counts_repeat(args.workload, args.seed, values)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
    emit(values, PER_LAYER, problems, traced, [
        f"spans = {len(tracer.start)}, written to "
        f"{(OUT / f'spans-{args.workload}-seed{args.seed}.tsv').relative_to(ROOT)}",
    ])
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": len(traced),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in PER_LAYER.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
