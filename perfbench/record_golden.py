"""Record golden.json: each case's outcome and report digest, from one
untraced pass per workload on two seeds that must agree.

    python3 perfbench/record_golden.py [--workload NAME ...]

Re-record only when the report format or the workload inputs change on
purpose; the runner fails every case whose digest no longer matches.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
import workloads

SEEDS = (1, 2)


def record(workload: str) -> dict:
    per_seed = []
    for seed in SEEDS:
        _, mods, cases, run_dir = run.setup(workload, seed)
        expected = (workloads.expected_migrate_final(seed)
                    if workload == "migrate" else None)
        try:
            results = run.run_pass(workload, mods, cases, {}, run.Meter(), run_dir,
                                   expected)
        finally:
            if run_dir is not None:
                shutil.rmtree(run_dir, ignore_errors=True)
        per_seed.append({r.name: {"outcome": r.outcome, "digest": r.digest}
                         for r in results})
    if any(p != per_seed[0] for p in per_seed):
        raise SystemExit(f"{workload}: seeds {SEEDS} disagree; inputs are not "
                         f"seed-independent in shape")
    return {"cases": per_seed[0]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.CASES))
    args = parser.parse_args()
    sys.path.insert(0, str(run.ROOT / "src"))
    golden = json.loads(run.GOLDEN.read_text()) if run.GOLDEN.exists() else {}
    golden.setdefault("workloads", {})
    for workload in args.workload or sorted(workloads.CASES):
        golden["workloads"][workload] = record(workload)
        print(f"recorded {workload}: {len(golden['workloads'][workload]['cases'])} cases")
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
