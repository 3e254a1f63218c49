"""Command-line surface.

Subcommands::

    backchase evolve    --in I.json --script S.json --provenance how
                        [--side-tables] --out rundir/
    backchase invert    --run rundir/ --out reconstructed.json
    backchase classify  --original I.json --reconstructed R.json
                        --mapping M.json
    backchase roundtrip --in I.json --script S.json --provenance how
                        [--side-tables] --report report.json
    backchase catalog

Exit codes: 0 on success, 2 on validation errors and on files that cannot
be read or written, 3 when a classification falls below its predicted type.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import storage
from .analysis import classify_report
from .catalog import catalog_entries
from .errors import BackchaseError
from .pipeline import backchase, evolve, roundtrip_report, step_report
from .provenance import MODES

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BELOW_PREDICTION = 3


def _add_evolution_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--in", dest="instance", required=True, type=Path,
                        help="source instance JSON")
    parser.add_argument("--script", required=True, type=Path,
                        help="evolution script JSON")
    parser.add_argument("--provenance", choices=MODES, default="none")
    parser.add_argument("--side-tables", action="store_true",
                        help="persist side tables (needs a provenance mode)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="backchase",
        description="run schema evolution as a chase, invert it, and "
                    "classify how much comes back",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="chase a script over an instance")
    _add_evolution_args(p)
    p.add_argument("--out", required=True, type=Path, help="run directory")

    p = sub.add_parser("invert", help="backchase a recorded run")
    p.add_argument("--run", required=True, type=Path, help="run directory")
    p.add_argument("--out", required=True, type=Path,
                   help="file for the reconstructed instance")
    p.add_argument("--restrict", type=Path, default=None,
                   help="invert only this value-level subset of the final "
                        "instance (classifications become advisory)")

    p = sub.add_parser("classify", help="classify a reconstruction")
    p.add_argument("--original", required=True, type=Path)
    p.add_argument("--reconstructed", required=True, type=Path)
    p.add_argument("--mapping", required=True, type=Path)

    p = sub.add_parser("roundtrip", help="evolve, invert, report")
    _add_evolution_args(p)
    p.add_argument("--report", required=True, type=Path)

    sub.add_parser("catalog", help="print the operator catalog")
    return parser


def _cmd_evolve(args) -> int:
    instance = storage.load_instance(args.instance)
    script = storage.load_script(args.script)
    run = evolve(instance, script, args.provenance, args.side_tables)
    storage.save_run(run, args.out)
    print(f"wrote {len(run.steps)} step(s) to {args.out}")
    return EXIT_OK


def _cmd_invert(args) -> int:
    run = storage.load_run(args.run)
    restrict_to = storage.load_instance(args.restrict) if args.restrict else None
    result = backchase(run, restrict_to=restrict_to)
    storage.save_instance(args.out, result.instance)
    advisory = restrict_to is not None
    for step in result.steps:
        marker = "" if (advisory or step.meets_prediction) else "  [below prediction]"
        print(f"step {step.index} {step.smo.kind}: {step.achieved.value} "
              f"(predicted {step.predicted.value}){marker}")
    print(f"composed: {result.composed.value}")
    if advisory:
        print("restricted inversion: classifications are advisory")
        return EXIT_OK
    if not result.composed_meets or not all(
        s.meets_prediction for s in result.steps
    ):
        return EXIT_BELOW_PREDICTION
    return EXIT_OK


def _cmd_classify(args) -> int:
    original = storage.load_instance(args.original)
    reconstructed = storage.load_instance(args.reconstructed)
    mapping = storage.load_mapping(args.mapping)
    report = classify_report(original, reconstructed, mapping)
    print(storage.dumps(report.to_json()), end="")
    return EXIT_OK


def _cmd_roundtrip(args) -> int:
    instance = storage.load_instance(args.instance)
    script = storage.load_script(args.script)
    report = roundtrip_report(instance, script, args.provenance,
                              args.side_tables)
    storage.write_json(args.report, report)
    for step in report["steps"]:
        print(f"step {step['step']} {step['kind']}: {step['type']} "
              f"(predicted {step['predicted']})")
    print(f"composed: {report['composed']['type']}")
    below = not report["composed"]["meets_prediction"] or any(
        not s["meets_prediction"] for s in report["steps"]
    )
    return EXIT_BELOW_PREDICTION if below else EXIT_OK


def _cmd_catalog(args) -> int:
    for entry in catalog_entries():
        print(f"{entry['kind']}  [class {entry['class']}]  "
              f"inverse: {entry['inverse']}")
        print(f"  {entry['description']}")
        for tgd in entry["forward"]:
            print(f"    {tgd}")
        print("  inverse dependencies:")
        for tgd in entry["inverse_tgds"]:
            print(f"    {tgd}")
        print()
    return EXIT_OK


_COMMANDS = {
    "evolve": _cmd_evolve,
    "invert": _cmd_invert,
    "classify": _cmd_classify,
    "roundtrip": _cmd_roundtrip,
    "catalog": _cmd_catalog,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BackchaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # a file that cannot be read or written
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
