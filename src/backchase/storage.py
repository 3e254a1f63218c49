"""File formats: instances, stores, side tables, mappings, scripts, run dirs.

All JSON is written with two-space indentation, keys in construction order,
and a trailing newline, so identical data always produces identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

from .catalog import SmoSpec, compile_forward, script_from_json, script_to_json
from .errors import ValidationError
from .model import Instance, RelationSchema, Schema, instance_from_json, instance_to_json
from .pipeline import EvolutionRun, EvolutionStep
from .provenance import (
    side_table_from_json,
    side_table_to_json,
    store_from_json,
    store_to_json,
)
from .tgds import SchemaMapping, format_tgd, parse_tgd


def dumps(data) -> str:
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


def write_json(path: Path, data) -> None:
    path.write_text(dumps(data), encoding="utf-8")


def read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValidationError(f"no such file: {path}") from None
    except IsADirectoryError:
        raise ValidationError(f"{path} is a directory, expected a JSON file") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def load_instance(path: Path) -> Instance:
    return instance_from_json(read_json(path))


def save_instance(path: Path, instance: Instance) -> None:
    write_json(path, instance_to_json(instance))


def load_script(path: Path) -> list[SmoSpec]:
    return script_from_json(read_json(path))


# ---------------------------------------------------------------------------
# schema mappings


def schema_to_json(schema: Schema) -> dict:
    return {
        "relations": [
            {"name": r.name, "attributes": list(r.attributes)}
            for r in schema.relations
        ]
    }


def schema_from_json(obj) -> Schema:
    try:
        return Schema(tuple(
            RelationSchema(r["name"], tuple(r["attributes"]))
            for r in obj["relations"]
        ))
    except (TypeError, KeyError) as exc:
        raise ValidationError(f"malformed schema JSON: {obj!r}") from exc


def mapping_to_json(mapping: SchemaMapping) -> dict:
    return {
        "source": schema_to_json(mapping.source),
        "target": schema_to_json(mapping.target),
        "tgds": [format_tgd(t) for t in mapping.sigma],
    }


def mapping_from_json(obj) -> SchemaMapping:
    if not isinstance(obj, dict):
        raise ValidationError("mapping JSON must be an object")
    source = schema_from_json(obj.get("source", {}))
    target = schema_from_json(obj.get("target", {}))
    tgds = tuple(parse_tgd(t) for t in obj.get("tgds", []))
    return SchemaMapping(source, target, tgds)


def load_mapping(path: Path) -> SchemaMapping:
    return mapping_from_json(read_json(path))


# ---------------------------------------------------------------------------
# run directories


def save_run(run: EvolutionRun, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "provenance_mode": run.provenance_mode,
        "side_tables_enabled": run.side_tables_enabled,
        "script": script_to_json(run.script),
        "initial": "initial.json",
        "final": "target.json",
        "steps": [],
    }
    save_instance(out_dir / "initial.json", run.initial)
    save_instance(out_dir / "target.json", run.final)
    for step in run.steps:
        step_dir = out_dir / f"step_{step.index:02d}"
        step_dir.mkdir(exist_ok=True)
        save_instance(step_dir / "source.json", step.source)
        save_instance(step_dir / "target.json", step.target)
        write_json(step_dir / "store.json", store_to_json(step.store))
        write_json(
            step_dir / "side_tables.json",
            [side_table_to_json(t) for _, t in sorted(step.side_tables.items())],
        )
        manifest["steps"].append({"dir": step_dir.name, "kind": step.smo.kind})
    write_json(out_dir / "run.json", manifest)


def load_run(run_dir: Path) -> EvolutionRun:
    path = run_dir / "run.json"
    manifest = read_json(path)
    try:
        mode = manifest["provenance_mode"]
        initial_name = manifest["initial"]
        step_dirs = [entry["dir"] for entry in manifest["steps"]]
        script_obj = manifest["script"]
    except (TypeError, KeyError):
        raise ValidationError(
            f"{path} is not a run manifest: expected an object with "
            f"'provenance_mode', 'script', 'initial' and a 'steps' list of "
            f"objects with 'dir'"
        ) from None
    if not all(isinstance(v, str) for v in [mode, initial_name, *step_dirs]):
        raise ValidationError(
            f"{path}: 'provenance_mode', 'initial' and each step's 'dir' "
            f"must be strings"
        )
    script = script_from_json(script_obj)
    initial = load_instance(run_dir / initial_name)
    steps: list[EvolutionStep] = []
    current = initial
    for i, (smo, step_name) in enumerate(zip(script, step_dirs)):
        step_dir = run_dir / step_name
        source = load_instance(step_dir / "source.json")
        target = load_instance(step_dir / "target.json")
        store = store_from_json(read_json(step_dir / "store.json"))
        tables = {}
        for obj in read_json(step_dir / "side_tables.json"):
            table = side_table_from_json(obj)
            tables[table.name] = table
        mapping = compile_forward(smo, source.schema)
        steps.append(EvolutionStep(i, smo, mapping, source, target, store, tables))
        current = target
    return EvolutionRun(
        mode,
        bool(manifest.get("side_tables_enabled")),
        script,
        initial,
        steps,
    )
