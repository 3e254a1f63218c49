"""File formats: instances, stores, side tables, mappings, scripts, run dirs.

All JSON is written with two-space indentation, keys in construction order,
and a trailing newline, so identical data always produces identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

from .catalog import (
    SmoSpec,
    compile_forward,
    script_from_json,
    script_to_json,
    side_table_specs,
)
from .errors import ValidationError
from .model import (
    Instance,
    InternTable,
    RelationSchema,
    Schema,
    instance_dumps,
    instance_from_json,
    schemas_equal,
)
from .pipeline import EvolutionRun, EvolutionStep
from .provenance import (
    ProvenanceStore,
    check_mode,
    side_table_from_json,
    side_table_to_json,
    store_from_json,
    store_to_json,
)
from .tgds import SchemaMapping, parse_tgd


def dumps(data) -> str:
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


def write_json(path: Path, data) -> None:
    path.write_text(dumps(data), encoding="utf-8")


def read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValidationError(f"no such file: {path}") from None
    except IsADirectoryError:
        raise ValidationError(f"{path} is a directory, expected a JSON file") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None


def parse_json(path: Path, text: str, hook=None):
    """Parse ``text``, read from ``path`` (named in the error), with
    ``hook`` as the ``json.loads`` object hook when given."""
    try:
        return json.loads(text, object_hook=hook)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValidationError(f"{path} is not valid JSON: nested too deeply") from None


def read_json(path: Path):
    return parse_json(path, read_text(path))


def _decode_json(path: Path, text: str, interned: InternTable, decode):
    """``decode`` of the JSON ``text`` read from ``path``, parsed with
    ``interned.hook``, so each constant is decoded as the parser reads it.
    When that raises, ``text`` is parsed and decoded again without the hook,
    and what that plain decode raises is reported: every error then shows
    the file's own JSON, and a file's first error stays first."""
    try:
        return decode(parse_json(path, text, interned.hook))
    except ValidationError:
        return decode(parse_json(path, text))


def load_instance(path: Path, text: str | None = None,
                  interned: InternTable | None = None) -> Instance:
    """Read an instance file; ``text`` is its contents if already read, and
    ``interned`` the intern table of the run it belongs to, or of this file
    alone when not given.  Each constant is decoded as the JSON parser reads
    it (``_decode_json``).  An error in the file's contents names the file."""
    if text is None:
        text = read_text(path)
    if interned is None:
        interned = InternTable()

    def decode(obj) -> Instance:
        try:
            return instance_from_json(obj, interned)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None

    return _decode_json(path, text, interned, decode)


def save_instance(path: Path, instance: Instance) -> None:
    path.write_text(instance_dumps(instance), encoding="utf-8")


def load_script(path: Path) -> list[SmoSpec]:
    return script_from_json(read_json(path))


# ---------------------------------------------------------------------------
# schema mappings


def schema_from_json(obj) -> Schema:
    try:
        relations = [(r["name"], r["attributes"]) for r in obj["relations"]]
    except (TypeError, KeyError) as exc:
        raise ValidationError(f"malformed schema JSON: {obj!r}") from exc
    for name, attributes in relations:
        if not _is_list_of(attributes, str):
            raise ValidationError(
                f"relation {name!r}: 'attributes' must be a list of names, "
                f"got {attributes!r}")
    return Schema(tuple(RelationSchema(name, tuple(attributes))
                        for name, attributes in relations))


def mapping_from_json(obj) -> SchemaMapping:
    if not isinstance(obj, dict):
        raise ValidationError("mapping JSON must be an object")
    source = schema_from_json(obj.get("source", {}))
    target = schema_from_json(obj.get("target", {}))
    tgds = obj.get("tgds", [])
    if not _is_list_of(tgds, str):
        raise ValidationError(
            f"mapping 'tgds' must be a list of dependency strings, got {tgds!r}")
    return SchemaMapping(source, target, tuple(map(parse_tgd, tgds)))


def _is_list_of(obj, kind: type) -> bool:
    return isinstance(obj, list) and all(isinstance(x, kind) for x in obj)


def load_mapping(path: Path) -> SchemaMapping:
    return mapping_from_json(read_json(path))


# ---------------------------------------------------------------------------
# run directories


def save_run(run: EvolutionRun, out_dir: Path) -> None:
    """Write a run directory.  Each step's source is the previous step's
    target (the initial instance for step 0) and ``target.json`` is the last
    step's target, so each distinct instance is encoded once."""
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "provenance_mode": run.provenance_mode,
        "side_tables_enabled": run.side_tables_enabled,
        "script": script_to_json(run.script),
        "initial": "initial.json",
        "final": "target.json",
        "steps": [],
    }
    last: tuple[Instance | None, str] = (None, "")

    def write_instance(path: Path, instance: Instance) -> None:
        nonlocal last
        if last[0] is not instance:
            last = (instance, instance_dumps(instance))
        path.write_text(last[1], encoding="utf-8")

    write_instance(out_dir / "initial.json", run.initial)
    for step in run.steps:
        step_dir = out_dir / f"step_{step.index:02d}"
        step_dir.mkdir(exist_ok=True)
        write_instance(step_dir / "source.json", step.source)
        write_instance(step_dir / "target.json", step.target)
        write_json(step_dir / "store.json", store_to_json(step.store))
        write_json(
            step_dir / "side_tables.json",
            [side_table_to_json(t) for _, t in sorted(step.side_tables.items())],
        )
        manifest["steps"].append({"dir": step_dir.name, "kind": step.smo.kind})
    write_instance(out_dir / "target.json", run.final)
    write_json(out_dir / "run.json", manifest)


def load_run(run_dir: Path) -> EvolutionRun:
    """Read a run directory and check that it is one run: as many step
    directories as script steps, each step's source equal to the previous
    step's target (the initial instance for step 0), ``target.json`` equal
    to the last step's target, and each step's instances, store and side
    tables fitting its operator and the run's provenance mode.  A step holds
    exactly the side tables its operator keeps when the run records side
    tables on, and none when it records them off.

    Each instance file is read once; a file whose text equals the instance
    it must equal is not parsed again, and the already built instance is
    shared, as ``evolve`` shares it.  All files are decoded through one
    ``InternTable``, dropped on return, so each distinct constant and tuple
    id is decoded once per run and one object stands for it in every
    instance, store and side table.  Instance and side-table files are
    parsed with the table's object hook, which decodes each constant as the
    JSON parser reads it; stores and ``run.json`` hold no constants and are
    parsed plainly."""
    path = run_dir / "run.json"
    manifest = read_json(path)
    try:
        mode = manifest["provenance_mode"]
        initial_name = manifest["initial"]
        final_name = manifest["final"]
        step_dirs = [entry["dir"] for entry in manifest["steps"]]
        script_obj = manifest["script"]
    except (TypeError, KeyError):
        raise ValidationError(
            f"{path} is not a run manifest: expected an object with "
            f"'provenance_mode', 'script', 'initial', 'final' and a 'steps' "
            f"list of objects with 'dir'"
        ) from None
    if not all(isinstance(v, str)
               for v in [mode, initial_name, final_name, *step_dirs]):
        raise ValidationError(
            f"{path}: 'provenance_mode', 'initial', 'final' and each step's "
            f"'dir' must be strings"
        )
    check_mode(mode)
    side_tables = manifest.get("side_tables_enabled", False)
    if not isinstance(side_tables, bool):
        raise ValidationError(
            f"{path}: 'side_tables_enabled' must be true or false, got "
            f"{json.dumps(side_tables)}"
        )
    if side_tables and mode == "none":
        raise ValidationError(
            f"{path} records side tables with provenance none; side tables "
            f"only exist in association with provenance"
        )
    script = script_from_json(script_obj)
    if len(step_dirs) != len(script):
        raise ValidationError(
            f"{path} lists {len(step_dirs)} step directories but its script "
            f"has {len(script)} steps"
        )
    prev_path = run_dir / initial_name
    prev_text = read_text(prev_path)
    interned = InternTable()
    prev = initial = load_instance(prev_path, prev_text, interned)
    prev_ids = _fact_ids(initial)
    steps: list[EvolutionStep] = []
    for i, (smo, step_name) in enumerate(zip(script, step_dirs)):
        step_dir = run_dir / step_name
        _check_repeats(step_dir / "source.json", prev_path, prev_text, prev, interned)
        source = prev
        target_path = step_dir / "target.json"
        target_text = read_text(target_path)
        target = load_instance(target_path, target_text, interned)
        mapping = compile_forward(smo, source.schema)
        if not schemas_equal(mapping.target, target.schema):
            raise ValidationError(
                f"{target_path}: relations {target.schema.names()} are not "
                f"what {smo.kind} makes of its source, {mapping.target.names()}"
            )
        store_path = step_dir / "store.json"
        store_json = read_json(store_path)
        try:
            store = store_from_json(store_json, interned)
        except ValidationError as exc:
            raise ValidationError(f"{store_path}: {exc}") from None
        if store.mode != mode:
            raise ValidationError(
                f"{store_path} holds {store.mode}-provenance, the run "
                f"records {mode}"
            )
        target_ids = _fact_ids(target)
        _check_ids(store_path, store, source, prev_ids, target_ids)
        tables_path = step_dir / "side_tables.json"

        def decode_tables(obj) -> tuple:
            if not isinstance(obj, list):
                raise ValidationError(f"{tables_path} must hold a list of side tables")
            try:
                specs = ({spec.name: spec
                          for spec in side_table_specs(smo, source.schema)}
                         if side_tables else {})
                return specs, [side_table_from_json(t, interned) for t in obj]
            except ValidationError as exc:
                raise ValidationError(f"{tables_path}: {exc}") from None

        specs, tables = _decode_json(tables_path, read_text(tables_path), interned,
                                    decode_tables)
        names = sorted(table.name for table in tables)
        expected = sorted(specs)
        if names != expected:
            raise ValidationError(
                f"{tables_path} holds side tables {names}; with side tables "
                f"{'on' if side_tables else 'off'}, {smo.kind} keeps {expected}"
            )
        for table in tables:
            kept = specs[table.name].attributes
            if table.attributes != kept:
                raise ValidationError(
                    f"{tables_path}: side table {table.name} has attributes "
                    f"{list(table.attributes)}, {smo.kind} keeps {list(kept)}"
                )
            relation = specs[table.name].relation
            ids = {f.id for f in source.facts(relation)}
            stray = [row.ref for row in table.rows if row.ref not in ids]
            if stray:
                raise ValidationError(
                    f"{tables_path}: side table {table.name} refers to "
                    f"{_ids_text(stray)}, not facts of {relation} in the step's source")
        steps.append(EvolutionStep(i, smo, mapping, source, target, store,
                                   {table.name: table for table in tables}))
        prev_path, prev_text, prev = target_path, target_text, target
        prev_ids = target_ids
    _check_repeats(run_dir / final_name, prev_path, prev_text, prev, interned)
    return EvolutionRun(mode, side_tables, script, initial, steps)


def _check_ids(path: Path, store: ProvenanceStore, source: Instance,
               source_ids: set, target_ids: set) -> None:
    """Raise unless the store read from ``path`` annotates exactly the
    target's facts, if it records provenance, and its annotations name only
    source facts, or under ``where`` only source relations."""
    if store.mode == "none":
        return
    keys = store.annotations.keys()
    if keys != target_ids:
        raise ValidationError(
            f"{path} must annotate exactly the step's target facts; extra: "
            f"{_ids_text(keys - target_ids) or 'none'}, missing: "
            f"{_ids_text(target_ids - keys) or 'none'}")
    annotations = store.annotations.values()
    if store.mode == "where":
        stray = set().union(*annotations).difference(source.schema.names())
    elif store.mode == "why":
        stray = {i for basis in annotations for w in basis for i in w} - source_ids
    else:
        stray = {i for p in annotations for mono, _ in p.terms for i in mono} - source_ids
    if stray:
        raise ValidationError(
            f"{path}: annotations name {_ids_text(stray)}, which the step's "
            f"source does not hold")


def _fact_ids(instance: Instance) -> set:
    return {f.id for rel in instance.schema.names() for f in instance.facts(rel)}


def _ids_text(ids) -> str:
    return ", ".join(sorted(map(str, ids)))


def _check_repeats(path: Path, original_path: Path, original_text: str,
                   original: Instance, interned: InternTable) -> None:
    """Check that the instance file at ``path`` holds ``original``, read
    from ``original_path`` as ``original_text``.  The file is parsed, through
    the run's ``interned`` table, only when its text differs."""
    text = read_text(path)
    if text != original_text and load_instance(path, text, interned) != original:
        raise ValidationError(
            f"run directory does not chain: {path} differs from {original_path}"
        )
