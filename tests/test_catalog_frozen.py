"""The operator catalog, frozen.

``fixtures/catalog_frozen.json`` holds the ``backchase catalog`` output and,
for a list of operator specs, everything the catalog derives from them: the
forward dependencies and target schema, the side-table specs, the inverse
plan under every resource configuration with the inverse function off and
on, and the predicted type under every combination of instance features.
The specs are the demo spec of every operator (alone, and between two extra
relations so that the identity dependencies of untouched relations show,
also with outputs that reuse an input relation's name), every ``SMO_CASES``
spec drawn with a fixed seed, and the steps of a few seeded random scripts.  The test recomputes all of it from the specs stored
in the fixture and asserts equality, so any change to what an operator
compiles to shows up here.

Regenerate the fixture (only when a catalog change is intended) with::

    PYTHONPATH=src:tests python tests/test_catalog_frozen.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

from backchase import (
    Instance,
    InstanceFeatures,
    RelationSchema,
    Schema,
    SmoSpec,
    compile_forward,
    compile_inverse,
    instance_features,
)
from backchase.catalog import (
    ALL_KINDS,
    OPERATORS,
    inverse_function_ready,
    side_table_specs,
)
from backchase.cli import main as cli_main
from backchase.functions import default_registry
from backchase.tgds import Variable, format_tgd
from support import RESOURCE_CONFIGS, SMO_CASES, random_script

FIXTURE = Path(__file__).parent / "fixtures" / "catalog_frozen.json"

FEATURES = {
    "plain": InstanceFeatures(),
    "dangling": InstanceFeatures(has_dangling=True),
    "duplicates": InstanceFeatures(has_duplicates=True),
    "both": InstanceFeatures(has_dangling=True, has_duplicates=True),
}

# Extra relations placed before and after a demo schema.
PAD_BEFORE = RelationSchema("A0", ("p",))
PAD_AFTER = RelationSchema("Z9", ("q", "r", "s"))

# Demo parameter changes that give an output the name of an input relation
# (or keep the input name where a new one is optional).
REUSED_NAMES = {
    "COPY_TABLE": [{"kept": "R"}],
    "DECOMPOSE_TABLE": [{"parts": [{"name": "R", "attributes": ["a1", "a2"]},
                                   {"name": "R2", "attributes": ["a1", "a3"]}]}],
    "JOIN_TABLE": [{"target": "R"}, {"target": "V"}],
    "MERGE_TABLE": [{"target": "R"}, {"target": "V"}],
    "PARTITION_TABLE": [{"targets": ["R", "T2"]}, {"targets": ["T1", "R"]}],
    "RENAME_TABLE": [{"to": "R"}],
    "MERGE_COLUMN": [{"target": "R"}],
    "RENAME_COLUMN": [{"to": "a2"}],
    "SPLIT_COLUMN": [{"target": "R"}],
}


def _schema_json(schema: Schema) -> list:
    return [[rel.name, list(rel.attributes)] for rel in schema.relations]


def _schema_from_json(obj) -> Schema:
    return Schema.of(*(RelationSchema(name, tuple(attrs)) for name, attrs in obj))


def _spec_json(label: str, schema: Schema, smo: SmoSpec) -> dict:
    return {"label": label, "schema": _schema_json(schema), "kind": smo.kind,
            "params": json.loads(json.dumps(smo.params)), "variant": smo.variant}


def _side_specs_json(specs) -> list:
    return [[s.name, s.relation, s.kind, list(s.attributes)] for s in specs]


def _plan_json(plan) -> dict:
    return {
        "sigma": [format_tgd(t) for t in plan.mapping.sigma],
        "lookups": [[format_tgd(r.tgd), r.spec.name, sorted(r.bindings.items())]
                    for r in plan.lookups],
        "restrict": (None if plan.restrict is None else
                     [plan.restrict.kind, list(plan.restrict.relations)]),
        "appends": [[a.spec.name, a.spec.relation] for a in plan.appends],
        "post_steps": list(plan.post_steps()),
        "required_provenance": plan.required_provenance,
        "required_side_tables": _side_specs_json(plan.required_side_tables),
        "requires_inverse_function": plan.requires_inverse_function,
        "flagged_non_invertible": plan.flagged_non_invertible,
        "notes": list(plan.notes),
    }


def derive(spec: dict) -> dict:
    """Everything the catalog derives from one stored spec."""
    schema = _schema_from_json(spec["schema"])
    smo = SmoSpec(spec["kind"], spec["params"], spec["variant"])
    forward = compile_forward(smo, schema)
    has_features = OPERATORS[smo.kind].features is not None
    plans, predicted, reads_features = {}, {}, False
    for level, side in RESOURCE_CONFIGS:
        for invfn in (False, True):
            key = f"{level}/{int(side)}/{int(invfn)}"
            plan = compile_inverse(smo, schema, level, side, invfn)
            for rule in plan.lookups:
                # the lookup binds its body atom's terms to a fact's values
                (atom,) = rule.tgd.body
                assert all(isinstance(t, Variable) for t in atom.terms)
                assert len(set(atom.terms)) == len(atom.terms)
            # a guarantee reads only features its operator computes
            if plan.if_dangling or plan.if_duplicates:
                assert has_features, key
                reads_features = True
            plans[key] = _plan_json(plan)
            predicted[key] = {name: plan.predicted(feats).value
                              for name, feats in FEATURES.items()}
    assert reads_features == has_features  # and some plan reads what it computes
    derived = {
        **spec,
        "forward": [format_tgd(t) for t in forward.sigma],
        "target": _schema_json(forward.target),
        "side_table_specs": _side_specs_json(side_table_specs(smo, schema)),
        "plans": plans,
        "predicted": predicted,
    }
    return json.loads(json.dumps(derived))  # as read back from the fixture


def catalog_stdout() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["catalog"]) == 0
    return out.getvalue()


def collect_specs() -> list[dict]:
    """The specs the fixture freezes, in a fixed order."""
    specs = []
    for kind, op in OPERATORS.items():
        schema, params = op.demo
        smo = SmoSpec(kind, params)
        specs.append(_spec_json(f"demo {kind}", schema, smo))
        padded = Schema((PAD_BEFORE,) + schema.relations + (PAD_AFTER,))
        specs.append(_spec_json(f"demo {kind} padded", padded, smo))
        for i, changes in enumerate(REUSED_NAMES.get(kind, ())):
            smo = SmoSpec(kind, {**params, **changes})
            specs.append(_spec_json(f"demo {kind} reused {i}", padded, smo))
    for kind, cases in SMO_CASES.items():
        for i, case in enumerate(cases):
            instance, smo = case(random.Random(1000 + i))
            specs.append(_spec_json(f"case {kind} {i}", instance.schema, smo))
    rng = random.Random(555)
    base = Schema.of(RelationSchema("R", ("x", "y", "z")),
                     RelationSchema("V", ("x", "y", "z")))
    for n in range(16):
        schema = base
        for j, smo in enumerate(random_script(rng, base, rng.randint(1, 4))):
            specs.append(_spec_json(f"script {n} step {j}", schema, smo))
            schema = compile_forward(smo, schema).target
    return specs


def build_document(specs: list[dict]) -> dict:
    return {"catalog_stdout": catalog_stdout(),
            "specs": [derive(spec) for spec in specs]}


def _stored_spec(entry: dict) -> dict:
    return {k: entry[k] for k in ("label", "schema", "kind", "params", "variant")}


def test_catalog_output_is_frozen():
    frozen = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert catalog_stdout() == frozen["catalog_stdout"]


def test_compiled_operators_are_frozen():
    frozen = json.loads(FIXTURE.read_text(encoding="utf-8"))
    for entry in frozen["specs"]:
        assert derive(_stored_spec(entry)) == entry, entry["label"]


def test_frozen_specs_cover_every_operator_and_case():
    frozen = json.loads(FIXTURE.read_text(encoding="utf-8"))
    labels = {e["label"] for e in frozen["specs"]}
    for kind in ALL_KINDS:
        assert f"demo {kind}" in labels and f"demo {kind} padded" in labels
    for kind, cases in SMO_CASES.items():
        for i, case in enumerate(cases):
            instance, smo = case(random.Random(1000 + i))
            entry = next(e for e in frozen["specs"]
                         if e["label"] == f"case {kind} {i}")
            assert _stored_spec(entry) == _spec_json(entry["label"],
                                                     instance.schema, smo)


def test_builders_read_only_declared_parameters(monkeypatch):
    read = set()
    param = SmoSpec.param

    def recording_param(self, key):
        read.add((self.kind, key))
        return param(self, key)

    monkeypatch.setattr(SmoSpec, "param", recording_param)
    frozen = json.loads(FIXTURE.read_text(encoding="utf-8"))
    for entry in frozen["specs"]:
        spec = _stored_spec(entry)
        derive(spec)
        smo = SmoSpec(spec["kind"], spec["params"], spec["variant"])
        inverse_function_ready(smo, _schema_from_json(spec["schema"]),
                               default_registry())
        instance_features(smo, Instance(_schema_from_json(spec["schema"]), {}))
    declared = {(kind, key) for kind, op in OPERATORS.items() for key in op.params}
    assert read == declared  # nothing undeclared is read, nothing declared unused


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_catalog_frozen.py --write")
    document = build_document(collect_specs())
    FIXTURE.write_text(json.dumps(document, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}: {len(document['specs'])} specs")
