import dataclasses
import itertools
import random
import re
from pathlib import Path

import pytest

from backchase import (
    Fact,
    Instance,
    InstanceFeatures,
    InverseType,
    SmoSpec,
    TupleId,
    ValidationError,
    chase,
    compile_forward,
    compile_inverse,
    const,
    instance_features,
    instances_equal,
    script_from_json,
    script_to_json,
)
from backchase.analysis import at_least, classify_report
from backchase.catalog import (
    ALL_KINDS,
    OPERATORS,
    catalog_entries,
    inverse_function_ready,
    side_table_specs,
)
from backchase.functions import default_registry
from backchase.model import relation_tag, seed_allocators
from backchase.pipeline import backchase, evolve, execute_plan
from backchase.tgds import format_tgd
from support import (
    COPY_COL_PARAMS,
    NUM_POOL,
    RESOURCE_CONFIGS,
    SMO_CASES,
    TEXT_POOL,
    inst,
    naive_trigger_matches,
    random_ground_instance,
)
from backchase import RelationSchema, Schema

EXPECTED_CLASSES = {
    "COPY_TABLE": ("I",), "CREATE_TABLE": ("I",), "DECOMPOSE_TABLE": ("III",),
    "DROP_TABLE": ("IV",), "JOIN_TABLE": ("II",), "MERGE_TABLE": ("IV",),
    "PARTITION_TABLE": ("I",), "RENAME_TABLE": ("I",), "ADD_COLUMN": ("I",),
    "COPY_COLUMN": ("I",), "DROP_COLUMN": ("III",), "MERGE_COLUMN": ("III",),
    "MOVE_COLUMN": ("II", "III"), "RENAME_COLUMN": ("I",),
    "SPLIT_COLUMN": ("III",), "NOP": ("I",),
}


def test_class_assignment_matches_catalog():
    assert {kind: op.classes for kind, op in OPERATORS.items()} == EXPECTED_CLASSES
    assert len(ALL_KINDS) == 16


def test_copy_table_variant1_is_single_two_headed_tgd():
    schema = Schema.of(RelationSchema("R", ("a1", "a2", "a3")))
    smo = SmoSpec("COPY_TABLE", {"table": "R", "copy": "V", "kept": "R'"})
    mapping = compile_forward(smo, schema)
    assert [format_tgd(t) for t in mapping.sigma] == [
        "R(a,b,c) -> R'(a,b,c) AND V(a,b,c)"
    ]
    plan = compile_inverse(smo, schema)
    assert [format_tgd(t) for t in plan.mapping.sigma] == [
        "R'(a,b,c) AND V(a,b,c) -> R(a,b,c)"
    ]


def test_copy_table_variants_chase_identically():
    rng = random.Random(3)
    schema = Schema.of(RelationSchema("R", ("x", "y", "z")))
    for _ in range(25):
        src = random_ground_instance(rng, schema)
        v1 = compile_forward(SmoSpec("COPY_TABLE", {"table": "R", "copy": "V"}),
                             schema)
        v2 = compile_forward(SmoSpec("COPY_TABLE", {"table": "R", "copy": "V"},
                                     variant=2), schema)
        out1, _ = chase(src, v1, "none")
        out2, _ = chase(src, v2, "none")
        assert instances_equal(out1, out2)


def test_decompose_variants_chase_identically():
    rng = random.Random(4)
    schema = Schema.of(RelationSchema("R", ("x", "y", "z")))
    params = {"table": "R", "parts": [{"name": "R1", "attributes": ["x", "y"]},
                                      {"name": "R2", "attributes": ["x", "z"]}]}
    for _ in range(25):
        src = random_ground_instance(rng, schema)
        out1, _ = chase(src, compile_forward(SmoSpec("DECOMPOSE_TABLE", params),
                                             schema), "none")
        out2, _ = chase(src, compile_forward(
            SmoSpec("DECOMPOSE_TABLE", params, variant=2), schema), "none")
        assert instances_equal(out1, out2)


def test_nop_compiles_to_identities():
    schema = Schema.of(RelationSchema("R", ("x", "y")))
    mapping = compile_forward(SmoSpec("NOP"), schema)
    src = inst(schema, R=[("1", "2")])
    out, _ = chase(src, mapping, "none")
    assert instances_equal(out, src)


def test_join_compiles_with_explicit_equality():
    schema = Schema.of(RelationSchema("R", ("id", "name")),
                       RelationSchema("V", ("name", "subject")))
    mapping = compile_forward(SmoSpec("JOIN_TABLE", {
        "left": "R", "right": "V", "left_column": "name",
        "right_column": "name", "target": "T"}), schema)
    assert [format_tgd(t) for t in mapping.sigma] == [
        "R(a,b) AND V(c,d) AND b = c -> T(a,b,d)"
    ]


def test_partition_covers_every_row_exactly_once():
    rng = random.Random(9)
    schema = Schema.of(RelationSchema("R", ("x", "y", "z")))
    for op in ("=", "<", "<=", ">", ">="):
        smo = SmoSpec("PARTITION_TABLE", {
            "table": "R", "condition": {"attribute": "z", "op": op, "value": "c"},
            "targets": ["T1", "T2"]})
        for _ in range(12):
            src = random_ground_instance(rng, schema)
            mapping = compile_forward(smo, schema)
            # every source row lands in exactly one target (naive enumeration)
            per_row: dict = {}
            for _, _, witness in naive_trigger_matches(src, mapping):
                per_row[witness[0].id] = per_row.get(witness[0].id, 0) + 1
            assert per_row == {f.id: 1 for f in src.facts("R")}


def test_partition_on_attribute_pair():
    schema = Schema.of(RelationSchema("R", ("x", "y")))
    smo = SmoSpec("PARTITION_TABLE", {
        "table": "R", "condition": {"attribute": "x", "op": "=",
                                    "attribute2": "y"},
        "targets": ["T1", "T2"]})
    src = inst(schema, R=[("a", "a"), ("a", "b")])
    out, _ = chase(src, compile_forward(smo, schema), "none")
    assert len(out.facts("T1")) == 1 and len(out.facts("T2")) == 1


def test_move_column_flag_only_without_any_resource():
    schema = Schema.of(RelationSchema("R", ("id", "name")),
                       RelationSchema("V", ("name", "subject")))
    smo = SmoSpec("MOVE_COLUMN", {
        "relation": "R", "source": "V",
        "join": {"column": "name", "source_column": "name"},
        "column": "subject"})
    assert compile_inverse(smo, schema, "none", False, False).flagged_non_invertible
    assert not compile_inverse(smo, schema, "how", True, False).flagged_non_invertible
    assert not compile_inverse(smo, schema, "why", False, False).flagged_non_invertible


def test_validation_errors():
    schema = Schema.of(RelationSchema("R", ("x", "y")))
    with pytest.raises(ValidationError):
        compile_forward(SmoSpec("JOIN_TABLE", {
            "left": "R", "right": "R", "left_column": "x",
            "right_column": "y", "target": "T"}), schema)
    with pytest.raises(ValidationError):
        compile_forward(SmoSpec("DROP_COLUMN", {"relation": "R", "column": "q"}),
                        schema)
    with pytest.raises(ValidationError):
        compile_forward(SmoSpec("ADD_COLUMN", {"relation": "R", "column": "x",
                                               "filler": "null"}), schema)
    with pytest.raises(ValidationError):
        SmoSpec("MERGE_COLUMN", {}, variant=2)
    with pytest.raises(ValidationError):
        SmoSpec("TRUNCATE", {})


def test_dropping_a_required_parameter_names_it():
    for kind, op in OPERATORS.items():
        params = op.demo[1]
        for key in op.params.keys() - op.optional.keys():
            rest = {k: v for k, v in params.items() if k != key}
            with pytest.raises(ValidationError,
                               match=f"{kind} needs parameter '{key}'$"):
                SmoSpec(kind, rest)


def test_undeclared_parameter_is_named_with_the_accepted_ones():
    for kind, op in OPERATORS.items():
        with pytest.raises(ValidationError) as err:
            SmoSpec(kind, {**op.demo[1], "extra": "x"})
        assert str(err.value) == (f"{kind} has no parameter 'extra'; "
                                  f"it takes {list(op.params)}")


def _plan_fields(plan) -> dict:
    return {f.name: getattr(plan, f.name) for f in dataclasses.fields(plan)
            if f.name != "smo"}


def test_omitted_optional_parameter_compiles_like_its_default():
    checked = 0
    for kind, op in OPERATORS.items():
        schema, params = op.demo
        for key, default in op.optional.items():
            omitted = SmoSpec(kind, {k: v for k, v in params.items() if k != key})
            if default is None:
                # nothing names the default; it matters only to the exact
                # inverse, which the plans without an inverse function skip
                explicit, invfns = SmoSpec(kind, params), (False,)
            else:
                explicit = SmoSpec(kind, {**params, key: params[default]})
                invfns = (False, True)
            assert compile_forward(omitted, schema) == compile_forward(explicit, schema)
            for level, side in RESOURCE_CONFIGS:
                for invfn in invfns:
                    assert _plan_fields(
                        compile_inverse(omitted, schema, level, side, invfn)
                    ) == _plan_fields(
                        compile_inverse(explicit, schema, level, side, invfn)
                    ), (kind, key, level, side, invfn)
            checked += 1
    assert checked == 6


def test_readme_lists_every_operators_parameters():
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    listed = {}
    for kind, entries in re.findall(r"^- `([A-Z_]+)`: (.*)$", text, re.M):
        params, optional = {}, {}
        for entry in [] if entries == "no parameters" else entries.split(", "):
            key, shape, default = re.fullmatch(
                r"`(\w+)` ([a-z ]+?)(?: = (`\w+`|none))?", entry).groups()
            params[key] = shape
            if default:
                optional[key] = None if default == "none" else default.strip("`")
        listed[kind] = (list(params.items()), optional)
    assert listed == {kind: (list(op.params.items()), dict(op.optional))
                      for kind, op in OPERATORS.items()}


def test_script_json_bit_exact_example():
    step = {"kind": "MERGE_COLUMN", "relation": "R", "columns": ["mod1", "mod2"],
            "target_column": "sum", "function": "dec_add", "variant": 1}
    script = script_from_json({"steps": [step]})
    assert script[0].kind == "MERGE_COLUMN"
    assert script[0].params["columns"] == ["mod1", "mod2"]
    assert script_to_json(script) == {"steps": [step]}


def test_predicted_type_examples():
    schema = Schema.of(RelationSchema("R", ("x", "y", "z")),
                       RelationSchema("V", ("x", "w")))
    join = SmoSpec("JOIN_TABLE", {"left": "R", "right": "V", "left_column": "x",
                                  "right_column": "x", "target": "T"})
    assert compile_inverse(join, schema, "none", False, False).predicted(
        InstanceFeatures(has_dangling=True)) == InverseType.RELAXED
    merge_col = SmoSpec("MERGE_COLUMN", {"relation": "R", "columns": ["y", "z"],
                                         "target_column": "s",
                                         "function": "dec_add"})
    assert compile_inverse(merge_col, schema, "how", True, True).predicted(
        InstanceFeatures(has_duplicates=True)) == InverseType.EXACT
    rename = SmoSpec("RENAME_TABLE", {"table": "R", "to": "S"})
    assert compile_inverse(rename, schema, "none", False, False).predicted(
        InstanceFeatures()) == InverseType.EXACT


def test_split_column_without_recombine_predicts_its_projection():
    """An inverse function alone does not make a SPLIT_COLUMN exact: with no
    recombine function its inverse is the projection, which keeps tuples."""
    schema = Schema.of(RelationSchema("R", ("name", "code")))
    smo = SmoSpec("SPLIT_COLUMN", {"relation": "R", "column": "code",
                                   "target_columns": ["head", "tail"],
                                   "functions": ["split_pipe_head",
                                                 "split_pipe_tail"]})
    instance = inst(schema, R=[("a", "x|y"), ("b", "u|v")])
    plan = compile_inverse(smo, schema, "none", False, True)
    assert [format_tgd(t) for t in plan.mapping.sigma] == [
        "R(a,b,c) -> EXISTS D: R(a,D)"]
    reg = default_registry()
    (step,) = evolve(instance, [smo], "none").steps
    reconstructed = execute_plan(plan, step, step.target, reg,
                                 *seed_allocators(step.source, step.target))
    achieved = classify_report(step.source, reconstructed, step.mapping, reg).type
    assert achieved == InverseType.TP_RELAXED
    assert at_least(achieved, plan.predicted(instance_features(smo, instance, reg)))


def test_side_table_specs_cover_requirements():
    schema = Schema.of(RelationSchema("R", ("id", "name")),
                       RelationSchema("V", ("name", "subject")))
    join = SmoSpec("JOIN_TABLE", {"left": "R", "right": "V",
                                  "left_column": "name", "right_column": "name",
                                  "target": "T"})
    assert [(s.kind, s.relation) for s in side_table_specs(join, schema)] == [
        ("dangling", "R"), ("dangling", "V")
    ]
    drop = SmoSpec("DROP_TABLE", {"table": "R"})
    (spec,) = side_table_specs(drop, schema)
    assert spec.kind == "projection" and spec.attributes == ()


def test_inverse_function_ready():
    reg = default_registry()
    mc = SmoSpec("MERGE_COLUMN", {"relation": "R", "columns": ["y", "z"],
                                  "target_column": "s", "function": "dec_add"})
    assert inverse_function_ready(mc, Schema.of(RelationSchema("R", ("x", "y", "z"))),
                                  reg)
    schema = Schema.of(RelationSchema("R", ("x", "c")))
    sc = SmoSpec("SPLIT_COLUMN", {"relation": "R", "column": "c",
                                  "target_columns": ["h", "t"],
                                  "functions": ["split_pipe_head",
                                                "split_pipe_tail"]})
    assert not inverse_function_ready(sc, schema, reg)
    sc2 = SmoSpec("SPLIT_COLUMN", {**sc.params, "recombine": "concat_pipe"})
    assert inverse_function_ready(sc2, schema, reg)


def test_catalog_entries_render():
    entries = catalog_entries()
    assert [e["kind"] for e in entries] == list(ALL_KINDS)
    for e in entries:
        assert e["forward"], e["kind"]
        assert e["inverse_tgds"], e["kind"]


def test_roundtrip_lower_bound_sampled():
    """Small inline version of the full acceptance sweep."""
    rng = random.Random(42)
    for kind, cases in SMO_CASES.items():
        for case in cases:
            for _ in range(3):
                instance, smo = case(rng)
                for mode, side in RESOURCE_CONFIGS:
                    run = evolve(instance, [smo], mode, build_side_tables=side)
                    result = backchase(run)
                    step = result.steps[0]
                    assert at_least(step.achieved, step.predicted), (
                        kind, mode, side, step.achieved, step.predicted
                    )


def test_class_one_exact_everywhere():
    rng = random.Random(17)
    class_one = [k for k, c in EXPECTED_CLASSES.items() if c == ("I",)]
    for kind in class_one:
        for case in SMO_CASES[kind]:
            for _ in range(4):
                instance, smo = case(rng)
                for mode, side in [("none", False), ("how", True)]:
                    run = evolve(instance, [smo], mode, build_side_tables=side)
                    result = backchase(run)
                    assert result.steps[0].achieved == InverseType.EXACT, (
                        kind, mode, side
                    )


def test_malformed_params_raise_validation_errors():
    schema = Schema.of(RelationSchema("R", ("x", "y")))
    with pytest.raises(ValidationError):
        compile_forward(SmoSpec("ADD_COLUMN", {
            "relation": "R", "column": "w",
            "filler": {"function": "concat_pipe", "args": ["x", "nope"]}}),
            schema)
    with pytest.raises(ValidationError):
        compile_forward(SmoSpec("DECOMPOSE_TABLE", {
            "table": "R", "parts": [{"nom": "A"},
                                    {"name": "B", "attributes": ["y"]}]}),
            schema)
    with pytest.raises(ValidationError):
        compile_forward(SmoSpec("COPY_COLUMN", {
            "relation": "R", "source": "R", "join": "x=y",
            "column": "y"}), schema)


def _rows(rng: random.Random, schema: Schema, pools: dict) -> Instance:
    """1-6 rows per relation drawn with replacement, so that a relation may
    hold the same values twice."""
    facts = {}
    for rel in schema.relations:
        facts[rel.name] = [
            Fact(TupleId(relation_tag(rel.name), i + 1),
                 tuple(const(rng.choice(pools.get(a, TEXT_POOL)))
                       for a in rel.attributes))
            for i in range(rng.randint(1, 6))
        ]
    return Instance(schema, facts)


def _collides(keys) -> bool:
    return any(a == b for a, b in itertools.combinations(keys, 2))


def test_join_danglings_match_naive_triggers():
    rng = random.Random(71)
    schema = Schema.of(RelationSchema("R", ("id", "name")),
                       RelationSchema("V", ("name", "subject")),
                       RelationSchema("W", ("name",)))
    smo = SmoSpec("JOIN_TABLE", {"left": "R", "right": "V", "left_column": "name",
                                 "right_column": "name", "target": "T"})
    pools = {"name": ("a", "b", "c")}
    mapping = compile_forward(smo, schema)
    seen = set()
    for _ in range(200):
        instance = _rows(rng, schema, pools)
        matched = {f.id for _, _, combo in naive_trigger_matches(instance, mapping)
                   for f in combo}
        dangling = any(f.id not in matched
                       for rel in ("R", "V") for f in instance.facts(rel))
        features = instance_features(smo, instance)
        assert features == InstanceFeatures(has_dangling=dangling)
        seen.add(dangling)
    assert seen == {False, True}


def _merge_key(fact, reg):
    x, y, z = fact.values
    return x, reg.call("dec_add", (y, z))


def _split_key(fact, reg):
    name, code = fact.values
    return (name, reg.call("split_pipe_head", (code,)),
            reg.call("split_pipe_tail", (code,)))


# kind -> (params, schema, value pools, the row's vector in the operator's
# output, computed without the chase)
DUPLICATE_CASES = {
    "DROP_COLUMN": ({"relation": "R", "column": "z"},
                    Schema.of(RelationSchema("R", ("x", "y", "z"))), {},
                    lambda fact, reg: fact.values[:2]),
    "MERGE_COLUMN": ({"relation": "R", "columns": ["y", "z"],
                      "target_column": "s", "function": "dec_add"},
                     Schema.of(RelationSchema("R", ("x", "y", "z"))),
                     {"x": ("a", "b"), "y": NUM_POOL, "z": NUM_POOL},
                     _merge_key),
    "SPLIT_COLUMN": ({"relation": "R", "column": "code",
                      "target_columns": ["head", "tail"],
                      "functions": ["split_pipe_head", "split_pipe_tail"],
                      "target": "T"},
                     Schema.of(RelationSchema("R", ("name", "code"))),
                     {"name": ("a", "b"), "code": ("a|b", "a|c", "b|b")},
                     _split_key),
    "DECOMPOSE_TABLE": ({"table": "R",
                         "parts": [{"name": "R1", "attributes": ["x", "y"]},
                                   {"name": "R2", "attributes": ["z", "y"]}]},
                        Schema.of(RelationSchema("R", ("x", "y", "z"))), {},
                        lambda fact, reg: (fact.values[1],)),
}


@pytest.mark.parametrize("kind", sorted(DUPLICATE_CASES))
def test_duplicates_match_brute_force_collisions(kind):
    params, schema, pools, output_key = DUPLICATE_CASES[kind]
    smo = SmoSpec(kind, params)
    reg = default_registry()
    rng = random.Random(73)
    seen = set()
    for _ in range(200):
        instance = _rows(rng, schema, pools)
        rows = instance.facts(schema.relations[0].name)
        duplicates = _collides(output_key(f, reg) for f in rows)
        features = instance_features(smo, instance, reg)
        assert features == InstanceFeatures(has_duplicates=duplicates)
        seen.add(duplicates)
    assert seen == {False, True}


@pytest.mark.parametrize("kind", ["COPY_COLUMN", "MOVE_COLUMN"])
def test_features_nothing_predicts_from_are_not_computed(kind):
    """COPY_COLUMN is class I and MOVE_COLUMN's prediction reads only the
    resources, so neither looks at the instance, danglings or not."""
    smo = SmoSpec(kind, COPY_COL_PARAMS)
    schema = Schema.of(RelationSchema("R", ("id", "name")),
                       RelationSchema("V", ("name", "subject")))
    instance = inst(schema, R=[("1", "a"), ("2", "zz")], V=[("a", "m")])
    assert instance_features(smo, instance) == InstanceFeatures()
    for features in (InstanceFeatures(), InstanceFeatures(True, True)):
        for mode, side in RESOURCE_CONFIGS:
            plan = compile_inverse(smo, schema, mode, side, False)
            assert plan.predicted(features) == plan.predicted()
