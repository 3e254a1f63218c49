import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backchase import (
    Fact,
    Instance,
    InverseType,
    RelationSchema,
    Schema,
    SmoSpec,
    TupleId,
    ValidationError,
    classify,
    const,
    format_polynomial,
    instances_equal,
    null,
)
from backchase.analysis import at_least, strength, weakest
from backchase.pipeline import backchase, evolve, roundtrip_report
from support import inst, random_script, random_ground_instance, vectors_of


def test_single_join_step(join_case):
    run = evolve(join_case["source"], join_case["script"], "how",
                 build_side_tables=True)
    assert sorted(vectors_of(run.final, "T")) == [
        ("1", "Alice", "IT"), ("1", "Alice", "Math")
    ]
    (step,) = run.steps
    assert {str(k): [str(r.ref) for r in t.rows]
            for k, t in sorted(step.side_tables.items())} == {
        "R_dangling": ["r2"], "V_dangling": [],
    }


def test_empty_script_is_identity(join_case):
    run = evolve(join_case["source"], [], "none")
    assert run.final is join_case["source"]
    result = backchase(run)
    assert result.composed == InverseType.EXACT
    assert result.instance is join_case["source"]


def test_merge_column_step_values(merge_column_case):
    run = evolve(merge_column_case["source"], merge_column_case["script"], "how")
    assert sorted(vectors_of(run.final, "T")) == [
        ("Alice", "5.0"), ("Bob", "4.7")
    ]


def test_join_backchase_with_side_tables_restores_dangling(join_case):
    run = evolve(join_case["source"], join_case["script"], "how",
                 build_side_tables=True)
    result = backchase(run)
    assert instances_equal(result.instance, join_case["source"])
    assert result.composed == InverseType.EXACT


def test_merge_column_backchase_without_provenance(merge_column_case):
    run = evolve(merge_column_case["source"], merge_column_case["script"], "none")
    result = backchase(run)
    assert result.composed == InverseType.RELAXED
    rows = [tuple(v for v in f.values) for f in result.instance.facts("R")]
    assert len(rows) == 2
    assert all(isinstance(v, type(null(1))) for row in rows for v in row[1:])


def test_two_step_composition_is_minimum(merge_column_case):
    src = merge_column_case["source"]
    script = [SmoSpec("COPY_TABLE", {"table": "R", "copy": "V"}, variant=2),
              SmoSpec("MERGE_COLUMN", {"relation": "R",
                                       "columns": ["mod1", "mod2"],
                                       "target_column": "sum",
                                       "function": "dec_add"})]
    run = evolve(src, script, "none")
    result = backchase(run)
    per_step = [s.achieved for s in result.steps]
    assert result.composed == weakest(per_step)
    assert result.composed == InverseType.RELAXED
    # the end-to-end pair is at least as strong as the composition
    end_to_end = classify(src, result.instance, run.steps[0].mapping)
    assert strength(end_to_end) >= strength(result.composed)


def test_flagged_move_composes_to_none():
    schema = Schema.of(RelationSchema("R", ("id", "name")),
                       RelationSchema("V", ("name", "subject")))
    src = inst(schema, R=[("1", "a")], V=[("a", "x")])
    move = SmoSpec("MOVE_COLUMN", {
        "relation": "R", "source": "V",
        "join": {"column": "name", "source_column": "name"},
        "column": "subject"})
    result = backchase(evolve(src, [SmoSpec("NOP"), move], "none"))
    assert result.steps[1].plan.flagged_non_invertible
    assert result.composed == InverseType.NONE


def test_move_column_with_side_tables_is_exact():
    schema = Schema.of(RelationSchema("R", ("id", "name")),
                       RelationSchema("V", ("name", "subject")))
    src = inst(schema,
               R=[("1", "a"), ("2", "b"), ("3", "z")],
               V=[("a", "x"), ("a", "y"), ("b", "x")])
    move = SmoSpec("MOVE_COLUMN", {
        "relation": "R", "source": "V",
        "join": {"column": "name", "source_column": "name"},
        "column": "subject"})
    run = evolve(src, [move], "how", build_side_tables=True)
    result = backchase(run)
    assert result.steps[0].achieved == InverseType.EXACT


def test_roundtrip_report_merge_table(merge_table_case):
    report = roundtrip_report(merge_table_case["source"],
                              merge_table_case["script"], "how")
    (step,) = report["steps"]
    assert step["type"] == "exact"
    assert step["predicted"] == "exact"
    assert step["meets_prediction"] is True
    assert {"hom_forward", "hom_backward", "cardinality_equal",
            "de_equivalent"} <= set(step)
    assert report["composed"]["type"] == "exact"

    plain = roundtrip_report(merge_table_case["source"],
                             merge_table_case["script"], "none")
    assert plain["steps"][0]["type"] == "result_equivalent"


def test_roundtrip_report_nop(join_case):
    report = roundtrip_report(join_case["source"], [SmoSpec("NOP")], "none")
    assert report["composed"]["type"] == "exact"
    assert report["steps"][0]["post_steps"] == []


def test_schema_chain_break_names_step(join_case):
    bad = [SmoSpec("DROP_TABLE", {"table": "R"}),
           SmoSpec("DROP_TABLE", {"table": "R"})]
    with pytest.raises(ValidationError) as err:
        evolve(join_case["source"], bad, "none")
    assert "step 1" in str(err.value)


def test_side_tables_require_provenance(join_case):
    with pytest.raises(ValidationError):
        evolve(join_case["source"], join_case["script"], "none",
               build_side_tables=True)


def test_drop_table_sidecar_preserves_cardinality():
    schema = Schema.of(RelationSchema("R", ("x", "y")),
                       RelationSchema("V", ("x", "y")))
    src = inst(schema, R=[("1", "2"), ("3", "4"), ("5", "6")], V=[("a", "b")])
    run = evolve(src, [SmoSpec("DROP_TABLE", {"table": "R"})], "why",
                 build_side_tables=True)
    result = backchase(run)
    assert result.steps[0].achieved == InverseType.TP_RELAXED
    assert len(result.instance.facts("R")) == 3
    assert all(
        all(isinstance(v, type(null(1))) for v in f.values)
        for f in result.instance.facts("R")
    )


def test_drop_table_without_side_tables_is_relaxed():
    schema = Schema.of(RelationSchema("R", ("x", "y")),
                       RelationSchema("V", ("x", "y")))
    src = inst(schema, R=[("1", "2")], V=[("a", "b")])
    result = backchase(evolve(src, [SmoSpec("DROP_TABLE", {"table": "R"})],
                              "none"))
    assert result.steps[0].achieved == InverseType.RELAXED
    assert result.instance.facts("R") == ()


def test_random_scripts_compose_to_minimum():
    rng = random.Random(31)
    schema = Schema.of(RelationSchema("R", ("x", "y", "z")),
                       RelationSchema("V", ("x", "y", "z")))
    for trial in range(12):
        script = random_script(rng, schema, rng.randint(2, 4))
        src = random_ground_instance(rng, schema, max_rows=8)
        mode, side = rng.choice([("none", False), ("why", False),
                                 ("how", True)])
        run = evolve(src, script, mode, build_side_tables=side)
        result = backchase(run)
        assert result.composed == weakest(s.achieved for s in result.steps)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_minted_ids_of_digit_ending_relations_parse_back(seed):
    # the scripts mint relations W1, W2, ...; R1 and T2 end in a digit too
    rng = random.Random(seed)
    schema = Schema.of(RelationSchema("R1", ("x", "y", "z")),
                       RelationSchema("T2", ("x", "y", "z")))
    script = random_script(rng, schema, rng.randint(1, 4))
    src = random_ground_instance(rng, schema, max_rows=8)
    mode, side = rng.choice([("none", False), ("why", False), ("how", True)])
    run = evolve(src, script, mode, build_side_tables=side)
    result = backchase(run)
    for instance in ([s.target for s in run.steps]
                     + [s.reconstructed for s in result.steps]):
        ids = [f.id for _, f in instance.iter_facts()]
        assert all(TupleId.parse(str(t)) == t for t in ids), ids
        assert len({str(t) for t in ids}) == len(ids)
    for step in run.steps:
        assert all(TupleId.parse(str(t)) == t for t in step.store.annotations)


def test_provenance_stores_are_per_step(merge_column_case):
    src = merge_column_case["source"]
    script = [SmoSpec("COPY_TABLE", {"table": "R", "copy": "V"}, variant=2),
              SmoSpec("MERGE_COLUMN", {"relation": "R",
                                       "columns": ["mod1", "mod2"],
                                       "target_column": "sum",
                                       "function": "dec_add"})]
    run = evolve(src, script, "how")
    ids_step0 = {str(t) for t in run.steps[0].store.annotations}
    ids_step1 = {str(t) for t in run.steps[1].store.annotations}
    assert ids_step0 and ids_step1
    assert set(str(f.id) for _, f in run.steps[0].target.iter_facts()) >= ids_step0
    assert set(str(f.id) for _, f in run.steps[1].target.iter_facts()) >= ids_step1


def test_restricted_backchase_is_advisory(join_case):
    run = evolve(join_case["source"], join_case["script"], "how",
                 build_side_tables=True)
    full = run.final
    subset = Instance(full.schema, {
        "T": [f for f in full.facts("T")
              if f.values[2] == const("Math")],
    })
    result = backchase(run, restrict_to=subset)
    rows = sorted(vectors_of(result.instance, "R"))
    assert ("1", "Alice") in rows
    assert ("2", "Bob") in rows  # the side table still restores danglings
    assert sorted(vectors_of(result.instance, "V")) == [("Alice", "Math")]


def test_restriction_must_be_subset(join_case):
    run = evolve(join_case["source"], join_case["script"], "none")
    bogus = Instance(run.final.schema, {
        "T": [Fact(TupleId("x", 1), (const("9"), const("Zed"), const("Q")))],
    })
    with pytest.raises(ValidationError):
        backchase(run, restrict_to=bogus)


def test_downgrade_note_when_inverse_function_missing(merge_column_case):
    from backchase.functions import FunctionRegistry, RegisteredFunction
    from backchase.functions import default_registry

    base = default_registry()
    no_inverse = FunctionRegistry()
    no_inverse.register(RegisteredFunction(
        "dec_add", 2, base.get("dec_add").apply, None))
    run = evolve(merge_column_case["source"], merge_column_case["script"],
                 "how", build_side_tables=True, functions=no_inverse)
    result = backchase(run, functions=no_inverse)
    step = result.steps[0]
    assert step.achieved == InverseType.TP_RELAXED
    assert any("downgraded" in n for n in step.plan.notes)
