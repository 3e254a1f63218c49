import itertools
import random

import pytest

from backchase import (
    Fact,
    Instance,
    InverseType,
    Null,
    RelationSchema,
    Schema,
    SchemaMapping,
    SchemaMismatch,
    TupleId,
    classify,
    classify_report,
    compile_forward,
    const,
    data_exchange_equivalent,
    find_homomorphism,
    isomorphic,
    null,
    parse_tgd,
)
from backchase.analysis import (
    abstract_function_heads,
    at_least,
    strength,
    verify_homomorphism,
    weakest,
)
from backchase import storage
from backchase.pipeline import backchase, evolve
from support import (
    RESOURCE_CONFIGS,
    SMO_CASES,
    brute_force_hom_exists,
    brute_force_isomorphic,
    classify_report_reference,
    inst,
)

R1 = Schema.of(RelationSchema("R", ("x",)))
R2 = Schema.of(RelationSchema("R", ("x", "y")))
R3 = Schema.of(RelationSchema("R", ("x", "y", "z")))
RV = Schema.of(RelationSchema("R", ("x", "y")), RelationSchema("V", ("y", "z")))


def facts(schema, rows, rel="R", tag="r"):
    return Instance(schema, {rel: [
        Fact(TupleId(tag, i + 1),
             tuple(null(v) if isinstance(v, int) else const(v) for v in row))
        for i, row in enumerate(rows)
    ]})


def test_identity_homomorphism(join_case):
    src = join_case["source"]
    hom = find_homomorphism(src, src)
    assert hom is not None and verify_homomorphism(hom, src, src)


def test_null_rows_map_onto_ground_rows():
    reconstructed = facts(R3, [("Alice", 1, 2), ("Bob", 3, 4)])
    original = facts(R3, [("Alice", "1.7", "3.3"), ("Bob", "2.0", "2.7"),
                          ("Alice", "3.0", "2.0")])
    hom = find_homomorphism(reconstructed, original)
    assert hom is not None and verify_homomorphism(hom, reconstructed, original)
    assert brute_force_hom_exists(reconstructed, original)


def test_constants_are_rigid():
    assert find_homomorphism(facts(R1, [("1",)]), facts(R1, [("2",)])) is None


def test_shared_null_needs_consistent_image():
    shared = Instance(R2, {"R": [
        Fact(TupleId("r", 1), (const("a"), null(1))),
        Fact(TupleId("r", 2), (const("b"), null(1))),
    ]})
    target_ok = facts(R2, [("a", "v"), ("b", "v")])
    target_bad = facts(R2, [("a", "v"), ("b", "w")])
    assert find_homomorphism(shared, target_ok) is not None
    assert find_homomorphism(shared, target_bad) is None
    assert brute_force_hom_exists(shared, target_ok)
    assert not brute_force_hom_exists(shared, target_bad)


def test_hom_schema_mismatch():
    with pytest.raises(SchemaMismatch):
        find_homomorphism(facts(R1, [("1",)]), facts(R2, [("1", "2")]))


def test_hom_agrees_with_brute_force_random():
    rng = random.Random(11)
    values = ["k1", "k2", "k3", 1, 2, 3, 4]
    for _ in range(300):
        rows_a = [tuple(rng.choice(values) for _ in range(2))
                  for _ in range(rng.randint(0, 4))]
        rows_b = [tuple(rng.choice(values) for _ in range(2))
                  for _ in range(rng.randint(0, 4))]
        a, b = facts(R2, rows_a), facts(R2, rows_b)
        assert (find_homomorphism(a, b) is not None) == brute_force_hom_exists(a, b)


def pair(r_rows, v_rows):
    """R(x, y), V(y, z) from rows whose ints are null labels."""
    return Instance(RV, {
        "R": facts(R2, r_rows).facts("R"),
        "V": facts(R2, v_rows, tag="v").facts("R"),
    })


def null_blocks(instance):
    """Connected components of shared nulls, by plain graph search."""
    nulls = [{v.label for v in f.values if isinstance(v, Null)}
             for _, f in instance.iter_facts()]
    nulls = [labels for labels in nulls if labels]
    blocks = 0
    while nulls:
        blocks += 1
        reach = set(nulls.pop())
        grown = True
        while grown:
            grown = False
            for labels in list(nulls):
                if labels & reach:
                    reach |= labels
                    nulls.remove(labels)
                    grown = True
    return blocks


def test_hom_agrees_with_brute_force_across_relations_and_blocks():
    rng = random.Random(29)
    values = ["k1", "k2", "k3", 1, 2, 3, 4]
    multi_block = shared_across = found = 0
    for _ in range(400):
        def rows():
            return [tuple(rng.choice(values) for _ in range(2))
                    for _ in range(rng.randint(0, 4))]

        a = pair(rows(), rows())
        b = pair([tuple(rng.choice(values[:4]) for _ in range(2))
                  for _ in range(rng.randint(1, 5))],
                 [tuple(rng.choice(values[:4]) for _ in range(2))
                  for _ in range(rng.randint(1, 5))])
        hom = find_homomorphism(a, b)
        assert (hom is not None) == brute_force_hom_exists(a, b)
        if hom is not None:
            assert verify_homomorphism(hom, a, b)
            found += 1
        multi_block += null_blocks(a) >= 2
        r_nulls, v_nulls = ({v.label for f in a.facts(rel) for v in f.values
                             if isinstance(v, Null)} for rel in ("R", "V"))
        shared_across += bool(r_nulls & v_nulls)
    assert multi_block >= 100 and shared_across >= 100 and found >= 40


# ---------------------------------------------------------------------------
# isomorphism


def test_isomorphic_relabeling():
    a = facts(R2, [("a", 1), ("b", 2)])
    b = facts(R2, [("a", 5), ("b", 9)])
    assert isomorphic(a, b)


def test_null_sharing_structure_blocks_isomorphism():
    a = Instance(R2, {"R": [
        Fact(TupleId("r", 1), (const("a"), null(1))),
        Fact(TupleId("r", 2), (const("b"), null(1))),
    ]})
    b = facts(R2, [("a", 1), ("b", 2)])
    assert not isomorphic(a, b)


def test_isomorphism_beyond_canonical_equality():
    from backchase import instances_equal
    a = Instance(R2, {"R": [
        Fact(TupleId("r", 1), (const("a"), null(1))),
        Fact(TupleId("r", 2), (const("a"), null(2))),
        Fact(TupleId("r", 3), (const("c"), null(1))),
    ]})
    b = Instance(R2, {"R": [
        Fact(TupleId("r", 1), (const("a"), null(1))),
        Fact(TupleId("r", 2), (const("a"), null(2))),
        Fact(TupleId("r", 3), (const("c"), null(2))),
    ]})
    assert isomorphic(a, b)
    # the pair also exercises the classifier's second level
    mapping = SchemaMapping(R2, Schema.of(RelationSchema("T", ("x", "y"))),
                            (parse_tgd("R(a, b) -> T(a, b)"),))
    if not instances_equal(a, b):
        assert classify(a, b, mapping) == InverseType.CLASSICAL


def test_ground_isomorphism_is_multiset_equality():
    a = facts(R2, [("a", "b"), ("a", "b")])
    b = facts(R2, [("a", "b"), ("a", "c")])
    assert not isomorphic(a, b)
    assert isomorphic(a, facts(R2, [("a", "b"), ("a", "b")]))


def relabeled(instance, rng):
    """A copy with null labels permuted and facts shuffled per relation."""
    labels = sorted({v.label for _, f in instance.iter_facts()
                     for v in f.values if isinstance(v, Null)})
    image = dict(zip(labels, rng.sample(range(10, 10 + len(labels)), len(labels))))
    out = {}
    for rel in instance.schema.names():
        rows = [Fact(f.id, tuple(null(image[v.label])
                                 if isinstance(v, Null) else v
                                 for v in f.values))
                for f in instance.facts(rel)]
        rng.shuffle(rows)
        out[rel] = rows
    return Instance(instance.schema, out)


def test_isomorphic_agrees_with_brute_force():
    rng = random.Random(31)
    values = ["k1", "k2", 1, 2, 3, 4]
    positives = 0
    for _ in range(400):
        def rows():
            return [tuple(rng.choice(values) for _ in range(2))
                    for _ in range(rng.randint(0, 4))]

        a = pair(rows(), rows())
        roll = rng.random()
        if roll < 0.4:
            b = relabeled(a, rng)
        elif roll < 0.7:
            # same shape, one value moved: often still isomorphic by accident
            r_rows, v_rows = rows(), rows()
            b = relabeled(pair(r_rows, v_rows), rng)
            a = pair(r_rows[:-1] + [(r_rows[-1][0], rng.choice(values))]
                     if r_rows else r_rows, v_rows)
        else:
            b = pair(rows(), rows())
        expected = brute_force_isomorphic(a, b)
        assert isomorphic(a, b) == expected
        assert isomorphic(b, a) == expected
        positives += expected
    assert 150 <= positives <= 350


# ---------------------------------------------------------------------------
# data exchange equivalence


def join_mapping():
    source = Schema.of(RelationSchema("R", ("id", "name")),
                       RelationSchema("V", ("name", "subject")))
    target = Schema.of(RelationSchema("T", ("id", "name", "subject")))
    return SchemaMapping(source, target,
                         (parse_tgd("R(a, b) AND V(b, c) -> T(a, b, c)"),))


def test_de_equivalence_reflexive(join_case):
    src = join_case["source"]
    mapping = compile_forward(join_case["script"][0], src.schema)
    assert data_exchange_equivalent(src, src, mapping)


def test_dangling_rows_are_invisible_to_exchange(join_case):
    src = join_case["source"]
    mapping = compile_forward(join_case["script"][0], src.schema)
    trimmed = Instance(src.schema, {
        "R": [f for f in src.facts("R") if f.values[0] != const("2")],
        "V": list(src.facts("V")),
    })
    assert data_exchange_equivalent(src, trimmed, mapping)


def test_lost_join_partner_breaks_exchange():
    schema = join_mapping().source
    a = inst(schema, R=[("1", "x")], V=[("x", "y")])
    b = Instance(schema, {})
    assert not data_exchange_equivalent(a, b, join_mapping())


def test_function_heads_are_abstracted():
    source = Schema.of(RelationSchema("R", ("x", "y", "z")))
    target = Schema.of(RelationSchema("T", ("x", "s")))
    mapping = SchemaMapping(source, target,
                            (parse_tgd("R(a, b, c) -> T(a, dec_add(b, c))"),))
    abstract = abstract_function_heads(mapping)
    (tgd,) = abstract.sigma
    assert not list(tgd.function_terms())
    assert tgd.existential_vars
    ground = facts(R3, [("Alice", "1.7", "3.3")])
    nulled = facts(R3, [("Alice", 1, 2)])
    assert data_exchange_equivalent(ground, nulled, mapping)


# ---------------------------------------------------------------------------
# classification


def test_classify_identity_is_exact(join_case):
    src = join_case["source"]
    mapping = compile_forward(join_case["script"][0], src.schema)
    assert classify(src, src, mapping) == InverseType.EXACT


def test_copy_roundtrip_classifies_exact():
    from backchase import SmoSpec
    src = facts(R3, [("a", "b", "c"), ("d", "e", "f")])
    run = evolve(src, [SmoSpec("COPY_TABLE", {"table": "R", "copy": "V"})], "none")
    result = backchase(run)
    assert result.steps[0].achieved == InverseType.EXACT


def test_merge_table_union_without_provenance(merge_table_case):
    run = evolve(merge_table_case["source"], merge_table_case["script"], "none")
    result = backchase(run)
    assert result.steps[0].achieved == InverseType.RESULT_EQUIVALENT


def test_join_with_dangling_row_classifies_relaxed(join_case):
    run = evolve(join_case["source"], join_case["script"], "none")
    result = backchase(run)
    assert result.steps[0].achieved == InverseType.RELAXED


def test_tp_relaxed_requires_matching_cardinality():
    original = facts(R2, [("a", "b"), ("a", "c")])
    reconstructed = facts(R2, [("a", 1)])
    mapping = SchemaMapping(R2, Schema.of(RelationSchema("T", ("x",))),
                            (parse_tgd("R(a, b) -> T(a)"),))
    report = classify_report(original, reconstructed, mapping)
    assert not report.cardinality_equal
    assert report.type != InverseType.TP_RELAXED
    assert report.type == InverseType.RELAXED


def test_classification_report_fields(join_case):
    src = join_case["source"]
    mapping = compile_forward(join_case["script"][0], src.schema)
    report = classify_report(src, src, mapping)
    assert report.to_json() == {
        "type": "exact",
        "hom_forward": True,
        "hom_backward": True,
        "cardinality_equal": True,
        "de_equivalent": True,
    }


def _weaker_conditions_hold(report):
    t = report.type
    if t in (InverseType.EXACT, InverseType.CLASSICAL):
        return (report.hom_forward and report.hom_backward
                and report.cardinality_equal and report.de_equivalent)
    if t == InverseType.TP_RELAXED:
        return (report.hom_forward and report.cardinality_equal
                and report.de_equivalent)
    if t == InverseType.RELAXED:
        return report.hom_forward and report.de_equivalent
    if t == InverseType.RESULT_EQUIVALENT:
        return report.de_equivalent
    return True


def test_downward_closure_sampled():
    rng = random.Random(23)
    mapping = SchemaMapping(R2, Schema.of(RelationSchema("T", ("x",))),
                            (parse_tgd("R(a, b) -> T(a)"),))
    values = ["k1", "k2", "k3", 1, 2]
    for _ in range(120):
        rows_a = [tuple(rng.choice(values) for _ in range(2))
                  for _ in range(rng.randint(0, 4))]
        rows_b = [tuple(rng.choice(values) for _ in range(2))
                  for _ in range(rng.randint(0, 4))]
        report = classify_report(facts(R2, rows_a), facts(R2, rows_b), mapping)
        assert _weaker_conditions_hold(report)


def test_strength_order_and_weakest():
    order = [InverseType.NONE, InverseType.RESULT_EQUIVALENT,
             InverseType.RELAXED, InverseType.TP_RELAXED,
             InverseType.CLASSICAL, InverseType.EXACT]
    assert [strength(t) for t in order] == sorted(strength(t) for t in order)
    assert weakest([InverseType.EXACT, InverseType.RELAXED]) == InverseType.RELAXED
    assert weakest([]) == InverseType.EXACT
    assert at_least(InverseType.EXACT, InverseType.RELAXED)
    assert not at_least(InverseType.NONE, InverseType.RESULT_EQUIVALENT)


# ---------------------------------------------------------------------------
# the short-circuit classifier against the full one


def assert_classifications_agree(run):
    result = backchase(run)
    for step, inversion in zip(run.steps, result.steps):
        expected = classify_report_reference(step.source, inversion.reconstructed,
                                             step.mapping)
        assert inversion.classification == expected, (step.smo, expected)
        assert classify_report(step.source, inversion.reconstructed,
                               step.mapping) == expected
    return result


def test_short_circuit_matches_reference_on_fixtures(fixtures_dir):
    sources = sorted(fixtures_dir.glob("*_source.json"))
    assert len(sources) == 3
    for source_path in sources:
        prefix = source_path.name[: -len("source.json")]
        source = storage.load_instance(source_path)
        script = storage.load_script(fixtures_dir / f"{prefix}script.json")
        for mode, side in RESOURCE_CONFIGS:
            assert_classifications_agree(
                evolve(source, script, mode, build_side_tables=side))


def test_short_circuit_matches_reference_on_operator_roundtrips():
    rng = random.Random(53)
    seen = set()
    for kind, cases in SMO_CASES.items():
        for case in cases:
            instance, smo = case(rng)
            for mode, side in RESOURCE_CONFIGS:
                result = assert_classifications_agree(
                    evolve(instance, [smo], mode, build_side_tables=side))
                seen.add(result.steps[0].classification.type)
    assert seen >= {InverseType.EXACT, InverseType.TP_RELAXED,
                    InverseType.RELAXED, InverseType.RESULT_EQUIVALENT}


def test_short_circuit_matches_reference_on_null_reconstructions():
    rng = random.Random(59)
    mapping = SchemaMapping(RV, Schema.of(RelationSchema("T", ("x", "z"))),
                            (parse_tgd("R(a, b) AND V(b, c) -> T(a, c)"),))
    values = ["k1", "k2", "k3", 1, 2, 3]
    seen = set()
    for _ in range(300):
        def rows(pool):
            return [tuple(rng.choice(pool) for _ in range(2))
                    for _ in range(rng.randint(0, 4))]

        original = pair(rows(values[:3]), rows(values[:3]))
        roll = rng.random()
        if roll < 0.25:
            reconstructed = relabeled(pair(rows(values), rows(values)), rng)
            original = relabeled(reconstructed, rng)
        elif roll < 0.65:
            # blank out some values of the original with fresh nulls
            fresh = iter(range(1, 100))
            reconstructed = Instance(RV, {rel: [
                Fact(f.id, tuple(null(next(fresh)) if rng.random() < 0.4 else v
                                 for v in f.values))
                for f in original.facts(rel)] for rel in ("R", "V")})
        else:
            reconstructed = pair(rows(values), rows(values))
        if not reconstructed.has_nulls():
            continue
        expected = classify_report_reference(original, reconstructed, mapping)
        assert classify_report(original, reconstructed, mapping) == expected
        seen.add(expected.type)
    assert seen >= {InverseType.EXACT, InverseType.CLASSICAL,
                    InverseType.TP_RELAXED, InverseType.RELAXED,
                    InverseType.RESULT_EQUIVALENT, InverseType.NONE}


def test_exact_with_mismatched_mapping_still_raises(join_case):
    src = join_case["source"]
    mapping = SchemaMapping(R2, Schema.of(RelationSchema("T", ("x", "y"))),
                            (parse_tgd("R(a, b) -> T(a, b)"),))
    with pytest.raises(SchemaMismatch):
        classify_report(src, src, mapping)
