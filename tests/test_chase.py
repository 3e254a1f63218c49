import random
from collections import Counter

import pytest

from backchase import (
    ChaseError,
    Fact,
    Instance,
    ProvenanceError,
    RelationSchema,
    Schema,
    SchemaMapping,
    SchemaMismatch,
    SmoSpec,
    TupleId,
    chase,
    compile_forward,
    compile_inverse,
    const,
    expand_duplicates,
    format_polynomial,
    instances_equal,
    instance_to_json,
    normalize,
    parse_tgd,
    null,
)
from backchase.chase import _plan, conditions_hold, iter_body_matches, sorted_facts
from backchase.provenance import MODES, Polynomial, store_to_json
from support import (
    COPY_COL_PARAMS,
    JOIN_PARAMS,
    RESOURCE_CONFIGS,
    SMO_CASES,
    chase_reference,
    eval_all_ones,
    inst,
    naive_trigger_matches,
    random_ground_instance,
    vectors_of,
)


def join_mapping():
    source = Schema.of(RelationSchema("R", ("id", "name")),
                       RelationSchema("V", ("name", "subject")))
    target = Schema.of(RelationSchema("T", ("id", "name", "subject")))
    return SchemaMapping(source, target, (parse_tgd("R(a, b) AND V(b, c) -> T(a, b, c)"),))


def join_instance():
    schema = Schema.of(RelationSchema("R", ("id", "name")),
                       RelationSchema("V", ("name", "subject")))
    return Instance(schema, {
        "R": [Fact(TupleId("r", 1), (const("1"), const("Alice"))),
              Fact(TupleId("r", 2), (const("2"), const("Bob")))],
        "V": [Fact(TupleId("s", 1), (const("Alice"), const("Math"))),
              Fact(TupleId("s", 2), (const("Alice"), const("IT")))],
    })


def test_join_chase_values_and_polynomials():
    out, store = chase(join_instance(), join_mapping(), "how")
    rows = {
        tuple(v.lexical for v in f.values):
            format_polynomial(store.annotations[f.id])
        for f in out.facts("T")
    }
    assert rows == {
        ("1", "Alice", "Math"): "r1*s1",
        ("1", "Alice", "IT"): "r1*s2",
    }


def test_shared_variable_and_explicit_equality_spellings_agree():
    explicit = SchemaMapping(
        join_mapping().source, join_mapping().target,
        (parse_tgd("R(a, b) AND V(c, d) AND b = c -> T(a, b, d)"),),
    )
    a, _ = chase(join_instance(), join_mapping(), "none")
    b, _ = chase(join_instance(), explicit, "none")
    assert instances_equal(a, b)


def test_empty_instance_chases_to_empty():
    empty = Instance(join_mapping().source, {})
    out, store = chase(empty, join_mapping(), "how")
    assert out.size() == 0
    assert store.annotations == {}


def test_value_duplicates_merge_with_summed_annotations(merge_column_case):
    src = merge_column_case["source"]
    mapping = compile_forward(merge_column_case["script"][0], src.schema)
    out, store = chase(src, mapping, "how")
    rows = {
        tuple(v.lexical for v in f.values):
            format_polynomial(store.annotations[f.id])
        for f in out.facts("T")
    }
    assert rows == {("Alice", "5.0"): "r1 + r3", ("Bob", "4.7"): "r2"}


def test_chase_is_deterministic(merge_column_case):
    src = merge_column_case["source"]
    mapping = compile_forward(merge_column_case["script"][0], src.schema)
    a, sa = chase(src, mapping, "how")
    b, sb = chase(src, mapping, "how")
    assert instance_to_json(a) == instance_to_json(b)
    assert store_to_json(sa) == store_to_json(sb)


def test_output_bounded_by_trigger_count():
    src = join_instance()
    mapping = join_mapping()
    out, _ = chase(src, mapping, "none")
    assert out.size() <= len(list(naive_trigger_matches(src, mapping)))


def test_eval_at_one_counts_derivations(join_case):
    src = join_case["source"]
    mapping = compile_forward(join_case["script"][0], src.schema)
    out, store = chase(src, mapping, "how")
    # independent count per produced vector from the naive matcher
    naive_counts: dict = {}
    for tgd, bindings, _ in naive_trigger_matches(src, mapping):
        for atom in tgd.head:
            key = []
            for term in atom.terms:
                key.append(bindings[term.name])
            naive_counts[(atom.relation, tuple(key))] = naive_counts.get(
                (atom.relation, tuple(key)), 0) + 1
    for rel in out.schema.names():
        for f in out.facts(rel):
            ann = store.annotations[f.id]
            assert eval_all_ones(ann) == naive_counts[(rel, f.values)]


def test_monotonicity_of_union():
    schema = join_mapping().source
    rng = random.Random(5)
    small = random_ground_instance(rng, schema, max_rows=4)
    extra = random_ground_instance(rng, schema, max_rows=4)
    merged_facts = {}
    for rel in schema.names():
        seen = {f.values for f in small.facts(rel)}
        entries = list(small.facts(rel))
        for f in extra.facts(rel):
            if f.values not in seen:
                entries.append(Fact(TupleId("m" + rel.lower(), len(entries) + 1),
                                    f.values))
                seen.add(f.values)
        merged_facts[rel] = entries
    union = Instance(schema, merged_facts)
    out_small, _ = chase(small, join_mapping(), "none")
    out_union, _ = chase(union, join_mapping(), "none")
    small_vectors = {f.values for f in out_small.facts("T")}
    union_vectors = {f.values for f in out_union.facts("T")}
    assert small_vectors <= union_vectors


def test_existentials_get_fresh_nulls_per_trigger():
    source = Schema.of(RelationSchema("R", ("x",)))
    target = Schema.of(RelationSchema("T", ("x", "y")))
    mapping = SchemaMapping(source, target,
                            (parse_tgd("R(a) -> EXISTS N: T(a, N)"),))
    out, _ = chase(inst(source, R=[("1",), ("2",)]), mapping, "none")
    labels = {f.values[1].label for f in out.facts("T")}
    assert len(labels) == 2


def test_multi_atom_head():
    source = Schema.of(RelationSchema("R", ("x", "y")))
    target = Schema.of(RelationSchema("A", ("x",)), RelationSchema("B", ("y",)))
    mapping = SchemaMapping(source, target, (parse_tgd("R(a, b) -> A(a) AND B(b)"),))
    out, store = chase(inst(source, R=[("1", "2")]), mapping, "how")
    assert vectors_of(out, "A") == [("1",)]
    assert vectors_of(out, "B") == [("2",)]
    anns = {format_polynomial(v) for v in store.annotations.values()}
    assert anns == {"r1"}


def test_condition_with_null_is_nonmatching():
    source = Schema.of(RelationSchema("R", ("x", "y")))
    target = Schema.of(RelationSchema("T", ("x",)))
    mapping = SchemaMapping(source, target,
                            (parse_tgd("R(a, b) AND b = '1' -> T(a)"),))
    src = Instance(source, {"R": [Fact(TupleId("r", 1), (const("x"), null(1)))]})
    out, _ = chase(src, mapping, "none")
    assert out.size() == 0


def test_function_over_null_raises():
    source = Schema.of(RelationSchema("R", ("x", "y")))
    target = Schema.of(RelationSchema("T", ("x",)))
    mapping = SchemaMapping(source, target,
                            (parse_tgd("R(a, b) -> T(dec_add(a, b))"),))
    src = Instance(source, {"R": [Fact(TupleId("r", 1), (const("1"), null(1)))]})
    with pytest.raises(ChaseError):
        chase(src, mapping, "none")


@pytest.mark.parametrize("values, function", [
    ((const("1"), null(1), const("2")), "dec_add"),
    ((const("1"), const("2"), null(1)), "concat_pipe"),
    ((const("1"), null(1), null(2)), "dec_add"),  # arguments first, inner out
])
def test_function_over_null_error_text(values, function):
    source = Schema.of(RelationSchema("R", ("x", "y", "z")))
    target = Schema.of(RelationSchema("T", ("x",)))
    mapping = SchemaMapping(source, target, (
        parse_tgd("R(a, b, c) -> T(concat_pipe(dec_add(a, b), c))"),))
    src = Instance(source, {"R": [Fact(TupleId("r", 1), values)]})
    with pytest.raises(ChaseError) as raised:
        chase(src, mapping, "none")
    assert str(raised.value) == (f"function {function!r} applied to a null "
                                 f"value; function inputs must be ground")


def test_unregistered_function_raises():
    source = Schema.of(RelationSchema("R", ("x", "y")))
    target = Schema.of(RelationSchema("T", ("x",)))
    mapping = SchemaMapping(source, target,
                            (parse_tgd("R(a, b) -> T(mystery(a, b))"),))
    with pytest.raises(ChaseError):
        chase(inst(source, R=[("1", "2")]), mapping, "none")


def test_schema_mismatch_raises():
    other = Schema.of(RelationSchema("Q", ("x",)))
    with pytest.raises(SchemaMismatch):
        chase(inst(other, Q=[("1",)]), join_mapping(), "none")


def test_self_join_coefficients():
    source = Schema.of(RelationSchema("R", ("x", "y")))
    target = Schema.of(RelationSchema("T", ("x",)))
    mapping = SchemaMapping(
        source, target, (parse_tgd("R(a, b) AND R(a, c) -> T(a)"),)
    )
    out, store = chase(inst(source, R=[("1", "2"), ("1", "3")]), mapping, "how")
    (fact,) = out.facts("T")
    assert format_polynomial(store.annotations[fact.id]) == \
        "r1*r1 + 2*r1*r2 + r2*r2"


# ---------------------------------------------------------------------------
# indexed body matching against the nested-loop oracle

PAIR = Schema.of(RelationSchema("R", ("id", "name")),
                 RelationSchema("V", ("name", "subject")))

# JOIN_TABLE and COPY_COLUMN v2 join through an `=` condition, COPY_COLUMN
# v1 through a shared variable
JOIN_SPECS = {
    "JOIN_TABLE": SmoSpec("JOIN_TABLE", JOIN_PARAMS),
    "COPY_COLUMN v1": SmoSpec("COPY_COLUMN", COPY_COL_PARAMS),
    "COPY_COLUMN v2": SmoSpec("COPY_COLUMN", COPY_COL_PARAMS, variant=2),
}


def pair_with_nulls(rng, canonical=False):
    """R(id, name) and V(name, subject) over a small pool in which nulls 1
    and 2 can stand on both sides of the join column; value vectors may
    repeat under distinct ids."""
    names = [const(x) for x in "abc"] + [null(1), null(2)]
    subjects = [const(x) for x in ("Math", "IT")] + [null(3)]
    rows = {
        "R": [(const(str(rng.randint(1, 4))), rng.choice(names))
              for _ in range(rng.randint(0, 7))],
        "V": [(rng.choice(names), rng.choice(subjects))
              for _ in range(rng.randint(0, 7))],
    }
    instance = Instance(PAIR, {
        rel: [Fact(TupleId(rel.lower(), i + 1), vec) for i, vec in enumerate(vecs)]
        for rel, vecs in rows.items()})
    if canonical:
        instance = Instance(PAIR, {rel: sorted_facts(instance, rel)
                                   for rel in PAIR.names()})
    return instance


def engine_triggers(instance, mapping):
    facts = {rel: sorted_facts(instance, rel) for rel in instance.schema.names()}
    return [(tgd, tuple(f.id for f in used))
            for tgd in mapping.sigma
            for slots, used in iter_body_matches(tgd, facts)
            if conditions_hold(_plan(tgd).conditions, slots)]


def naive_triggers(instance, mapping):
    return [(tgd, tuple(f.id for f in combo))
            for tgd, _, combo in naive_trigger_matches(instance, mapping)]


# Hand-written tgds for the match and fire plan's other cases: per label, the
# dependency and whether random instances for it may hold nulls (function
# terms reject them).
HANDWRITTEN = {
    "repeat in one atom": ("R(a, a, b) -> T(a, b)", True),
    "repeat of an earlier variable": ("R(a, b, c) AND V(b, b) -> T(a, c)", True),
    "body constant": ("R(a, 'x', b) AND V(b, c) -> T(a, c)", True),
    "three atoms, = between 1 and 3": (
        "R(a, b, c) AND V(d, e) AND W(f, g) AND a = f -> T(a, b, e, g)", True),
    "head emits one vector twice": ("R(a, b, c) -> T(a, b) AND T(a, c)", True),
    "existential head": ("R(a, b, c) AND V(c, d) -> EXISTS N, M: T(a, N) "
                         "AND U(N, d, M) AND T(a, N)", True),
    "function head": ("R(a, b, c) -> T(a, concat_pipe(b, c)) AND "
                      "U(dec_add(a, b), dec_add^-1(c, a), c)", False),
    "one-term head": ("R(a, b) -> T(a)", True),
    "head repeats a variable": ("R(a, b) -> T(a, a, b)", True),
    "head constant": ("R(a, b) -> T(b, 'k', a)", True),
    "body atom of constants only": ("R(a, b) AND V('x', 'y') -> T(a, b)", True),
    "later atom binds nothing": ("R(a, b) AND V(b, a) -> T(a, b)", True),
    "order against a constant": (
        "R(a, b) AND a < '10' AND b >= '10' -> T(a, b)", True),
    "nested function": ("R(a, b, c) -> T(dec_add(dec_add(a, b), c), a)", False),
}
HANDWRITTEN_POOL = [const(x) for x in ("x", "y", "1", "2.5")] + [null(1), null(2)]
GROUND_POOL = [const(x) for x in ("1", "2.5", "-3", "0.75")]


def handwritten_mapping(label):
    """The hand-written tgd over schemas read off its atoms."""
    tgd = parse_tgd(HANDWRITTEN[label][0])

    def schema(atoms):
        arity = {a.relation: len(a.terms) for a in atoms}
        return Schema(tuple(RelationSchema(rel, tuple(f"c{i}" for i in range(n)))
                            for rel, n in sorted(arity.items())))

    return SchemaMapping(schema(tgd.body), schema(tgd.head), (tgd,))


def random_instance(rng, schema, pool, canonical=False):
    """Up to six rows per relation over ``pool``; vectors may repeat."""
    instance = Instance(schema, {
        rel.name: [Fact(TupleId(rel.name.lower(), i + 1),
                        tuple(rng.choice(pool) for _ in rel.attributes))
                   for i in range(rng.randint(0, 6))]
        for rel in schema.relations})
    if canonical:
        instance = Instance(schema, {rel: sorted_facts(instance, rel)
                                     for rel in schema.names()})
    return instance


def trigger_case(label):
    """A mapping and a maker of random instances, canonical or not."""
    if label in JOIN_SPECS:
        return compile_forward(JOIN_SPECS[label], PAIR), pair_with_nulls
    mapping = handwritten_mapping(label)
    pool = HANDWRITTEN_POOL if HANDWRITTEN[label][1] else GROUND_POOL
    return mapping, lambda rng, canonical=False: random_instance(
        rng, mapping.source, pool, canonical)


@pytest.mark.parametrize("label", sorted(JOIN_SPECS) + sorted(HANDWRITTEN))
def test_indexed_triggers_equal_nested_loop(label):
    mapping, make = trigger_case(label)
    rng = random.Random(17)
    for _ in range(150):
        instance = make(rng)
        assert Counter(engine_triggers(instance, mapping)) == \
            Counter(naive_triggers(instance, mapping))
        # with facts laid out in canonical order the plain nested loop
        # enumerates in the engine's order, so the sequences agree too
        canonical = make(rng, canonical=True)
        assert engine_triggers(canonical, mapping) == \
            naive_triggers(canonical, mapping)


def assert_chase_equals_reference(instance, mapping):
    """The compiled chase and the straightforward one agree exactly in
    every provenance mode: facts in order, tuple ids, null labels, store."""
    for mode in MODES:
        try:
            expected = chase_reference(instance, mapping, mode)
        except ChaseError:
            with pytest.raises(ChaseError):
                chase(instance, mapping, mode)
            continue
        out, store = chase(instance, mapping, mode)
        assert out == expected[0]
        assert store == expected[1]


@pytest.mark.parametrize("label", sorted(JOIN_SPECS) + sorted(HANDWRITTEN))
def test_chase_equals_reference_on_written_tgds(label):
    mapping, make = trigger_case(label)
    rng = random.Random(41)
    for _ in range(60):
        assert_chase_equals_reference(make(rng), mapping)


@pytest.mark.parametrize("kind", sorted(SMO_CASES))
def test_chase_equals_reference_on_operator_mappings(kind):
    """Every forward mapping of the operator cases, and every inverse
    mapping at every resource level run on the forward chase's output."""
    rng = random.Random(53)
    for _ in range(6):
        for make in SMO_CASES[kind]:
            instance, smo = make(rng)
            forward = compile_forward(smo, instance.schema)
            assert_chase_equals_reference(instance, forward)
            target, _ = chase(instance, forward, "none")
            inverses = {
                compile_inverse(smo, instance.schema, level, side, fn).mapping
                for level, side in RESOURCE_CONFIGS for fn in (False, True)}
            for mapping in inverses:
                assert_chase_equals_reference(target, mapping)


@pytest.mark.parametrize("label, fires", [
    ("COPY_COLUMN v1", True), ("COPY_COLUMN v2", False), ("JOIN_TABLE", False)])
def test_shared_null_label_joins_only_through_a_shared_variable(label, fires):
    # a shared variable unifies equal null labels; `=` is false on nulls
    instance = Instance(PAIR, {
        "R": [Fact(TupleId("r", 1), (const("1"), null(7)))],
        "V": [Fact(TupleId("v", 1), (null(7), const("Math")))]})
    mapping = compile_forward(JOIN_SPECS[label], PAIR)
    join = mapping.sigma[0]
    expected = [(join, (TupleId("r", 1), TupleId("v", 1)))] if fires else []
    joined = [t for t in engine_triggers(instance, mapping) if t[0] == join]
    assert joined == expected
    # the index leaves out a null at an `=`-keyed position, so no match is
    # even enumerated for conditions_hold to reject
    facts = {rel: sorted_facts(instance, rel) for rel in PAIR.names()}
    assert len(list(iter_body_matches(join, facts))) == len(expected)
    assert [t for t in naive_triggers(instance, mapping) if t[0] == join] == expected


def reference_how(instance, mapping):
    """Per output vector, the left fold of pairwise canonicalizing sums of
    the naive triggers' monomials."""
    acc = {}
    for tgd, bindings, combo in naive_trigger_matches(instance, mapping):
        emitted = set()
        for atom in tgd.head:
            key = (atom.relation, tuple(bindings[t.name] for t in atom.terms))
            if key in emitted:
                continue
            emitted.add(key)
            prev = acc.get(key, Polynomial.zero())
            acc[key] = Polynomial.build(
                list(prev.terms) + [(tuple(f.id for f in combo), 1)])
    return acc


@pytest.mark.parametrize("label", sorted(JOIN_SPECS))
def test_how_polynomials_equal_pairwise_fold(label):
    mapping = compile_forward(JOIN_SPECS[label], PAIR)
    rng = random.Random(29)
    for _ in range(100):
        instance = pair_with_nulls(rng)
        out, store = chase(instance, mapping, "how")
        got = {(rel, f.values): store.annotations[f.id]
               for rel in out.schema.names() for f in out.facts(rel)}
        assert got == reference_how(instance, mapping)


# ---------------------------------------------------------------------------
# duplicate expansion


def test_expand_duplicates_splits_merged_rows(merge_column_case):
    src = merge_column_case["source"]
    mapping = compile_forward(merge_column_case["script"][0], src.schema)
    out, store = chase(src, mapping, "how")
    expanded, new_store = expand_duplicates(out, store)
    assert sorted(vectors_of(expanded, "T")) == [
        ("Alice", "5.0"), ("Alice", "5.0"), ("Bob", "4.7")
    ]
    pieces = sorted(
        format_polynomial(new_store.annotations[f.id])
        for f in expanded.facts("T")
    )
    assert pieces == ["r1", "r2", "r3"]


def test_expand_duplicates_passes_singletons_through(join_case):
    src = join_case["source"]
    mapping = compile_forward(join_case["script"][0], src.schema)
    out, store = chase(src, mapping, "why")
    expanded, _ = expand_duplicates(out, store)
    assert instances_equal(out, expanded)


def test_expand_duplicates_on_empty():
    source = Schema.of(RelationSchema("T", ("x",)))
    empty = Instance(source, {})
    from backchase.provenance import ProvenanceStore
    expanded, _ = expand_duplicates(empty, ProvenanceStore.empty("how"))
    assert expanded.size() == 0


def test_expand_duplicates_needs_witnesses(merge_column_case):
    src = merge_column_case["source"]
    mapping = compile_forward(merge_column_case["script"][0], src.schema)
    for mode in ("none", "where"):
        out, store = chase(src, mapping, mode)
        with pytest.raises(ProvenanceError):
            expand_duplicates(out, store)
