import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from backchase import (
    Fact,
    Instance,
    Null,
    NullAllocator,
    RelationSchema,
    Schema,
    SchemaMismatch,
    TupleId,
    ValidationError,
    const,
    instance_from_json,
    instance_to_json,
    instances_equal,
    normalize,
    null,
)
from backchase.model import IdAllocator, seed_allocators
from support import fact_key, inst, reserve


def test_constant_kinds():
    assert const("5").kind == "integer"
    assert const("5.0").kind == "decimal"
    assert const("Alice").kind == "text"
    assert const("-3").kind == "integer"
    assert const("-0.50").kind == "decimal"


def test_constant_canonicalization():
    assert const("007").lexical == "7"
    assert const("-0").lexical == "0"
    assert const("5.00") == const("5.0")
    assert const("01.70").lexical == "1.7"
    assert const("-0.0").lexical == "0.0"


def test_kind_separates_equal_digits():
    # integer 5 and decimal 5.0 are distinct values
    assert const("5") != const("5.0")


def test_nulls():
    assert null(3) == null(3)
    assert null(3) != null(4)
    assert null(1) != const("1")
    with pytest.raises(ValidationError):
        null(0)


def test_fresh_null_allocation():
    alloc = NullAllocator()
    assert alloc.fresh() == null(1)
    alloc2 = NullAllocator(start_after=4)
    assert alloc2.fresh() == null(5)
    a, b = alloc.fresh(), alloc.fresh()
    assert a != b


def test_tuple_id_roundtrip():
    tid = TupleId.parse("r12")
    assert tid == TupleId("r", 12)
    assert str(tid) == "r12"
    assert TupleId.parse("r'3") == TupleId("r'", 3)
    for text in ("nodigits", "7", ""):
        with pytest.raises(ValidationError, match="malformed tuple id"):
            TupleId.parse(text)


SCHEMA_R2 = Schema.of(RelationSchema("R", ("x", "y")))


def _with_nulls(rows):
    """rows: list of tuples mixing lexical strings and int null labels."""
    facts = [
        Fact(TupleId("r", i + 1),
             tuple(null(v) if isinstance(v, int) else const(v) for v in row))
        for i, row in enumerate(rows)
    ]
    return Instance(SCHEMA_R2, {"R": facts})


def test_normalize_renumbers_in_first_occurrence_order():
    before = _with_nulls([("1", 7), ("2", 3)])
    after = normalize(before)
    labels = [f.values[1].label for f in after.facts("R")]
    assert labels == [1, 2]


def test_normalize_is_idempotent_on_example():
    x = _with_nulls([("b", 9), ("a", 2), ("a", 5)])
    once = normalize(x)
    twice = normalize(once)
    assert once == twice


def test_normalize_preserves_size():
    x = _with_nulls([("b", 9), ("a", 2), ("a", 2)])
    assert normalize(x).size() == x.size()


def test_reconstruction_shape_canonicalizes():
    # two all-null rows relabel to 1..4 whatever their original labels
    schema = Schema.of(RelationSchema("R", ("name", "m1", "m2")))
    a = Instance(schema, {"R": [
        Fact(TupleId("r", 1), (const("Alice"), null(7), null(5))),
        Fact(TupleId("r", 2), (const("Bob"), null(2), null(9))),
    ]})
    out = normalize(a)
    labels = [v.label for f in out.facts("R") for v in f.values[1:]]
    assert labels == [1, 2, 3, 4]


def test_instances_equal_reflexive(join_case):
    src = join_case["source"]
    assert instances_equal(src, src)


def test_instances_equal_label_invariant():
    a = _with_nulls([("1", 1)])
    b = _with_nulls([("1", 9)])
    assert instances_equal(a, b)


def test_instances_equal_detects_missing_fact(join_case):
    src = join_case["source"]
    smaller = Instance(src.schema, {
        "R": [f for f in src.facts("R") if f.values[0] != const("2")],
        "V": list(src.facts("V")),
    })
    assert not instances_equal(src, smaller)


def test_instances_equal_schema_mismatch():
    a = inst(SCHEMA_R2, R=[("1", "2")])
    other = Schema.of(RelationSchema("S", ("x", "y")))
    b = inst(other, S=[("1", "2")])
    with pytest.raises(SchemaMismatch):
        instances_equal(a, b)


TWO_RELATIONS = Schema.of(RelationSchema("R", ("x", "y")),
                          RelationSchema("S", ("z",)))


def equal_by_normalize(a, b):
    """Equality as the comparison of normalized value lists, with no
    shortcut for ground instances."""
    na, nb = normalize(a), normalize(b)
    return all([f.values for f in na.facts(rel)] == [f.values for f in nb.facts(rel)]
               for rel in na.schema.names())


def random_rows(rng, with_nulls):
    pool = [const(v) for v in ("a", "b", "1")]
    if with_nulls:
        pool += [null(1), null(2), null(3)]
    rows = {"R": [(rng.choice(pool), rng.choice(pool))
                  for _ in range(rng.randint(0, 5))],
            "S": [(rng.choice(pool),) for _ in range(rng.randint(0, 3))]}
    if with_nulls and not any(isinstance(v, Null)
                              for vecs in rows.values() for vec in vecs for v in vec):
        rows["S"].append((null(1),))
    return rows


def variant_of(rng, rows, equal):
    """The same multisets shuffled under a fresh null labelling, or, when
    not ``equal``, with one row dropped, repeated or changed."""
    shift = rng.randint(1, 50)
    out = {rel: [tuple(null(v.label + shift) if isinstance(v, Null) else v
                       for v in vec) for vec in vecs]
           for rel, vecs in rows.items()}
    for vecs in out.values():
        rng.shuffle(vecs)
    if not equal:
        rel = rng.choice([r for r in out if out[r]] or ["S"])
        vecs = out[rel]
        change = rng.choice(["drop", "repeat", "alter"]) if vecs else "add"
        if change == "drop":
            vecs.pop()
        elif change == "repeat":
            vecs.append(vecs[0])
        elif change == "alter":
            vecs[0] = (const("zz"),) + vecs[0][1:]
        else:
            vecs.append(tuple(const("zz") for _ in TWO_RELATIONS.relation(rel).attributes))
    return out


def from_rows(rows):
    return Instance(TWO_RELATIONS, {
        rel: [Fact(TupleId(rel.lower(), i + 1), vec) for i, vec in enumerate(vecs)]
        for rel, vecs in rows.items()})


@pytest.mark.parametrize("nulls_a, nulls_b", [
    (False, False), (False, True), (True, False), (True, True)])
def test_instances_equal_matches_normalized_comparison(nulls_a, nulls_b):
    rng = random.Random(41)
    seen = set()
    for i in range(200):
        rows_a = random_rows(rng, nulls_a)
        if nulls_a == nulls_b:
            rows_b = variant_of(rng, rows_a, equal=i % 2 == 0)
        else:
            rows_b = random_rows(rng, nulls_b)
        a, b = from_rows(rows_a), from_rows(rows_b)
        expected = equal_by_normalize(a, b)
        assert instances_equal(a, b) == expected
        assert instances_equal(b, a) == expected
        seen.add(expected)
    assert seen == ({True, False} if nulls_a == nulls_b else {False})


def test_duplicate_vectors_allowed_distinct_ids():
    i = Instance(SCHEMA_R2, {"R": [
        Fact(TupleId("r", 1), (const("a"), const("b"))),
        Fact(TupleId("r", 2), (const("a"), const("b"))),
    ]})
    assert i.size() == 2


def test_duplicate_ids_rejected():
    with pytest.raises(ValidationError):
        Instance(SCHEMA_R2, {"R": [
            Fact(TupleId("r", 1), (const("a"), const("b"))),
            Fact(TupleId("r", 1), (const("c"), const("d"))),
        ]})


def test_arity_checked():
    with pytest.raises(ValidationError):
        Instance(SCHEMA_R2, {"R": [Fact(TupleId("r", 1), (const("a"),))]})


values_strategy = st.one_of(
    st.sampled_from(["a", "b", "1", "2.5"]).map(const),
    st.integers(min_value=1, max_value=4).map(null),
)
rows_strategy = st.lists(
    st.tuples(values_strategy, values_strategy), min_size=0, max_size=6
)


@settings(max_examples=150, deadline=None)
@given(rows_strategy)
def test_normalize_idempotent_property(rows):
    facts = [Fact(TupleId("r", i + 1), tuple(row)) for i, row in enumerate(rows)]
    x = Instance(SCHEMA_R2, {"R": facts})
    once = normalize(x)
    assert normalize(once) == once
    assert once.size() == x.size()


@settings(max_examples=80, deadline=None)
@given(rows_strategy, rows_strategy, rows_strategy)
def test_instances_equal_is_equivalence(r1, r2, r3):
    def mk(rows):
        return Instance(SCHEMA_R2, {"R": [
            Fact(TupleId("r", i + 1), tuple(row)) for i, row in enumerate(rows)
        ]})

    a, b, c = mk(r1), mk(r2), mk(r3)
    assert instances_equal(a, a)
    assert instances_equal(a, b) == instances_equal(b, a)
    if instances_equal(a, b) and instances_equal(b, c):
        assert instances_equal(a, c)


def test_json_roundtrip(join_case):
    src = join_case["source"]
    again = instance_from_json(instance_to_json(src))
    assert again == src


def test_json_kind_inference():
    i = instance_from_json({"relations": [{
        "name": "R", "attributes": ["x"],
        "tuples": [{"id": "r1", "values": [{"const": "5.0"}]}],
    }]})
    fact = i.facts("R")[0]
    assert fact.values[0].kind == "decimal"


def test_json_malformed():
    with pytest.raises(ValidationError):
        instance_from_json({"nope": []})
    with pytest.raises(ValidationError):
        instance_from_json({"relations": [{
            "name": "R", "attributes": ["x"],
            "tuples": [{"id": "r1", "values": [{"boom": 1}]}],
        }]})


def test_long_decimal_constant_rejected():
    # every decimal const accepts, numeric_value can read
    with pytest.raises(ValidationError, match="too long"):
        const("1." + "1" * 5000)
    with pytest.raises(ValidationError, match="too long"):
        const("-" + "1" * 5000 + ".5")
    assert const("0" * 5000 + "1.5" + "0" * 5000).lexical == "1.5"


@pytest.mark.parametrize("value, field", [
    (const("a"), "lexical"), (null(1), "label"), (TupleId("r", 1), "ordinal"),
    (Fact(TupleId("r", 1), (const("a"),)), "values")])
def test_value_classes_stay_frozen(value, field):
    # values are tuples whose fields have no setter, and a fact is a frozen
    # dataclass; FrozenInstanceError subclasses AttributeError
    assert not hasattr(value, "__dict__")
    is_fact = isinstance(value, Fact)
    with pytest.raises(dataclasses.FrozenInstanceError if is_fact else AttributeError):
        setattr(value, field, getattr(value, field))
    copy = dataclasses.replace(value) if is_fact else type(value)(*value)
    assert copy == value and hash(copy) == hash(value)


shuffled_facts = st.lists(
    st.tuples(st.sampled_from(["r", "s"]), st.integers(1, 9), values_strategy,
              values_strategy),
    max_size=12, unique_by=lambda row: row[:2])


@settings(max_examples=150, deadline=None)
@given(shuffled_facts, shuffled_facts, st.randoms(use_true_random=False))
def test_canonical_order_is_sorted_facts(r_rows, q_rows, rng):
    schema = Schema.of(RelationSchema("R", ("x", "y")),
                       RelationSchema("Q", ("x", "y")))
    facts = {rel: [Fact(TupleId(tag, n), (a, b)) for tag, n, a, b in rows]
             for rel, rows in (("R", r_rows), ("Q", q_rows))}
    for rows in facts.values():
        rng.shuffle(rows)
    instance = Instance(schema, {"R": facts["R"],
                                 "Q": [Fact(TupleId("q" + f.id.tag, f.id.ordinal),
                                            f.values) for f in facts["Q"]]})
    for rel in schema.names():
        first = instance.sorted_facts(rel)
        assert list(first) == sorted(instance.facts(rel), key=fact_key)
        assert instance.sorted_facts(rel) is first  # sorted once


def seed_allocators_by_generators(*instances):
    """The allocator seeding as it was: one scan for the largest null label,
    one for every tuple id."""
    nulls = NullAllocator(max((v.label for i in instances
                               for _, fact in i.iter_facts()
                               for v in fact.values if isinstance(v, Null)),
                              default=0))
    ids = IdAllocator()
    for instance in instances:
        for _, fact in instance.iter_facts():
            reserve(ids, fact.id)
    return nulls, ids


@settings(max_examples=100, deadline=None)
@given(st.lists(shuffled_facts, max_size=4))
def test_seed_allocators_agree_with_generators(instance_rows):
    instances = [Instance(SCHEMA_R2, {"R": [
        Fact(TupleId(tag, n), (a, b)) for tag, n, a, b in rows]})
        for rows in instance_rows]
    nulls, ids = seed_allocators(*instances)
    old_nulls, old_ids = seed_allocators_by_generators(*instances)
    assert nulls.last == old_nulls.last
    for tag in ("r", "s", "t"):
        assert ids.fresh(tag) == old_ids.fresh(tag)
