"""The value layer against plain value-by-value versions of it.

``model`` keeps values as tuples of their fields, shares equal constants,
sorts facts with list keys, and tests for nulls, multisets, id ranges and
instance validity over whole relations at a time.  Each property here
compares one of these with the straightforward form in ``tests/support.py``
or written out below, over mixed constants, nulls and tuple ids of several
tags."""

from __future__ import annotations

import copy
import pickle
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from backchase import (
    Constant,
    Fact,
    Instance,
    Null,
    RelationSchema,
    Schema,
    TupleId,
    ValidationError,
    const,
    null,
)
from backchase.analysis import _split_ground
from backchase.model import fact_sort_key, seed_allocators
from support import fact_key, instance_error

TAGS = ("r", "s", "rs", "r_")

constants = st.one_of(
    st.text(alphabet="ab01.-+", max_size=4),
    st.integers(-20, 20).map(str),
    st.sampled_from(["1.5", "01.50", "-0.0", "2.50", "007", "7", "a|b"]),
).map(const)
nulls = st.integers(1, 6).map(null)
values = st.one_of(constants, nulls)
tuple_ids = st.builds(TupleId, st.sampled_from(TAGS), st.integers(0, 12))


def facts_of(arity: int, **kwargs):
    return st.lists(st.builds(Fact, tuple_ids, st.tuples(*[values] * arity)), **kwargs)


SCHEMA = Schema.of(RelationSchema("R", ("x", "y")), RelationSchema("S", ("x", "y", "z")),
                   RelationSchema("E", ("x",)))


@st.composite
def instances(draw):
    """An instance of SCHEMA; ids are unique across relations and mix tags
    within a relation."""
    rows = draw(st.lists(st.tuples(st.sampled_from(SCHEMA.names()), tuple_ids),
                         max_size=14, unique_by=lambda row: row[1]))
    facts = {name: [] for name in SCHEMA.names()}
    for name, tid in rows:
        arity = SCHEMA.relation(name).arity
        facts[name].append(Fact(tid, draw(st.tuples(*[values] * arity))))
    return Instance(SCHEMA, facts)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3).flatmap(lambda n: facts_of(n, max_size=10)))
def test_fact_sort_key_orders_as_the_reference_key(facts):
    for a, b in combinations(facts, 2):
        new, ref = (fact_sort_key(a), fact_sort_key(b)), (fact_key(a), fact_key(b))
        assert (new[0] < new[1]) == (ref[0] < ref[1])
        assert (new[0] == new[1]) == (ref[0] == ref[1])
    assert sorted(facts, key=fact_sort_key) == sorted(facts, key=fact_key)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(values, tuple_ids), max_size=8))
def test_equal_values_hash_equal(items):
    for a, b in combinations(items, 2):
        if a == b:
            assert hash(a) == hash(b)
    for item in items:
        twin = type(item)(*item)
        assert twin == item and hash(twin) == hash(item)
        if isinstance(item, TupleId):
            rebuilt = TupleId.parse(str(item))
        elif isinstance(item, Null):
            rebuilt = null(item.label)
        else:
            rebuilt = const(item.lexical)
        assert rebuilt == item and hash(rebuilt) == hash(item)


def _pickled(value, protocol):
    return pickle.loads(pickle.dumps(value, protocol))


@pytest.mark.parametrize("value", [const("a"), const("-1.5"), null(2), TupleId("r_", 12)],
                         ids=["text", "decimal", "null", "tuple-id"])
@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy] + [
    lambda v, p=p: _pickled(v, p) for p in range(pickle.HIGHEST_PROTOCOL + 1)],
    ids=["copy", "deepcopy"] + [f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)])
def test_values_copy_and_pickle(value, duplicate):
    # __new__ takes the fields, not one tuple of them, so copy and pickle
    # must be handed the fields back
    twin = duplicate(value)
    assert type(twin) is type(value) and tuple(twin) == tuple(value)
    assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)


@settings(max_examples=200, deadline=None)
@given(constants, nulls, tuple_ids)
def test_values_of_different_classes_never_compare_equal(c, n, t):
    for a, b in combinations((c, n, t), 2):
        assert a != b and b != a and not a == b
    assert len({c, n, t}) == 3


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=6), st.integers(-99, 99).map(str),
                 st.sampled_from(["1.50", "007", "-0.0"])))
def test_const_shares_one_object_per_lexical(lexical):
    assert const(lexical) is const(lexical)
    assert type(const(lexical)) is Constant


@pytest.mark.parametrize("lexical", [[1], 1, None, 1.5, b"a"])
def test_const_of_a_non_string_raises(lexical):
    with pytest.raises(ValidationError, match="constant lexical must be a string"):
        const(lexical)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3).flatmap(lambda n: facts_of(n, min_size=1, max_size=4)))
def test_fact_sort_keys_hold_only_plain_tuples_strings_and_ints(facts):
    # CPython compares exact tuples faster than tuple subclasses
    def plain(part):
        if type(part) in (tuple, list):
            return all(map(plain, part))
        return type(part) in (str, int)
    assert all(plain(fact_sort_key(f)) for f in facts)


def test_equal_lexicals_after_canonicalizing_hash_equal():
    # equal, though ``const`` shares objects by lexical form, not by value
    for a, b in [("007", "7"), ("01.50", "1.5"), ("-0.0", "0.0"), ("+3", "3")]:
        assert const(a) == const(b) and hash(const(a)) == hash(const(b))
    assert const("5") != const("5.0")


@settings(max_examples=200, deadline=None)
@given(instances())
def test_has_nulls_agrees_with_a_scan(instance):
    assert instance.has_nulls() == any(
        isinstance(v, Null) for _, f in instance.iter_facts() for v in f.values)


@settings(max_examples=200, deadline=None)
@given(st.lists(instances(), max_size=3))
def test_seed_allocators_agree_with_a_scan(instances_):
    nulls, ids = seed_allocators(*instances_)
    facts = [f for i in instances_ for _, f in i.iter_facts()]
    assert nulls.last == max((v.label for f in facts for v in f.values
                              if isinstance(v, Null)), default=0)
    for tag in TAGS + ("t",):
        top = max((f.id.ordinal for f in facts if f.id.tag == tag), default=0)
        assert ids.fresh(tag) == TupleId(tag, top + 1)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_split_ground_agrees_with_a_scan(instance):
    ground, rest = _split_ground(instance)
    want_ground, want_rest = {}, []
    for rel in sorted(instance.schema.names()):
        counts = want_ground[rel] = Counter()
        for f in instance.facts(rel):
            if any(isinstance(v, Null) for v in f.values):
                want_rest.append((rel, f.values))
            else:
                counts[f.values] += 1
    assert ground == {rel: dict(c) for rel, c in want_ground.items()}
    assert all(type(c) is dict for c in ground.values())
    assert rest == want_rest


# every malformed instance raises the error the fact-by-fact check finds first


def _raised(schema, facts):
    try:
        Instance(schema, facts)
    except ValidationError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(["R", "S", "E", "Q"]),
                       st.integers(1, 3).flatmap(lambda n: facts_of(n, max_size=4)),
                       max_size=4))
def test_malformed_instances_raise_the_first_error(facts):
    assert _raised(SCHEMA, facts) == instance_error(SCHEMA, facts)


def _fact(tag, ordinal, *lexicals):
    return Fact(TupleId(tag, ordinal), tuple(map(const, lexicals)))


@pytest.mark.parametrize("facts, message", [
    ({"R": [_fact("r", 1, "a", "b"), _fact("r", 1, "a", "b"), _fact("r", 2, "a")]},
     "duplicate tuple id r1 in instance"),
    ({"R": [_fact("r", 1, "a", "b"), _fact("r", 2, "a"), _fact("r", 1, "a", "b")]},
     "fact r2 has arity 1, relation R expects 2"),
    ({"R": [_fact("r", 1, "a", "b")], "S": [_fact("r", 1, "a", "b", "c")],
      "E": [_fact("e", 1, "a", "b")]},
     "duplicate tuple id r1 in instance"),
    ({"R": [_fact("r", 1, "a", "b")], "Q": [_fact("q", 1, "a")],
      "E": [_fact("e", 1, "a", "b")]},
     "fact e1 has arity 2, relation E expects 1"),
    ({"R": [_fact("r", 1, "a", "b")], "Q": [_fact("q", 1, "a")], "P": []},
     "facts for relations not in schema: ['P', 'Q']"),
], ids=["duplicate-before-arity", "arity-before-duplicate", "duplicate-across-relations",
        "arity-before-unknown", "unknown"])
def test_first_error_of_an_instance_with_several(facts, message):
    assert instance_error(SCHEMA, facts) == message
    with pytest.raises(ValidationError) as exc:
        Instance(SCHEMA, facts)
    assert str(exc.value) == message
