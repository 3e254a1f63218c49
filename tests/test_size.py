"""Size regressions: searches and roundtrips at 10^4 facts, ten times the
interpreter's default recursion limit, each finishing in a few seconds.  The
join roundtrip would take 10^8 body matches per chase without the chase's
join index."""

import random
import sys
import tracemalloc

import pytest

from backchase import (
    Constant,
    Fact,
    Instance,
    InverseType,
    Null,
    RelationSchema,
    Schema,
    SmoSpec,
    TupleId,
    const,
    find_homomorphism,
    isomorphic,
    null,
)
from backchase.analysis import verify_homomorphism
from support import JOIN_PARAMS
from backchase.pipeline import backchase, evolve

N = 10_000
R2 = Schema.of(RelationSchema("R", ("x", "y")))
R3 = Schema.of(RelationSchema("R", ("x", "y", "z")))


def build(schema, rows):
    return Instance(schema, {"R": [Fact(TupleId("r", i + 1), row)
                                   for i, row in enumerate(rows)]})


def test_hom_one_chain_block():
    # R(c, n1), R(n1, n2), ..., R(n_{N-1}, n_N): one block of N facts
    chain = [(const("c"), null(1))] + [(null(i), null(i + 1)) for i in range(1, N)]
    src = build(R2, chain)
    links = [(const("c"), const("v1"))] + [
        (const(f"v{i}"), const(f"v{i + 1}")) for i in range(1, N)]
    dst = build(R2, list(reversed(links)))
    hom = find_homomorphism(src, dst)
    assert hom is not None and verify_homomorphism(hom, src, dst)
    assert find_homomorphism(src, build(R2, links[:-1])) is None


def test_hom_many_single_null_blocks():
    src = build(R2, [(const(f"k{i}"), null(i + 1)) for i in range(N)])
    dst = build(R2, [(const(f"k{i}"), const(f"v{i % 7}")) for i in range(N)])
    hom = find_homomorphism(src, dst)
    assert hom is not None and verify_homomorphism(hom, src, dst)
    rest = [f.values for f in dst.facts("R")[1:]]
    assert find_homomorphism(src, build(R2, rest)) is None


def test_isomorphic_at_size():
    rng = random.Random(5)
    rows = ([(const(f"k{i}"), null(i + 1)) for i in range(N // 2)]
            + [(null(i), null(i + 1)) for i in range(N // 2 + 1, N)])
    labels = list(range(1, N + 1))
    image = dict(zip(labels, rng.sample(range(1, 2 * N), N)))
    renamed = [tuple(null(image[v.label]) if isinstance(v, Null) else v
                     for v in row) for row in rows]
    rng.shuffle(renamed)
    a, b = build(R2, rows), build(R2, renamed)
    assert isomorphic(a, b)
    # same null signatures, but one single-null block has no counterpart
    k = next(i for i, row in enumerate(renamed) if not isinstance(row[0], Null))
    broken = list(renamed)
    broken[k] = (const("other"), renamed[k][1])
    assert not isomorphic(a, build(R2, broken))
    # a reversed chain link changes the signatures of its two nulls
    k = next(i for i, row in enumerate(renamed) if isinstance(row[0], Null))
    broken = list(renamed)
    broken[k] = (renamed[k][1], renamed[k][0])
    assert not isomorphic(a, build(R2, broken))


def roundtrip_step(rows, smo, mode, side):
    instance = build(R3, [tuple(const(v) for v in row) for row in rows])
    result = backchase(evolve(instance, [smo], mode, build_side_tables=side))
    (step,) = result.steps
    assert step.meets_prediction, (step.achieved, step.predicted)
    return step


def test_nop_roundtrip_at_size():
    rows = [(f"x{i // 4}", f"y{i % 4}", f"z{i}") for i in range(N)]
    step = roundtrip_step(rows, SmoSpec("NOP"), "how", True)
    assert step.achieved == InverseType.EXACT


def test_drop_column_roundtrip_at_size():
    # without provenance the dropped column comes back as nulls, so the
    # classification runs the homomorphism searches and exchange chases
    rows = [(f"x{i // 4}", f"y{i % 4}", f"z{i}") for i in range(N)]
    step = roundtrip_step(
        rows, SmoSpec("DROP_COLUMN", {"relation": "R", "column": "z"}),
        "none", False)
    assert step.achieved not in (InverseType.EXACT, InverseType.CLASSICAL)
    assert step.classification.hom_forward and step.classification.de_equivalent


def test_join_roundtrip_at_size():
    # every tenth of each side has no partner, so both side tables fill
    pair = Schema.of(RelationSchema("R", ("id", "name")),
                     RelationSchema("V", ("name", "subject")))
    instance = Instance(pair, {
        "R": [Fact(TupleId("r", i + 1), (const(str(i)), const(f"n{i}")))
              for i in range(N)],
        "V": [Fact(TupleId("v", i + 1), (const(f"n{i + N // 10}"), const(f"s{i % 7}")))
              for i in range(N)]})
    result = backchase(evolve(instance, [SmoSpec("JOIN_TABLE", JOIN_PARAMS)],
                              "how", build_side_tables=True))
    (step,) = result.steps
    assert step.meets_prediction, (step.achieved, step.predicted)
    assert step.achieved == InverseType.EXACT


# bytes ``sys.getsizeof`` reports for one value object: a tuple of its fields
# with its headers.  CPython allocates one more item than that for every
# instance of a tuple subclass, so tracemalloc sees 8 bytes more.
VALUE_BYTES = {Constant: 56, Null: 48, TupleId: 56}


@pytest.mark.parametrize("cls, value, fields", [
    (Constant, const("a"), ["lexical", "kind"]), (Null, null(1), ["label"]),
    (TupleId, TupleId("r", 1), ["tag", "ordinal"])])
def test_value_objects_hold_only_their_fields(cls, value, fields):
    # a stored hash or any other extra slot would grow every value object
    # of every instance; the tuple holds the fields and nothing else
    assert tuple(value) == tuple(getattr(value, f) for f in fields)
    mro = cls.__mro__
    assert all(klass.__dict__["__slots__"] == () for klass in mro[:mro.index(tuple)])
    assert not hasattr(value, "__dict__")
    assert sys.getsizeof(value) <= VALUE_BYTES[cls]
    fields_of = tuple(value)
    held = [None] * 1000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(len(held)):
            held[i] = cls(*fields_of)
        # floor division leaves out the loop's own few hundred bytes
        per_object = (tracemalloc.get_traced_memory()[0] - before) // len(held)
    finally:
        tracemalloc.stop()
    assert per_object <= VALUE_BYTES[cls] + 8, per_object
