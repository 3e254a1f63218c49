import pytest
from hypothesis import given, settings, strategies as st

from backchase import (
    Polynomial,
    SideTableSpec,
    TupleId,
    ValidationError,
    build_side_table,
    compile_forward,
    format_polynomial,
    parse_polynomial,
    poly_add,
    poly_mul,
    to_witness_basis,
)
from backchase.chase import matched_source_ids
from backchase.provenance import (
    basis_from_json,
    basis_to_json,
    store_from_json,
    store_to_json,
    ProvenanceStore,
    witness_basis,
)
from support import naive_trigger_matches

r1, r2, r3, s1 = (TupleId("r", 1), TupleId("r", 2), TupleId("r", 3),
                  TupleId("s", 1))


def P(*ids):
    return Polynomial.of(*ids)


def test_addition_merges_duplicates():
    assert poly_add(P(r1), P(r3)) == parse_polynomial("r1 + r3")
    assert poly_add(P(r1), P(r1)) == parse_polynomial("2*r1")
    assert poly_add(P(r1), Polynomial.zero()) == P(r1)


def test_multiplication_distributes():
    assert poly_mul(P(r1), P(s1)) == parse_polynomial("r1*s1")
    assert poly_mul(P(r1), Polynomial.one()) == P(r1)
    left = poly_mul(poly_add(P(r1), P(r3)), P(s1))
    assert left == parse_polynomial("r1*s1 + r3*s1")


def test_textual_form():
    p = poly_add(poly_mul(P(r1), P(s1)), poly_add(P(r3), P(r3)))
    assert format_polynomial(p) == "r1*s1 + 2*r3"
    assert parse_polynomial("r1*s1 + 2*r3") == p
    assert format_polynomial(Polynomial.zero()) == "0"
    assert parse_polynomial("0") == Polynomial.zero()


def test_parse_rejects_malformed():
    for bad in ["", "+", "r1 *", "* r1", "r1 + + r2"]:
        with pytest.raises(ValidationError):
            parse_polynomial(bad)


def test_witness_basis_projection():
    assert to_witness_basis(parse_polynomial("r1 + r3")) == witness_basis(
        [[r1], [r3]]
    )
    assert to_witness_basis(parse_polynomial("r1*s1")) == witness_basis([[r1, s1]])
    assert to_witness_basis(parse_polynomial("2*r1")) == witness_basis([[r1]])


def test_witness_basis_of_sum_is_union():
    a, b = parse_polynomial("r1*s1"), parse_polynomial("r3")
    assert to_witness_basis(poly_add(a, b)) == (
        to_witness_basis(a) | to_witness_basis(b)
    )


ids_strategy = st.sampled_from([r1, r2, r3, s1])
mono_strategy = st.lists(ids_strategy, min_size=0, max_size=4)
poly_strategy = st.lists(
    st.tuples(mono_strategy, st.integers(1, 3)), min_size=0, max_size=5
).map(lambda ms: Polynomial.build((tuple(m), c) for m, c in ms))


@settings(max_examples=250, deadline=None)
@given(poly_strategy, poly_strategy, poly_strategy)
def test_semiring_laws(a, b, c):
    assert poly_add(a, b) == poly_add(b, a)
    assert poly_mul(a, b) == poly_mul(b, a)
    assert poly_add(poly_add(a, b), c) == poly_add(a, poly_add(b, c))
    assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))
    assert poly_mul(a, poly_add(b, c)) == poly_add(poly_mul(a, b), poly_mul(a, c))
    assert poly_add(a, Polynomial.zero()) == a
    assert poly_mul(a, Polynomial.one()) == a
    assert poly_mul(a, Polynomial.zero()) == Polynomial.zero()


@settings(max_examples=100, deadline=None)
@given(poly_strategy, poly_strategy)
def test_basis_union_property(a, b):
    assert to_witness_basis(poly_add(a, b)) == (
        to_witness_basis(a) | to_witness_basis(b)
    )


def test_store_json_roundtrip():
    store = ProvenanceStore("how", {TupleId("t", 1): parse_polynomial("r1 + 2*r3")})
    assert store_from_json(store_to_json(store)).annotations == store.annotations
    why = ProvenanceStore("why", {TupleId("t", 1): witness_basis([[r1], [r2, s1]])})
    again = store_from_json(store_to_json(why))
    assert again.annotations == why.annotations
    where = ProvenanceStore("where", {TupleId("t", 1): frozenset({"R", "V"})})
    assert store_from_json(store_to_json(where)).annotations == where.annotations


def test_basis_json_is_sorted():
    basis = witness_basis([[r3], [r1, s1]])
    assert basis_to_json(basis) == [["r1", "s1"], ["r3"]]
    assert basis_from_json(basis_to_json(basis)) == basis


def test_dangling_side_table(join_case):
    src = join_case["source"]
    mapping = compile_forward(join_case["script"][0], src.schema)
    matched = matched_source_ids(src, mapping)
    spec = SideTableSpec("R_dangling", "R", "dangling", ("id", "name"))
    table = build_side_table(src, spec, matched)
    assert [(str(row.ref), [v.lexical for v in row.values]) for row in table.rows] == [
        ("r2", ["2", "Bob"])
    ]
    # independent oracle: participants per naive enumeration
    used = set()
    for _, _, facts in naive_trigger_matches(src, mapping):
        used.update(f.id for f in facts)
    expected = {f.id for f in src.facts("R")} - used
    assert {row.ref for row in table.rows} == expected


def test_projection_side_table(merge_column_case):
    src = merge_column_case["source"]
    spec = SideTableSpec("R_mod2", "R", "projection", ("mod2",))
    table = build_side_table(src, spec)
    assert [(str(r.ref), r.values[0].lexical) for r in table.rows] == [
        ("r1", "3.3"), ("r2", "2.7"), ("r3", "2.0")
    ]


def test_empty_projection_keeps_ids(merge_column_case):
    src = merge_column_case["source"]
    table = build_side_table(src, SideTableSpec("R_dropped", "R", "projection", ()))
    assert [str(r.ref) for r in table.rows] == ["r1", "r2", "r3"]
    assert all(r.values == () for r in table.rows)


def test_empty_source_side_table(merge_column_case):
    from backchase import Instance
    src = merge_column_case["source"]
    empty = Instance(src.schema, {})
    table = build_side_table(empty, SideTableSpec("R_mod2", "R", "projection",
                                                  ("mod2",)))
    assert table.rows == ()


tuple_ids = st.builds(TupleId, st.sampled_from(["r", "s", "t"]), st.integers(1, 4))
polynomials = st.lists(st.tuples(st.lists(tuple_ids, max_size=3), st.integers(0, 3)),
                       max_size=4).map(Polynomial.build)


@settings(max_examples=200, deadline=None)
@given(polynomials, polynomials)
def test_poly_add_of_canonical_polynomials(p, q):
    assert poly_add(p) is p
    assert poly_add(p) == Polynomial.build(p.terms)
    assert poly_add(p, q) == Polynomial.build(p.terms + q.terms)
    assert parse_polynomial(format_polynomial(p)) == p


# Texts at the edge of the single-id reading, and what each gives: a
# polynomial, or the message of the ValidationError it raises.
PARSE_EDGES = {
    "r1": P(r1),
    " r1 ": P(r1),
    "": "malformed polynomial term ''",
    "r": "malformed tuple id 'r'; expected <tag><ordinal>",
    "5": Polynomial((((), 5),)),
    "0": Polynomial.zero(),
    "r1*": "malformed polynomial term 'r1*'",
    "+r1": "malformed polynomial term ''",
    "\u0663*r1": Polynomial((((r1,), 3),)),  # an Arabic-Indic 3 as coefficient
    "\u00b2": "malformed polynomial coefficient '\u00b2'",
    "r1 + r1": Polynomial((((r1,), 2),)),
    "5r": "malformed tuple id '5r'; expected <tag><ordinal>",
}


@pytest.mark.parametrize("text", PARSE_EDGES)
def test_parse_edge_texts(text):
    expected = PARSE_EDGES[text]
    if isinstance(expected, str):
        with pytest.raises(ValidationError) as caught:
            parse_polynomial(text)
        assert str(caught.value) == expected
    else:
        assert parse_polynomial(text) == expected


any_tuple_ids = st.builds(TupleId, st.sampled_from(["r", "s", "Emp", "t_", "\u00e9", "x9y"]),
                          st.integers(0, 10**6))
sums_and_products = st.one_of(
    any_tuple_ids.map(Polynomial.of),
    st.lists(st.tuples(st.lists(any_tuple_ids, max_size=3), st.integers(0, 4)),
             max_size=4).map(Polynomial.build))


@settings(max_examples=300, deadline=None)
@given(sums_and_products)
def test_polynomial_text_roundtrip(p):
    # one-id texts are read without the term parser, the rest with it
    text = format_polynomial(p)
    assert parse_polynomial(text) == parse_polynomial(f" {text}\n") == p


def test_parse_canonicalizes_text_out_of_order():
    r10 = TupleId("r", 10)
    assert parse_polynomial("r1 + r1") == Polynomial((((r1,), 2),))
    assert parse_polynomial("r10 + r2") == Polynomial((((r2,), 1), ((r10,), 1)))
    assert parse_polynomial("s1*r1 + 0*r2") == P(r1, s1)
    assert parse_polynomial("r1 + 0*r2") == P(r1)
    assert parse_polynomial("r2 + 1") == Polynomial((((), 1), ((r2,), 1)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.lists(st.builds(TupleId, st.sampled_from(["r", "s", "rs"]),
                                             st.integers(1, 12)), max_size=3),
                          st.integers(0, 3)), max_size=5).map(Polynomial.build),
       st.randoms(use_true_random=False))
def test_shuffled_text_parses_to_the_same_polynomial(p, rng):
    chunks = []
    for mono, coeff in p.terms:
        ids = [str(t) for t in mono]
        rng.shuffle(ids)
        # a coefficient is sometimes spelled out as repeated terms
        for c in [1] * coeff if ids and rng.random() < 0.5 else [coeff]:
            chunks.append("*".join(([str(c)] if c != 1 or not ids else []) + ids))
    rng.shuffle(chunks)
    text = " + ".join(chunks) or "0"
    assert parse_polynomial(text) == p
    assert parse_polynomial(format_polynomial(p)) == p
