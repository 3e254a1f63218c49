"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Criteria are exact-match for discrete labels and exhaustive or
seeded-random at the stated sizes elsewhere; total runtime stays under a
minute on a laptop.
"""

import itertools
import random

import pytest

from backchase import (
    Fact,
    Instance,
    InverseType,
    Polynomial,
    RelationSchema,
    Schema,
    SchemaMapping,
    SmoSpec,
    TupleId,
    chase,
    classify,
    classify_report,
    compile_forward,
    const,
    find_homomorphism,
    format_polynomial,
    instances_equal,
    null,
    parse_tgd,
    poly_add,
    poly_mul,
)
from backchase import storage
from backchase.analysis import at_least, strength, weakest
from backchase.catalog import ALL_KINDS, OPERATORS
from backchase.pipeline import backchase, evolve, roundtrip_report
from support import (
    RESOURCE_CONFIGS,
    SMO_CASES,
    brute_force_hom_exists,
    eval_all_ones,
    naive_trigger_matches,
    random_ground_instance,
    random_script,
    vectors_of,
)


# criterion banner lines are emitted by the conftest hook, which runs
# outside pytest's output capture
CRITERIA: dict[str, tuple[int, str]] = {}


def criterion(number, name):
    def wrap(fn):
        CRITERIA[fn.__name__] = (number, name)
        return fn
    return wrap


def achieved_type(source, script, mode, side) -> InverseType:
    run = evolve(source, script, mode, build_side_tables=side)
    return backchase(run).steps[0].achieved


# ---------------------------------------------------------------------------


@criterion(1, "representative matrix")
def test_criterion_1_matrix(join_case, merge_column_case, merge_table_case):
    ground = Instance(
        Schema.of(RelationSchema("R", ("x", "y", "z"))),
        {"R": [Fact(TupleId("r", 1), (const("1"), const("a"), const("b"))),
               Fact(TupleId("r", 2), (const("2"), const("c"), const("d")))]},
    )
    for variant in (1, 2):
        copy = [SmoSpec("COPY_TABLE", {"table": "R", "copy": "V"},
                        variant=variant)]
        assert achieved_type(ground, copy, "none", False) == InverseType.EXACT
        assert achieved_type(ground, copy, "how", False) == InverseType.EXACT
        assert achieved_type(ground, copy, "how", True) == InverseType.EXACT

    join_src, join_script = join_case["source"], join_case["script"]
    assert achieved_type(join_src, join_script, "none", False) == InverseType.RELAXED
    assert achieved_type(join_src, join_script, "why", False) == InverseType.RELAXED
    assert achieved_type(join_src, join_script, "how", False) == InverseType.RELAXED
    assert achieved_type(join_src, join_script, "how", True) == InverseType.EXACT

    mt_src, mt_script = merge_table_case["source"], merge_table_case["script"]
    assert achieved_type(mt_src, mt_script, "none", False) == \
        InverseType.RESULT_EQUIVALENT
    assert achieved_type(mt_src, mt_script, "how", False) == InverseType.EXACT

    mc_src, mc_script = (merge_column_case["source"],
                         merge_column_case["script"])
    assert achieved_type(mc_src, mc_script, "none", False) == InverseType.RELAXED
    assert achieved_type(mc_src, mc_script, "why", False) == InverseType.TP_RELAXED
    assert achieved_type(mc_src, mc_script, "how", False) == InverseType.TP_RELAXED
    assert achieved_type(mc_src, mc_script, "how", True) == InverseType.EXACT


@criterion(2, "scenario value checks")
def test_criterion_2_values(tmp_path, fixtures_dir, join_case,
                            merge_column_case):
    # join scenario: target values, polynomials, side table, reconstruction
    join_src = join_case["source"]
    run = evolve(join_src, join_case["script"], "how", build_side_tables=True)
    store = run.steps[0].store
    rows = {
        tuple(v.lexical for v in f.values): format_polynomial(
            store.annotations[f.id])
        for f in run.final.facts("T")
    }
    assert rows == {("1", "Alice", "Math"): "r1*s1",
                    ("1", "Alice", "IT"): "r1*s2"}
    dangling = run.steps[0].side_tables["R_dangling"]
    assert [(str(r.ref), [v.lexical for v in r.values])
            for r in dangling.rows] == [("r2", ["2", "Bob"])]
    result = backchase(run)
    assert instances_equal(result.instance, join_src)

    # bit-exact serialization against the frozen files
    from backchase.cli import main as cli_main
    out = tmp_path / "join_run"
    assert cli_main(["evolve",
                     "--in", str(fixtures_dir / "join_dangling_source.json"),
                     "--script", str(fixtures_dir / "join_dangling_script.json"),
                     "--provenance", "how", "--side-tables",
                     "--out", str(out)]) == 0
    for produced, frozen in [
        (out / "target.json", "join_dangling_target.json"),
        (out / "step_00" / "store.json", "join_dangling_store_how.json"),
        (out / "step_00" / "side_tables.json", "join_dangling_side_tables.json"),
    ]:
        assert produced.read_bytes() == (fixtures_dir / frozen).read_bytes()

    # column-merge scenario: exact decimal arithmetic and full recovery
    mc_src = merge_column_case["source"]
    run = evolve(mc_src, merge_column_case["script"], "how",
                 build_side_tables=True)
    store = run.steps[0].store
    rows = {
        tuple(v.lexical for v in f.values): format_polynomial(
            store.annotations[f.id])
        for f in run.final.facts("T")
    }
    assert rows == {("Alice", "5.0"): "r1 + r3", ("Bob", "4.7"): "r2"}
    result = backchase(run)
    assert instances_equal(result.instance, mc_src)
    assert sorted(vectors_of(result.instance, "R")) == [
        ("Alice", "1.7", "3.3"), ("Alice", "3.0", "2.0"), ("Bob", "2.0", "2.7")
    ]
    out2 = tmp_path / "mc_run"
    assert cli_main(["evolve",
                     "--in", str(fixtures_dir /
                                 "merge_column_duplicates_source.json"),
                     "--script", str(fixtures_dir /
                                     "merge_column_duplicates_script.json"),
                     "--provenance", "how", "--side-tables",
                     "--out", str(out2)]) == 0
    for produced, frozen in [
        (out2 / "target.json", "merge_column_duplicates_target.json"),
        (out2 / "step_00" / "store.json", "merge_column_duplicates_store_how.json"),
        (out2 / "step_00" / "side_tables.json",
         "merge_column_duplicates_side_tables.json"),
    ]:
        assert produced.read_bytes() == (fixtures_dir / frozen).read_bytes()


@criterion(3, "class lower bound")
def test_criterion_3_lower_bound():
    rng = random.Random(1009)
    for kind in ALL_KINDS:
        cases = SMO_CASES[kind]
        configs = itertools.cycle(RESOURCE_CONFIGS)
        for i in range(200):
            instance, smo = cases[i % len(cases)](rng)
            mode, side = next(configs)
            run = evolve(instance, [smo], mode, build_side_tables=side)
            step = backchase(run).steps[0]
            assert at_least(step.achieved, step.predicted), (
                kind, mode, side, step.achieved.value, step.predicted.value)
            if OPERATORS[kind].classes == ("I",):
                assert step.achieved == InverseType.EXACT, (kind, mode, side)


@criterion(4, "classifier lattice")
def test_criterion_4_lattice():
    rng = random.Random(271)
    checked = 0

    def closure_holds(report):
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

    # 300 triples from operator roundtrips
    kinds = list(ALL_KINDS)
    while checked < 300:
        kind = rng.choice(kinds)
        case = rng.choice(SMO_CASES[kind])
        instance, smo = case(rng)
        mode, side = rng.choice(RESOURCE_CONFIGS)
        run = evolve(instance, [smo], mode, build_side_tables=side)
        result = backchase(run)
        step = run.steps[0]
        report = classify_report(step.source, result.instance, step.mapping)
        assert closure_holds(report), (kind, report)
        assert classify(step.source, step.source, step.mapping) == \
            InverseType.EXACT
        checked += 1

    # 200 synthetic perturbation triples over a fixed projection mapping
    schema = Schema.of(RelationSchema("R", ("x", "y")))
    mapping = SchemaMapping(
        schema, Schema.of(RelationSchema("T", ("x",))),
        (parse_tgd("R(a, b) -> T(a)"),),
    )
    values = ["k1", "k2", "k3", 1, 2]
    for _ in range(200):
        def rand_rows():
            return [
                tuple(rng.choice(values) for _ in range(2))
                for _ in range(rng.randint(0, 5))
            ]

        def mk(rows):
            return Instance(schema, {"R": [
                Fact(TupleId("r", i + 1),
                     tuple(null(v) if isinstance(v, int) else const(v)
                           for v in row))
                for i, row in enumerate(rows)
            ]})

        original, candidate = mk(rand_rows()), mk(rand_rows())
        report = classify_report(original, candidate, mapping)
        assert closure_holds(report), report
        assert classify(original, original, mapping) == InverseType.EXACT
        checked += 1
    assert checked == 500


@criterion(5, "homomorphism oracle equivalence")
def test_criterion_5_hom_oracle():
    schema = Schema.of(RelationSchema("R", ("x", "y")))
    consts = [const(k) for k in ("k1", "k2", "k3")]

    def mk(vectors, tag="r"):
        return Instance(schema, {"R": [
            Fact(TupleId(tag, i + 1), v) for i, v in enumerate(vectors)
        ]})

    # exhaustive half: every source instance of up to 2 facts over the
    # 3-constant pool plus 2 nulls, against every target of up to 2 facts
    # over the pool plus 1 null
    src_values = consts + [null(1), null(2)]
    dst_values = consts + [null(1)]
    src_vectors = list(itertools.product(src_values, repeat=2))
    dst_vectors = list(itertools.product(dst_values, repeat=2))
    src_family = [()] + [(v,) for v in src_vectors] + [
        pair for pair in itertools.combinations(src_vectors, 2)
    ]
    dst_family = [()] + [(v,) for v in dst_vectors] + [
        pair for pair in itertools.combinations(dst_vectors, 2)
    ]
    pairs = 0
    for sv in src_family:
        a = mk(sv)
        for dv in dst_family:
            b = mk(dv, tag="s")
            assert (find_homomorphism(a, b) is not None) == \
                brute_force_hom_exists(a, b)
            pairs += 1

    # seeded-random half at the full stated bounds: up to 6 facts, 4 nulls
    rng = random.Random(4242)
    wide = consts + [null(i) for i in range(1, 5)]
    for _ in range(1500):
        a = mk([tuple(rng.choice(wide) for _ in range(2))
                for _ in range(rng.randint(0, 6))])
        b = mk([tuple(rng.choice(wide) for _ in range(2))
                for _ in range(rng.randint(0, 6))], tag="s")
        assert (find_homomorphism(a, b) is not None) == \
            brute_force_hom_exists(a, b)
        pairs += 1
    assert pairs > 40_000


@criterion(6, "semiring laws and counting")
def test_criterion_6_semiring(join_case, merge_column_case):
    rng = random.Random(77)
    ids = [TupleId(t, i) for t in ("r", "s") for i in range(1, 3)]

    def rand_poly():
        return Polynomial.build(
            (tuple(rng.choice(ids) for _ in range(rng.randint(0, 4))),
             rng.randint(1, 3))
            for _ in range(rng.randint(0, 5))
        )

    zero, one = Polynomial.zero(), Polynomial.one()
    for _ in range(400):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert poly_add(a, b) == poly_add(b, a)
        assert poly_mul(a, b) == poly_mul(b, a)
        assert poly_add(poly_add(a, b), c) == poly_add(a, poly_add(b, c))
        assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))
        assert poly_mul(a, poly_add(b, c)) == \
            poly_add(poly_mul(a, b), poly_mul(a, c))
        assert poly_add(a, zero) == a
        assert poly_mul(a, one) == a
        assert poly_mul(a, zero) == zero

    # eval-at-1 equals the brute-force trigger count per produced vector
    from backchase.functions import default_registry
    from backchase.tgds import Variable as Var
    reg = default_registry()

    def resolve(term, bindings):
        if isinstance(term, Var):
            return bindings[term.name]
        if hasattr(term, "function"):
            return reg.call(term.function,
                            tuple(resolve(a, bindings) for a in term.args))
        return term

    for case in (join_case, merge_column_case):
        src = case["source"]
        mapping = compile_forward(case["script"][0], src.schema)
        out, store = chase(src, mapping, "how")
        counts: dict = {}
        for tgd, bindings, _ in naive_trigger_matches(src, mapping):
            for atom in tgd.head:
                key = (atom.relation,
                       tuple(resolve(t, bindings) for t in atom.terms))
                counts[key] = counts.get(key, 0) + 1
        for rel in out.schema.names():
            for f in out.facts(rel):
                assert eval_all_ones(store.annotations[f.id]) == \
                    counts[(rel, f.values)]


@criterion(7, "composition rule")
def test_criterion_7_composition():
    rng = random.Random(555)
    schema = Schema.of(RelationSchema("R", ("x", "y", "z")),
                       RelationSchema("V", ("x", "y", "z")))
    for trial in range(30):
        script = random_script(rng, schema, rng.randint(2, 4))
        src = random_ground_instance(rng, schema, max_rows=10)
        mode, side = rng.choice([("none", False), ("where", False),
                                 ("why", False), ("how", True)])
        run = evolve(src, script, mode, build_side_tables=side)
        result = backchase(run)
        assert result.composed == weakest(s.achieved for s in result.steps)

    # scripts ending in the flagged non-invertible configuration report none
    flagged = 0
    for trial in range(20):
        script = random_script(rng, schema, rng.randint(1, 3),
                               include_flagged_move=True)
        if script[-1].kind != "MOVE_COLUMN":
            continue
        src = random_ground_instance(rng, schema, max_rows=8)
        run = evolve(src, script, "none")
        result = backchase(run)
        assert result.composed == InverseType.NONE
        assert result.composed == weakest(s.achieved for s in result.steps)
        flagged += 1
    assert flagged >= 5
