import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backchase import (
    Instance,
    SmoSpec,
    ValidationError,
    instances_equal,
    instance_to_json,
)
from backchase import storage
from backchase.model import (
    Constant,
    Fact,
    InternTable,
    Null,
    RelationSchema,
    Schema,
    TupleId,
    const,
    instance_dumps,
    instance_from_json,
)
from backchase.pipeline import backchase, evolve
from backchase.provenance import side_table_from_json, store_to_json
from support import RESOURCE_CONFIGS, SMO_CASES, mapping_to_json


def test_run_directory_roundtrip(tmp_path, merge_column_case):
    run = evolve(merge_column_case["source"], merge_column_case["script"],
                 "how", build_side_tables=True)
    storage.save_run(run, tmp_path / "run")
    again = storage.load_run(tmp_path / "run")
    assert again.provenance_mode == "how"
    assert again.side_tables_enabled is True
    assert instance_to_json(again.final) == instance_to_json(run.final)
    assert instance_to_json(again.initial) == instance_to_json(run.initial)
    assert [store_to_json(s.store) for s in again.steps] == \
        [store_to_json(s.store) for s in run.steps]
    assert {k: t for k, t in again.steps[0].side_tables.items()} == \
        {k: t for k, t in run.steps[0].side_tables.items()}
    # an inversion over the reloaded run behaves like the in-memory one
    a, b = backchase(run), backchase(again)
    assert a.composed == b.composed
    assert instances_equal(a.instance, b.instance)
    # every operator spec under every resource configuration loads as evolved
    for kind, makers in sorted(SMO_CASES.items()):
        rng = random.Random(kind)
        for number, make in enumerate(makers):
            instance, smo = make(rng)
            for mode, side in RESOURCE_CONFIGS:
                run = evolve(instance, [smo], mode, build_side_tables=side)
                out = tmp_path / f"{kind}-{number}-{mode}-{side}"
                storage.save_run(run, out)
                assert storage.load_run(out) == run, (smo, mode, side)


# A how + side-table run over the join fixture whose steps keep dangling
# rows and a dropped column as side tables.
THREE_STEPS = [
    SmoSpec("JOIN_TABLE", {"left": "R", "right": "V", "left_column": "name",
                           "right_column": "name", "target": "T"}),
    SmoSpec("DROP_COLUMN", {"relation": "T", "column": "subject"}),
    SmoSpec("COPY_TABLE", {"table": "T", "copy": "W"}),
]


def held_values(run) -> list:
    """Every constant and tuple id the run holds, with repeats: in its
    instances' facts, its stores' keys and monomials and its side tables'
    refs and values."""
    instances = [run.initial] + [s.target for s in run.steps]
    out = [x for inst in instances for _, f in inst.iter_facts() for x in (f.id, *f.values)]
    for step in run.steps:
        for tid, poly in step.store.annotations.items():
            out.append(tid)
            out.extend(i for mono, _ in poly.terms for i in mono)
        for table in step.side_tables.values():
            out.extend(x for row in table.rows for x in (row.ref, *row.values))
    return out


def test_load_run_holds_one_object_per_constant_and_tuple_id(tmp_path, join_case):
    run = evolve(join_case["source"], THREE_STEPS, "how", build_side_tables=True)
    storage.save_run(run, tmp_path / "run")
    loaded = storage.load_run(tmp_path / "run")
    assert loaded == run and all(s.side_tables for s in loaded.steps[:2])
    held = held_values(loaded)
    for kind in (Constant, TupleId):
        objects = [x for x in held if type(x) is kind]
        assert len(objects) > len(set(objects))
        assert len({id(x) for x in objects}) == len(set(objects))


@pytest.mark.parametrize("kind", sorted(SMO_CASES))
def test_hooked_decode_equals_plain_decode(tmp_path, kind):
    # every instance and side-table file of a saved run decodes to the same
    # objects parsed with an intern table's object hook as parsed plainly
    rng = random.Random(kind)
    for number, make in enumerate(SMO_CASES[kind]):
        instance, smo = make(rng)
        for mode, side in RESOURCE_CONFIGS:
            out = tmp_path / f"{number}-{mode}-{side}"
            storage.save_run(evolve(instance, [smo], mode, build_side_tables=side), out)
            interned = InternTable()
            for path in out.rglob("*.json"):
                if path.name in ("run.json", "store.json"):
                    continue
                text = path.read_text(encoding="utf-8")
                hooked = json.loads(text, object_hook=interned.hook)
                plain = json.loads(text)
                assert '"const"' not in json.dumps(hooked), path
                if path.name == "side_tables.json":
                    assert [side_table_from_json(t, interned) for t in hooked] == \
                        [side_table_from_json(t) for t in plain], path
                else:
                    decoded = instance_from_json(hooked, interned)
                    assert decoded == instance_from_json(plain), path
                    assert instance_dumps(decoded) == text, path


def test_non_canonical_constants_load_canonical(tmp_path):
    schema = Schema.of(RelationSchema("R", ("x", "y", "z")))
    instance = Instance(schema, {"R": [
        Fact(TupleId("r", 1), (const("7"), const("a"), const("1.5"))),
        Fact(TupleId("r", 2), (const("8"), const("b"), const("2.5")))]})
    run = evolve(instance, [SmoSpec("DROP_COLUMN", {"relation": "R", "column": "z"})],
                 "how", build_side_tables=True)
    out = tmp_path / "run"
    storage.save_run(run, out)
    for name, old, new in [("initial.json", '"7"', '"007"'),
                           ("initial.json", '"1.5"', '"+1.50"'),
                           ("step_00/side_tables.json", '"2.5"', '"2.500"')]:
        path = out / name
        assert old in path.read_text()
        path.write_text(path.read_text().replace(old, new))
    loaded = storage.load_run(out)
    assert loaded == run
    seven, _, one_and_a_half = loaded.initial.facts("R")[0].values
    assert seven == const("007") == Constant("7", "integer")
    assert one_and_a_half == const("+1.50") == Constant("1.5", "decimal")
    (table,) = loaded.steps[0].side_tables.values()
    assert table.rows[1].values == (const("2.500"),) == (Constant("2.5", "decimal"),)


def test_mapping_file_roundtrip(tmp_path):
    obj = {
        "source": {"relations": [{"name": "R", "attributes": ["x", "y"]}]},
        "target": {"relations": [{"name": "T", "attributes": ["x"]}]},
        "tgds": ["R(a,b) -> T(a)"],
    }
    path = tmp_path / "m.json"
    storage.write_json(path, obj)
    mapping = storage.load_mapping(path)
    assert mapping_to_json(mapping) == obj


def test_read_json_errors(tmp_path):
    with pytest.raises(ValidationError):
        storage.read_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ValidationError):
        storage.read_json(bad)


def test_dumps_is_stable(join_case):
    a = storage.dumps(instance_to_json(join_case["source"]))
    b = storage.dumps(instance_to_json(join_case["source"]))
    assert a == b and a.endswith("\n")


# ---------------------------------------------------------------------------
# instance_dumps writes what json.dumps makes of instance_to_json


def assert_dumps_identical(instance: Instance) -> str:
    text = instance_dumps(instance)
    assert text == storage.dumps(instance_to_json(instance))
    return text


@pytest.mark.parametrize("name", [
    f"{case}_{side}.json"
    for case in ("join_dangling", "merge_column_duplicates", "merge_table_overlap")
    for side in ("source", "target")
])
def test_instance_dumps_matches_fixture_files(fixtures_dir, name):
    path = fixtures_dir / name
    assert assert_dumps_identical(storage.load_instance(path)) == path.read_text()


@pytest.mark.parametrize("kind", sorted(SMO_CASES))
def test_instance_dumps_matches_saved_runs(tmp_path, kind):
    rng = random.Random(kind)
    for number, make in enumerate(SMO_CASES[kind]):
        instance, smo = make(rng)
        run = evolve(instance, [smo], "how", build_side_tables=True)
        out = tmp_path / str(number)
        storage.save_run(run, out)
        files = {out / "initial.json": run.initial, out / "target.json": run.final}
        for step in run.steps:
            files[out / f"step_{step.index:02d}" / "source.json"] = step.source
            files[out / f"step_{step.index:02d}" / "target.json"] = step.target
        for path, inst in files.items():
            assert path.read_text(encoding="utf-8") == assert_dumps_identical(inst)


names = st.text(min_size=1, max_size=6)
values = st.one_of(
    st.text(max_size=8).map(const),
    st.sampled_from(["", "\"", "\\", "\n\t\x00\x1f\x7f", "é\u2028ü", "-0.50",
                     "+007", "1e3"]).map(const),
    st.integers(1, 10**12).map(Null),
)


@st.composite
def instances(draw) -> Instance:
    rel_names = draw(st.lists(names, max_size=3, unique=True))
    relations, facts, ordinal = [], {}, 0
    for name in rel_names:
        attrs = tuple(draw(st.lists(names, max_size=3, unique=True)))
        relations.append(RelationSchema(name, attrs))
        rows = []
        for vector in draw(st.lists(st.tuples(*[values] * len(attrs)), max_size=3)):
            ordinal += 1
            rows.append(Fact(TupleId(draw(st.text(max_size=3)), ordinal), vector))
        facts[name] = rows
    return Instance(Schema(tuple(relations)), facts)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_instance_dumps_matches_json_dumps(instance):
    assert json.loads(assert_dumps_identical(instance)) == instance_to_json(instance)


def test_instance_dumps_zero_attribute_and_empty_relations():
    schema = Schema((RelationSchema("Z", ()), RelationSchema("E", ("a",))))
    instance = Instance(schema, {"Z": [Fact(TupleId("z", 1), ()),
                                       Fact(TupleId("z", 2), ())]})
    text = assert_dumps_identical(instance)
    assert '"attributes": [],' in text and '"values": []' in text
    assert '"tuples": []' in text
    assert assert_dumps_identical(Instance(Schema(()), {})) == '{\n  "relations": []\n}\n'
