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
    Fact,
    Null,
    RelationSchema,
    Schema,
    TupleId,
    const,
    instance_dumps,
)
from backchase.pipeline import backchase, evolve
from backchase.provenance import store_to_json
from support import SMO_CASES


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


def test_mapping_file_roundtrip(tmp_path):
    obj = {
        "source": {"relations": [{"name": "R", "attributes": ["x", "y"]}]},
        "target": {"relations": [{"name": "T", "attributes": ["x"]}]},
        "tgds": ["R(a,b) -> T(a)"],
    }
    path = tmp_path / "m.json"
    storage.write_json(path, obj)
    mapping = storage.load_mapping(path)
    assert storage.mapping_to_json(mapping) == obj


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
