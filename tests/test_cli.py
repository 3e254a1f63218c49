import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from backchase import storage
from backchase.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*argv) -> int:
    return main(list(argv))


def test_evolve_writes_bit_exact_target(tmp_path, fixtures_dir, capsys):
    out = tmp_path / "run"
    code = run_cli("evolve",
                   "--in", str(fixtures_dir / "join_dangling_source.json"),
                   "--script", str(fixtures_dir / "join_dangling_script.json"),
                   "--provenance", "how", "--side-tables",
                   "--out", str(out))
    assert code == 0
    expected = (fixtures_dir / "join_dangling_target.json").read_bytes()
    assert (out / "target.json").read_bytes() == expected
    store_expected = (fixtures_dir / "join_dangling_store_how.json").read_bytes()
    assert (out / "step_00" / "store.json").read_bytes() == store_expected
    side_expected = (fixtures_dir / "join_dangling_side_tables.json").read_bytes()
    assert (out / "step_00" / "side_tables.json").read_bytes() == side_expected


def test_invert_restores_source(tmp_path, fixtures_dir, capsys):
    out = tmp_path / "run"
    run_cli("evolve",
            "--in", str(fixtures_dir / "join_dangling_source.json"),
            "--script", str(fixtures_dir / "join_dangling_script.json"),
            "--provenance", "how", "--side-tables", "--out", str(out))
    reconstructed = tmp_path / "back.json"
    code = run_cli("invert", "--run", str(out), "--out", str(reconstructed))
    assert code == 0
    printed = capsys.readouterr().out
    assert "composed: exact" in printed
    from backchase import instances_equal
    original = storage.load_instance(fixtures_dir / "join_dangling_source.json")
    assert instances_equal(storage.load_instance(reconstructed), original)


def test_classify_command(tmp_path, fixtures_dir, capsys):
    mapping = {
        "source": {"relations": [{"name": "R", "attributes": ["id", "name"]},
                                 {"name": "V",
                                  "attributes": ["name", "subject"]}]},
        "target": {"relations": [{"name": "T",
                                  "attributes": ["id", "name", "subject"]}]},
        "tgds": ["R(a,b) AND V(b,c) -> T(a,b,c)"],
    }
    mpath = tmp_path / "mapping.json"
    mpath.write_text(json.dumps(mapping))
    src = fixtures_dir / "join_dangling_source.json"
    code = run_cli("classify", "--original", str(src),
                   "--reconstructed", str(src), "--mapping", str(mpath))
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"type": "exact", "hom_forward": True,
                      "hom_backward": True, "cardinality_equal": True,
                      "de_equivalent": True}


@pytest.mark.parametrize("change, fragment", [
    ({"tgds": 5}, "'tgds' must be a list of dependency strings, got 5"),
    ({"tgds": [5]}, "'tgds' must be a list of dependency strings, got [5]"),
    ({"tgds": [None]}, "'tgds' must be a list of dependency strings, got [None]"),
    ({"source": {"relations": [{"name": "R", "attributes": "ab"}]}},
     "relation 'R': 'attributes' must be a list of names, got 'ab'"),
], ids=["tgds-number", "tgds-number-item", "tgds-null-item", "attributes-string"])
def test_malformed_mapping_exits_2(tmp_path, fixtures_dir, capsys, change, fragment):
    mapping = {"source": {"relations": [{"name": "R", "attributes": ["a", "b"]}]},
               "target": {"relations": [{"name": "T", "attributes": ["a", "b"]}]},
               "tgds": ["R(a,b) -> T(a,b)"], **change}
    mpath = tmp_path / "mapping.json"
    mpath.write_text(json.dumps(mapping))
    src = fixtures_dir / "join_dangling_source.json"
    code = run_cli("classify", "--original", str(src),
                   "--reconstructed", str(src), "--mapping", str(mpath))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert "Traceback" not in err


def test_roundtrip_report_exit_codes(tmp_path, fixtures_dir, capsys):
    report_path = tmp_path / "report.json"
    code = run_cli("roundtrip",
                   "--in", str(fixtures_dir / "merge_table_overlap_source.json"),
                   "--script", str(fixtures_dir / "merge_table_overlap_script.json"),
                   "--provenance", "how", "--report", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["composed"]["type"] == "exact"
    assert report["steps"][0]["meets_prediction"] is True


def test_roundtrip_below_prediction_exits_3(tmp_path, capsys):
    # a join-dependent copy on an instance violating the operator's
    # precondition (a receiver row without a partner) falls below "exact"
    instance = {
        "relations": [
            {"name": "R", "attributes": ["id", "name"], "tuples": [
                {"id": "r1", "values": [{"const": "1"}, {"const": "a"}]},
                {"id": "r2", "values": [{"const": "2"}, {"const": "zz"}]},
            ]},
            {"name": "V", "attributes": ["name", "subject"], "tuples": [
                {"id": "s1", "values": [{"const": "a"}, {"const": "x"}]},
            ]},
        ]
    }
    script = {"steps": [{
        "kind": "COPY_COLUMN", "relation": "R", "source": "V",
        "join": {"column": "name", "source_column": "name"},
        "column": "subject"}]}
    ipath, spath = tmp_path / "i.json", tmp_path / "s.json"
    ipath.write_text(json.dumps(instance))
    spath.write_text(json.dumps(script))
    code = run_cli("roundtrip", "--in", str(ipath), "--script", str(spath),
                   "--provenance", "none", "--report",
                   str(tmp_path / "r.json"))
    assert code == 3


def test_validation_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run_cli("evolve", "--in", str(bad), "--script", str(bad),
                   "--out", str(tmp_path / "out"))
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("tuple_obj", [
    {"values": [{"const": "1"}]},
    {"id": 7, "values": [{"const": "1"}]},
    {"id": "r1"},
    "r1",
])
def test_malformed_tuple_exits_2(tmp_path, fixtures_dir, capsys, tuple_obj):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"relations": [
        {"name": "R", "attributes": ["id"], "tuples": [tuple_obj]}]}))
    code = run_cli("evolve", "--in", str(bad),
                   "--script", str(fixtures_dir / "join_dangling_script.json"),
                   "--out", str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: malformed tuple" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("content, fragment", [
    (b'{"relations": [{"name": "R", "attributes": ["a"], "tuples": [{"id": "r1", '
     b'"values": [{"const": "' + b"7" * 5000 + b'"}]}]}]}', "too long"),
    (b'{"relations": [' + b"7" * 5000 + b"]}", "is not valid JSON"),
    (b'{"relations": []}\xff', "is not UTF-8"),
], ids=["long-integer-constant", "long-json-integer", "not-utf8"])
def test_unreadable_instance_exits_2(tmp_path, fixtures_dir, capsys, content, fragment):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code = run_cli("evolve", "--in", str(bad),
                   "--script", str(fixtures_dir / "join_dangling_script.json"),
                   "--out", str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert fragment in err and "Traceback" not in err


def test_directory_as_input_exits_2(tmp_path, fixtures_dir, capsys):
    code = run_cli("roundtrip", "--in", str(tmp_path),
                   "--script", str(fixtures_dir / "join_dangling_script.json"),
                   "--report", str(tmp_path / "r.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert "is a directory" in err
    assert "Traceback" not in err


# Each: the arguments after the command's inputs, given a run directory, a
# plain file and a scratch directory, and the path the error must name.
FILE_ERRORS = {
    "invert-run-is-a-file": lambda run, file, tmp: (
        ["invert", "--run", file, "--out", tmp / "b.json"], file),
    "invert-out-is-a-directory": lambda run, file, tmp: (
        ["invert", "--run", run, "--out", tmp], tmp),
    "invert-out-in-missing-directory": lambda run, file, tmp: (
        ["invert", "--run", run, "--out", tmp / "missing" / "b.json"],
        tmp / "missing" / "b.json"),
    "roundtrip-report-is-a-directory": lambda run, file, tmp: (
        ["roundtrip", "--report", tmp], tmp),
    "evolve-out-is-a-file": lambda run, file, tmp: (
        ["evolve", "--out", file], file),
}


@pytest.mark.parametrize("case", FILE_ERRORS.values(), ids=FILE_ERRORS.keys())
def test_file_errors_exit_2(tmp_path, fixtures_dir, capsys, case):
    run = tmp_path / "run"
    inputs = ["--in", str(fixtures_dir / "join_dangling_source.json"),
              "--script", str(fixtures_dir / "join_dangling_script.json"),
              "--provenance", "how"]
    assert run_cli("evolve", *inputs, "--out", str(run)) == 0
    file = tmp_path / "plain.json"
    file.write_text("{}")
    argv, named = case(run, file, tmp_path)
    if argv[0] != "invert":
        argv[1:1] = inputs
    capsys.readouterr()
    assert run_cli(*map(str, argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(named) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("variant", ["x", None, [2], 1.9, True, "2"])
def test_malformed_variant_exits_2(tmp_path, fixtures_dir, capsys, variant):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"steps": [{"kind": "NOP", "variant": variant}]}))
    code = run_cli("evolve",
                   "--in", str(fixtures_dir / "join_dangling_source.json"),
                   "--script", str(script), "--out", str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert "error: variant must be 1 or 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("manifest", [
    {}, [], {"provenance_mode": "how", "script": {"steps": []},
             "initial": "initial.json", "steps": [{"kind": "NOP"}]},
    {"provenance_mode": "how", "script": {"steps": []},
     "initial": 5, "steps": []},
])
def test_malformed_run_manifest_exits_2(tmp_path, capsys, manifest):
    run = tmp_path / "run"
    run.mkdir()
    (run / "run.json").write_text(json.dumps(manifest))
    code = run_cli("invert", "--run", str(run), "--out", str(tmp_path / "back.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "run.json" in err
    assert "Traceback" not in err


def test_catalog_lists_all_operators(capsys):
    assert run_cli("catalog") == 0
    out = capsys.readouterr().out
    for kind in ("COPY_TABLE", "JOIN_TABLE", "MERGE_TABLE", "MERGE_COLUMN",
                 "NOP", "MOVE_COLUMN"):
        assert kind in out
    assert "R'(a,b,c) AND V(a,b,c) -> R(a,b,c)" in out


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "backchase.cli", "catalog"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "SPLIT_COLUMN" in proc.stdout


@pytest.mark.parametrize("name", ["A+B", "A*B", " A", "A B", "A1"])
def test_how_run_of_any_relation_name_inverts(tmp_path, capsys, name):
    # tuple ids minted for the relation appear in how-provenance text, which
    # splits at '+' and '*' and strips edge blanks
    source, script = tmp_path / "source.json", tmp_path / "script.json"
    source.write_text(json.dumps({"relations": [{
        "name": name, "attributes": ["x"],
        "tuples": [{"id": "t1", "values": [{"const": "1"}]}]}]}))
    script.write_text(json.dumps({"steps": [
        {"kind": "NOP"}, {"kind": "COPY_TABLE", "table": name, "copy": "C"}]}))
    run, back = tmp_path / "run", tmp_path / "back.json"
    assert run_cli("evolve", "--in", str(source), "--script", str(script),
                   "--provenance", "how", "--out", str(run)) == 0
    assert run_cli("invert", "--run", str(run), "--out", str(back)) == 0
    from backchase import instances_equal
    assert instances_equal(storage.load_instance(back),
                           storage.load_instance(source))


def test_invert_with_restriction(tmp_path, fixtures_dir, capsys):
    out = tmp_path / "run"
    run_cli("evolve",
            "--in", str(fixtures_dir / "join_dangling_source.json"),
            "--script", str(fixtures_dir / "join_dangling_script.json"),
            "--provenance", "how", "--side-tables", "--out", str(out))
    subset = {
        "relations": [{
            "name": "T", "attributes": ["id", "name", "subject"],
            "tuples": [{"id": "t2", "values": [
                {"const": "1"}, {"const": "Alice"}, {"const": "Math"}]}],
        }]
    }
    spath = tmp_path / "subset.json"
    spath.write_text(json.dumps(subset))
    code = run_cli("invert", "--run", str(out),
                   "--out", str(tmp_path / "part.json"),
                   "--restrict", str(spath))
    assert code == 0
    assert "advisory" in capsys.readouterr().out
    part = storage.load_instance(tmp_path / "part.json")
    assert [tuple(v.lexical for v in f.values) for f in part.facts("V")] == [
        ("Alice", "Math")
    ]


# ---------------------------------------------------------------------------
# run-directory integrity

TWO_STEP_SCRIPT = {"steps": [
    {"kind": "JOIN_TABLE", "left": "R", "right": "V", "left_column": "name",
     "right_column": "name", "target": "T"},
    {"kind": "DROP_COLUMN", "relation": "T", "column": "subject"},
]}


def evolve_two_steps(tmp_path, fixtures_dir) -> Path:
    """A how + side-table run of a join followed by a column drop."""
    script = tmp_path / "two_steps.json"
    script.write_text(json.dumps(TWO_STEP_SCRIPT))
    out = tmp_path / "run"
    assert run_cli("evolve",
                   "--in", str(fixtures_dir / "join_dangling_source.json"),
                   "--script", str(script), "--provenance", "how",
                   "--side-tables", "--out", str(out)) == 0
    return out


def invert_exit(run: Path, tmp_path) -> int:
    return run_cli("invert", "--run", str(run), "--out", str(tmp_path / "back.json"))


def test_two_step_run_inverts(tmp_path, fixtures_dir, capsys):
    run = evolve_two_steps(tmp_path, fixtures_dir)
    assert invert_exit(run, tmp_path) == 0


def test_reformatted_run_files_still_load(tmp_path, fixtures_dir, capsys):
    # equal instances written differently are accepted: texts are compared
    # first, parsed instances only when the texts differ
    run = evolve_two_steps(tmp_path, fixtures_dir)
    for name in ("initial.json", "step_00/source.json", "step_01/source.json",
                 "target.json"):
        path = run / name
        path.write_text(json.dumps(json.loads(path.read_text())))
    assert invert_exit(run, tmp_path) == 0
    again = storage.load_run(run)
    assert again.steps[0].source is again.initial
    assert again.steps[1].source is again.steps[0].target


def assert_rejected(run: Path, tmp_path, capsys, *fragments: str) -> None:
    assert invert_exit(run, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    for fragment in fragments:
        assert fragment in err


def test_manifest_with_extra_step_exits_2(tmp_path, fixtures_dir, capsys):
    run = evolve_two_steps(tmp_path, fixtures_dir)
    manifest = json.loads((run / "run.json").read_text())
    manifest["steps"].append({"dir": "step_01", "kind": "DROP_COLUMN"})
    (run / "run.json").write_text(json.dumps(manifest))
    assert_rejected(run, tmp_path, capsys, "3 step directories", "2 steps")


def test_step_source_not_previous_target_exits_2(tmp_path, fixtures_dir, capsys):
    run = evolve_two_steps(tmp_path, fixtures_dir)
    target = json.loads((run / "step_00" / "target.json").read_text())
    target["relations"][0]["tuples"].pop()
    (run / "step_01" / "source.json").write_text(json.dumps(target))
    assert_rejected(run, tmp_path, capsys, "does not chain",
                    str(Path("step_01") / "source.json"),
                    str(Path("step_00") / "target.json"))


def test_final_target_not_last_step_target_exits_2(tmp_path, fixtures_dir, capsys):
    run = evolve_two_steps(tmp_path, fixtures_dir)
    (run / "target.json").write_text((run / "step_00" / "target.json").read_text())
    assert_rejected(run, tmp_path, capsys, "does not chain", "target.json")


def test_final_target_not_made_by_last_step_exits_2(tmp_path, fixtures_dir, capsys):
    # the last target and target.json agree, but not with the operator
    run = evolve_two_steps(tmp_path, fixtures_dir)
    final = json.loads((run / "target.json").read_text())
    final["relations"][0]["attributes"][1] = "label"
    for name in ("step_01/target.json", "target.json"):
        (run / name).write_text(json.dumps(final))
    assert_rejected(run, tmp_path, capsys, "are not what DROP_COLUMN makes")


def test_side_table_with_other_attributes_exits_2(tmp_path, fixtures_dir, capsys):
    # the lookup that restores the dropped column reads it by attribute name
    run = evolve_two_steps(tmp_path, fixtures_dir)
    path = run / "step_01" / "side_tables.json"
    tables = json.loads(path.read_text())
    tables[0]["attributes"] = [""]
    path.write_text(json.dumps(tables))
    assert_rejected(run, tmp_path, capsys, "side table T_subject",
                    "DROP_COLUMN keeps ['subject']")


def _no_tables(tables):
    return []


def _left_table_only(tables):
    return [t for t in tables if t["name"] == "R_dangling"]


def _extra_table(tables):
    return tables + [{"name": "W_dangling", "attributes": ["id"], "rows": []}]


def _join_tables(tables):
    return json.loads((FIXTURES / "join_dangling_side_tables.json").read_text())


@pytest.mark.parametrize("flags, change, manifest, fragment", [
    (["--provenance", "how", "--side-tables"], _no_tables, {},
     "holds side tables []; with side tables on, JOIN_TABLE keeps "
     "['R_dangling', 'V_dangling']"),
    (["--provenance", "how", "--side-tables"], _left_table_only, {},
     "holds side tables ['R_dangling']; with side tables on"),
    (["--provenance", "how", "--side-tables"], _extra_table, {},
     "holds side tables ['R_dangling', 'V_dangling', 'W_dangling']"),
    (["--provenance", "how"], _join_tables, {},
     "with side tables off, JOIN_TABLE keeps []"),
    (["--provenance", "none"], _join_tables, {"side_tables_enabled": True},
     "records side tables with provenance none"),
], ids=["emptied", "one-dropped", "unknown-extra", "tables-when-off",
        "tables-without-provenance"])
def test_side_tables_not_the_operators_exit_2(tmp_path, fixtures_dir, capsys,
                                              flags, change, manifest, fragment):
    # a missing table would otherwise be skipped and its rows silently lost
    run = tmp_path / "run"
    assert run_cli("evolve",
                   "--in", str(fixtures_dir / "join_dangling_source.json"),
                   "--script", str(fixtures_dir / "join_dangling_script.json"),
                   *flags, "--out", str(run)) == 0
    path = run / "step_00" / "side_tables.json"
    path.write_text(json.dumps(change(json.loads(path.read_text()))))
    (run / "run.json").write_text(json.dumps(
        {**json.loads((run / "run.json").read_text()), **manifest}))
    where = "run.json" if manifest else str(Path("step_00") / "side_tables.json")
    assert_rejected(run, tmp_path, capsys, where, fragment)


@pytest.mark.parametrize("enabled", ["false", "true", 0, 1, None, []])
def test_side_tables_enabled_not_a_boolean_exits_2(tmp_path, fixtures_dir, capsys,
                                                   enabled):
    # bool("false") is True: a string would switch side tables on
    run = tmp_path / "run"
    assert run_cli("evolve",
                   "--in", str(fixtures_dir / "join_dangling_source.json"),
                   "--script", str(fixtures_dir / "join_dangling_script.json"),
                   "--provenance", "how", "--out", str(run)) == 0
    manifest = json.loads((run / "run.json").read_text())
    (run / "run.json").write_text(json.dumps({**manifest, "side_tables_enabled": enabled}))
    assert_rejected(run, tmp_path, capsys, "run.json",
                    "'side_tables_enabled' must be true or false",
                    f"got {json.dumps(enabled)}")


def test_side_tables_enabled_missing_means_off(tmp_path, fixtures_dir, capsys):
    run = tmp_path / "run"
    assert run_cli("evolve",
                   "--in", str(fixtures_dir / "join_dangling_source.json"),
                   "--script", str(fixtures_dir / "join_dangling_script.json"),
                   "--provenance", "how", "--out", str(run)) == 0
    manifest = json.loads((run / "run.json").read_text())
    del manifest["side_tables_enabled"]
    (run / "run.json").write_text(json.dumps(manifest))
    assert invert_exit(run, tmp_path) == 0


COLLIDING_SOURCE = {"relations": [
    {"name": "A_b", "attributes": ["id", "name"],
     "tuples": [{"id": "a_b1", "values": [{"const": "1"}, {"const": "a"}]},
                {"id": "a_b2", "values": [{"const": "2"}, {"const": "z"}]}]},
    {"name": "A", "attributes": ["name", "b_dangling"],
     "tuples": [{"id": "a1", "values": [{"const": "a"}, {"const": "x"}]}]},
]}
# the refill table of A's column b_dangling and the dangling rows of A_b
# would both be named A_b_dangling
COLLIDING_SCRIPT = {"steps": [
    {"kind": "MOVE_COLUMN", "relation": "A_b", "source": "A",
     "join": {"column": "name", "source_column": "name"}, "column": "b_dangling"}]}
COLLISION = ("two side tables of MOVE_COLUMN share the name 'A_b_dangling'",
             "dangling table of A_b['id', 'name']",
             "projection table of A['b_dangling']")


def evolve_colliding(tmp_path, *flags) -> int:
    source, script = tmp_path / "source.json", tmp_path / "script.json"
    source.write_text(json.dumps(COLLIDING_SOURCE))
    script.write_text(json.dumps(COLLIDING_SCRIPT))
    return run_cli("evolve", "--in", str(source), "--script", str(script),
                   "--provenance", "how", *flags, "--out", str(tmp_path / "run"))


def test_colliding_side_table_names_exit_2_from_evolve(tmp_path, capsys):
    # one table would overwrite the other, and the step would land relaxed
    # against a predicted exact
    assert evolve_colliding(tmp_path, "--side-tables") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: step 0 (MOVE_COLUMN)") and "Traceback" not in err
    for fragment in COLLISION:
        assert fragment in err


def test_colliding_side_table_names_exit_2_from_invert(tmp_path, capsys):
    assert evolve_colliding(tmp_path) == 0
    run = tmp_path / "run"
    manifest = json.loads((run / "run.json").read_text())
    (run / "run.json").write_text(json.dumps({**manifest, "side_tables_enabled": True}))
    assert_rejected(run, tmp_path, capsys,
                    str(Path("step_00") / "side_tables.json"), *COLLISION)


@pytest.mark.parametrize("store, fragment", [
    ([], "must be an object"),
    ({"mode": "how", "annotations": []}, "'annotations' must be an object"),
    ({"mode": "how", "annotations": {"t1": 5}}, "polynomial string"),
    ({"mode": "how", "annotations": {"t1": "\u00b2*r1"}}, "polynomial coefficient"),
    ({"mode": "how", "annotations": {"t1": "9" * 5000 + "*r1"}}, "polynomial coefficient"),
    ({"mode": "why", "annotations": {}}, "holds why-provenance, the run records how"),
])
def test_malformed_store_exits_2(tmp_path, fixtures_dir, capsys, store, fragment):
    run = evolve_two_steps(tmp_path, fixtures_dir)
    (run / "step_00" / "store.json").write_text(json.dumps(store))
    assert_rejected(run, tmp_path, capsys, fragment)


# A one-step DROP_COLUMN run of the join fixture: (provenance mode, side
# tables, file of step 0, text replaced in the file as json.dumps writes it,
# the replacement, and a fragment of the error).
FOREIGN_IDS = {
    "store-other-ids": ("how", False, "store.json", '"r3": "r1"', '"r9": "r7"',
                        "must annotate exactly the step's target facts; "
                        "extra: r9, missing: r3"),
    "store-id-not-in-source": ("how", False, "store.json", '"r3": "r1"',
                               '"r3": "r1*r7"', "annotations name r7, which"),
    "why-id-not-in-source": ("why", False, "store.json", '[["r1"]]', '[["s9"]]',
                             "annotations name s9, which"),
    "where-relation-not-in-source": ("where", False, "store.json", '["R"]', '["Q"]',
                                     "annotations name Q, which the step's source"),
    "none-with-annotations": ("none", False, "store.json", '{}', '{"r3": "r1"}',
                              "a store with provenance none holds no annotations"),
    "side-row-not-in-source": ("how", True, "side_tables.json", '"ref": "r1"',
                               '"ref": "s1"', "side table R_name refers to s1, "
                               "not facts of R in the step's source"),
}


@pytest.mark.parametrize("case", FOREIGN_IDS.values(), ids=FOREIGN_IDS.keys())
def test_ids_foreign_to_the_step_exit_2(tmp_path, fixtures_dir, capsys, case):
    mode, side, name, old, new, fragment = case
    script = tmp_path / "s.json"
    script.write_text(json.dumps({"steps": [
        {"kind": "DROP_COLUMN", "relation": "R", "column": "name"}]}))
    run = tmp_path / "run"
    assert run_cli("evolve", "--in", str(fixtures_dir / "join_dangling_source.json"),
                   "--script", str(script), "--provenance", mode,
                   "--out", str(run), *(["--side-tables"] if side else [])) == 0
    path = run / "step_00" / name
    text = json.dumps(json.loads(path.read_text()))
    assert old in text
    path.write_text(text.replace(old, new, 1))
    assert_rejected(run, tmp_path, capsys, str(Path("step_00") / name), fragment)


def evolve_join(tmp_path, fixtures_dir, *flags: str) -> Path:
    """A one-step run of the join fixture, recorded with ``flags``."""
    run = tmp_path / "run"
    assert run_cli("evolve", "--in", str(fixtures_dir / "join_dangling_source.json"),
                   "--script", str(fixtures_dir / "join_dangling_script.json"),
                   "--out", str(run), *flags) == 0
    return run


def entries(obj) -> list:
    """The relations of an instance file's JSON, or the tables of a
    side-table file's."""
    return obj if isinstance(obj, list) else obj["relations"]


def rows(entry: dict) -> list:
    """The tuples of a relation, or the rows of a side table."""
    return entry["rows"] if "rows" in entry else entry["tuples"]


def first_row_values(values):
    """An edit that gives the first row of the first entry ``values``."""
    def edit(obj):
        rows(entries(obj)[0])[0]["values"] = values
    return edit


def nameless_relation_of_10k_rows(obj):
    relation = obj["relations"][0]
    relation["tuples"] = [{"id": f"r{i}", "values": [{"const": str(i)}, {"const": "x"}]}
                          for i in range(1, 10_001)]
    del relation["name"]


def tuple_without_id(obj):
    del obj["relations"][0]["tuples"][1]["id"]


# A how + side-table run of the join fixture: (file, an edit of its JSON,
# and the error after the file's path).
MALFORMED_ROWS = {
    "value-in-initial": ("initial.json", first_row_values([{"nul": 1}]),
                         "malformed value {'nul': 1}"),
    "constant-in-step-target": (str(Path("step_00") / "target.json"),
                                first_row_values([{"const": 5}]),
                                "constant lexical must be a string, got 5"),
    "constant-in-side-table": (str(Path("step_00") / "side_tables.json"),
                               first_row_values([{"const": 5}]),
                               "constant lexical must be a string, got 5"),
    "side-row-values-not-a-list": (str(Path("step_00") / "side_tables.json"),
                                   first_row_values(5),
                                   "side table R_dangling: row 0 must be an object "
                                   "with a 'ref' and a 'values' list"),
    "relation-without-name": ("initial.json", nameless_relation_of_10k_rows,
                              "relation 0 must be an object with a 'name', an "
                              "'attributes' list and a 'tuples' list"),
    "tuple-without-id": ("initial.json", tuple_without_id,
                         "malformed tuple 1 in relation R: expected an object "
                         "with an 'id' and a 'values' list"),
}


def assert_run_file_error(tmp_path, fixtures_dir, capsys, name, edit, message):
    run = evolve_join(tmp_path, fixtures_dir, "--provenance", "how", "--side-tables")
    path = run / name
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert invert_exit(run, tmp_path) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("case", MALFORMED_ROWS.values(), ids=MALFORMED_ROWS.keys())
def test_malformed_run_file_is_named(tmp_path, fixtures_dir, capsys, case):
    assert_run_file_error(tmp_path, fixtures_dir, capsys, *case)


LONG_INTEGER = {"const": "9" * 5000}


def structure_before_long_constant(obj):
    """Break the first entry's structure, and put a constant too long to
    decode in the second entry, a copy of the first if there is none."""
    found = entries(obj)
    if len(found) == 1:
        found.append({**copy.deepcopy(found[0]), "name": found[0]["name"] + "2"})
    first, second = found[:2]
    key, id_key = ("rows", "ref") if "rows" in first else ("tuples", "id")
    second[key] = [{id_key: first[key][0][id_key], "values": [LONG_INTEGER]}]
    first[key] = 5


HOOKED_FILES = {"initial": "initial.json",
                "step-target": str(Path("step_00") / "target.json"),
                "side-tables": str(Path("step_00") / "side_tables.json")}
# An edit of a run file, and the error it gives in any of HOOKED_FILES, or
# None for the file's own STRUCTURE_ERRORS entry.
HOOKED_ERRORS = {
    "nul-value": (first_row_values([{"nul": 1}]), "malformed value {'nul': 1}"),
    "non-string-constant": (first_row_values([{"const": 5}]),
                            "constant lexical must be a string, got 5"),
    "long-integer": (first_row_values([LONG_INTEGER]),
                     "integer constant of 5000 characters is too long"),
    "constant-of-a-constant": (first_row_values([{"const": {"const": "x"}}]),
                               "constant lexical must be a string, got {'const': 'x'}"),
    "constant-in-a-list": (first_row_values([[{"const": "x"}]]),
                           "malformed value [{'const': 'x'}]"),
    "structure-before-long-constant": (structure_before_long_constant, None),
}
STRUCTURE_ERRORS = {
    "initial": "malformed relation entry 'R': expected an 'attributes' list "
               "and a 'tuples' list",
    "step-target": "malformed relation entry 'T': expected an 'attributes' list "
                   "and a 'tuples' list",
    "side-tables": "malformed side table JSON: expected an object with a string "
                   "'name', a list of string 'attributes' and a 'rows' list",
}


@pytest.mark.parametrize("file", HOOKED_FILES)
@pytest.mark.parametrize("error", HOOKED_ERRORS)
def test_run_file_error_shows_the_file_json(tmp_path, fixtures_dir, capsys, file, error):
    # constants are decoded as the file is parsed; an error still shows the
    # value as the file holds it, and the file's first error comes first
    edit, message = HOOKED_ERRORS[error]
    assert_run_file_error(tmp_path, fixtures_dir, capsys, HOOKED_FILES[file], edit,
                          message or STRUCTURE_ERRORS[file])


@pytest.mark.parametrize("file", ["--in", "--script", "run.json",
                                  str(Path("step_00") / "store.json")])
def test_deeply_nested_json_exits_2(tmp_path, fixtures_dir, capsys, file):
    deep = "[" * 200_000 + "]" * 200_000
    if file.startswith("--"):
        path = tmp_path / "deep.json"
        path.write_text(deep)
        files = {"--in": str(fixtures_dir / "join_dangling_source.json"),
                 "--script": str(fixtures_dir / "join_dangling_script.json"),
                 file: str(path)}
        code = run_cli("evolve", *(a for flag in files.items() for a in flag),
                       "--out", str(tmp_path / "run"))
    else:
        run = evolve_join(tmp_path, fixtures_dir, "--provenance", "how")
        path = run / file
        path.write_text(deep)
        capsys.readouterr()
        code = invert_exit(run, tmp_path)
    assert code == 2
    assert capsys.readouterr().err == f"error: {path} is not valid JSON: nested too deeply\n"


def test_tuple_id_without_a_tag_exits_2(tmp_path, fixtures_dir, capsys):
    run = evolve_join(tmp_path, fixtures_dir)
    for name in (Path("step_00") / "target.json", Path("target.json")):
        path = run / name
        text = path.read_text()
        assert '"id": "t1"' in text
        path.write_text(text.replace('"id": "t1"', '"id": "7"', 1))
    assert_rejected(run, tmp_path, capsys, str(Path("step_00") / "target.json"),
                    "malformed tuple id '7'")


def test_boolean_null_label_exits_2(tmp_path, fixtures_dir, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"relations": [
        {"name": "R", "attributes": ["a"],
         "tuples": [{"id": "r1", "values": [{"null": True}]}]}]}))
    code = run_cli("evolve", "--in", str(bad),
                   "--script", str(fixtures_dir / "join_dangling_script.json"),
                   "--out", str(tmp_path / "out"))
    assert code == 2
    assert "null label must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("step, fragment", [
    ({"kind": "PARTITION_TABLE", "table": "R", "targets": ["T1", "T2"],
      "condition": None}, "parameter 'condition' must hold objects"),
    ({"kind": "PARTITION_TABLE", "table": "R", "targets": ["T1", "T2"],
      "condition": {"attribute": ["z"], "op": "<", "value": "1"}},
     "'attribute' must be a name"),
    ({"kind": "ADD_COLUMN", "relation": "R", "column": "w",
      "filler": {"function": ["concat_pipe"], "args": ["x", "y"]}},
     "'function' must be a name"),
    ({"kind": "ADD_COLUMN", "relation": "R", "column": "w",
      "filler": {"function": "concat_pipe", "args": None}},
     "'args' must be a list of names"),
    ({"kind": "COPY_COLUMN", "relation": "R", "source": "V", "column": "z",
      "join": {"column": "x", "source_column": {}}}, "'source_column' must be a name"),
    ({"kind": "DECOMPOSE_TABLE", "table": "R",
      "parts": [{"name": "R1", "attributes": None}, {"name": "R2", "attributes": []}]},
     "'attributes' must be a list of names"),
    # misspelled optional parameters, which must not fall back to defaults
    ({"kind": "MERGE_COLUMN", "relation": "R", "columns": ["y", "z"],
      "target_column": "s", "function": "dec_add", "targt": "T"},
     "step 0 (MERGE_COLUMN): MERGE_COLUMN has no parameter 'targt'; it takes "
     "['relation', 'columns', 'target_column', 'function', 'target']"),
    ({"kind": "COPY_TABLE", "table": "R", "copy": "V", "kep": "K"},
     "step 0 (COPY_TABLE): COPY_TABLE has no parameter 'kep'; it takes "
     "['table', 'copy', 'kept']"),
    # a constant is a string or a number, never another JSON value
    ({"kind": "PARTITION_TABLE", "table": "R", "targets": ["T1", "T2"],
      "condition": {"attribute": "z", "op": "<", "value": [1, {"x": 2}]}},
     "field 'value' must be a string or a number, got [1, {'x': 2}]"),
    ({"kind": "PARTITION_TABLE", "table": "R", "targets": ["T1", "T2"],
      "condition": {"attribute": "z", "op": "=", "value": True}},
     "field 'value' must be a string or a number, got True"),
    ({"kind": "ADD_COLUMN", "relation": "R", "column": "w", "filler": {"const": None}},
     "field 'const' must be a string or a number, got None"),
    ({"kind": "ADD_COLUMN", "relation": "R", "column": "w", "filler": {"const": False}},
     "field 'const' must be a string or a number, got False"),
    ({"kind": "MERGE_COLUMN", "relation": "R", "columns": ["y", "y"],
      "target_column": "s", "function": "dec_add"},
     "step 0 (MERGE_COLUMN): merged columns collide: 'y' is named twice"),
    # a float whose text is not a plain decimal would become a text constant
    ({"kind": "PARTITION_TABLE", "table": "R", "targets": ["T1", "T2"],
      "condition": {"attribute": "z", "op": "<", "value": 1e-07}},
     "field 'value' is a number in exponent form or not finite, got 1e-07; "
     "write it as a string"),
    ({"kind": "PARTITION_TABLE", "table": "R", "targets": ["T1", "T2"],
      "condition": {"attribute": "z", "op": ">", "value": 1e16}},
     "field 'value' is a number in exponent form or not finite, got 1e+16"),
    ({"kind": "PARTITION_TABLE", "table": "R", "targets": ["T1", "T2"],
      "condition": {"attribute": "z", "op": "=", "value": float("nan")}},
     "field 'value' is a number in exponent form or not finite, got nan"),
    ({"kind": "ADD_COLUMN", "relation": "R", "column": "w",
      "filler": {"const": float("inf")}},
     "field 'const' is a number in exponent form or not finite, got inf"),
    # one table named twice would count each row as derived twice
    ({"kind": "MERGE_TABLE", "left": "R", "right": "R", "target": "T"},
     "step 0 (MERGE_TABLE): MERGE_TABLE needs two distinct tables"),
], ids=["condition-null", "condition-attribute-list", "filler-function-list",
        "filler-args-null", "join-column-object", "parts-attributes-null",
        "merge-column-targt", "copy-table-kep", "condition-value-list",
        "condition-value-bool", "filler-const-null", "filler-const-bool",
        "merge-column-twice", "condition-value-exponent",
        "condition-value-exponent-large", "condition-value-nan",
        "filler-const-infinity", "merge-table-twice"])
def test_mistyped_nested_parameters_exit_2(tmp_path, capsys, step, fragment):
    ipath, spath = tmp_path / "i.json", tmp_path / "s.json"
    ipath.write_text(json.dumps(FUZZ_INSTANCE))
    spath.write_text(json.dumps({"steps": [step]}))
    code = run_cli("roundtrip", "--in", str(ipath), "--script", str(spath),
                   "--report", str(tmp_path / "r.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert "Traceback" not in err


def test_ids_of_digit_ending_relations_stay_distinct(tmp_path, capsys):
    # T1 and T2 end in a digit: no id minted for them may print as an id of T
    def rel(name, tag, rows):
        return {"name": name, "attributes": ["a", "b"], "tuples": [
            {"id": f"{tag}{i + 1}", "values": [{"const": a}, {"const": b}]}
            for i, (a, b) in enumerate(rows)]}
    ipath, spath = tmp_path / "i.json", tmp_path / "s.json"
    ipath.write_text(json.dumps({"relations": [
        rel("R", "r", [("1", "x"), ("2", "y"), ("3", "x")]),
        rel("T", "t", [(str(i), "z") for i in range(12)])]}))
    spath.write_text(json.dumps({"steps": [
        {"kind": "PARTITION_TABLE", "table": "R", "targets": ["T1", "T2"],
         "condition": {"attribute": "b", "op": "=", "value": "x"}}]}))
    run = tmp_path / "run"
    assert run_cli("evolve", "--in", str(ipath), "--script", str(spath),
                   "--provenance", "how", "--out", str(run)) == 0
    target = json.loads((run / "step_00" / "target.json").read_text())
    ids = [t["id"] for r in target["relations"] for t in r["tuples"]]
    assert len(ids) == len(set(ids)) == 15
    store = json.loads((run / "step_00" / "store.json").read_text())
    assert len(store["annotations"]) == 15
    capsys.readouterr()
    assert run_cli("invert", "--run", str(run), "--out", str(tmp_path / "b.json")) == 0
    assert "composed: exact" in capsys.readouterr().out
    assert run_cli("roundtrip", "--in", str(ipath), "--script", str(spath),
                   "--provenance", "how", "--report", str(tmp_path / "r.json")) == 0
    assert json.loads((tmp_path / "r.json").read_text())["composed"]["type"] == "exact"


def _r3_instance(*values: str) -> dict:
    return {"relations": [{"name": "R", "attributes": ["x", "y", "z"], "tuples": [
        {"id": "r1", "values": [{"const": v} for v in values]}]}]}


WIDE = "9" * 3000 + "." + "9" * 3000  # each part converts, the sum does not


@pytest.mark.parametrize("values, step, fragment", [
    (("a", "b", "1." + "1" * 5000),
     {"kind": "PARTITION_TABLE", "table": "R",
      "condition": {"attribute": "z", "op": "<", "value": "2.5"},
      "targets": ["T1", "T2"]},
     "decimal constant of 5002 characters is too long"),
    (("a", "1" * 5000 + ".5", "1.0"),
     {"kind": "NOP"}, "decimal constant of 5002 characters is too long"),
    (("a", WIDE, WIDE),
     {"kind": "MERGE_COLUMN", "relation": "R", "columns": ["y", "z"],
      "target_column": "s", "function": "dec_add"},
     "dec_add result has more than"),
], ids=["long-decimal-condition", "long-whole-part", "long-dec_add-sum"])
def test_long_numerals_exit_2(tmp_path, capsys, values, step, fragment):
    ipath, spath = tmp_path / "i.json", tmp_path / "s.json"
    ipath.write_text(json.dumps(_r3_instance(*values)))
    spath.write_text(json.dumps({"steps": [step]}))
    code = run_cli("roundtrip", "--in", str(ipath), "--script", str(spath),
                   "--provenance", "how", "--report", str(tmp_path / "r.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# fuzzing tampered run directories

RUN_FILES = ("run.json", "initial.json", "target.json",
             "step_00/source.json", "step_00/target.json", "step_00/store.json",
             "step_00/side_tables.json", "step_01/source.json",
             "step_01/target.json", "step_01/store.json", "step_01/side_tables.json")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.sampled_from(["", "r1", "t2", "1", "0*t1", "how", "why", "where", "R",
                       "T", "name", "step_00", "xé\"\\"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["relations", "name", "attributes",
                                       "tuples", "id", "values", "const", "null",
                                       "mode", "annotations", "rows", "ref",
                                       "steps", "dir", "script", "t1"]),
                      inner, max_size=3),
    max_leaves=8,
)


def _paths(obj, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def tampered_files(draw, originals: dict[str, str]):
    """One run file and replacement text for it: another run file, a piece
    of arbitrary JSON, text that is not JSON, or the original with one
    position replaced by arbitrary JSON or removed."""
    name = draw(st.sampled_from(RUN_FILES))
    how = draw(st.sampled_from(["swap", "json", "garbage", "replace", "remove"]))
    if how == "swap":
        return name, originals[draw(st.sampled_from(RUN_FILES))]
    if how == "json":
        return name, json.dumps(draw(json_values))
    if how == "garbage":
        return name, draw(st.sampled_from(["", "{", "[1,", "\x00", "null x"]))
    doc = json.loads(originals[name])
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return name, json.dumps(draw(json_values))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if how == "remove":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values)
    return name, json.dumps(doc)


@pytest.fixture(scope="module")
def saved_two_step_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    run = evolve_two_steps(base, FIXTURES)
    return run, {name: (run / name).read_text() for name in RUN_FILES}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_tampered_run_directory_never_raises(saved_two_step_run, capsys, data):
    run, originals = saved_two_step_run
    name, text = data.draw(tampered_files(originals))
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "run"
        shutil.copytree(run, copy)
        (copy / name).write_text(text, encoding="utf-8")
        code = run_cli("invert", "--run", str(copy), "--out", str(Path(tmp) / "back.json"))
    assert code in (0, 2, 3)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# fuzzing evolve/roundtrip inputs

FUZZ_INSTANCE = {"relations": [
    {"name": "R", "attributes": ["x", "y", "z"], "tuples": [
        {"id": "r1", "values": [{"const": "a"}, {"const": "1.5"}, {"const": "2"}]},
        {"id": "r2", "values": [{"const": "b|c"}, {"const": "2.5"}, {"const": "3.0"}]},
        {"id": "r3", "values": [{"const": "a"}, {"const": "-4"}, {"const": "2"}]}]},
    {"name": "V", "attributes": ["x", "y", "z"], "tuples": [
        {"id": "v1", "values": [{"const": "a"}, {"const": "k"}, {"const": "1"}]},
        {"id": "v2", "values": [{"const": "d"}, {"const": "1.5"}, {"null": 1}]}]}]}
FUZZ_STEPS = [
    {"kind": "COPY_TABLE", "table": "R", "copy": "W"},
    {"kind": "DECOMPOSE_TABLE", "table": "R", "variant": 2,
     "parts": [{"name": "R1", "attributes": ["x", "y"]},
               {"name": "R2", "attributes": ["x", "z"]}]},
    {"kind": "JOIN_TABLE", "left": "R", "right": "V", "left_column": "x",
     "right_column": "x", "target": "T"},
    {"kind": "MERGE_TABLE", "left": "R", "right": "V", "target": "T"},
    {"kind": "PARTITION_TABLE", "table": "R", "targets": ["T1", "T2"],
     "condition": {"attribute": "z", "op": "<", "value": "2.5"}},
    {"kind": "ADD_COLUMN", "relation": "R", "column": "w",
     "filler": {"function": "concat_pipe", "args": ["x", "y"]}},
    {"kind": "COPY_COLUMN", "relation": "R", "source": "V", "column": "z",
     "join": {"column": "x", "source_column": "x"}},
    {"kind": "MERGE_COLUMN", "relation": "R", "columns": ["y", "z"],
     "target_column": "s", "function": "dec_add"},
    {"kind": "SPLIT_COLUMN", "relation": "R", "column": "x",
     "target_columns": ["h", "t"], "recombine": "concat_pipe",
     "functions": ["split_pipe_head", "split_pipe_tail"]},
    {"kind": "DROP_COLUMN", "relation": "V", "column": "z"},
]
LONG_NUMERALS = ["1." + "1" * 5000, "9" * 5000, "-" + "9" * 3000 + "." + "9" * 3000,
                 "0." + "0" * 4999 + "1"]
NUMERALS = LONG_NUMERALS + ["007", "-0.0", "2.50", "1" * 4000 + ".5"]
fuzz_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.sampled_from(["", "R", "V", "W", "x", "y", "z", "a", "1", "2.5", "<", "=",
                       "dec_add", "concat_pipe", "null", "NOP", "BOGUS"]
                      + LONG_NUMERALS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(
        ["name", "attributes", "tuples", "id", "values", "const", "null",
         "kind", "table", "relation", "column", "columns", "attribute", "op",
         "value", "function", "args", "targets", "target", "variant"]),
        inner, max_size=3),
    max_leaves=8,
)


@st.composite
def fuzzed_inputs(draw):
    """An instance and a script, most often one of them malformed: a
    position of either replaced by arbitrary JSON or removed, a step of
    unknown or arbitrary kind and parameters, or a value replaced by a
    numeral, often an over-long one."""
    instance = json.loads(json.dumps(FUZZ_INSTANCE))
    steps = [json.loads(json.dumps(step))
             for step in draw(st.lists(st.sampled_from(FUZZ_STEPS), min_size=1,
                                       max_size=2))]
    script = {"steps": steps}
    how = draw(st.sampled_from(["replace", "remove", "step", "numeral", "none"]))
    if how == "step":
        kind = draw(st.sampled_from([s["kind"] for s in FUZZ_STEPS]
                                    + ["NOP", "BOGUS", "", "nop"]))
        params = draw(st.dictionaries(st.sampled_from(
            sorted({k for s in FUZZ_STEPS for k in s} - {"kind"})), fuzz_values,
            max_size=4))
        steps.insert(draw(st.integers(0, len(steps))), {"kind": kind, **params})
    elif how == "numeral":
        rel = draw(st.sampled_from(instance["relations"]))
        row = draw(st.sampled_from(rel["tuples"]))
        row["values"][draw(st.integers(0, 2))] = {
            "const": draw(st.sampled_from(NUMERALS))}
    elif how != "none":
        doc = draw(st.sampled_from([instance, script]))
        path = draw(st.sampled_from(list(_paths(doc))[1:]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if how == "remove":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(fuzz_values)
    return instance, script


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(inputs=fuzzed_inputs(),
       mode=st.sampled_from(["none", "where", "why", "how"]),
       side_tables=st.booleans())
def test_fuzzed_roundtrip_inputs_never_raise(capsys, inputs, mode, side_tables):
    instance, script = inputs
    with tempfile.TemporaryDirectory() as tmp:
        ipath, spath = Path(tmp) / "i.json", Path(tmp) / "s.json"
        ipath.write_text(json.dumps(instance))
        spath.write_text(json.dumps(script))
        argv = ["roundtrip", "--in", str(ipath), "--script", str(spath),
                "--provenance", mode, "--report", str(Path(tmp) / "r.json")]
        code = run_cli(*argv + (["--side-tables"] if side_tables else []))
    assert code in (0, 2, 3)
    capsys.readouterr()
