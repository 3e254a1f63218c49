import json
import subprocess
import sys
from pathlib import Path

import pytest

from backchase import storage
from backchase.cli import main


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
    assert "error: malformed tuple" in err
    assert "Traceback" not in err


def test_directory_as_input_exits_2(tmp_path, fixtures_dir, capsys):
    code = run_cli("roundtrip", "--in", str(tmp_path),
                   "--script", str(fixtures_dir / "join_dangling_script.json"),
                   "--report", str(tmp_path / "r.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert "is a directory" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("variant", ["x", None, [2]])
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
