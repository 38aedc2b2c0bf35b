"""tools/report_gate.py: the before/after diff of two run trees."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "report_gate", Path(__file__).resolve().parents[1] / "tools" / "report_gate.py")
report_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_gate)


def _tree(root: Path, report_lines, stderr):
    (root / "files").mkdir(parents=True)
    (root / "runs").mkdir()
    report = {"status": "ok", "diagnostics": report_lines,
              "payload": {"diagnostics": report_lines, "x": 1.0}}
    (root / "files" / "s.cycles.json").write_text(json.dumps(report))
    (root / "runs" / "s.cycles.json").write_text(
        json.dumps({"exit_code": 0, "stdout": "s.cycles: ok\n", "stderr": stderr}))
    (root / "runs" / "s.classify.json").write_text(json.dumps({"exit_code": 0}))


def test_diff_prints_the_diagnostics_of_one_side(tmp_path, capsys):
    _tree(tmp_path / "a", ["kept", "gone"], "kept\ngone\n")
    _tree(tmp_path / "b", ["kept", "new"], "kept\nnew\n")
    assert report_gate.diff(tmp_path / "a", tmp_path / "b") == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "differs: files/s.cycles.json, largest numeric delta 0.000e+00",
        "  - gone",
        "  + new",
        "differs: runs/s.cycles.json, largest numeric delta 0.000e+00",
        "  - gone",
        "  + new",
        "1 of 3 files byte-identical",
    ]


def test_diff_names_the_place_of_the_largest_delta(tmp_path, capsys):
    # the largest absolute delta wins, and is also given relative to the
    # first tree's value; bools and strings are not numbers
    docs = {"a": {"status": "ok", "payload": {"cycles": [
                {"x_star": 0.1, "derivative": 3e-4, "ok": True}]}},
            "b": {"status": "ok", "payload": {"cycles": [
                {"x_star": 0.1 + 1e-12, "derivative": 3.6e-4, "ok": False}]}}}
    for name, doc in docs.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "s.cycles.json").write_text(json.dumps(doc))
    assert report_gate.diff(tmp_path / "a", tmp_path / "b") == 0
    assert capsys.readouterr().out.splitlines() == [
        "differs: s.cycles.json, largest numeric delta 6.000e-05 at "
        "/payload/cycles[0]/derivative (2.0e-01 relative)",
        "0 of 1 files byte-identical",
    ]


def test_run_strips_the_keys_that_differ_by_construction(tmp_path):
    report = tmp_path / "s.scan.json"
    report.write_text(json.dumps({
        "timestamp": "2020-01-01T00:00:00+00:00", "status": "ok",
        "payload": {"csv": "/a/s.scan.csv", "svg": "/a/s.svg", "rows": []}}))
    dump = tmp_path / "s.normalized.json"
    dump.write_text(json.dumps({"name": "s", "outputs": "/a", "unfold": None}))
    for path in (report, dump):
        report_gate._strip_report(path)
    assert json.loads(report.read_text()) == {"status": "ok",
                                              "payload": {"rows": []}}
    assert json.loads(dump.read_text()) == {"name": "s", "unfold": None}
    assert ("dump-normalized", ["classify", "--dump-normalized"]) \
        in report_gate.RUNS
