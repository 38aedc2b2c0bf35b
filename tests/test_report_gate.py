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
