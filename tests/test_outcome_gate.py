"""tools/outcome_gate.py: the before/after diff of two outcome files."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "outcome_gate", Path(__file__).resolve().parents[1] / "tools" / "outcome_gate.py")
outcome_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(outcome_gate)


def _write(root: Path, records) -> Path:
    root.mkdir()
    (root / "outcomes.json").write_text(json.dumps(records))
    return root


def _rec(outcome="ok", digest="a", problems=()):
    return {"outcome": outcome, "problems": list(problems), "repr_sha256": digest}


def test_a_changed_output_is_listed_and_passes(tmp_path, capsys):
    a = _write(tmp_path / "a", {"census/seed0/k2": _rec(), "cli/seed1/x": _rec()})
    b = _write(tmp_path / "b", {"census/seed0/k2": _rec(digest="b"),
                                "cli/seed1/x": _rec()})
    assert outcome_gate.diff(a, b) == 0
    assert capsys.readouterr().out.splitlines() == [
        "value: census/seed0/k2",
        "1 of 2 operations with the same outcome and output",
    ]


def test_a_changed_outcome_or_a_missing_operation_fails(tmp_path, capsys):
    a = _write(tmp_path / "a", {"census/seed1/k3": _rec(), "sweep/seed0/fits": _rec()})
    b = _write(tmp_path / "b", {"census/seed1/k3": _rec(
        "failed", None, ["census did not pass"])})
    assert outcome_gate.diff(a, b) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"only in {a}: sweep/seed0/fits",
        "outcome: census/seed1/k3: ok -> failed",
        "  + census did not pass",
        "value: census/seed1/k3",
        "0 of 2 operations with the same outcome and output",
    ]


def test_outputs_lose_the_keys_that_differ_by_construction():
    report = (0, {"timestamp": "t", "status": "ok", "outputs": "/a",
                  "payload": {"csv": "/a/s.csv", "svg": "/a/s.svg", "rows": [1.5]}})
    assert outcome_gate._stable(report) == (0, {"status": "ok",
                                                "payload": {"rows": [1.5]}})
