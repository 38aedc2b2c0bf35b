"""Command-line surface: exit codes, determinism, file formats."""

import copy
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from filippov.cli import main, run
from filippov.scenario import load_scenario, scenario_from_dict, scenario_to_dict
from filippov.errors import InputError

ROOT = Path(__file__).resolve().parents[1]


def family_doc(name, k, c, unfold=None, window=None, outputs="out"):
    return {
        "name": name,
        "field": {
            "upper": {"X": [[0, 0, 1.0]],
                      "Y": [[2 * k - 1, 0, -1.0]]
                      + ([[2 * k, 0, float(c)]] if c else [])},
            "lower": {"X": [[0, 0, -1.0]], "Y": [[2 * k - 1, 0, -1.0]]},
        },
        "unfold": unfold,
        "window": window or {"center": 0.0, "radius": 0.3},
        "outputs": outputs,
    }


@pytest.fixture()
def scenario_path(tmp_path):
    def write(doc):
        path = tmp_path / f"{doc['name']}.json"
        doc = dict(doc)
        doc["outputs"] = str(tmp_path / "out")
        path.write_text(json.dumps(doc, indent=2))
        return str(path)
    return write


def test_classify_ok(scenario_path, tmp_path):
    path = scenario_path(family_doc("quad", 2, 1.0))
    code, report = run(path, "classify")
    assert code == 0
    assert report["status"] == "ok"
    assert report["payload"]["V2"] == pytest.approx(0.4, abs=1e-10)
    assert (tmp_path / "out" / "quad.classify.json").exists()


def test_classify_c3_violation_exits_one(tmp_path):
    doc = {
        "name": "bad-c3",
        "field": {
            "upper": {"X": [[0, 0, 1.0]], "Y": [[1, 0, -1.0]]},
            "lower": {"X": [[0, 0, 1.0]], "Y": [[1, 0, 1.0]]},
        },
        "window": {"center": 0.0, "radius": 0.3},
        "outputs": str(tmp_path / "out"),
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, report = run(str(path), "classify")
    assert code == 1
    assert report["status"] == "error"
    assert any("C3" in d for d in report["diagnostics"])


def test_malformed_scenario_is_input_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InputError):
        run(str(path), "classify")
    assert main(["classify", "--config", str(path)]) == 1


def test_unknown_command_rejected(scenario_path):
    path = scenario_path(family_doc("quad", 2, 1.0))
    with pytest.raises(InputError):
        run(path, "frobnicate")


def test_verify_lemma1_gate_controls_exit(scenario_path):
    unfold = {"k": 2, "lambda": [-1.0, 1.0], "epsilon": 0.1, "b": 0.0,
              "shift": "minus"}
    path = scenario_path(family_doc("quad", 2, 1.0, unfold=unfold))
    code, report = run(path, "verify-lemma1")
    assert code == 0
    assert report["payload"]["max_residual"] < 1e-8
    code, report = run(path, "verify-lemma1", gate=1e-30)
    assert code == 3
    assert report["status"] == "mismatch"


def test_verify_lemma1_random_draws_seeded(scenario_path):
    unfold = {"k": 2, "lambda": [-1.0, 1.0], "epsilon": 0.1, "b": 0.0,
              "shift": "minus"}
    path = scenario_path(family_doc("quad", 2, 1.0, unfold=unfold))
    code, rep1 = run(path, "verify-lemma1", draws=4, seed=123)
    code2, rep2 = run(path, "verify-lemma1", draws=4, seed=123)
    assert code == code2 == 0
    assert rep1["payload"]["runs"] == rep2["payload"]["runs"]


def test_cycles_exit_codes(scenario_path):
    unfold = {"k": 2, "lambda": [-1.0, 1.0], "epsilon": 0.1, "b": -1e-6,
              "shift": "minus"}
    path = scenario_path(family_doc("quad", 2, 1.0, unfold=unfold))
    code, report = run(path, "cycles")
    assert code == 0
    assert report["payload"]["pass"] is True
    assert len(report["payload"]["cycles"]) == 2
    # flipping the sign must produce the no-cycle branch and exit 3
    code, report = run(path, "cycles", b=1e-6)
    assert code == 3
    assert report["payload"]["pass"] is False
    assert report["payload"]["cycles"] == []


def test_ladder_and_v2_limit_ok(scenario_path):
    unfold = {"k": 2, "lambda": [-1.0, 1.0], "epsilon": 0.1, "b": 0.0,
              "shift": "minus"}
    path = scenario_path(family_doc("quad", 2, 1.0, unfold=unfold))
    assert run(path, "verify-ladder")[0] == 0
    assert run(path, "verify-v2-limit")[0] == 0


def test_numerical_failure_exits_two(tmp_path):
    # an upward field never returns to the line: delta sampling must fail
    doc = {
        "name": "updrift",
        "field": {
            "upper": {"X": [[0, 0, 1.0]], "Y": [[0, 0, 1.0]]},
            "lower": {"X": [[0, 0, -1.0]], "Y": [[1, 0, -1.0]]},
        },
        "integrator": {"max_time": 2.0},
        "window": {"center": 0.0, "radius": 0.2},
        "outputs": str(tmp_path / "out"),
    }
    path = tmp_path / "updrift.json"
    path.write_text(json.dumps(doc))
    code, report = run(str(path), "delta-dump")
    assert code == 2
    assert report["status"] == "error"


def test_determinism_byte_identical_modulo_timestamp(scenario_path, tmp_path):
    path = scenario_path(family_doc("quad", 2, 1.0))
    run(path, "classify")
    first = (tmp_path / "out" / "quad.classify.json").read_text()
    run(path, "classify")
    second = (tmp_path / "out" / "quad.classify.json").read_text()

    def strip_ts(text):
        return [ln for ln in text.splitlines() if '"timestamp"' not in ln]

    assert strip_ts(first) == strip_ts(second)


def test_dump_normalized_round_trip(scenario_path, tmp_path):
    unfold = {"k": 2, "lambda": [-1.0, 1.0], "epsilon": 0.1, "b": -1e-6,
              "shift": "minus"}
    path = scenario_path(family_doc("quad", 2, 1.0, unfold=unfold))
    code, doc = run(path, "classify", dump_normalized=True)
    assert code == 0
    reparsed = scenario_from_dict(doc)
    assert scenario_to_dict(reparsed) == doc
    on_disk = json.loads((tmp_path / "out" / "quad.normalized.json").read_text())
    assert on_disk == doc


def test_delta_dump_csv(scenario_path, tmp_path):
    path = scenario_path(family_doc("two", 1, 1.0))
    code, report = run(path, "delta-dump")
    assert code == 0
    lines = (tmp_path / "out" / "two.delta.csv").read_text().splitlines()
    assert lines[0] == "x,delta"
    assert len(lines) == 34


def test_scan_outputs(scenario_path, tmp_path):
    path = scenario_path(family_doc("two", 1, 1.0))
    code, report = run(path, "scan", b_values=[-1e-4, 1e-4])
    assert code == 0
    rows = report["payload"]["rows"]
    assert [r["n_cycles"] for r in rows] == [1, 0]
    lines = (tmp_path / "out" / "two.scan.csv").read_text().splitlines()
    assert lines[0] == \
        "b,n_cycles,stability,sliding_kind,amplitude,predicted_amplitude"


def test_portrait_no_shift_has_no_sliding(scenario_path, tmp_path):
    unfold = {"k": 1, "lambda": [], "epsilon": 0.1, "b": 0.0,
              "shift": "minus"}
    path = scenario_path(family_doc("two", 1, 1.0, unfold=unfold))
    code, report = run(path, "portrait")
    assert code == 0
    assert report["payload"]["n_solid_segments"] == 0
    svg = (tmp_path / "out" / "two.portrait.svg").read_text()
    assert "<svg" in svg and "stroke-dasharray" in svg
    assert 'class="cycle-0"' not in svg


def test_portrait_with_cycle(scenario_path, tmp_path):
    unfold = {"k": 1, "lambda": [], "epsilon": 0.1, "b": -1e-4,
              "shift": "minus"}
    path = scenario_path(family_doc("two", 1, 1.0, unfold=unfold,
                                    window={"center": 0.0, "radius": 0.1}))
    code, report = run(path, "portrait")
    assert code == 0
    assert report["payload"]["n_solid_segments"] == 1
    assert report["payload"]["n_cycles_drawn"] == 1
    svg = (tmp_path / "out" / "two.portrait.svg").read_text()
    assert 'class="cycle-0"' in svg
    csv = (tmp_path / "out" / "two.portrait.csv").read_text().splitlines()
    assert csv[0] == "curve,x,y"
    assert any(ln.startswith("cycle-0,") for ln in csv)


def test_console_entry_point(scenario_path):
    path = scenario_path(family_doc("quad", 2, 1.0))
    proc = subprocess.run(
        [sys.executable, "-m", "filippov", "classify", "--config", path],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "quad.classify: ok" in proc.stdout


_LAZY_SCIPY = """
import sys
import filippov, filippov.cli
from filippov import (IntegratorConfig, UnfoldingParams, build_perturbation,
                      classify_mts, cycle_producing_sign, displacement,
                      lemma1_check, local_V2_limit_check, monodromic_family,
                      verify_contact_ladder)
from filippov.unfold import build_unfolded

def loaded():
    return [m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules]

Z = monodromic_family(2, 1.0)
data = classify_mts(Z)
b = cycle_producing_sign(data.delta, data.V2, "minus") * 1e-6
params = UnfoldingParams(k=2, lam=(-1.0, 1.0), epsilon=0.1, b=b,
                         shift_convention="minus")
ladder = verify_contact_ladder(
    build_unfolded(Z, build_perturbation(Z, params, data)), params)
lemma1_check(Z, 2, params.lam)
limit = local_V2_limit_check(Z, params)
print(ladder.ok, limit.ok, loaded())
displacement(Z, 0.02, IntegratorConfig())
print(loaded())
"""


def test_algebraic_layers_do_not_load_scipy():
    """Classification, unfolding, the ladder, Lemma 1 and the V2 limit run
    without scipy; the first arc loads it."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _LAZY_SCIPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "True True []", "['scipy.optimize', 'scipy.integrate']"]


def test_shipped_scenarios_parse():
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
    files = sorted(root.glob("*.json"))
    assert files, "shipped scenario files are missing"
    for f in files:
        load_scenario(str(f))


def _nan_coefficient(doc):
    doc["field"]["upper"]["Y"][0][2] = float("nan")


def _text_coefficient(doc):
    doc["field"]["upper"]["Y"][0][2] = "abc"


def _huge_coefficient(doc):
    doc["field"]["upper"]["Y"][0][2] = 2**1100


def _bad_integrator(doc):
    doc["integrator"] = {"rel_tol": -1, "max_time": -5}


def _infinite_window(doc):
    doc["window"] = {"center": 0.0, "radius": float("inf")}


def _field_not_object(doc):
    doc["field"] = 3


def _side_not_object(doc):
    doc["field"]["upper"] = 3


def _window_not_object(doc):
    doc["window"] = [1]


def _integrator_not_object(doc):
    doc["integrator"] = [1]


def _float_exponent(doc):
    doc["field"]["upper"]["Y"][0][0] = 3.7


def _text_exponent(doc):
    doc["field"]["upper"]["Y"][0][0] = "3"


def _bool_exponent(doc):
    doc["field"]["upper"]["Y"][0][1] = True


@pytest.mark.parametrize("edit, argv, loads", [
    (_text_coefficient, ["classify"], False),
    (_nan_coefficient, ["classify"], False),
    (_bad_integrator, ["cycles"], False),
    (_infinite_window, ["delta-dump"], False),
    (None, ["unfold", "--epsilon", "inf"], True),
    (None, ["cycles", "--b", "nan"], True),
    (None, ["scan", "--b-values=nan"], True),
    (_field_not_object, ["classify"], False),
    (_side_not_object, ["classify"], False),
    (_window_not_object, ["classify"], False),
    (_integrator_not_object, ["classify"], False),
    (_float_exponent, ["classify"], False),
    (_text_exponent, ["classify"], False),
    (_bool_exponent, ["classify"], False),
    (None, ["classify", "--out", __file__], False),
    (None, ["classify", "--out", f"{__file__}/sub"], False),
    (_huge_coefficient, ["classify"], False),
    (None, ["cycles", "--epsilon", "1e308"], True),
    (None, ["verify-lemma1", "--seed", "-1", "--draws", "5"], True),
    (None, ["cycles", "--epsilon", "-0.1"], True),
    (None, ["verify-lemma1", "--draws", "-1"], True),
    (None, ["verify-lemma1", "--gate", "nan"], True),
    (None, ["cycles", "--b", "1e300"], True),
    (None, ["scan", "--b-values=1e300"], True),
    (None, ["unfold", "--epsilon", "1e-300"], True),
])
def test_non_finite_or_non_numeric_input_exits_one(scenario_path, tmp_path,
                                                   edit, argv, loads):
    unfold = {"k": 2, "lambda": [-1.0, 1.0], "epsilon": 0.1, "b": -1e-6,
              "shift": "minus"}
    doc = family_doc("bad", 2, 1.0, unfold=unfold)
    if edit is not None:
        edit(doc)
    path = scenario_path(doc)
    assert main([*argv, "--config", path]) == 1
    report = tmp_path / "out" / f"bad.{argv[0]}.json"
    assert report.exists() == loads
    if loads:
        assert json.loads(report.read_text())["status"] == "error"


_EXTREME = [1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, 2.2e-308,
            float("nan"), float("inf"), float("-inf"), 0.0]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.sampled_from(["unfold", "verify-ladder", "cycles"]),
       st.sampled_from(_EXTREME) | st.floats(),
       st.sampled_from(_EXTREME) | st.floats())
def test_extreme_overrides_end_in_an_exit_code_and_a_report(command, b, epsilon):
    unfold = {"k": 2, "lambda": [-1.0, 1.0], "epsilon": 0.1, "b": -1e-6,
              "shift": "minus"}
    with tempfile.TemporaryDirectory() as tmp:
        doc = family_doc("k2", 2, 1.0, unfold=unfold, outputs=f"{tmp}/out")
        path = Path(tmp, "k2.json")
        path.write_text(json.dumps(doc))
        code = main([command, "--config", str(path), f"--b={b!r}",
                     f"--epsilon={epsilon!r}"])
        assert code in (0, 1, 2, 3)
        assert Path(tmp, "out", f"k2.{command}.json").exists()


# -- input contract: any JSON-like document parses or raises InputError --------

_SCENARIO_KEYS = ("name", "field", "upper", "lower", "X", "Y", "unfold", "k",
                  "lambda", "epsilon", "b", "shift", "integrator", "rel_tol",
                  "max_step", "window", "center", "radius", "outputs")
_json_leaves = (st.none() | st.booleans() | st.floats() | st.text(max_size=6)
                | st.integers() | st.integers(min_value=2**1023, max_value=2**1100))
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(_SCENARIO_KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=16)
_SHIPPED = [json.loads(p.read_text())
            for p in sorted((ROOT / "scenarios").glob("*.json"))]


def _node_paths(node, path=()):
    """Key paths of every leaf and section below the root."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


@st.composite
def _mutated_scenarios(draw):
    """A shipped scenario with one leaf or section replaced."""
    doc = copy.deepcopy(draw(st.sampled_from(_SHIPPED)))
    *parents, last = draw(st.sampled_from(list(_node_paths(doc))))
    node = doc
    for key in parents:
        node = node[key]
    node[last] = draw(_json_values)
    return doc


def _parses_or_input_error(doc):
    try:
        scenario_from_dict(doc)
    except InputError:
        pass


@settings(max_examples=400, deadline=None)
@given(_json_values | st.dictionaries(st.sampled_from(_SCENARIO_KEYS),
                                      _json_values))
def test_any_json_document_parses_or_is_input_error(doc):
    _parses_or_input_error(doc)


@settings(max_examples=400, deadline=None)
@given(_mutated_scenarios())
def test_mutated_shipped_scenario_parses_or_is_input_error(doc):
    _parses_or_input_error(doc)
