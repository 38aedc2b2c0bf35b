"""Report keys of every result record, pinned: downstream readers of the
JSON reports depend on these exact names."""

import json
from fractions import Fraction

import numpy as np
import pytest

from filippov import (
    UnfoldingParams,
    build_perturbation,
    build_unfolded,
    classify_mts,
    lemma1_check,
    local_V2_limit_check,
    monodromic_family,
    sigma_regions,
    verify_contact_ladder,
)
from filippov.cycles import CensusReport, LimitCycle, ScanRow, ScanTable
from filippov.field import SigmaSegment
from filippov.flow import LyapunovEstimate
from filippov.poly import Poly2
from filippov.record import jsonable, write_csv, write_json
from filippov.scenario import IntegratorConfig, Scenario, Window

PARAMS = UnfoldingParams(k=2, lam=(-1.0, 1.0), epsilon=0.1)
Z = monodromic_family(2, 1.0)
SEGMENT = SigmaSegment(x_lo=0.0, x_hi=0.1, kind="attracting-sliding",
                       endpoints=(None, 0.1))
CYCLE = LimitCycle(x_star=0.2, b=-1e-6, window_center=0.1, amplitude=0.1,
                   stability="unstable", derivative=1e-3,
                   enclosed_segment=SEGMENT, x_left=0.05)
ROW = ScanRow(b=1e-4, n_cycles=1, stability="stable",
              sliding_kind="attracting-sliding", amplitude=0.01,
              predicted_amplitude=None)


def _ladder():
    return verify_contact_ladder(
        build_unfolded(Z, build_perturbation(Z, PARAMS)), PARAMS)


RECORDS = {
    "MonodromyData": (lambda: classify_mts(Z), [
        "k_plus", "k_minus", "delta", "a_plus", "a_minus", "f0_plus",
        "f0_minus", "g00_plus", "g00_minus", "alpha2_plus", "alpha2_minus",
        "V2"]),
    "SigmaSegment": (lambda: sigma_regions(Z, (-0.3, 0.3))[0],
                     ["x_lo", "x_hi", "kind", "endpoints"]),
    "LyapunovEstimate": (
        lambda: LyapunovEstimate(order=2, coefficient=0.5, fit_r2=1.0,
                                 window=(0.01, 0.1)),
        ["order", "coefficient", "fit_r2", "window", "center"]),
    "LimitCycle": (lambda: CYCLE, [
        "x_star", "b", "window_center", "amplitude", "stability",
        "derivative", "x_left", "enclosed_segment"]),
    "ScanRow": (lambda: ROW, [
        "b", "n_cycles", "stability", "sliding_kind", "amplitude",
        "predicted_amplitude"]),
    "ScanTable": (lambda: ScanTable(convention="minus", rows=[ROW], ell=1,
                                    V2ell=0.5),
                  ["convention", "ell", "V2ell", "rows"]),
    "CensusReport": (
        lambda: CensusReport(k=1, b=-1e-6, convention="minus",
                             cycles=[CYCLE], expected_count=1, passed=True,
                             diagnostics=[]),
        ["k", "b", "convention", "expected_count", "pass", "cycles",
         "diagnostics"]),
    "PerturbationPolys": (lambda: build_perturbation(Z, PARAMS),
                          ["p_plus", "p_minus", "norm_plus", "norm_minus"]),
    "ContactRecord": (lambda: _ladder().contacts[0], [
        "index", "x0", "residual_plus", "residual_minus", "mult_plus",
        "mult_minus", "vis_plus", "vis_minus", "expected", "ok"]),
    "LadderReport": (_ladder, ["ok", "contacts", "failing_abscissas"]),
    "Lemma1Entry": (lambda: lemma1_check(Z, 2, [-1.0, 1.0]).entries[0], [
        "index", "a_i", "s1_plus", "s2_plus", "s3_plus", "s4_plus",
        "s1_minus", "s2_minus", "s3_minus", "s4_minus", "s2_residual_plus",
        "s2_residual_minus", "s4_residual_plus", "s4_residual_minus"]),
    "Lemma1Report": (lambda: lemma1_check(Z, 2, [-1.0, 1.0], mode="exact"), [
        "mode", "alpha", "C_plus", "C_minus", "dC_plus", "dC_minus",
        "entries", "factorization_residuals", "cross_side_residuals",
        "max_residual"]),
    "V2LimitRow": (lambda: local_V2_limit_check(Z, PARAMS).rows[0], [
        "index", "a_i", "abscissas", "values", "errors", "fitted_order",
        "ok"]),
    "V2LimitReport": (lambda: local_V2_limit_check(Z, PARAMS),
                      ["limit", "V2", "eps_grid", "rows", "ok"]),
    "UnfoldingParams": (lambda: PARAMS,
                        ["k", "lambda", "epsilon", "b", "shift"]),
    "PiecewiseField": (lambda: Z, ["upper", "lower"]),
    "SmoothField": (lambda: Z.upper, ["X", "Y"]),
    "IntegratorConfig": (IntegratorConfig, [
        "rel_tol", "abs_tol", "max_step", "event_tol", "max_time"]),
    "Scenario": (lambda: Scenario(
        name="s", field=Z, unfold=PARAMS, integrator=IntegratorConfig(),
        window=Window(center=0.0, radius=0.3), outputs="out"),
        ["name", "field", "unfold", "integrator", "window", "outputs"]),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_report_keys_pinned(name):
    build, keys = RECORDS[name]
    doc = build().to_json_dict()
    assert sorted(doc) == sorted(keys)
    assert json.loads(json.dumps(doc)) == doc
    if name == "PerturbationPolys":
        assert all(isinstance(doc[k], list) and doc[k]
                   for k in ("p_plus", "p_minus"))
    if name == "LimitCycle":
        assert sorted(doc["enclosed_segment"]) == [
            "endpoints", "kind", "x_hi", "x_lo"]


def test_jsonable_converts_numpy_scalars_and_fractions():
    doc = jsonable({"f": np.float32(0.5), "i": np.int64(7),
                    "q": [Fraction(1, 4)], "x": 2})
    assert doc == {"f": 0.5, "i": 7, "q": [0.25], "x": 2}
    assert [type(doc[k]) for k in ("f", "i", "x")] == [float, int, int]
    assert type(doc["q"][0]) is float


def test_jsonable_writes_poly2_as_sorted_triples():
    p = Poly2({(1, 0): Fraction(1, 2), (0, 0): 2})
    assert jsonable({"p": p}) == {"p": [[0, 0, 2.0], [1, 0, 0.5]]}


def test_write_json_sorts_keys_and_converts(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"b": np.float64(0.1), "a": [SEGMENT]})
    text = path.read_text()
    assert text.endswith("}\n") and text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": [SEGMENT.to_json_dict()], "b": 0.1}


def test_write_csv_cells(tmp_path):
    """Header line, then a float with 17 significant digits (so it reads
    back exactly), None as an empty cell and anything else with str."""
    x = 0.1 + 0.2
    path = tmp_path / "t.csv"
    write_csv(path, ("x", "n", "kind", "y", "none"),
              [(x, 3, "stable", np.float64(1) / 3, None), (1e-300, 0, "", -0.0, 2)])
    assert path.read_bytes() == (
        b"x,n,kind,y,none\n"
        b"0.30000000000000004,3,stable,0.33333333333333331,\n"
        b"1e-300,0,,-0,2\n")
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert float(rows[0][0]) == x
    assert float(rows[0][3]) == np.float64(1) / 3
    assert float(rows[1][0]) == 1e-300
