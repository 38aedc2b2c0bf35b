"""Cycle layer: the splitting dichotomy, amplitude laws, and the census."""

import dataclasses
import re

import numpy as np
import pytest

from conftest import cross_coupled_system
from filippov import (
    PseudoHopfPrediction,
    UnfoldingParams,
    amplitude_prediction,
    apply_shift,
    classify_mts,
    cycle_census,
    cycle_producing_sign,
    displacement,
    displacements,
    estimate_lyapunov,
    find_cycles_local,
    monodromic_family,
    pseudo_hopf_scan,
)
from filippov import flow
from filippov import cycles as cycles_module
from filippov.cycles import GRID_POINTS, ROOT_RESIDUAL_TOL, ScanRow, _inner_offset
from filippov.errors import (
    InputError,
    ScaleSeparationViolated,
    StepFailure,
    WrongSign,
)
from filippov.field import PiecewiseField, SmoothField
from filippov.poly import Poly2
from filippov.record import write_csv
from filippov.roots import brent
from filippov.unfold import expected_invisible_indices, unfolded_shifted


# Acceptance census parameters: k -> (lambda, epsilon, |b|); k = 5 is a
# regression census, not an acceptance criterion.
CENSUS = {
    2: ((-1.0, 1.0), 0.1, 1e-6),
    3: ((-1.0, 1.0, 2.0, 3.0), 0.05, 1e-8),
    4: ((-1.0, 1.0, 2.0, 3.0, 4.0, 5.0), 0.03, 1e-10),
    5: ((-1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0), 0.02, 1e-12),
}


# -- amplitude law ---------------------------------------------------------------

def test_amplitude_prediction_order_one():
    p = PseudoHopfPrediction.from_coefficient(delta=1, V2ell=2.0 / 3.0)
    assert p.mu == -1
    assert p.y0 == pytest.approx(np.sqrt(3.0), rel=1e-12)
    assert amplitude_prediction(p, -1e-4) == pytest.approx(
        np.sqrt(1e-4) * np.sqrt(3.0), rel=1e-12)


def test_amplitude_prediction_negative_coefficient():
    p = PseudoHopfPrediction.from_coefficient(delta=1, V2ell=-2.0)
    assert p.mu == 1
    assert amplitude_prediction(p, 1e-4) == pytest.approx(0.01, rel=1e-12)


def test_amplitude_prediction_order_two():
    p = PseudoHopfPrediction.from_coefficient(delta=1, V2ell=2.0, ell=2)
    assert amplitude_prediction(p, -1e-8) == pytest.approx(0.01, rel=1e-12)


def test_amplitude_prediction_wrong_sign():
    p = PseudoHopfPrediction.from_coefficient(delta=1, V2ell=2.0 / 3.0)
    with pytest.raises(WrongSign):
        amplitude_prediction(p, 1e-4)


def test_producing_sign_conventions():
    assert cycle_producing_sign(1, 2.0 / 3.0, "minus") == -1
    assert cycle_producing_sign(1, -2.0 / 3.0, "minus") == 1
    assert cycle_producing_sign(1, 2.0 / 3.0, "plus") == 1
    assert cycle_producing_sign(-1, 2.0 / 3.0, "minus") == 1


# -- local search ------------------------------------------------------------------

def test_single_cycle_for_producing_sign(cfg):
    Z = monodromic_family(1, 1.0)
    b = -1e-4
    Zb = apply_shift(Z, b, "minus")
    diags = []
    cycles = find_cycles_local(Zb, 0.0, 0.3, b, cfg, diags)
    assert len(cycles) == 1
    c = cycles[0]
    assert c.stability == "unstable"
    assert c.amplitude == pytest.approx(np.sqrt(3e-4), rel=0.1)
    assert c.enclosed_segment is not None
    assert c.enclosed_segment.kind == "attracting-sliding"
    assert abs(c.derivative) > 1e-8
    assert c.amplitude > abs(b)
    # chord endpoints surround the sliding segment strictly
    seg = c.enclosed_segment
    assert c.x_left < seg.x_lo < seg.x_hi < c.x_star


def test_no_cycle_for_opposite_sign(cfg):
    Z = monodromic_family(1, 1.0)
    Zb = apply_shift(Z, 1e-4, "minus")
    assert find_cycles_local(Zb, 0.0, 0.3, 1e-4, cfg, []) == []


def test_center_window_is_flagged(cfg):
    Z = monodromic_family(1, 0.0)
    diags = []
    assert find_cycles_local(Z, 0.0, 0.3, 0.0, cfg, diags) == []
    assert any("center" in d for d in diags)


@pytest.mark.parametrize("c", [1.0, -1.0])
def test_dichotomy_flips_with_coefficient(cfg, c):
    Z = monodromic_family(1, c)
    data = classify_mts(Z)
    good = cycle_producing_sign(data.delta, data.V2, "minus")
    n_found = {}
    for sign in (-1, 1):
        b = sign * 1e-4
        Zb = apply_shift(Z, b, "minus")
        n_found[sign] = len(find_cycles_local(Zb, 0.0, 0.3, b, cfg, []))
    assert n_found[good] == 1
    assert n_found[-good] == 0
    assert good == (-1 if c > 0 else 1)


def test_cycle_root_residual(cfg):
    # one window of the splitting scan, then the acceptance censuses, each
    # cycle on its shifted field from its window's base
    b = -1e-4
    Zb = apply_shift(monodromic_family(1, 1.0), b, "minus")
    runs = [(1, Zb, find_cycles_local(Zb, 0.0, 0.3, b, cfg, []))]
    for k in (2, 3, 4):
        Z, params, _ = _producing_census(k)
        runs.append((k, unfolded_shifted(Z, params)[1],
                     cycle_census(Z, params, cfg).cycles))
    for k, Zb, found in runs:
        assert len(found) == k
        for c in found:
            residual = displacement(Zb, c.x_star, cfg, c.window_center)
            assert abs(residual.delta_value) <= ROOT_RESIDUAL_TOL


# -- scan ---------------------------------------------------------------------------

def test_scan_dichotomy_and_amplitudes(cfg):
    Z = monodromic_family(1, 1.0)
    bs = [-1e-5, -1e-4, -1e-3, 1e-5, 1e-4, 1e-3]
    table = pseudo_hopf_scan(Z, bs, "minus", cfg)
    produced = {r.b: r for r in table.rows if r.n_cycles == 1}
    empty = [r for r in table.rows if r.n_cycles == 0]
    assert sorted(produced) == [-1e-3, -1e-4, -1e-5]
    assert len(empty) == 3
    for r in produced.values():
        assert r.stability == "unstable"
        assert r.sliding_kind == "attracting-sliding"
        assert r.predicted_amplitude == pytest.approx(
            np.sqrt(3 * abs(r.b)), rel=1e-9)
        if abs(r.b) <= 1e-4:
            assert 0.9 <= r.amplitude / np.sqrt(3 * abs(r.b)) <= 1.1
    amps = [produced[b].amplitude for b in sorted(produced)]
    slope = np.polyfit(np.log([abs(b) for b in sorted(produced)]),
                       np.log(amps), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.02)


def test_scan_plus_convention_flips_sign(cfg):
    Z = monodromic_family(1, 1.0)
    table = pseudo_hopf_scan(Z, [-1e-4, 1e-4], "plus", cfg)
    counts = {r.b: r.n_cycles for r in table.rows}
    assert counts[-1e-4] == 0
    assert counts[1e-4] == 1


def test_scan_csv(cfg, tmp_path):
    Z = monodromic_family(1, 1.0)
    table = pseudo_hopf_scan(Z, [-1e-4, 1e-4], "minus", cfg)
    path = tmp_path / "scan.csv"
    write_csv(path, [f.name for f in dataclasses.fields(ScanRow)],
              map(dataclasses.astuple, table.rows))
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    for line, row in zip(lines[1:], table.rows):
        b, n_cycles, stability, *_ = line.split(",")
        assert (float(b), int(n_cycles), stability) == (
            row.b, row.n_cycles, row.stability)


# -- census -----------------------------------------------------------------------

def test_census_order_two(cfg):
    Z = monodromic_family(2, 1.0)
    params = UnfoldingParams(k=2, lam=(-1.0, 1.0), epsilon=0.1, b=-1e-6,
                             shift_convention="minus")
    rep = cycle_census(Z, params, cfg)
    assert rep.passed
    assert rep.expected_count == 2
    assert len(rep.cycles) == 2
    centers = sorted(c.window_center for c in rep.cycles)
    assert centers == pytest.approx([-0.1, 0.1], abs=1e-12)
    for c in rep.cycles:
        assert c.stability == "unstable"
        assert c.enclosed_segment is not None


def test_census_wrong_sign_is_empty(cfg):
    Z = monodromic_family(2, 1.0)
    params = UnfoldingParams(k=2, lam=(-1.0, 1.0), epsilon=0.1, b=1e-6,
                             shift_convention="minus")
    rep = cycle_census(Z, params, cfg)
    assert not rep.passed
    assert rep.cycles == []
    assert rep.expected_count == 2


def test_census_order_four(cfg):
    # beyond the headline cases: six nodes, seven contacts, four cycles
    Z = monodromic_family(4, 1.0)
    params = UnfoldingParams(k=4, lam=(-1.0, 1.0, 2.0, 3.0, 4.0, 5.0),
                             epsilon=0.03, b=-1e-9, shift_convention="minus")
    rep = cycle_census(Z, params, cfg)
    assert rep.passed
    assert len(rep.cycles) == 4
    assert {round(c.window_center, 4) for c in rep.cycles} \
        == {-0.03, 0.03, 0.09, 0.15}


def test_census_base_order(cfg):
    # k = 1 degenerates to the plain splitting bifurcation
    Z = monodromic_family(1, 1.0)
    params = UnfoldingParams(k=1, lam=(), epsilon=0.1, b=-1e-4,
                             shift_convention="minus")
    rep = cycle_census(Z, params, cfg)
    assert rep.passed
    assert len(rep.cycles) == 1


@pytest.mark.parametrize("k, lam, eps, b", [
    (2, (-1.0, 1.0), 0.1, -1e-6),
    (3, (-1.0, 1.0, 2.0, 3.0), 0.05, -1e-8),
])
def test_root_solve_spends_few_displacements(cfg, monkeypatch, k, lam, eps, b):
    # every census window holds one root; the grid is integrated in one
    # batch, and the root comes from one more batch of one displacement,
    # at the Hermite estimate, whose residual is already on target
    params = UnfoldingParams(k=k, lam=lam, epsilon=eps, b=b,
                             shift_convention="minus")
    _, Zb = unfolded_shifted(monodromic_family(k, 1.0), params)
    nodes = (0.0,) + lam
    radius = eps * min(abs(u - v) for u in nodes for v in nodes if u != v) / 3
    batches = []

    def counted_batch(Z, xs, *args, **kwargs):
        batches.append(len(xs))
        return displacements(Z, xs, *args, **kwargs)

    monkeypatch.setattr(cycles_module, "displacements", counted_batch)
    for i in sorted(expected_invisible_indices(k)):
        batches.clear()
        found = find_cycles_local(Zb, eps * lam[i - 1], radius, b, cfg)
        assert len(found) == 1
        assert batches == [GRID_POINTS, 1]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_census_shares_one_grid_batch(cfg, monkeypatch, k):
    # all windows' grid lanes, both sides of every sample, ride in one
    # batch, and each cycle's chord end is the lower return its own window
    # gives
    lam, eps, mag = CENSUS[k]
    Z = monodromic_family(k, 1.0)
    data = classify_mts(Z)
    good = cycle_producing_sign(data.delta, data.V2, "minus")
    params = UnfoldingParams(k=k, lam=lam, epsilon=eps, b=good * mag,
                             shift_convention="minus")
    batches = []
    arcs = flow._arcs

    def counted(fields, *args):
        batches.append(fields)
        return arcs(fields, *args)

    monkeypatch.setattr(flow, "_arcs", counted)
    rep = cycle_census(Z, params, cfg)
    big = [fields for fields in batches if len(fields) >= GRID_POINTS]
    assert len(big) == 1
    assert len(big[0]) == 2 * k * GRID_POINTS
    assert len({id(f) for f in big[0]}) == 2
    assert rep.passed and len(rep.cycles) == k
    _, Zb = unfolded_shifted(Z, params)
    nodes = (0.0,) + lam
    radius = eps * min(abs(u - v) for u in nodes for v in nodes if u != v) / 3
    for c in rep.cycles:
        bound = (c.window_center - 2.5 * radius, c.window_center + 2.5 * radius)
        assert c.x_left == flow.half_arcs(
            [(Zb.lower, -1, c.x_star, bound)], cfg, returns=True)[0][0]


def _producing_census(k):
    lam, eps, mag = CENSUS[k]
    Z = monodromic_family(k, 1.0)
    data = classify_mts(Z)
    good = cycle_producing_sign(data.delta, data.V2, "minus")
    params = UnfoldingParams(k=k, lam=lam, epsilon=eps, b=good * mag,
                             shift_convention="minus")
    nodes = (0.0,) + lam
    radius = eps * min(abs(u - v) for u in nodes for v in nodes if u != v) / 3
    return Z, params, radius


SCAN_BS = [-1e-5, -1e-4, -1e-3, 1e-5, 1e-4, 1e-3]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_census_roots_equal_each_window_alone(cfg, k):
    # solving every window's brackets in lockstep gives each cycle exactly
    # what its own window's search gives
    Z, params, radius = _producing_census(k)
    rep = cycle_census(Z, params, cfg)
    assert len(rep.cycles) == k
    _, Zb = unfolded_shifted(Z, params)
    for c in rep.cycles:
        (alone,) = find_cycles_local(Zb, c.window_center, radius, params.b, cfg)
        assert (alone.x_star, alone.x_left, alone.derivative) \
            == (c.x_star, c.x_left, c.derivative)


def _grid(center, b, radius):
    """A searched window's grid abscissae, as the search builds them."""
    return (center + np.geomspace(_inner_offset(b, radius), radius,
                                  GRID_POINTS)).tolist()


@pytest.mark.parametrize("op, tol", [("census_k2", 1e-6), ("census_k3", 1e-6),
                                     ("census_k4", 2e-5), ("scan_k1", 1e-6)])
def test_roots_match_a_converged_reference(cfg, op, tol):
    # each root against scalar Brent at fatol 0 on the displacement in the
    # same grid bracket, relative to the cycle's amplitude; the k = 4
    # reference is limited by the displacement's noise
    if op == "scan_k1":
        Z = monodromic_family(1, 1.0)
        runs = [(apply_shift(Z, row.b, "minus"), row.b, 0.3, 0.0, row.amplitude)
                for row in pseudo_hopf_scan(Z, SCAN_BS, "minus", cfg).rows
                if row.n_cycles]
        assert len(runs) == 3
    else:
        Z, params, radius = _producing_census(int(op[-1]))
        _, Zb = unfolded_shifted(Z, params)
        runs = [(Zb, params.b, radius, c.window_center, c.x_star)
                for c in cycle_census(Z, params, cfg).cycles]
        assert len(runs) == params.k
    for Zb, b, radius, center, x_star in runs:
        grid = _grid(center, b, radius)
        lo, hi = next(ends for ends in zip(grid, grid[1:])
                      if ends[0] <= x_star <= ends[1])
        ref = brent(lambda x: displacement(Zb, x, cfg, center).delta_value, lo, hi)
        assert abs(x_star - ref) <= tol * abs(x_star - center)


def test_census_order_five_roots_lie_between_grid_points(cfg):
    # at k = 5 the grid ends next to the roots of windows -0.02, +0.02 and
    # +0.14 already read |delta| below ROOT_RESIDUAL_TOL; every root still
    # comes from its bracket's interpolant, not from a bracket end
    Z, params, radius = _producing_census(5)
    rep = cycle_census(Z, params, cfg)
    assert rep.passed
    assert [c.stability for c in rep.cycles] == ["unstable"] * 5
    for c in rep.cycles:
        assert c.x_star not in _grid(c.window_center, params.b, radius)


@pytest.mark.parametrize("offset", [0.0, 1e-4])
def test_root_without_chord_is_a_diagnostic(offset):
    # a root whose lower return is not left of it has an empty or reversed
    # chord: a diagnostic names the root, and no cycle and no error follow
    Z, params, radius = _producing_census(2)
    _, Zb = unfolded_shifted(Z, params)
    x = 0.1016
    root = flow.ReturnSample(x=x, phi_plus=-x, phi_minus=x + offset,
                             delta_value=0.0, derivative=2.5e-3)
    found, diagnostics = [], []
    cycles_module._add_cycle(cycles_module._Window(Zb, params.b, 0.1, radius, []),
                             root, found, diagnostics)
    assert found == []
    assert diagnostics == [f"root at x={x:.9g} has no chord: its lower return "
                           f"{x + offset:.9g} is not left of it"]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_invisible_windows_keep_their_inner_samples(cfg, k):
    # the innermost grid samples return just beside their fold; only the
    # outer edge of window +0.15 at k = 4 still loses a sample
    Z, params, _ = _producing_census(k)
    rep = cycle_census(Z, params, cfg)
    invisible = {f"window {params.epsilon * params.lam[i - 1]:+.6g}"
                 for i in expected_invisible_indices(k)}
    failed = [d for d in rep.diagnostics if "displacement samples failed" in d
              and d.split(":")[0] in invisible]
    assert failed == ([f"window +0.15: 1 of {GRID_POINTS} displacement samples "
                       "failed (NotInWindow 1)"] if k == 4 else [])


def test_scan_rows_equal_one_b_scans(cfg):
    # six shifted fields share each round; every row is the one-b scan's
    Z = monodromic_family(1, 1.0)
    table = pseudo_hopf_scan(Z, SCAN_BS, "minus", cfg)
    assert table.rows == [pseudo_hopf_scan(Z, [b], "minus", cfg).rows[0]
                          for b in sorted(SCAN_BS)]


def test_failed_root_solve_is_one_diagnostic(cfg, monkeypatch):
    # a displacement that fails inside one window's root solve ends that
    # bracket with a diagnostic; the census returns and the other window
    # keeps its cycle
    Z, params, _ = _producing_census(2)
    clean = cycle_census(Z, params, cfg)
    calls = []

    def failing(Zs, xs, *args, **kwargs):
        calls.append(len(xs))
        out = displacements(Zs, xs, *args, **kwargs)
        if len(calls) == 1:  # the grid batch
            return out
        return [StepFailure("injected") if x < 0 else s for x, s in zip(xs, out)]

    monkeypatch.setattr("filippov.cycles.displacements", failing)
    rep = cycle_census(Z, params, cfg)
    assert [c.window_center for c in clean.cycles] == pytest.approx([-0.1, 0.1])
    assert rep.cycles == clean.cycles[1:]
    assert not rep.passed
    failed = [d for d in rep.diagnostics if "root solve in bracket" in d]
    assert len(failed) == 1
    assert failed[0].startswith("window -0.1: root solve in bracket u = (0.")
    assert failed[0].endswith(") failed: StepFailure: injected")


def test_bracket_diagnostics_tell_their_ends_apart(cfg):
    # at k = 6 window +0.135 loses its outer sample and one 7.5e-13 from
    # its fold; the three brackets beside them are skipped, and each
    # diagnostic names its ends by their offsets from the window center
    k = 6
    Z = monodromic_family(k, 1.0)
    data = classify_mts(Z)
    good = cycle_producing_sign(data.delta, data.V2, "minus")
    params = UnfoldingParams(k=k, lam=(-1.0, *map(float, range(1, 10))),
                             epsilon=0.015, b=good * 1e-13,
                             shift_convention="minus")
    skipped = [re.search(r"bracket (?:u = )?\((.+), (.+)\) skipped", d)
               for d in cycle_census(Z, params, cfg).diagnostics]
    ends = [(float(m[1]), float(m[2])) for m in skipped if m]
    assert len(ends) == 3
    assert all(lo < hi for lo, hi in ends)


# Lane rounds per operation: one grid batch and at most two root batches
# (the lockstep Brent solve with slope probes took 23, 26, 22 and 25).
ROUND_CAPS = {"census_k2": 11, "census_k3": 11, "census_k4": 11, "scan_k1": 12}
# Exactly, at seed 0: the producing censuses, the k = 1 scan, the null
# censuses and the sweep's five Lyapunov fits (family k at c = 1 or 0).  A
# census integrates only its invisible windows; its roots take one batch at
# their Hermite estimates, and the scan's b = -1e-3 and -1e-4 roots one more
# at their Newton steps.  A fit is one batch.
EXACT_ROUNDS = {"census_k2": 11, "census_k3": 11, "census_k4": 11,
                "scan_k1": 12, "null_k2": 6, "null_k3": 6, "null_k4": 6,
                "fit_k1_c1": 4, "fit_k2_c1": 4, "fit_k3_c1": 4,
                "fit_k1_c0": 4, "fit_k2_c0": 4}


def _rounds(cfg, monkeypatch, op) -> int:
    """`_Lanes.attempt` calls of one operation, after checking its outcome."""
    rounds = []
    attempt = flow._Lanes.attempt

    def counted(self, *args):
        rounds.append(self.y.shape[1])
        return attempt(self, *args)

    monkeypatch.setattr(flow._Lanes, "attempt", counted)
    if op == "scan_k1":
        table = pseudo_hopf_scan(monodromic_family(1, 1.0), SCAN_BS, "minus", cfg)
        assert sum(r.n_cycles for r in table.rows) == 3
    elif op.startswith("fit"):
        c = float(op[-1])
        est = estimate_lyapunov(monodromic_family(int(op[5]), c), (0.005, 0.05), cfg)
        assert est.center == (c == 0) and est.order % 2 == 0
    else:
        Z, params, _ = _producing_census(int(op[-1]))
        if op.startswith("null"):
            params = dataclasses.replace(params, b=-params.b)
        rep = cycle_census(Z, params, cfg)
        assert rep.passed == op.startswith("census")
        assert len(rep.cycles) == (params.k if rep.passed else 0)
    return len(rounds)


@pytest.mark.parametrize("op", sorted(ROUND_CAPS))
def test_rounds_per_operation(cfg, monkeypatch, op):
    assert _rounds(cfg, monkeypatch, op) <= ROUND_CAPS[op]


@pytest.mark.parametrize("op", sorted(EXACT_ROUNDS))
def test_census_rounds(cfg, monkeypatch, op):
    assert _rounds(cfg, monkeypatch, op) == EXACT_ROUNDS[op]


@pytest.mark.parametrize("k, c, hidden", [
    (4, 2.5, ["contact 0 at x=+0", "contact 3 at x=+0.06", "contact 5 at x=+0.12"]),
    (3, 2.9, ["contact 3 at x=+0.1"]),
    (4, 1.0, []),
    (3, 1.0, []),
])
def test_census_requires_visible_contacts(cfg, k, c, hidden):
    # from c ~ 2 the upper field's second tangency turns expected-visible
    # contacts invisible; the census names each one and does not pass
    lam, eps, mag = CENSUS[k]
    Z = monodromic_family(k, c)
    data = classify_mts(Z)
    good = cycle_producing_sign(data.delta, data.V2, "minus")
    rep = cycle_census(Z, UnfoldingParams(k=k, lam=lam, epsilon=eps, b=good * mag,
                                          shift_convention="minus"), cfg)
    named = [d for d in rep.diagnostics if d.startswith("contact ")]
    assert named == [f"{where}: upper side is invisible, expected visible"
                     for where in hidden]
    assert rep.passed == (not hidden)


@pytest.mark.parametrize("k, lam, eps, mag", [
    (5, (-1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0), 0.02, 1e-12),
    (4, CENSUS[4][0], 0.0075, 1e-12),
])
def test_census_passes_with_unclassified_contacts(cfg, k, lam, eps, mag):
    # at these contact slopes (~1e-11) the absolute floor of field._coeff_tol
    # reads some expected-visible contacts at multiplicity 3 or 4: the census
    # names them but does not fail on them
    Z = monodromic_family(k, 1.0)
    data = classify_mts(Z)
    good = cycle_producing_sign(data.delta, data.V2, "minus")
    rep = cycle_census(Z, UnfoldingParams(k=k, lam=lam, epsilon=eps, b=good * mag),
                       cfg)
    assert any(d.startswith("contact ") and "unclassified" in d
               for d in rep.diagnostics)
    assert rep.passed and len(rep.cycles) == k


def test_census_scale_separation_guard(cfg):
    Z = monodromic_family(2, 1.0)
    params = UnfoldingParams(k=2, lam=(-1.0, 1.0), epsilon=0.1, b=-1e-2,
                             shift_convention="minus")
    with pytest.raises(ScaleSeparationViolated):
        cycle_census(Z, params, cfg)


def test_census_rejects_center(cfg):
    Z = monodromic_family(2, 0.0)
    params = UnfoldingParams(k=2, lam=(-1.0, 1.0), epsilon=0.1, b=-1e-6)
    with pytest.raises(InputError):
        cycle_census(Z, params, cfg)


def test_census_plus_convention(cfg):
    Z = monodromic_family(2, 1.0)
    data = classify_mts(Z)
    good = cycle_producing_sign(data.delta, data.V2, "plus")
    assert good == 1
    rep = cycle_census(Z, UnfoldingParams(
        k=2, lam=(-1.0, 1.0), epsilon=0.1, b=good * 1e-6,
        shift_convention="plus"), cfg)
    assert rep.passed and len(rep.cycles) == 2


def test_dichotomy_for_reversed_orientation(cfg):
    # mirrored configuration with delta = -1: upper goes left on top
    Zm = PiecewiseField(
        upper=SmoothField(Poly2.constant(-1.0),
                          Poly2({(1, 0): 1.0, (2, 0): 1.0})),
        lower=SmoothField(Poly2.constant(1.0), Poly2({(1, 0): 1.0})))
    data = classify_mts(Zm)
    assert data.delta == -1
    assert data.V2 == pytest.approx(2.0 / 3.0, abs=1e-12)
    good = cycle_producing_sign(data.delta, data.V2, "minus")
    assert good == 1
    for sign in (good, -good):
        b = sign * 1e-4
        cycles = find_cycles_local(apply_shift(Zm, b, "minus"),
                                   0.0, 0.3, b, cfg, [])
        assert len(cycles) == (1 if sign == good else 0)
        if cycles:
            assert cycles[0].stability == "unstable"  # V2 > 0


def test_scan_on_y_coupled_field(cfg):
    # the upper component depends on y, so the arcs are not polynomial in
    # time and the integrator earns its keep
    table = pseudo_hopf_scan(cross_coupled_system(), [-1e-4, 1e-4],
                             "minus", cfg)
    counts = {r.b: r.n_cycles for r in table.rows}
    assert counts[-1e-4] == 1 and counts[1e-4] == 0


# -- degenerate leading order --------------------------------------------------------

def crafted_quartic(t, c=1.0, d=1.0):
    """Two-fold pair with tunable quadratic asymmetry.

    The upper field carries quadratic and cubic corrections, the lower a
    quadratic one; at t = c the quadratic parts of the two half-returns
    cancel and the displacement leads with the quartic term 2 c d / 3.
    """
    upper = SmoothField(Poly2.constant(1.0),
                        Poly2({(1, 0): -1.0, (2, 0): c, (3, 0): d}))
    lower = SmoothField(Poly2.constant(-1.0),
                        Poly2({(1, 0): -1.0, (2, 0): t}))
    return PiecewiseField(upper, lower)


def tune_quadratic_cancellation(cfg, lo=0.75, hi=1.25, x0=0.005):
    """Bisect the lower quadratic coefficient until the measured quadratic
    content of the displacement crosses zero."""
    def quad_content(t):
        return displacement(crafted_quartic(t), x0, cfg).delta_value / x0**2

    v_lo = quad_content(lo)
    assert v_lo * quad_content(hi) < 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        vm = quad_content(mid)
        if abs(vm) < 3e-5:
            return mid
        if (vm < 0) == (v_lo < 0):
            lo, v_lo = mid, vm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_degenerate_order_amplitude_exponent(cfg):
    t_star = tune_quadratic_cancellation(cfg)
    assert t_star == pytest.approx(1.0, abs=1e-3)
    Z = crafted_quartic(t_star)
    est = estimate_lyapunov(Z, (0.02, 0.15), cfg)
    assert est.order == 4

    amps = []
    bs = [1e-6, 1e-5, 1e-4]
    for mag in bs:
        Zb = apply_shift(Z, -mag, "minus")
        cycles = find_cycles_local(Zb, 0.0, 0.35, -mag, cfg, [])
        assert len(cycles) == 1
        assert cycles[0].stability == "unstable"
        amps.append(cycles[0].amplitude)
    slope = np.polyfit(np.log(bs), np.log(amps), 1)[0]
    assert slope == pytest.approx(0.25, abs=0.03)


def test_scan_fits_the_coefficient_when_V2_vanishes(cfg):
    # V2 = 0 exactly, so the scan predicts amplitudes from the fitted
    # quartic coefficient (closed form 2cd/3 = 2/3; the fit reads about
    # 0.62, so it is not gated tightly)
    Z = crafted_quartic(1.0)
    assert classify_mts(Z).V2 == 0.0
    table = pseudo_hopf_scan(Z, [-1e-6, -1e-5, -1e-4, 1e-4], "minus", cfg,
                             window_radius=0.3)
    assert table.ell == 2
    assert table.V2ell == pytest.approx(2 / 3, rel=0.15)
    rows = {r.b: r for r in table.rows}
    assert rows[1e-4].n_cycles == 0
    for b in (-1e-6, -1e-5, -1e-4):
        assert (rows[b].n_cycles, rows[b].stability) == (1, "unstable")
        assert rows[b].amplitude == pytest.approx(rows[b].predicted_amplitude,
                                                  rel=0.03)
