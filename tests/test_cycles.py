"""Cycle layer: the splitting dichotomy, amplitude laws, and the census."""

import numpy as np
import pytest

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
    half_return,
    monodromic_family,
    pseudo_hopf_scan,
)
from filippov import flow
from filippov.cycles import GRID_POINTS, VISIBLE_POINTS
from filippov.errors import (
    InputError,
    ScaleSeparationViolated,
    StepFailure,
    WrongSign,
)
from filippov.field import PiecewiseField, SmoothField
from filippov.poly import Poly2
from filippov.unfold import expected_invisible_indices, unfolded_shifted


# Acceptance census parameters: k -> (lambda, epsilon, |b|).
CENSUS = {
    2: ((-1.0, 1.0), 0.1, 1e-6),
    3: ((-1.0, 1.0, 2.0, 3.0), 0.05, 1e-8),
    4: ((-1.0, 1.0, 2.0, 3.0, 4.0, 5.0), 0.03, 1e-10),
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
    assert c.x_left < seg.interval[0] < seg.interval[1] < c.x_star


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
    Z = monodromic_family(1, 1.0)
    b = -1e-4
    Zb = apply_shift(Z, b, "minus")
    c = find_cycles_local(Zb, 0.0, 0.3, b, cfg, [])[0]
    assert abs(displacement(Zb, c.x_star, cfg).delta_value) < 1e-10


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
    table.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == \
        "b,n_cycles,stability,sliding_kind,amplitude,predicted_amplitude"
    assert len(lines) == 3


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
    # batch, and solving the root, its finite-difference slope and its
    # chord cost at most 8 displacements beyond the grid
    params = UnfoldingParams(k=k, lam=lam, epsilon=eps, b=b,
                             shift_convention="minus")
    _, Zb = unfolded_shifted(monodromic_family(k, 1.0), params)
    nodes = (0.0,) + lam
    radius = eps * min(abs(u - v) for u in nodes for v in nodes if u != v) / 3
    batches = []

    def counted_batch(Z, xs, *args, **kwargs):
        batches.append(len(xs))
        return displacements(Z, xs, *args, **kwargs)

    monkeypatch.setattr("filippov.cycles.displacements", counted_batch)
    for i in sorted(expected_invisible_indices(k)):
        batches.clear()
        found = find_cycles_local(Zb, eps * lam[i - 1], radius, b, cfg)
        assert len(found) == 1
        assert batches[0] == GRID_POINTS
        assert 0 < sum(batches[1:]) <= 8


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
    assert len(big[0]) == 2 * (k * GRID_POINTS + (k - 1) * VISIBLE_POINTS)
    assert len({id(f) for f in big[0]}) == 2
    assert rep.passed and len(rep.cycles) == k
    _, Zb = unfolded_shifted(Z, params)
    nodes = (0.0,) + lam
    radius = eps * min(abs(u - v) for u in nodes for v in nodes if u != v) / 3
    for c in rep.cycles:
        local = cfg.with_window(c.window_center - 2.5 * radius,
                                c.window_center + 2.5 * radius)
        assert c.x_left == half_return(Zb, "lower", c.x_star, local)


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
    assert failed[0].startswith("window -0.1: root solve in bracket (-0.")
    assert failed[0].endswith(") failed: StepFailure: injected")


# Lane rounds per operation: at most half of what one-window Brent
# refinement with sequential upper and lower arcs took (101, 130, 129, 220).
ROUND_CAPS = {"census_k2": 50, "census_k3": 65, "census_k4": 64, "scan_k1": 110}


@pytest.mark.parametrize("op", sorted(ROUND_CAPS))
def test_rounds_per_operation(cfg, monkeypatch, op):
    rounds = []
    attempt = flow._Lanes.attempt

    def counted(self, *args):
        rounds.append(self.y.shape[1])
        return attempt(self, *args)

    monkeypatch.setattr(flow._Lanes, "attempt", counted)
    if op == "scan_k1":
        table = pseudo_hopf_scan(monodromic_family(1, 1.0), SCAN_BS, "minus", cfg)
        assert sum(r.n_cycles for r in table.rows) == 3
    else:
        Z, params, _ = _producing_census(int(op[-1]))
        assert cycle_census(Z, params, cfg).passed
    assert len(rounds) <= ROUND_CAPS[op]


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
    from filippov import cross_coupled_system
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
