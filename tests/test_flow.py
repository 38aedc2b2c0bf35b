"""Flow layer: arc integration, half-return maps, displacement samples."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import level_set_return
from filippov import (
    UnfoldingParams,
    apply_shift,
    displacement,
    displacements,
    estimate_lyapunov,
    half_return,
    integrate_to_sigma,
    monodromic_family,
    cross_coupled_system,
)
from filippov import flow
from filippov.errors import FilippovError, InputError, NoReturn, NotInWindow
from filippov.field import SmoothField
from filippov.flow import _interpolate, _Lanes, write_delta_csv
from filippov.poly import Poly2
from filippov.unfold import expected_invisible_indices, unfolded_shifted


def rotation_like():
    return SmoothField(Poly2.constant(1.0), Poly2({(1, 0): -1.0}))


# -- integrate_to_sigma ---------------------------------------------------------

def test_arc_from_positive_abscissa(cfg):
    # the arc through (0.1, 0) lives in backward time; level set gives -0.1
    xr, path = integrate_to_sigma(rotation_like(), (0.1, 0.0), "backward", cfg)
    assert xr == pytest.approx(-0.1, abs=1e-9)
    assert len(path) > 5
    assert abs(path[-1][1]) < 1e-9


def test_arc_from_negative_abscissa(cfg):
    xr, _ = integrate_to_sigma(rotation_like(), (-0.2, 0.0), "forward", cfg)
    assert xr == pytest.approx(0.2, abs=1e-9)


def test_no_return(cfg):
    f = SmoothField(Poly2.constant(1.0), Poly2.constant(1.0))
    short = dataclasses.replace(cfg, max_time=5.0)
    with pytest.raises(NoReturn):
        integrate_to_sigma(f, (0.0, 0.0), "forward", short)


def test_underflowing_start_scale_still_steps(cfg):
    # x' = 3, y' = x from (5e-324, 0): the vertical time scale |y'|/|y''|
    # underflows to 0, so the start cap holds for no time; the initial step
    # is then 0 as in scipy for an empty interval, not NaN, and the lane
    # steps on from the smallest step instead of retrying a NaN one forever
    field = SmoothField(Poly2.constant(3.0), Poly2({(1, 0): 1.0}))
    lanes = _Lanes([field], np.array([[5e-324], [0.0]]), [-1.0],
                   cfg.rel_tol, cfg.abs_tol)
    cap, span = flow._start_cap(lanes, cfg)
    assert span[0] == 0.0
    with np.errstate(all="ignore"):
        lanes.select_initial_step(span, cap)
    assert lanes.h[0] == 0.0
    with pytest.raises(NoReturn):
        integrate_to_sigma(field, (5e-324, 0.0), "backward",
                           dataclasses.replace(cfg, max_time=1.0))


def test_bad_direction(cfg):
    with pytest.raises(InputError):
        integrate_to_sigma(rotation_like(), (0.1, 0.0), "up", cfg)


def test_window_escape(cfg):
    tight = cfg.with_window(-0.05, 0.15)
    with pytest.raises(NotInWindow):
        integrate_to_sigma(rotation_like(), (0.1, 0.0), "backward", tight)


# -- half-return maps -------------------------------------------------------------

def test_half_return_symmetric_center(cfg):
    Z = monodromic_family(1, 0.0)
    for x in (0.05, 0.1, 0.2):
        assert half_return(Z, "upper", x, cfg) == pytest.approx(-x, abs=1e-9)
        assert half_return(Z, "lower", x, cfg) == pytest.approx(-x, abs=1e-9)


# the last two start just beside the fold at x = 0, where the return is
# short and low
ORACLE_XS = [0.2 / 2 ** n for n in range(8)] + [1e-7, 1e-8]


@pytest.mark.parametrize("x", ORACLE_XS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_half_return_vs_level_set_oracle(cfg, k, x):
    # the one-lane call and the same abscissa inside a batch of all ten
    Z = monodromic_family(k, 1.0)
    batched = displacements(Z, ORACLE_XS, cfg)[ORACLE_XS.index(x)].phi_plus
    oracle = level_set_return(Z.upper, x, -2.0 * x, -1e-4 * x)
    for got in (half_return(Z, "upper", x, cfg), batched):
        assert got == pytest.approx(oracle, abs=1e-12)
    if (k, x) == (1, 0.1):
        assert batched == pytest.approx(-0.0937, abs=1e-3)


def test_half_return_lower_is_exact_reflection(cfg):
    Z = monodromic_family(2, 1.0)
    for x in (0.05, 0.15, 0.25):
        assert half_return(Z, "lower", x, cfg) == pytest.approx(-x, abs=1e-9)


def test_half_return_fixes_the_singularity(cfg):
    assert half_return(monodromic_family(1, 1.0), "upper", 0.0, cfg) == 0.0


def test_half_return_rejects_tangency_start(cfg):
    Zu = monodromic_family(1, 1.0)
    with pytest.raises(InputError):
        half_return(Zu, "upper", 1.0, cfg)  # Y(1, 0) = -1 + 1 = 0


@pytest.mark.parametrize("k", [1, 2])
def test_involution(cfg, k):
    Z = monodromic_family(k, 1.0)
    for side in ("upper", "lower"):
        for x in np.linspace(0.03, 0.3, 10):
            xr = half_return(Z, side, float(x), cfg)
            back = half_return(Z, side, xr, cfg)
            assert abs(back - x) < 1e-7


def test_tolerance_scaling(cfg):
    Z = monodromic_family(1, 1.0)
    tight = dataclasses.replace(cfg, rel_tol=cfg.rel_tol / 2)
    a = half_return(Z, "upper", 0.1, cfg)
    b = half_return(Z, "upper", 0.1, tight)
    assert abs(a - b) < 5e-9


# -- lanes -------------------------------------------------------------------------

def _pendulum():
    # nonlinear and y-coupled: x' = y + x^2/5, y' = -x - 3x^3/10 + y/10 + xy/5
    return SmoothField(Poly2({(0, 1): 1.0, (2, 0): 0.2}),
                       Poly2({(1, 0): -1.0, (3, 0): -0.3, (0, 1): 0.1,
                              (1, 1): 0.2}))


def _lane_vs_scipy(sgn, T, rtol, atol, max_step, first_step):
    """Step one lane over (0, T) and scipy's DOP853 with the same options;
    returns both step times, states and step-midpoint dense outputs."""
    field, y0 = _pendulum(), (0.8, -0.3)

    def rhs(t, s):
        return [sgn * field.X.eval(*s), sgn * field.Y.eval(*s)]

    ref = solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=rtol, atol=atol,
                    max_step=max_step, first_step=first_step, dense_output=True)
    lanes = _Lanes([field], np.array([y0]).T, [sgn], rtol, atol)
    if first_step is None:
        lanes.select_initial_step(np.array([T]), np.array([max_step]))
    else:
        lanes.h = np.array([first_step])
    ts, ys, mids = [0.0], [y0], []
    while lanes.t[0] < T:
        accepted, failed = lanes.attempt(np.array([T]), np.array([max_step]))
        assert not failed[0]
        if accepted[0]:
            ts.append(lanes.t[0])
            ys.append(lanes.y[:, 0].copy())
            mids.append(_interpolate(lanes.F, lanes.y_old, [0.5])[0, :, 0])
    ref_mids = ref.sol(0.5 * (ref.t[:-1] + ref.t[1:])).T
    return (np.array(ts), np.array(ys), np.array(mids)), (ref.t, ref.y.T, ref_mids)


@pytest.mark.parametrize("sgn", [1.0, -1.0])
def test_lane_matches_scipy_dop853(sgn):
    # max_step binds every step, so both take the same 40 steps: the stages,
    # weights and dense output agree to rounding
    got, ref = _lane_vs_scipy(sgn, 2.0, 1e-10, 1e-12, 0.05, 0.05)
    assert len(got[0]) == len(ref[0]) == 41
    for a, b in zip(got, ref):
        assert np.max(np.abs(a - b)) <= 1e-13


@pytest.mark.parametrize("first_step", [None, 1e-3])
@pytest.mark.parametrize("sgn", [1.0, -1.0])
def test_lane_step_control_follows_scipy(sgn, first_step):
    # free step control: DOP853's error estimate cancels to ~1e-7 relative
    # at these tolerances, so the summation order moves the step sizes
    # slightly; the controller itself must take scipy's steps
    got, ref = _lane_vs_scipy(sgn, 5.0, 1e-6, 1e-9, np.inf, first_step)
    assert len(got[0]) == len(ref[0]) >= 8
    assert np.max(np.abs(got[0] - ref[0])) <= 1e-5
    assert np.max(np.abs(got[1] - ref[1])) <= 1e-5


def _census_grid(k, lam, eps, b, window, visible=False):
    params = UnfoldingParams(k=k, lam=lam, epsilon=eps, b=b,
                             shift_convention="minus")
    _, Zb = unfolded_shifted(monodromic_family(k, 1.0), params)
    nodes = (0.0,) + lam
    radius = eps * min(abs(u - v) for u in nodes for v in nodes if u != v) / 3
    center = 0.0 if window == 0 else eps * lam[window - 1]
    u_lo, n = ((max(abs(b) * 2.0, radius * 1e-3), 12) if visible
               else (abs(b) * (1.0 + 1e-3), 50))
    xs = center + np.geomspace(u_lo, radius, n)
    return Zb, xs, center, radius


def _outcome(sample):
    if isinstance(sample, FilippovError):
        return type(sample).__name__
    return (sample.x, sample.phi_plus, sample.phi_minus, sample.delta_value)


_CENSUS = {"k2": (2, (-1.0, 1.0), 0.1, -1e-6),
           "k3": (3, (-1.0, 1.0, 2.0, 3.0), 0.05, -1e-8)}


def _arc_outcome(arc):
    if isinstance(arc, FilippovError):
        return type(arc).__name__
    if isinstance(arc, float):
        return arc.hex()
    return (arc[0].hex(), arc[1].tobytes())


def _mixed_field_lanes():
    """Both sides of every grid sample of the k = 1 scan's six shifted
    fields (window radius 0.3) and of the k = 3 census's five windows, as
    half-arc lanes ``(field, sigma, x, window)``."""
    lanes = []
    for b in (-1e-3, -1e-4, -1e-5, 1e-5, 1e-4, 1e-3):
        Zb = apply_shift(monodromic_family(1, 1.0), b, "minus")
        lanes += [(field, sigma, float(x), (-0.75, 0.75))
                  for x in np.geomspace(abs(b) * (1.0 + 1e-3), 0.3, 50)
                  for _, sigma, field in Zb.sides()]
    k, lam, eps, b = _CENSUS["k3"]
    invisible = expected_invisible_indices(k)
    grids = [_census_grid(k, lam, eps, b, w, visible=w not in invisible)
             for w in range(2 * k - 1)]
    Zb = grids[0][0]
    for _, xs, c, r in grids:
        lanes += [(field, sigma, float(x), (c - 2.5 * r, c + 2.5 * r))
                  for x in xs for _, sigma, field in Zb.sides()]
    return lanes


@pytest.mark.parametrize("case", ["k2-window1", "k3-window1", "cross-coupled",
                                  "k3-all-windows", "mixed-fields"])
def test_lanes_are_independent(cfg, case):
    # every sample is bit-identical integrated alone or in a batch of 50,
    # failed samples included; the census's five k = 3 grids, each bounded
    # by its own window and oriented at its own center, share one batch
    # exactly as each window's own batch; and lanes of fourteen different
    # fields (both sides of six shifted fields and of the census field)
    # each follow their own field exactly as alone
    if case == "mixed-fields":
        lanes = _mixed_field_lanes()
        assert len({id(field) for field, _, _, _ in lanes}) == 14
        batch = [_arc_outcome(a) for a in flow.half_arcs(lanes, cfg)]
        alone = [_arc_outcome(flow.half_arcs([lane], cfg)[0]) for lane in lanes]
        # lanes that keep no path return the same crossings, bit for bit
        returns = flow.half_arcs(lanes, cfg, returns=True)
        assert [_arc_outcome(r) for r in returns] == [
            a if isinstance(a, str) else a[0] for a in batch]
    elif case == "k3-all-windows":
        k, lam, eps, b = _CENSUS["k3"]
        invisible = expected_invisible_indices(k)
        grids = [_census_grid(k, lam, eps, b, w, visible=w not in invisible)
                 for w in range(2 * k - 1)]
        Z = grids[0][0]
        bounds = [(c - 2.5 * r, c + 2.5 * r) for _, _, c, r in grids]
        batch = [_outcome(s) for s in displacements(
            Z, np.concatenate([g[1] for g in grids]), cfg,
            base_x=[c for _, xs, c, _ in grids for _ in xs],
            windows=[w for (_, xs, _, _), w in zip(grids, bounds) for _ in xs])]
        alone = [_outcome(s) for (_, xs, c, _), w in zip(grids, bounds)
                 for s in displacements(Z, xs, cfg.with_window(*w), base_x=c)]
        assert len(batch) == 3 * 50 + 2 * 12
    else:
        if case == "cross-coupled":
            Z, xs = cross_coupled_system(), np.geomspace(0.005, 0.2, 50)
            center, local = 0.0, cfg
        else:
            Z, xs, center, radius = _census_grid(*_CENSUS[case[:2]], 1)
            local = cfg.with_window(center - 2.5 * radius, center + 2.5 * radius)
        batch = [_outcome(s) for s in displacements(Z, xs, local, base_x=center)]
        alone = [_outcome(displacements(Z, [x], local, base_x=center)[0])
                 for x in xs]
    assert batch == alone
    assert sum(isinstance(s, tuple) for s in batch) >= 36
    # only the visible windows' 12 + 12 samples escape
    not_in_window = {"k3-window1": 0, "k3-all-windows": 24}
    if case in not_in_window:
        assert batch.count("NotInWindow") == not_in_window[case]


def test_failed_lanes_are_isolated(cfg):
    # one batch: a return, a tangency start, a window escape, an arc still
    # aloft at max_time, and a second return
    Z = monodromic_family(1, 1.0)
    local = dataclasses.replace(cfg, max_time=1.0, window=(-0.3, 0.9))
    xs = [0.2, 1.0, 0.6, 0.8, 0.1]
    batch = displacements(Z, xs, local)
    assert [type(s).__name__ for s in batch] == [
        "ReturnSample", "InputError", "NotInWindow", "NoReturn", "ReturnSample"]
    for x, s in zip(xs, batch):
        if isinstance(s, FilippovError):
            with pytest.raises(type(s)):
                displacement(Z, x, local)
        else:
            assert displacement(Z, x, local) == s
            assert s.phi_minus == pytest.approx(-x, abs=1e-9)


# -- displacement ------------------------------------------------------------------

def test_displacement_against_oracle(cfg):
    Z = monodromic_family(1, 1.0)
    s = displacement(Z, 0.1, cfg)
    oracle = level_set_return(Z.upper, 0.1, -0.25, -1e-4) + 0.1
    assert s.delta_value == pytest.approx(oracle, abs=1e-9)
    assert s.delta_value == pytest.approx(6.3e-3, abs=5e-4)
    assert s.delta_value == pytest.approx(s.phi_plus - s.phi_minus, abs=1e-15)


@pytest.mark.parametrize("k", [1, 2])
def test_center_has_flat_displacement(cfg, k):
    Z = monodromic_family(k, 0.0)
    for x in (-0.3, -0.15, -0.05, 0.05, 0.15, 0.3):
        assert abs(displacement(Z, x, cfg).delta_value) < 1e-8


def test_displacement_quadratic_ratio(cfg):
    Z = monodromic_family(2, 1.0)
    x = 0.02
    assert displacement(Z, x, cfg).delta_value / x**2 \
        == pytest.approx(0.4, rel=0.02)


def test_displacement_positive_for_repelling(cfg):
    for k in (1, 2):
        Z = monodromic_family(k, 1.0)
        for x in np.linspace(0.02, 0.2, 6):
            assert displacement(Z, float(x), cfg).delta_value > 0


# -- leading-order estimation --------------------------------------------------------

def test_estimate_base_family(cfg):
    est = estimate_lyapunov(monodromic_family(1, 1.0), (0.005, 0.05), cfg)
    assert est.order == 2
    assert est.coefficient == pytest.approx(2.0 / 3.0, rel=0.02)
    assert est.fit_r2 >= 0.999


def test_estimate_order_two_family(cfg):
    est = estimate_lyapunov(monodromic_family(2, 1.0), (0.005, 0.05), cfg)
    assert est.order == 2
    assert est.coefficient == pytest.approx(0.4, rel=0.02)


def test_estimate_center(cfg):
    est = estimate_lyapunov(monodromic_family(2, 0.0), (0.005, 0.05), cfg)
    assert est.center
    assert est.order == 0


def test_estimate_negative_coefficient_sign(cfg):
    est = estimate_lyapunov(monodromic_family(1, -1.0), (0.005, 0.05), cfg)
    assert est.order == 2
    assert est.coefficient == pytest.approx(-2.0 / 3.0, rel=0.02)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_estimate_order_is_even(cfg, k):
    est = estimate_lyapunov(monodromic_family(k, 1.0), (0.005, 0.05), cfg)
    assert est.order % 2 == 0


def test_cross_coupled_numeric_matches_formula(cfg):
    # closed-form V2 = 2/3 through the g00 route; the fit must agree
    est = estimate_lyapunov(cross_coupled_system(), (0.005, 0.05), cfg)
    assert est.order == 2
    assert est.coefficient == pytest.approx(2.0 / 3.0, rel=0.02)


def test_window_validation(cfg):
    with pytest.raises(InputError):
        estimate_lyapunov(monodromic_family(1, 1.0), (-0.1, 0.1), cfg)


# -- csv export ------------------------------------------------------------------------

def test_delta_csv_format(cfg, tmp_path):
    Z = monodromic_family(1, 1.0)
    samples = [displacement(Z, x, cfg) for x in (0.05, 0.1)]
    path = tmp_path / "delta.csv"
    write_delta_csv(samples, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,delta"
    assert len(lines) == 3
    x, d = lines[1].split(",")
    assert float(x) == 0.05
    assert float(d) == pytest.approx(samples[0].delta_value, rel=1e-15)


def test_solve_ivp_is_a_lazy_module_attribute():
    """``filippov.flow.solve_ivp`` is scipy's, imported on first access, so
    callers can still wrap it as bound there; other names stay missing."""
    import filippov.flow as flow
    assert flow.solve_ivp is solve_ivp
    with pytest.raises(AttributeError):
        flow.no_such_attribute
    with pytest.raises(ImportError):
        from filippov.flow import no_such_attribute  # noqa: F401
