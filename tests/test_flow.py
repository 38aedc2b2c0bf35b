"""Flow layer: arc integration, half-return maps, displacement samples."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from conftest import cross_coupled_system, level_set_return
from filippov import (
    UnfoldingParams,
    apply_shift,
    displacement,
    displacements,
    estimate_lyapunov,
    integrate_to_sigma,
    monodromic_family,
)
from filippov import cycles, flow, roots
from filippov.errors import FilippovError, InputError, NoReturn, NotInWindow
from filippov.field import SIGMA, SmoothField
from filippov.flow import _interpolate, _Lanes
from filippov.poly import Poly2
from filippov.unfold import expected_invisible_indices, unfolded_shifted


def rotation_like():
    return SmoothField(Poly2.constant(1.0), Poly2({(1, 0): -1.0}))


def stationary_start():
    # x' = 1, y' = 1 - x^2: d2y/dt2 = -2x vanishes at (0, 0)
    return SmoothField(Poly2.constant(1.0), Poly2({(0, 0): 1.0, (2, 0): -1.0}))


# -- integrate_to_sigma ---------------------------------------------------------

def test_arc_from_positive_abscissa(cfg):
    # the upper arc through (0.1, 0) lives in backward time; level set gives -0.1
    xr, path = integrate_to_sigma(rotation_like(), 1, 0.1, cfg)
    assert xr == pytest.approx(-0.1, abs=1e-9)
    assert len(path) > 5
    assert abs(path[-1][1]) < 1e-9


def test_arc_from_negative_abscissa(cfg):
    xr, _ = integrate_to_sigma(rotation_like(), 1, -0.2, cfg)
    assert xr == pytest.approx(0.2, abs=1e-9)


def test_no_return(cfg):
    f = SmoothField(Poly2.constant(1.0), Poly2.constant(1.0))
    short = dataclasses.replace(cfg, max_time=5.0)
    with pytest.raises(NoReturn):
        integrate_to_sigma(f, 1, 0.0, short)


def test_step_budget_ends_a_lane(cfg, monkeypatch):
    # the arc through (0.1, 0) runs for time 0.2, 200 steps of max_step:
    # within the budget it returns, past it the lane ends in NoReturn
    # naming the budget
    fine = dataclasses.replace(cfg, max_step=0.001)
    xr, _ = integrate_to_sigma(rotation_like(), 1, 0.1, fine)
    assert xr == pytest.approx(-0.1, abs=1e-9)
    monkeypatch.setattr(flow, "MAX_STEPS", 100)
    with pytest.raises(NoReturn, match="MAX_STEPS=100 accepted steps"):
        integrate_to_sigma(rotation_like(), 1, 0.1, fine)


@pytest.fixture()
def first_steps(monkeypatch, cfg):
    """Per batch, the step sizes ``h`` its first ``_Lanes.attempt`` starts
    from, with the ``(cap, span)`` that :func:`flow._start_cap` gives its
    lanes."""
    seen = []
    attempt = flow._Lanes.attempt

    def spied(self, *args):
        if not hasattr(self, "F"):  # no step tried yet
            seen.append((self.h.copy(), *flow._start_cap(self, cfg)))
        return attempt(self, *args)

    monkeypatch.setattr(flow._Lanes, "attempt", spied)
    return seen


def test_first_step_is_the_start_cap(cfg, first_steps):
    # lanes beside the k = 2 contact (cap < span), far from it, and where
    # dy/dt is stationary (span < cap = max_step = inf): each starts from
    # min(cap, span), whatever max_time
    Z = monodromic_family(2, 1.0)
    lanes = [(f, s, x, None) for _, s, f in Z.sides() for x in (0.01, 0.2, 0.9)]
    lanes.append((stationary_start(), 1, 0.0, None))
    for max_time in (cfg.max_time, 0.1):
        flow.half_arcs(lanes, dataclasses.replace(cfg, max_time=max_time))
    (h, cap, span), (h_short, *_) = first_steps
    np.testing.assert_array_equal(h, np.minimum(cap, span))
    np.testing.assert_array_equal(h_short, h)
    assert (cap < span).any() and span[-1] < cap[-1]


def test_underflowing_start_scale_still_steps(cfg, first_steps):
    # x' = 3, y' = x from (5e-324, 0): the vertical time scale |y'|/|y''|
    # underflows to 0, so the start cap holds for no time; the first step
    # is then 0, not NaN, and the lane steps on from the smallest step
    # instead of retrying a NaN one forever
    field = SmoothField(Poly2.constant(3.0), Poly2({(1, 0): 1.0}))
    with pytest.raises(NoReturn):
        integrate_to_sigma(field, -1, 5e-324, dataclasses.replace(cfg, max_time=1.0))
    (h, cap, span), = first_steps
    assert span[0] == 0.0 and not np.isnan(cap[0]) and h[0] == 0.0


def test_stationary_vertical_speed_start(cfg, first_steps):
    # from (0, 0) the time scale is infinite and the first step is the
    # capped span; the orbit y = x - x^3/3 returns at sqrt(3) with slope
    # Y(0)/Y(sqrt 3) = -1/2
    (phi, slope), = flow.half_arcs([(stationary_start(), 1, 0.0, None)], cfg,
                                   returns=True)
    assert abs(phi - math.sqrt(3.0)) <= 1e-12
    assert slope == pytest.approx(-0.5, rel=1e-12)
    (h, cap, span), = first_steps
    assert cap[0] == math.inf and h[0] == span[0] == flow._CAPPED_SPAN


def test_integrate_to_sigma_is_one_half_arcs_lane(cfg):
    lanes = [(rotation_like(), 1, 0.1, None), (rotation_like(), 1, -0.2, None),
             (cross_coupled_system().lower, -1, 0.05, None)]
    for (field, sigma, x, _), (xr_lane, path_lane) in zip(
            lanes, flow.half_arcs(lanes, cfg)):
        xr, path = integrate_to_sigma(field, sigma, x, cfg)
        assert np.float64(xr).tobytes() == np.float64(xr_lane).tobytes()
        assert path.tobytes() == path_lane.tobytes()


def start_caps(fields, xs, cfg):
    """:func:`flow._start_cap` on one lane per ``(field, x)`` pair, every
    lane starting at ``(x, 0)``, and the cap that reads every zero of dy/dt
    as simple: |dy/dt| / |d2y/dt2| / 2."""
    lanes = _Lanes([f for f in fields for _ in xs],
                   np.array([list(xs) * len(fields), [0.0] * len(xs) * len(fields)]),
                   [1.0] * len(xs) * len(fields), cfg.rel_tol, cfg.abs_tol)
    cap, _ = flow._start_cap(lanes, cfg)
    simple = []
    for field in fields:
        x, y = np.array(xs, dtype=float), np.zeros(len(xs))
        vy0 = np.zeros(len(x)) + field.Y.eval(x, y)
        acc = (np.zeros(len(x))
               + field.Y.partial("x").eval(x, y) * field.X.eval(x, y)
               + field.Y.partial("y").eval(x, y) * vy0)
        simple.append(np.minimum(cfg.max_step, np.abs(vy0) / np.abs(acc) / 2.0))
    assert not np.isnan(cap).any()
    return cap, np.concatenate(simple)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_start_cap_reads_the_contact_multiplicity(cfg, k):
    # at the fit window dy/dt = Y(x, 0) ~ -x^(2k - 1) on both sides: a zero
    # of multiplicity 2k - 1 at the contact, so the cap is 2k - 1 times the
    # simple one, which would take about 4(2k - 1) steps per arc
    Z = monodromic_family(k, 1.0)
    xs = np.geomspace(0.005, 0.05, flow.LYAPUNOV_POINTS)
    cap, simple = start_caps([Z.upper, Z.lower], xs, cfg)
    np.testing.assert_array_equal(cap, (2 * k - 1) * simple)


@pytest.mark.parametrize("Z", [monodromic_family(1, 1.0), cross_coupled_system()],
                         ids=["family-k1", "cross-coupled"])
def test_start_cap_is_unchanged_at_quadratic_folds(cfg, Z):
    cap, simple = start_caps([Z.upper, Z.lower], ORACLE_XS, cfg)
    np.testing.assert_array_equal(cap, simple)


def test_window_escape(cfg):
    # the upper arc through (0.1, 0) runs backward and swings out to -0.1
    arc, = flow.half_arcs([(rotation_like(), 1, 0.1, (-0.05, 0.15))], cfg)
    with pytest.raises(NotInWindow):
        flow._one(arc)


# -- half-return maps -------------------------------------------------------------

def half_returns(Z, side, xs, cfg):
    """The half-return map of ``Z``'s ``side`` at each of ``xs``, one batch."""
    lanes = [(getattr(Z, side), SIGMA[side], float(x), None) for x in xs]
    return [flow._one(arc)[0] for arc in flow.half_arcs(lanes, cfg, returns=True)]


def test_half_return_symmetric_center(cfg):
    Z = monodromic_family(1, 0.0)
    xs = [0.05, 0.1, 0.2]
    for side in SIGMA:
        assert half_returns(Z, side, xs, cfg) == pytest.approx(
            [-x for x in xs], abs=1e-9)


# the last two start just beside the fold at x = 0, where the return is
# short and low
ORACLE_XS = [0.2 / 2 ** n for n in range(8)] + [1e-7, 1e-8]


# Gates relative to x at k = 4 and 5, where the return crossing is flat:
# |Y(phi, 0)| ~ x^(2k - 1), so an error e in y moves phi by about
# e / |Y(phi, 0)|, and step control holds y only to abs_tol.  The looser
# gate is that conditioning, not slack.  k = 1-3 keep an absolute 1e-12.
ORACLE_REL_GATES = {4: 1e-6, 5: 1e-4}


@pytest.mark.parametrize("x", ORACLE_XS)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_half_return_vs_level_set_oracle(cfg, k, x):
    # the one-lane call and the same abscissa inside a batch of all ten
    Z = monodromic_family(k, 1.0)
    batched = displacements(Z, ORACLE_XS, cfg)[ORACLE_XS.index(x)].phi_plus
    oracle = level_set_return(Z.upper, x, -2.0 * x, -1e-4 * x)
    gate = ORACLE_REL_GATES[k] * x if k in ORACLE_REL_GATES else 1e-12
    for got in (half_returns(Z, "upper", [x], cfg)[0], batched):
        assert got == pytest.approx(oracle, abs=gate)
    if (k, x) == (1, 0.1):
        assert batched == pytest.approx(-0.0937, abs=1e-3)


def test_half_return_lower_is_exact_reflection(cfg):
    Z = monodromic_family(2, 1.0)
    xs = [0.05, 0.15, 0.25]
    assert half_returns(Z, "lower", xs, cfg) == pytest.approx(
        [-x for x in xs], abs=1e-9)


def test_half_return_fixes_the_singularity(cfg):
    (phi, slope), = flow.half_arcs([(monodromic_family(1, 1.0).upper, 1, 0.0, None)],
                                   cfg, returns=True)
    assert phi == 0.0 and math.isnan(slope)


def test_half_return_rejects_tangency_start(cfg):
    # Y(1, 0) = -1 + 1 = 0: a lane that starts on a tangency ends in a
    # returned InputError, and so does x = 0 unless returns are asked for
    upper = monodromic_family(1, 1.0).upper
    for x, returns in ((1.0, True), (1.0, False), (0.0, False)):
        arc, = flow.half_arcs([(upper, 1, x, None)], cfg, returns=returns)
        assert isinstance(arc, InputError)
        assert str(arc).startswith(f"({x}, 0) is a tangency point")


@pytest.mark.parametrize("k", [1, 2])
def test_involution(cfg, k):
    Z = monodromic_family(k, 1.0)
    xs = np.linspace(0.03, 0.3, 10)
    for side in SIGMA:
        back = half_returns(Z, side, half_returns(Z, side, xs, cfg), cfg)
        assert np.max(np.abs(np.array(back) - xs)) < 1e-7


def test_tolerance_scaling(cfg):
    Z = monodromic_family(1, 1.0)
    tight = dataclasses.replace(cfg, rel_tol=cfg.rel_tol / 2)
    (a,), (b,) = (half_returns(Z, "upper", [0.1], c) for c in (cfg, tight))
    assert abs(a - b) < 5e-9


# -- return-map slopes ---------------------------------------------------------------

@pytest.mark.parametrize("k, c", [(1, 1.0), (2, 1.0), (3, -2.0)])
def test_slopes_of_divergence_free_fields(cfg, k, c):
    # monodromic_family fields are divergence-free, so each half-return
    # slope is Y(x, 0) / Y(phi, 0); in a batch with a field of divergence 1
    # (the last lane), which carries the integral row, their integrals stay
    # exactly 0 (so exp of each is 1) and their returns are those of the
    # batch without that row
    Z = monodromic_family(k, c)
    xs = np.concatenate([-np.geomspace(0.02, 0.3, 6), np.geomspace(0.02, 0.3, 6)])
    for s in displacements(Z, xs, cfg):
        want = (Z.upper.Y.eval(s.x, 0.0) / Z.upper.Y.eval(s.phi_plus, 0.0)
                - Z.lower.Y.eval(s.x, 0.0) / Z.lower.Y.eval(s.phi_minus, 0.0))
        assert s.derivative == pytest.approx(want, rel=1e-12, abs=0.0)
    lanes = [(field, float(x), -1.0 if sigma * field.Y.eval(x, 0.0) < 0 else 1.0)
             for x in xs for _, sigma, field in Z.sides()]
    lanes.append((cross_coupled_system().upper, 0.1, -1.0))

    def returns(lanes):
        return flow._arcs([f for f, _, _ in lanes], [(x, 0.0) for _, x, _ in lanes],
                          [g for _, _, g in lanes], [None] * len(lanes), cfg,
                          paths=False)
    arcs = returns(lanes)
    rates = [rate for _, rate in arcs]
    assert rates[:-1] == [1.0] * (len(lanes) - 1) and rates[-1] < 1.0
    assert [x.hex() for x, _ in arcs[:-1]] == [x.hex() for x, _ in returns(lanes[:-1])]


def test_slope_carries_the_divergence_integral(cfg):
    # the upper field (1, -x + y) has div F = 1 and x' = 1, so an arc from
    # (x, 0) to (phi, 0) takes the signed time T = phi - x, and implicit
    # differentiation of its return phi + 1 = (x + 1) e^T gives
    # phi' = x e^T / phi; paths keep their two columns (x, y)
    Z = cross_coupled_system()
    xs = np.concatenate([-np.geomspace(0.005, 0.2, 6), np.geomspace(0.005, 0.2, 6)])
    lanes = [(Z.upper, 1, float(x), None) for x in xs]
    for x, (phi, slope), (phi_path, path) in zip(
            xs, flow.half_arcs(lanes, cfg, returns=True), flow.half_arcs(lanes, cfg)):
        assert slope == pytest.approx(x * math.exp(phi - x) / phi, rel=1e-8)
        assert phi_path == phi
        assert path.shape[1] == 2 and path[-1, 0] == phi


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
    lanes.h = np.array([first_step])
    ts, ys, mids = [0.0], [y0], []
    while lanes.t[0] < T:
        accepted, failed = lanes.attempt(np.array([T]), np.array([max_step]))
        assert not failed[0]
        if accepted[0]:
            ts.append(lanes.t[0])
            ys.append(lanes.y[:2, 0].copy())
            mids.append(_interpolate(lanes.F, lanes.y_old, [0.5])[0, :2, 0])
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


@pytest.mark.parametrize("first_step", [1e-3])
@pytest.mark.parametrize("sgn", [1.0, -1.0])
def test_lane_step_control_follows_scipy(sgn, first_step):
    # free step control: DOP853's error estimate cancels to ~1e-7 relative
    # at these tolerances, so the summation order moves the step sizes
    # slightly; the controller itself must take scipy's steps
    got, ref = _lane_vs_scipy(sgn, 5.0, 1e-6, 1e-9, np.inf, first_step)
    assert len(got[0]) == len(ref[0]) >= 8
    assert np.max(np.abs(got[0] - ref[0])) <= 1e-5
    assert np.max(np.abs(got[1] - ref[1])) <= 1e-5


# -- kernels: crossings, stage sums and the right-hand side -----------------------

_COEFF = st.floats(-1e100, 1e100, allow_nan=False)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.lists(_COEFF, min_size=14, max_size=14),
                          st.tuples(_COEFF, _COEFF), st.floats(0.0, 1.0)),
                min_size=1, max_size=6))
def test_interpolate_per_lane_theta_is_the_grid_bit_for_bit(lanes):
    # each lane's dense output at its own step fraction equals, bit for
    # bit, the same lane's row of a theta grid that holds the fraction
    F = np.array([c for c, _, _ in lanes]).T.reshape(7, 2, len(lanes))
    y_old = np.array([y for _, y, _ in lanes]).T
    thetas = np.array([t for _, _, t in lanes])
    grid = _interpolate(F, y_old, tuple(thetas))
    want = grid[np.arange(len(lanes)), :, np.arange(len(lanes))].T
    assert _interpolate(F, y_old, thetas).tobytes() == want.tobytes()
    assert _interpolate(F[:, 1], y_old[1], thetas).tobytes() == want[1].tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 600])
def test_combine_adds_stages_in_order(n):
    # every stage sum equals the sequential loop `acc += a * K[j]` bit for
    # bit, over values of mixed scale so that any other order would show
    A, E5, E3, D, _ = flow._tables()
    A_, E5_, E3_, D_, _ = flow._stage_arrays()
    rng = np.random.default_rng(n)
    K = (rng.standard_normal((len(A), 2, n))
         * 10.0 ** rng.integers(-12, 13, (len(A), 2, n)))
    rows = list(zip(A[1:], A_[1:])) + [(E5, E5_), (E3, E3_)] + list(zip(D, D_))
    for terms, packed in rows:
        (j0, a0), *rest = terms
        acc = a0 * K[j0]
        for j, a in rest:
            acc += a * K[j]
        assert flow._combine(packed, K).tobytes() == acc.tobytes()


_MONOMIALS = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 3)),
    st.floats(-10.0, 10.0, allow_nan=False).filter(bool), min_size=1, max_size=10)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.tuples(_MONOMIALS, _MONOMIALS), min_size=1, max_size=3),
       st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                          st.sampled_from([1.0, -1.0])), min_size=1, max_size=8))
def test_horner_rhs_within_rounding_bound(polys, lanes):
    # nested Horner agrees with Poly2.eval within both evaluations' rounding
    # bounds added (Higham, Accuracy and Stability of Numerical Algorithms,
    # section 5.1): Horner through dx + dy multiply-adds, Poly2.eval through
    # three products and a sum of T terms, each operation off by at most one
    # subnormal spacing more where it underflows; and each lane gives the
    # same bits alone as in the batch, whose other fields pad it with zeros.
    # The rows are X, Y and, unless every field is divergence-free, div F.
    fields = [SmoothField(Poly2(X), Poly2(Y)) for X, Y in polys]
    rows = {id(f): (f.X, f.Y, f.X.partial("x") + f.Y.partial("y")) for f in fields}
    at = [fields[n % len(fields)] for n in range(len(lanes))]
    s = np.array([(x, y) for x, y, _ in lanes]).T
    sgn = [g for _, _, g in lanes]
    batch = _Lanes(at, s, sgn, 1e-10, 1e-12).rhs(s)
    u = sys.float_info.epsilon / 2
    for n, (field, (x, y, g)) in enumerate(zip(at, lanes)):
        alone = _Lanes([field], s[:, n:n + 1], [g], 1e-10, 1e-12).rhs(s[:, n:n + 1])
        assert alone.tobytes() == batch[:len(alone), n:n + 1].tobytes()
        for row in range(len(batch)):
            terms = [rows[id(f)][row].terms for f in fields]
            dx = max((i for t in terms for i, _ in t), default=0)
            dy = max((j for t in terms for _, j in t), default=0)
            poly = rows[id(field)][row]
            steps = dx + dy + len(poly.terms) + 3
            scale = sum(abs(c) * abs(x) ** i * abs(y) ** j
                        for (i, j), c in poly.terms.items())
            bound = 2 * steps * (u * scale + math.ulp(0.0))
            assert abs(batch[row, n] - g * poly.eval(x, y)) <= bound


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
    return (sample.x, sample.phi_plus, sample.phi_minus, sample.delta_value,
            sample.derivative)


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
        assert [_arc_outcome(r[0] if isinstance(r, tuple) else r)
                for r in returns] == [
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
                 for s in displacements(Z, xs, cfg, base_x=c,
                                        windows=[w] * len(xs))]
        assert len(batch) == 3 * 50 + 2 * 12
    else:
        if case == "cross-coupled":
            Z, xs = cross_coupled_system(), np.geomspace(0.005, 0.2, 50)
            center, bound = 0.0, None
        else:
            Z, xs, center, radius = _census_grid(*_CENSUS[case[:2]], 1)
            bound = (center - 2.5 * radius, center + 2.5 * radius)
        batch = [_outcome(s) for s in displacements(
            Z, xs, cfg, base_x=center, windows=[bound] * len(xs))]
        alone = [_outcome(displacements(Z, [x], cfg, base_x=center,
                                        windows=[bound])[0])
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
    local, bound = dataclasses.replace(cfg, max_time=1.0), (-0.3, 0.9)
    xs = [0.2, 1.0, 0.6, 0.8, 0.1]
    batch = displacements(Z, xs, local, windows=[bound] * len(xs))
    assert [type(s).__name__ for s in batch] == [
        "ReturnSample", "InputError", "NotInWindow", "NoReturn", "ReturnSample"]
    for x, s in zip(xs, batch):
        alone = displacements(Z, [x], local, windows=[bound])[0]
        if isinstance(s, FilippovError):
            with pytest.raises(type(s)):
                flow._one(alone)
        else:
            assert alone == s
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


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_estimate_order_is_even(cfg, k):
    est = estimate_lyapunov(monodromic_family(k, 1.0), (0.005, 0.05), cfg)
    assert est.order % 2 == 0
    if k >= 4:  # V2 = 2c / (2k + 1)
        assert est.coefficient == pytest.approx(2.0 / (2 * k + 1), rel=0.01)


def test_cross_coupled_numeric_matches_formula(cfg):
    # closed-form V2 = 2/3 through the g00 route; the fit must agree
    est = estimate_lyapunov(cross_coupled_system(), (0.005, 0.05), cfg)
    assert est.order == 2
    assert est.coefficient == pytest.approx(2.0 / 3.0, rel=0.02)


def test_window_validation(cfg):
    with pytest.raises(InputError):
        estimate_lyapunov(monodromic_family(1, 1.0), (-0.1, 0.1), cfg)


def test_census_and_scan_solve_crossings_in_lane_batches(cfg, monkeypatch):
    # with the scalar Brent raising, a census and a scan still pass: every
    # arc crossing is solved by brent_lanes, once per arc batch
    def scalar(*args):
        raise AssertionError("an arc crossing reached the scalar brent")

    monkeypatch.setattr(roots, "brent", scalar)
    monkeypatch.setattr(flow, "brent", scalar, raising=False)
    batches = []
    lanes = flow.brent_lanes
    monkeypatch.setattr(flow, "brent_lanes",
                        lambda f, a, b: batches.append(len(a)) or lanes(f, a, b))
    k, lam, eps, b = _CENSUS["k2"]
    Z = monodromic_family(k, 1.0)
    rep = cycles.cycle_census(Z, UnfoldingParams(k=k, lam=lam, epsilon=eps,
                                                 b=b, shift_convention="minus"), cfg)
    assert rep.passed and len(rep.cycles) == k
    table = cycles.pseudo_hopf_scan(monodromic_family(1, 1.0), [-1e-4, 1e-4],
                                    "minus", cfg)
    assert sorted(r.n_cycles for r in table.rows) == [0, 1]
    assert len(batches) >= 2 and sum(batches) > 100


def test_solve_ivp_is_a_lazy_module_attribute():
    """``filippov.flow.solve_ivp`` is scipy's, imported on first access, so
    callers can still wrap it as bound there; other names stay missing."""
    import filippov.flow as flow
    assert flow.solve_ivp is solve_ivp
    with pytest.raises(AttributeError):
        flow.no_such_attribute
    with pytest.raises(ImportError):
        from filippov.flow import no_such_attribute  # noqa: F401
