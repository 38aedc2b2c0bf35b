"""Unfolding layer: interpolation values, the perturbation construction,
the contact ladder, and the coefficient-identity system."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filippov import (
    UnfoldingParams,
    apply_shift,
    build_perturbation,
    build_unfolded,
    classify_mts,
    lemma1_check,
    local_V2_limit_check,
    monodromic_family,
    verify_contact_ladder,
    xi_values,
)
from filippov.errors import (
    InputError,
    InvalidLambda,
    NotMonodromic,
    VerificationMismatch,
)
from filippov.poly import Poly1
from filippov.unfold import (
    _coefficients_and_bounds,
    _exactify_field,
    newton_through_origin,
)


def params_for(k, lam, eps, **kw):
    return UnfoldingParams(k=k, lam=tuple(lam), epsilon=eps, **kw)


def perturbation(k, c, lam, eps):
    Z = monodromic_family(k, c)
    return Z, build_perturbation(Z, params_for(k, lam, eps))


# -- interpolation values -----------------------------------------------------

@pytest.mark.parametrize("eps", [0.1, 0.01])
@pytest.mark.parametrize("c", [1.0, 0.5, -1.0])
def test_xi_closed_form(c, eps):
    Z = monodromic_family(2, c)
    data = classify_mts(Z)
    xi_p, xi_m = xi_values(Z, data, [-1.0, 1.0], eps)
    assert xi_p[0] == pytest.approx(-eps**3 - c * eps**4, rel=1e-13)
    assert xi_p[1] == pytest.approx(eps**3 - c * eps**4, rel=1e-13)
    assert xi_m[0] == pytest.approx(eps**3, rel=1e-13)
    assert xi_m[1] == pytest.approx(-eps**3, rel=1e-13)


def test_xi_equals_quotient_at_nodes():
    # xi_i must equal -Y(eps a_i, 0) / X(eps a_i, 0) on both sides
    Z = monodromic_family(3, 0.75)
    data = classify_mts(Z)
    lam = [-1.3, 0.8, 1.7, 2.9]
    eps = 0.04
    xi_p, xi_m = xi_values(Z, data, lam, eps)
    for a_i, xp, xm in zip(lam, xi_p, xi_m):
        x = eps * a_i
        assert xp == pytest.approx(
            -Z.upper.Y.eval(x, 0.0) / Z.upper.X.eval(x, 0.0), rel=1e-12)
        assert xm == pytest.approx(
            -Z.lower.Y.eval(x, 0.0) / Z.lower.X.eval(x, 0.0), rel=1e-12)


def test_xi_vanishes_with_eps():
    Z = monodromic_family(2, 1.0)
    data = classify_mts(Z)
    xi_p, xi_m = xi_values(Z, data, [-1.0, 1.0], 1e-5)
    assert max(map(abs, xi_p + xi_m)) < 1e-14


# -- perturbation construction ------------------------------------------------

@pytest.mark.parametrize("eps", [0.1, 0.01])
@pytest.mark.parametrize("c", [1.0, 0.5])
def test_perturbation_closed_form(c, eps):
    _, polys = perturbation(2, c, (-1.0, 1.0), eps)
    assert polys.p_plus.coeff(0) == 0
    assert polys.p_plus.coeff(1) == pytest.approx(eps**2, abs=1e-10)
    assert polys.p_plus.coeff(2) == pytest.approx(-c * eps**2, abs=1e-10)
    assert polys.p_minus.coeff(1) == pytest.approx(-(eps**2), abs=1e-10)
    assert abs(polys.p_minus.coeff(2)) < 1e-10
    assert polys.norm_plus == pytest.approx(eps**2 * math.hypot(1.0, c), rel=1e-9)


def test_perturbation_trivial_for_k1():
    Z = monodromic_family(1, 1.0)
    polys = build_perturbation(Z, params_for(1, (), 0.1))
    assert polys.p_plus.is_zero() and polys.p_minus.is_zero()


def test_perturbation_rejects_bad_lambda():
    Z = monodromic_family(2, 1.0)
    with pytest.raises(InvalidLambda):
        build_perturbation(Z, params_for(2, (1.0, 1.0), 0.1))
    with pytest.raises(InvalidLambda):
        build_perturbation(Z, params_for(2, (0.0, 1.0), 0.1))
    with pytest.raises(InvalidLambda):
        build_perturbation(Z, params_for(2, (-1.0,), 0.1))


def test_perturbation_rejects_wrong_k():
    Z = monodromic_family(2, 1.0)
    with pytest.raises(InputError):
        build_perturbation(Z, params_for(3, (-1.0, 1.0, 2.0, 3.0), 0.1))


def test_interpolation_exactness_property():
    rng = np.random.default_rng(20240817)
    for _ in range(25):
        k = int(rng.integers(2, 4))
        lam = _draw_lambda(rng, k)
        eps = float(rng.uniform(0.02, 0.2))
        c = float(rng.uniform(-1.5, 1.5))
        Z = monodromic_family(k, c)
        data = classify_mts(Z)
        polys = build_perturbation(Z, params_for(k, lam, eps), data)
        xi_p, xi_m = xi_values(Z, data, lam, eps)
        for a_i, xp, xm in zip(lam, xi_p, xi_m):
            x = eps * a_i
            assert abs(polys.p_plus(x) - xp) < 1e-11 * max(1.0, abs(xp))
            assert abs(polys.p_minus(x) - xm) < 1e-11 * max(1.0, abs(xm))


def _draw_lambda(rng, k, span=3.0, min_gap=0.2):
    n = 2 * k - 2
    while True:
        lam = [float(a) for a in rng.uniform(-span, span, size=n)]
        if all(abs(a) >= min_gap for a in lam) and all(
                abs(lam[i] - lam[j]) >= min_gap
                for i in range(n) for j in range(i + 1, n)):
            return lam


def test_methods_agree_across_scales():
    # the direct Vandermonde solve and the rescaled Newton route must agree
    rng = np.random.default_rng(7)
    for k in (2, 3, 4):
        for eps in (1e-3, 1e-2, 0.1):
            lam = sorted(_draw_lambda(rng, k, span=4.0))
            Z = monodromic_family(k, 1.0)
            data = classify_mts(Z)
            polys = build_perturbation(Z, params_for(k, lam, eps), data)
            xi_p, _ = xi_values(Z, data, lam, eps)
            n = 2 * k - 2
            H = (eps * np.array(lam))[:, None] ** np.arange(1, n + 1)[None, :]
            direct = np.linalg.solve(H, np.array(xi_p))
            newton = np.array([polys.p_plus.coeff(j) for j in range(1, n + 1)])
            assert float(np.linalg.norm(direct - newton)) < 1e-9


@st.composite
def _ordered_lambda(draw, k):
    """``a_1 < 0 < a_2 < ... < a_{2k-2}`` with gaps of at least 0.2."""
    gap = st.floats(0.2, 1.5)
    lam = [-draw(gap)]
    for _ in range(2 * k - 3):
        lam.append((lam[-1] if len(lam) > 1 else 0.0) + draw(gap))
    return lam


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(
           lambda k: st.tuples(st.just(k), _ordered_lambda(k))),
       st.floats(0.25, 3.0), st.floats(-6.0, 10.0))
def test_error_bound_covers_the_exact_solve(k_lam, c, log_eps):
    """The forward-error bound of every perturbation coefficient is never
    below its distance from the exact rational solve of the same floats."""
    k, lam = k_lam
    eps = 10.0 ** log_eps
    Z = monodromic_family(k, c)
    sides = _coefficients_and_bounds(Z, classify_mts(Z), lam, eps)
    Zx = _exactify_field(Z)
    lam_x, eps_x = [Fraction(a) for a in lam], Fraction(eps)
    exact = xi_values(Zx, classify_mts(Zx), lam_x, eps_x)
    for (coeffs, bounds, _), xi in zip(sides, exact):
        full = newton_through_origin(lam_x, xi)
        for j, (got, bound) in enumerate(zip(coeffs, bounds), start=1):
            assert abs(Fraction(got) - full[j] / eps_x ** j) <= Fraction(bound)


def test_vandermonde_inverse_cross_check():
    # third route: closed-form basis polynomials through the origin, built
    # in exact rational arithmetic
    k = 3
    lam = [Fraction(-3, 2), Fraction(1, 2), Fraction(5, 4), Fraction(9, 4)]
    eps = Fraction(1, 20)
    Z = monodromic_family(k, Fraction(1, 2), exact=True)
    data = classify_mts(Z)
    xi_p, xi_m = xi_values(Z, data, lam, eps)
    n = 2 * k - 2
    for xi, side in ((xi_p, "plus"), (xi_m, "minus")):
        exact = [Fraction(0)] * (n + 1)
        for j, a_j in enumerate(lam):
            # Lagrange-style basis through (0,0) and the other nodes
            basis = Poly1([Fraction(0), Fraction(1)])
            denom = eps * a_j
            for m, a_m in enumerate(lam):
                if m == j:
                    continue
                basis = basis * Poly1([-eps * a_m, Fraction(1)])
                denom = denom * (eps * a_j - eps * a_m)
            for i in range(n + 1):
                exact[i] += xi[j] * basis.coeff(i) / denom
        float_poly = build_perturbation(
            monodromic_family(k, 0.5), params_for(k, [float(a) for a in lam],
                                                  float(eps)))
        got = (float_poly.p_plus if side == "plus" else float_poly.p_minus)
        for i in range(1, n + 1):
            assert float(got.coeff(i)) == pytest.approx(
                float(exact[i]), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("j_expected", [(1, 2.0), (2, 1.0)])
def test_coefficient_scaling_slopes(j_expected):
    # with nodes (-1, 2) no rescaled coefficient vanishes at eps = 0, so
    # coefficient j must scale exactly like eps^(2k-1-j); the correction
    # coefficient is kept small because the rescaled coefficients drift
    # linearly in eps with rate proportional to it, which would bias the
    # fixed-grid fit
    j, expected_slope = j_expected
    Z = monodromic_family(2, 0.1)
    eps_grid = [2.0**-m for m in range(3, 8)]
    mags = []
    for eps in eps_grid:
        polys = build_perturbation(Z, params_for(2, (-1.0, 2.0), eps))
        mags.append(abs(polys.p_plus.coeff(j)))
    slope = np.polyfit(np.log(eps_grid), np.log(mags), 1)[0]
    assert slope == pytest.approx(3 - j, abs=0.05)
    assert slope == pytest.approx(expected_slope, abs=0.05)


def test_coefficient_scaling_is_at_least_nominal_for_symmetric_nodes():
    # with nodes (-1, 1) the j=2 rescaled coefficient vanishes at eps = 0
    # (its limit is proportional to the node sum), so the measured decay is
    # one order steeper than nominal; the nominal exponent is a lower bound
    Z = monodromic_family(2, 1.0)
    eps_grid = [2.0**-m for m in range(3, 8)]
    for j, nominal in ((1, 2.0), (2, 1.0)):
        mags = [abs(build_perturbation(
            Z, params_for(2, (-1.0, 1.0), eps)).p_plus.coeff(j))
            for eps in eps_grid]
        slope = np.polyfit(np.log(eps_grid), np.log(mags), 1)[0]
        assert slope > nominal - 0.05


def test_norm_vanishes_with_slope_one():
    Z = monodromic_family(2, 0.1)
    eps_grid = [2.0**-m for m in range(3, 8)]
    norms = [build_perturbation(Z, params_for(2, (-1.0, 2.0), eps)).norm_plus
             for eps in eps_grid]
    assert all(b < a for a, b in zip(norms, norms[1:]))
    slope = np.polyfit(np.log(eps_grid), np.log(norms), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_norm_vanishes_for_symmetric_nodes_too():
    Z = monodromic_family(2, 1.0)
    eps_grid = [2.0**-m for m in range(3, 8)]
    norms = [build_perturbation(Z, params_for(2, (-1.0, 1.0), eps)).norm_plus
             for eps in eps_grid]
    assert all(b < a for a, b in zip(norms, norms[1:]))


# -- unfolded field and shift --------------------------------------------------

def test_unfolded_upper_factorization():
    c, eps = 1.0, 0.1
    Z, polys = perturbation(2, c, (-1.0, 1.0), eps)
    Zu = build_unfolded(Z, polys)
    # (eps^2 x - x^3)(1 - c x)
    expected = Poly1([0.0, eps**2, -c * eps**2, -1.0, c])
    got = Zu.upper.Y.restrict_sigma()
    for m in range(5):
        assert got.coeff(m) == pytest.approx(expected.coeff(m), abs=1e-12)
    # lower: x (eps - x)(eps + x)
    got_lo = Zu.lower.Y.restrict_sigma()
    expected_lo = Poly1([0.0, eps**2, 0.0, -1.0])
    for m in range(4):
        assert got_lo.coeff(m) == pytest.approx(expected_lo.coeff(m), abs=1e-12)


def test_unfold_with_zero_polys_is_identity():
    from filippov.unfold import PerturbationPolys
    Z = monodromic_family(2, 1.0)
    Zu = build_unfolded(Z, PerturbationPolys(Poly1(), Poly1(), 0.0, 0.0))
    assert Zu.upper.Y == Z.upper.Y
    assert Zu.lower.Y == Z.lower.Y


def test_apply_shift_conventions():
    Z = monodromic_family(1, 0.0)
    assert apply_shift(Z, 0.0, "minus") is Z
    Zb = apply_shift(Z, 0.1, "minus")
    # upper vertical component becomes -(x - 0.1); fold moved to +0.1
    assert Zb.upper.Y.restrict_sigma()(0.1) == pytest.approx(0.0, abs=1e-15)
    assert Zb.lower.Y == Z.lower.Y
    Zp = apply_shift(Z, 0.1, "plus")
    assert Zp.upper.Y.restrict_sigma()(-0.1) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("b", [1e300, 1.1e77])
def test_shift_beyond_float_range_is_input_error(b):
    # b**4 overflows at 1e300; at 1.1e77 it is finite but 2 * b**4 is not
    with pytest.raises(InputError):
        apply_shift(monodromic_family(2, 2.0), b, "minus")


def test_double_shift_restores():
    Z = monodromic_family(2, 1.0)
    Zb = apply_shift(apply_shift(Z, 0.05, "minus"), -0.05, "minus")
    for key, cv in Z.upper.Y.terms.items():
        assert Zb.upper.Y.taylor_coeff(*key) == pytest.approx(cv, rel=1e-12)


# -- contact ladder -------------------------------------------------------------

@pytest.mark.parametrize("eps", [0.1, 0.05])
def test_ladder_order_two(eps):
    Z = monodromic_family(2, 1.0)
    params = params_for(2, (-1.0, 1.0), eps)
    report = verify_contact_ladder(
        build_unfolded(Z, build_perturbation(Z, params)), params)
    assert report.ok
    by_idx = {r.index: r for r in report.contacts}
    assert by_idx[0].expected == "visible"
    assert by_idx[1].expected == "invisible"
    assert by_idx[2].expected == "invisible"
    assert by_idx[1].x0 == pytest.approx(-eps)
    assert all(r.mult_plus == 2 and r.mult_minus == 2 for r in report.contacts)


@pytest.mark.parametrize("eps", [0.1, 0.05])
def test_ladder_order_three(eps):
    Z = monodromic_family(3, 1.0)
    params = params_for(3, (-1.0, 1.0, 2.0, 3.0), eps)
    report = verify_contact_ladder(
        build_unfolded(Z, build_perturbation(Z, params)), params)
    assert report.ok
    expected = {0: "visible", 1: "invisible", 2: "invisible",
                3: "visible", 4: "invisible"}
    assert {r.index: r.expected for r in report.contacts} == expected
    assert len(report.contacts) == 5


def test_ladder_base_singularity():
    Z = monodromic_family(1, 1.0)
    params = params_for(1, (), 0.1)
    report = verify_contact_ladder(Z, params)
    assert report.ok
    assert len(report.contacts) == 1
    assert report.contacts[0].expected == "invisible"


def test_ladder_mismatch_on_wrong_field():
    # the raw (un-unfolded) field has a single order-4 contact, not the grid
    Z = monodromic_family(2, 1.0)
    params = params_for(2, (-1.0, 1.0), 0.1)
    with pytest.raises(VerificationMismatch) as err:
        verify_contact_ladder(Z, params)
    assert err.value.report is not None
    assert not err.value.report.ok


@pytest.mark.parametrize("check", ["ladder", "v2-limit", "census"])
def test_unordered_nodes_raise_invalid_lambda(check):
    # the three verifiers that need a1 < 0 < a2 < ... share one check,
    # error class and message
    from filippov import IntegratorConfig, cycle_census

    Z = monodromic_family(2, 1.0)
    params = params_for(2, (1.0, -1.0), 0.1)
    run = {
        "ladder": lambda: verify_contact_ladder(
            build_unfolded(Z, build_perturbation(Z, params)), params),
        "v2-limit": lambda: local_V2_limit_check(Z, params),
        "census": lambda: cycle_census(Z, params, IntegratorConfig()),
    }[check]
    with pytest.raises(InvalidLambda,
                       match=r"ordered nodes a1 < 0 < a2 < \.\.\. are required"):
        run()


def test_ladder_propagates_programming_errors(monkeypatch):
    # only classification failures count as ladder failures; a defect in
    # the code under the ladder must surface, not be reported as a mismatch
    def broken(field, x0, side):
        raise ZeroDivisionError("defect")

    monkeypatch.setattr("filippov.unfold.contact_info", broken)
    Z = monodromic_family(2, 1.0)
    params = params_for(2, (-1.0, 1.0), 0.1)
    with pytest.raises(ZeroDivisionError):
        verify_contact_ladder(
            build_unfolded(Z, build_perturbation(Z, params)), params)


# -- identity system -------------------------------------------------------------

def test_lemma1_closed_form_instance():
    c = 0.8
    rep = lemma1_check(monodromic_family(2, c), 2, [-1.0, 1.0])
    assert rep.alpha == pytest.approx(0.0, abs=1e-14)
    assert rep.c_plus[0] == pytest.approx(1.0, abs=1e-10)
    assert rep.c_plus[1] == pytest.approx(0.0, abs=1e-10)
    assert rep.dc_plus[1] == pytest.approx(-c, abs=1e-9)
    by_idx = {e.index: e for e in rep.entries}
    # node +1 carries s1 = 1 and s2 = -2c; node -1 carries s2 = +2c
    assert by_idx[2].s1_plus == pytest.approx(1.0, abs=1e-9)
    assert by_idx[2].s2_plus == pytest.approx(-2 * c, abs=1e-8)
    assert by_idx[1].s2_plus == pytest.approx(2 * c, abs=1e-8)
    assert rep.max_residual() < 1e-8


def test_lemma1_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(12):
        k = int(rng.integers(2, 4))
        lam = _draw_lambda(rng, k)
        rep = lemma1_check(monodromic_family(k, 1.0), k, lam)
        assert rep.max_residual() < 1e-8


def test_lemma1_exact_mode_is_exactly_zero():
    Z = monodromic_family(2, Fraction(3, 4), exact=True)
    rep = lemma1_check(Z, 2, [Fraction(-1), Fraction(3, 2)], mode="exact")
    assert rep.max_residual() == 0
    for e in rep.entries:
        assert e.s2_residual_plus == 0
        assert e.s4_residual_minus == 0
    assert all(v == 0 for v in rep.factorization_residuals.values())


def test_lemma1_skips_f0_ratio_when_degenerate():
    # c = 0 makes the upper correction coefficient vanish
    rep = lemma1_check(monodromic_family(2, 0.0), 2, [-1.0, 1.0])
    assert rep.cross_side_residuals["s2"] is None
    assert rep.cross_side_residuals["s4"] is None
    assert rep.cross_side_residuals["s1"] < 1e-10


def test_lemma1_needs_unfolding_order():
    with pytest.raises(InputError):
        lemma1_check(monodromic_family(1, 1.0), 1, [])


def test_newton_through_origin_constant_term_is_zero():
    coeffs = newton_through_origin([1.0, 2.0, -0.5], [0.3, -1.2, 2.2])
    assert coeffs[0] == 0


# -- local V2 convergence ---------------------------------------------------------

def test_v2_limit_order_two():
    Z = monodromic_family(2, 1.0)
    params = params_for(2, (-1.0, 1.0), 0.1)
    rep = local_V2_limit_check(Z, params)
    assert rep.ok
    assert rep.limit == pytest.approx(2.0 / 3.0, abs=1e-12)
    for row in rep.rows:
        assert row.fitted_order >= 0.9
        assert row.errors[0] > row.errors[-1]


def test_v2_limit_order_three_value():
    Z = monodromic_family(3, 1.0)
    params = params_for(3, (-1.0, 1.0, 2.0, 3.0), 0.05)
    rep = local_V2_limit_check(Z, params)
    assert rep.ok
    assert rep.limit == pytest.approx((7.0 / 3.0) * (2.0 / 7.0), abs=1e-12)
    assert sorted(r.index for r in rep.rows) == [1, 2, 4]


@pytest.mark.xfail(raises=NotMonodromic, strict=True, reason=(
    "known defect: at eps/4 = 0.0075 contacts 2 and 4 have slope about "
    "-7.5e-12, below the absolute floor of field._coeff_tol, and are "
    "classified as multiplicity 3"))
def test_v2_limit_order_four_at_census_epsilon():
    rep = local_V2_limit_check(monodromic_family(4, 1.0),
                               params_for(4, (-1, 1, 2, 3, 4, 5), 0.03))
    assert rep.ok


def test_v2_limit_rejects_center():
    Z = monodromic_family(2, 0.0)
    with pytest.raises(InputError):
        local_V2_limit_check(Z, params_for(2, (-1.0, 1.0), 0.1))
