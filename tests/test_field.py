"""Classification layer: contact orders, visibility, the V2 formula."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cross_coupled_system
from filippov import (
    classify_mts,
    contact_info,
    local_V2,
    monodromic_family,
    sigma_regions,
)
from filippov.errors import (
    DegenerateContact,
    InputError,
    NotMonodromic,
    SingularX,
)
from filippov.field import PiecewiseField, SmoothField
from filippov.poly import Poly1, Poly2
from filippov.unfold import UnfoldingParams, build_perturbation, build_unfolded


def simple_field(x_const, y_terms):
    return SmoothField(Poly2.constant(x_const), Poly2(y_terms))


def unfolded_family(k, c, lam, eps):
    Z = monodromic_family(k, c)
    params = UnfoldingParams(k=k, lam=lam, epsilon=eps)
    return build_unfolded(Z, build_perturbation(Z, params)), params


# -- contact multiplicity -----------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_family_multiplicity(k):
    Z = monodromic_family(k, 0.5)
    assert contact_info(Z.upper, 0.0, "upper").multiplicity == 2 * k
    assert contact_info(Z.lower, 0.0, "lower").multiplicity == 2 * k


def test_two_fold():
    f = simple_field(1.0, {(1, 0): -1.0})
    assert contact_info(f, 0.0, "upper").multiplicity == 2


def test_unfolded_contacts_have_multiplicity_two():
    Zu, params = unfolded_family(2, 1.0, (-1.0, 1.0), 0.1)
    for x0 in (-0.1, 0.0, 0.1):
        assert contact_info(Zu.upper, x0, "upper").multiplicity == 2
        assert contact_info(Zu.lower, x0, "lower").multiplicity == 2


def test_regular_point_is_multiplicity_one():
    Z = monodromic_family(1, 0.0)
    assert contact_info(Z.upper, 0.5, "upper").multiplicity == 1


def test_singular_x():
    f = SmoothField(Poly2({(1, 0): 1.0}), Poly2({(1, 0): -1.0}))
    with pytest.raises(SingularX):
        contact_info(f, 0.0, "upper")


def test_degenerate_contact():
    f = simple_field(1.0, {})
    with pytest.raises(DegenerateContact):
        contact_info(f, 0.0, "upper")


# -- visibility ---------------------------------------------------------------

def test_visibility_upper_invisible():
    f = simple_field(1.0, {(1, 0): -1.0})
    assert contact_info(f, 0.0, "upper").visibility == "invisible"


def test_visibility_lower_invisible():
    f = simple_field(-1.0, {(1, 0): -1.0})
    assert contact_info(f, 0.0, "lower").visibility == "invisible"


def test_visibility_unfolded_origin_is_visible():
    Zu, _ = unfolded_family(2, 1.0, (-1.0, 1.0), 0.1)
    assert contact_info(Zu.upper, 0.0, "upper").visibility == "visible"
    assert contact_info(Zu.lower, 0.0, "lower").visibility == "visible"


def test_contact_info_record():
    Z = monodromic_family(1, 1.0)
    info = contact_info(Z.upper, 0.0, "upper")
    assert info.multiplicity == 2
    assert info.visibility == "invisible"
    regular = contact_info(Z.upper, 0.5, "upper")
    assert regular.multiplicity == 1
    assert regular.visibility == "not-applicable"
    odd = contact_info(simple_field(1.0, {(2, 0): 1.0}), 0.0, "upper")
    assert odd.multiplicity == 3
    assert odd.visibility == "not-applicable"
    with pytest.raises(InputError):
        contact_info(Z.upper, 0.0, "middle")


_ORDER_ONE = st.fractions(min_value=-2, max_value=2, max_denominator=16)
_NONZERO = _ORDER_ONE.filter(lambda v: abs(v) >= Fraction(1, 4))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(x0=_ORDER_ONE, h=_ORDER_ONE, m=st.integers(0, 4), g0=_NONZERO,
       g1=_ORDER_ONE, x_const=_NONZERO, coupling=_ORDER_ONE,
       side=st.sampled_from(["upper", "lower"]))
def test_contact_info_exact_root_order(x0, h, m, g0, g1, x_const, coupling,
                                       side):
    # Y(x, 0) = (x - x0)^m * g(x) with g(x0) = g0 != 0, plus a y-coupling
    restricted = Poly1([g0 - g1 * x0, g1])
    for _ in range(m):
        restricted = restricted * Poly1([-x0, 1])
    Y = restricted.to_poly2() + Poly2({(1, 1): coupling})
    f = SmoothField(Poly2.constant(x_const), Y)
    info = contact_info(f, x0, side)
    assert info.multiplicity == m + 1
    if m % 2:
        sigma = 1 if side == "upper" else -1
        invisible = sigma * x_const * g0 < 0
        assert info.visibility == ("invisible" if invisible else "visible")
    else:
        assert info.visibility == "not-applicable"
    moved = contact_info(f.shift_x(h), x0 - h, side)
    assert (moved.multiplicity, moved.visibility) \
        == (info.multiplicity, info.visibility)


# -- classification -----------------------------------------------------------

def test_classify_family_base_case():
    d = classify_mts(monodromic_family(1, 1.0))
    assert (d.k_plus, d.k_minus, d.delta) == (1, 1, 1)
    assert d.a_plus == pytest.approx(-1.0)
    assert d.a_minus == pytest.approx(-1.0)
    assert d.f0_plus == pytest.approx(1.0)
    assert d.f0_minus == pytest.approx(0.0, abs=1e-15)
    assert d.g00_plus == pytest.approx(0.0, abs=1e-15)
    assert d.V2 == pytest.approx(2.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("c", [-1.0, 0.5, 1.0])
def test_classify_family_V2(k, c):
    # V2 = 2c / (2k + 1), exactly in rational arithmetic
    exact = classify_mts(monodromic_family(k, c, exact=True)).V2
    assert exact == 2 * Fraction(c) / (2 * k + 1)
    assert classify_mts(monodromic_family(k, c)).V2 == pytest.approx(
        float(exact), abs=1e-12)


def test_classify_cross_coupled():
    d = classify_mts(cross_coupled_system())
    assert d.g00_plus == pytest.approx(1.0)
    assert d.f0_plus == pytest.approx(0.0, abs=1e-15)
    assert d.f0_minus == pytest.approx(0.0, abs=1e-15)
    assert d.a_plus == pytest.approx(-1.0)
    assert d.V2 == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_classify_c3_violation():
    Z = PiecewiseField(upper=simple_field(1.0, {(1, 0): -1.0}),
                       lower=simple_field(1.0, {(1, 0): 1.0}))
    with pytest.raises(NotMonodromic) as err:
        classify_mts(Z)
    assert err.value.condition == "C3"


def test_classify_c2_violation():
    Z = PiecewiseField(upper=simple_field(1.0, {(1, 0): 1.0}),
                       lower=simple_field(-1.0, {(1, 0): -1.0}))
    with pytest.raises(NotMonodromic) as err:
        classify_mts(Z)
    assert err.value.condition == "C2"


def test_classify_c1_odd_multiplicity():
    Z = PiecewiseField(upper=simple_field(1.0, {(2, 0): -1.0}),
                       lower=simple_field(-1.0, {(1, 0): -1.0}))
    with pytest.raises(NotMonodromic) as err:
        classify_mts(Z)
    assert err.value.condition == "C1"


def test_classify_c1_nonvanishing_y():
    Z = PiecewiseField(upper=simple_field(1.0, {(0, 0): 0.5, (1, 0): -1.0}),
                       lower=simple_field(-1.0, {(1, 0): -1.0}))
    with pytest.raises(NotMonodromic) as err:
        classify_mts(Z)
    assert err.value.condition == "C1"


def test_mirrored_orientation():
    # delta = -1 configuration: upper goes left, lower goes right
    Z = PiecewiseField(upper=simple_field(-1.0, {(1, 0): 1.0}),
                       lower=simple_field(1.0, {(1, 0): 1.0}))
    d = classify_mts(Z)
    assert d.delta == -1
    assert d.a_plus == pytest.approx(1.0)
    assert d.a_minus == pytest.approx(1.0)


def test_classified_fields_satisfy_sign_invariant():
    # every field that classifies has sign(a_plus) = sign(a_minus) = -delta
    fields = [monodromic_family(k, c) for k in (1, 2, 3)
              for c in (-1.0, 0.0, 1.0)]
    fields.append(cross_coupled_system())
    fields.append(PiecewiseField(upper=simple_field(-1.0, {(1, 0): 1.0}),
                                 lower=simple_field(1.0, {(1, 0): 1.0})))
    for Z in fields:
        d = classify_mts(Z)
        assert d.a_plus * d.delta < 0
        assert d.a_minus * d.delta < 0


def test_monodromy_json_has_twelve_fields():
    doc = classify_mts(monodromic_family(2, 1.0)).to_json_dict()
    assert sorted(doc) == sorted([
        "k_plus", "k_minus", "delta", "a_plus", "a_minus", "f0_plus",
        "f0_minus", "g00_plus", "g00_minus", "alpha2_plus", "alpha2_minus",
        "V2"])
    assert doc["V2"] == pytest.approx(0.4, abs=1e-12)


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(2), Fraction(3)])
def test_V2_invariant_under_time_rescaling(lam):
    Z = monodromic_family(2, 1.0)
    scaled = PiecewiseField(
        upper=SmoothField(lam * Z.upper.X, lam * Z.upper.Y),
        lower=SmoothField(lam * Z.lower.X, lam * Z.lower.Y))
    d0 = classify_mts(Z)
    d1 = classify_mts(scaled)
    assert abs(d1.V2 - d0.V2) < 1e-10
    assert d1.a_plus == pytest.approx(d0.a_plus, rel=1e-12)
    assert d1.f0_plus == pytest.approx(d0.f0_plus, rel=1e-12)


def general_field():
    """Nothing special about it: nonconstant X on both sides, y-coupling in
    both components of the upper field.  Hand evaluation of the closed form
    gives f0 = (0.55, -19/60), g00 = (0.2, 0.1), alpha2 = (1/2, -5/18) and
    V2 = 7/9."""
    return PiecewiseField(
        upper=SmoothField(
            X=Poly2({(0, 0): 1.0, (1, 0): 0.25, (0, 1): -0.2}),
            Y=Poly2({(1, 0): -1.0, (2, 0): 0.3, (0, 1): 0.2, (1, 1): 0.1})),
        lower=SmoothField(
            X=Poly2({(0, 0): -1.0, (1, 0): 1.0 / 6}),
            Y=Poly2({(1, 0): -1.0, (2, 0): -0.15, (0, 1): 0.1})))


def test_classify_general_field_by_hand():
    d = classify_mts(general_field())
    assert (d.k_plus, d.k_minus, d.delta) == (1, 1, 1)
    assert d.f0_plus == pytest.approx(0.55, rel=1e-12)
    assert d.f0_minus == pytest.approx(-19.0 / 60.0, rel=1e-12)
    assert d.g00_plus == pytest.approx(0.2, rel=1e-12)
    assert d.g00_minus == pytest.approx(0.1, rel=1e-12)
    assert d.alpha2_plus == pytest.approx(0.5, rel=1e-12)
    assert d.alpha2_minus == pytest.approx(-5.0 / 18.0, rel=1e-12)
    assert d.V2 == pytest.approx(7.0 / 9.0, rel=1e-12)


def test_general_field_formula_matches_numeric_fit(cfg):
    # fully independent route: direct integration of the displacement map
    from filippov import estimate_lyapunov
    d = classify_mts(general_field())
    est = estimate_lyapunov(general_field(), (0.004, 0.04), cfg)
    assert est.order == 2
    assert est.coefficient == pytest.approx(d.V2, rel=0.02)


# -- local V2 at shifted contacts ----------------------------------------------

@pytest.mark.parametrize("c", [0.5, 1.0])
@pytest.mark.parametrize("eps", [0.1, 0.05])
def test_local_V2_matches_hand_formula(c, eps):
    # For the unfolded order-2 family the per-contact coefficient is exactly
    # 2c / (3 (1 - c*eps)) at +eps and 2c / (3 (1 + c*eps)) at -eps.
    Zu, _ = unfolded_family(2, c, (-1.0, 1.0), eps)
    assert local_V2(Zu, +eps) == pytest.approx(
        2 * c / (3 * (1 - c * eps)), abs=1e-9)
    assert local_V2(Zu, -eps) == pytest.approx(
        2 * c / (3 * (1 + c * eps)), abs=1e-9)


def test_local_V2_requires_singularity():
    Z = monodromic_family(2, 1.0)
    with pytest.raises(NotMonodromic):
        local_V2(Z, 0.05)


# -- sigma regions -------------------------------------------------------------

def test_sigma_regions_split_pair():
    b = -0.1
    Z = PiecewiseField(
        upper=simple_field(1.0, {(1, 0): -1.0, (0, 0): b}),  # -(x - b)
        lower=simple_field(-1.0, {(1, 0): -1.0}))
    segs = sigma_regions(Z, (-0.2, 0.1))
    assert len(segs) == 3
    assert segs[0].kind == "crossing"
    assert segs[1].kind == "attracting-sliding"
    assert segs[1].x_lo == pytest.approx(-0.1, abs=1e-12)
    assert segs[1].x_hi == pytest.approx(0.0, abs=1e-12)
    assert segs[2].kind == "crossing"


def test_sigma_regions_center_is_all_crossing():
    segs = sigma_regions(monodromic_family(1, 0.0), (-1.0, 1.0))
    assert [s.kind for s in segs] == ["crossing", "crossing"]
    assert segs[0].x_hi == pytest.approx(0.0, abs=1e-12)


def test_sigma_regions_unfolded_has_no_sliding():
    Zu, _ = unfolded_family(2, 1.0, (-1.0, 1.0), 0.1)
    segs = sigma_regions(Zu, (-0.2, 0.2))
    assert all(s.kind == "crossing" for s in segs)
    cuts = sorted({round(e, 12) for s in segs for e in s.endpoints
                   if e is not None})
    assert cuts == pytest.approx([-0.1, 0.0, 0.1], abs=1e-10)


def test_sigma_regions_tile_the_interval():
    Zu, _ = unfolded_family(2, 1.0, (-1.0, 1.0), 0.1)
    segs = sigma_regions(Zu, (-0.25, 0.25))
    assert segs[0].x_lo == -0.25
    assert segs[-1].x_hi == 0.25
    for a, b in zip(segs, segs[1:]):
        assert a.x_hi == b.x_lo
