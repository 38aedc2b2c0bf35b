"""Reflection symmetry: every one-sided formula, checked on both sides.

The reflection ``R(X, Y)(x, y) = (X(x, -y), -Y(x, -y))`` maps orbits of a
field in one half-plane onto orbits of its image in the other.  Applying it
to both fields and swapping them yields a piecewise field whose upper side
is the mirror of the old lower side and vice versa, with the same
displacement function.  Every quantity defined per side must therefore
trade places with the sign the side convention predicts.  The canonical
families have ``f0_minus = 0``, so without the reflection the lower side's
correction terms would only ever be multiplied by zero.
"""

from fractions import Fraction

import pytest

from conftest import cross_coupled_system
from filippov import (
    IntegratorConfig,
    classify_mts,
    displacement,
    lemma1_check,
    monodromic_family,
)
from filippov.field import PiecewiseField, SmoothField
from filippov.poly import Poly2
from filippov.unfold import _xi_parts


def _mirror(p: Poly2, sign: int) -> Poly2:
    """``sign * p(x, -y)``."""
    return Poly2({(i, j): sign * (-1) ** j * c for (i, j), c in p.terms.items()})


def _R(f: SmoothField) -> SmoothField:
    return SmoothField(_mirror(f.X, 1), _mirror(f.Y, -1))


def reflect(Z: PiecewiseField) -> PiecewiseField:
    return PiecewiseField(upper=_R(Z.lower), lower=_R(Z.upper))


FIELDS = {
    "cross-coupled": lambda exact: cross_coupled_system(exact=exact),
    "four-fold": lambda exact: monodromic_family(2, Fraction(3, 2), exact=exact),
    "six-fold": lambda exact: monodromic_family(3, Fraction(-1, 2), exact=exact),
}
LAMBDAS = {2: (-1, 1), 3: (-1, 1, 2, 3)}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_reflection_swaps_the_sides_of_the_classification(name):
    Z = FIELDS[name](True)
    d, r = classify_mts(Z), classify_mts(reflect(Z))
    assert r.V2 == d.V2
    assert r.delta == -d.delta
    assert (r.k_plus, r.k_minus) == (d.k_minus, d.k_plus)
    assert (r.a_plus, r.a_minus) == (-d.a_minus, -d.a_plus)
    assert (r.f0_plus, r.f0_minus) == (-d.f0_minus, -d.f0_plus)
    assert (r.g00_plus, r.g00_minus) == (d.g00_minus, d.g00_plus)
    assert (r.alpha2_plus, r.alpha2_minus) == (d.alpha2_minus, d.alpha2_plus)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_reflection_swaps_and_negates_the_interpolation_values(name):
    # each node's value is s * (t1 + t2): the factor s trades sides
    # unchanged and both terms change sign
    Z = FIELDS[name](True)
    Zr = reflect(Z)
    lam = [Fraction(a) for a in (-1, Fraction(1, 2), 2)]
    eps = Fraction(1, 10)
    xi_p, xi_m = _xi_parts(Z, classify_mts(Z), lam, eps)
    rp, rm = _xi_parts(Zr, classify_mts(Zr), lam, eps)
    assert rp == [(s, -t1, -t2) for s, t1, t2 in xi_m]
    assert rm == [(s, -t1, -t2) for s, t1, t2 in xi_p]


@pytest.mark.parametrize("name", ["four-fold", "six-fold"])
def test_reflected_identity_system_is_exactly_zero(name):
    Z = FIELDS[name](True)
    k = classify_mts(Z).k_plus
    lam = [Fraction(a) for a in LAMBDAS[k]]
    rep = lemma1_check(reflect(Z), k, lam, mode="exact")
    assert rep.max_residual() == 0


@pytest.mark.parametrize("x", [0.01, 0.05, 0.2])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_reflection_keeps_the_displacement(name, x):
    Z = FIELDS[name](False)
    cfg = IntegratorConfig()
    before = displacement(Z, x, cfg).delta_value
    after = displacement(reflect(Z), x, cfg).delta_value
    assert after == pytest.approx(before, rel=0, abs=1e-15)
