"""Polynomial layer: examples, algebraic properties, canonical form."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import antiderivative
from filippov.errors import DegreeCapExceeded, DuplicateTerm, InputError
from filippov.poly import Poly1, Poly2


def P(terms):
    return Poly2(terms)


def derivative(p, i, j=0):
    """``d^(i+j) p / dx^i dy^j`` as composed first-order partials."""
    for var in "x" * i + "y" * j:
        p = p.partial(var)
    return p


# -- eval ---------------------------------------------------------------------

def test_eval_basic():
    p = P({(2, 1): 1.0, (0, 0): 1.0})  # x^2 y + 1
    assert p.eval(2.0, 3.0) == 13.0


def test_eval_zero_poly():
    assert Poly2().eval(5.0, 7.0) == 0


def test_eval_on_sigma():
    p = P({(3, 0): -1.0, (4, 0): 1.0})
    assert p.eval(0.5, 0.0) == pytest.approx(-0.0625, abs=1e-15)


# -- partial ------------------------------------------------------------------

def test_partial_third_derivative():
    p = P({(3, 0): -1.0})
    assert derivative(p, 3) == P({(0, 0): -6.0})


def test_partial_y():
    p = P({(2, 1): 1.0})
    assert p.partial("y") == P({(2, 0): 1.0})


def test_partial_fourth_at_origin():
    c = 0.7
    p = P({(3, 0): -1.0, (4, 0): c})
    assert derivative(p, 4).eval(0.0, 0.0) == pytest.approx(24 * c, rel=1e-15)


# -- shift_x ------------------------------------------------------------------

def test_shift_square():
    p = P({(2, 0): 1.0})
    assert p.shift_x(1.0) == P({(2, 0): 1.0, (1, 0): 2.0, (0, 0): 1.0})


def test_shift_zero_is_identity():
    p = P({(2, 1): 1.5, (0, 3): -2.0})
    assert p.shift_x(0.0) is p


def test_shift_substitution_value():
    eps = 0.37
    p = P({(3, 0): -1.0})
    assert p.shift_x(eps).eval(0.0, 0.0) == pytest.approx(-eps**3, rel=1e-14)


# -- restrict_sigma -----------------------------------------------------------

def test_restrict_drops_y_terms():
    p = P({(2, 1): 1.0, (1, 0): 1.0})
    assert p.restrict_sigma() == Poly1([0.0, 1.0])


def test_restrict_pure_y_is_zero():
    assert P({(0, 3): 1.0}).restrict_sigma().is_zero()


def test_restrict_mixed():
    c = 2.5
    g = P({(0, 1): 3.0, (2, 2): -1.0})
    p = P({(3, 0): -1.0, (4, 0): c}) + g
    assert p.restrict_sigma() == Poly1([0.0, 0.0, 0.0, -1.0, c])


# -- taylor_coeff -------------------------------------------------------------

def test_taylor_coeff_present_and_absent():
    p = P({(2, 1): 3.0})
    assert p.taylor_coeff(2, 1) == 3.0
    assert p.taylor_coeff(0, 0) == 0


def test_taylor_coeff_of_product():
    c = 4.25
    p = P({(3, 0): -1.0, (4, 0): c}) * P({(0, 0): 1.0, (1, 0): 2.0})
    assert p.taylor_coeff(4, 0) == pytest.approx(c - 2, rel=1e-14)


# -- serialization and canonical form ----------------------------------------

def test_duplicate_triples_rejected():
    with pytest.raises(DuplicateTerm):
        Poly2.from_triples([[1, 0, 1.0], [1, 0, 2.0]])


def test_degree_cap():
    with pytest.raises(DegreeCapExceeded):
        Poly2({(65, 0): 1.0})


def test_negative_exponent_rejected():
    with pytest.raises(InputError):
        Poly2({(-1, 0): 1.0})


def test_canonical_drops_rounding_debris():
    p = P({(1, 0): 1.0}) - P({(1, 0): 1.0 - 1e-16})
    assert p == Poly2()


def test_degree_of_zero_is_minus_one():
    assert Poly1().degree == -1


def test_exact_fraction_mode_is_exact():
    third = Fraction(1, 3)
    p = P({(1, 0): third})
    q = p * P({(1, 0): third}) - P({(2, 0): Fraction(1, 9)})
    assert q == Poly2()
    tiny = P({(0, 0): Fraction(1, 10**30)})
    assert tiny.terms  # exact coefficients never count as debris


# -- randomized properties ----------------------------------------------------

coeffs = st.floats(min_value=-3, max_value=3, allow_nan=False,
                   allow_infinity=False).filter(lambda c: abs(c) > 1e-6)
poly2s = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), coeffs,
    min_size=1, max_size=6).map(Poly2)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(poly2s, st.floats(min_value=-1, max_value=1, allow_nan=False))
def test_shift_round_trip(p, h):
    q = p.shift_x(h).shift_x(-h)
    for key in set(p.terms) | set(q.terms):
        assert q.taylor_coeff(*key) == pytest.approx(
            p.taylor_coeff(*key), rel=1e-12, abs=1e-12)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(poly2s, st.floats(min_value=-1, max_value=1, allow_nan=False))
def test_shift_matches_eval(p, h):
    grid = (-1.0, -0.5, 0.0, 0.5, 1.0)
    q = p.shift_x(h)
    for x in grid:
        for y in grid:
            assert q.eval(x, y) == pytest.approx(
                p.eval(x + h, y), rel=1e-10, abs=1e-10)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(poly2s, st.integers(0, 4), st.integers(0, 4))
def test_taylor_coeff_matches_derivatives(p, i, j):
    d = derivative(p, i, j).eval(0.0, 0.0)
    expected = d / (math.factorial(i) * math.factorial(j))
    assert p.taylor_coeff(i, j) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# -- univariate real roots ----------------------------------------------------

def test_real_roots_cubic():
    # (x + 1) x (x - 2)
    p = Poly1([0.0, -2.0, -1.0, 1.0])
    roots = p.real_roots(-3.0, 3.0)
    assert roots == pytest.approx([-1.0, 0.0, 2.0], abs=1e-12)


def test_real_roots_close_pair():
    gap = 1e-8
    p = Poly1([0.0, -gap, 1.0])  # x (x - 1e-8)
    roots = p.real_roots(-1.0, 1.0)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(0.0, abs=1e-13)
    assert roots[1] == pytest.approx(gap, abs=1e-13)


def test_real_roots_double_root():
    # x^2 (x - 1): the double root at 0 does not change sign
    p = Poly1([0.0, 0.0, -1.0, 1.0])
    roots = p.real_roots(-0.5, 2.0)
    assert any(abs(r) < 1e-9 for r in roots)
    assert any(abs(r - 1.0) < 1e-12 for r in roots)


def test_real_roots_none():
    p = Poly1([1.0, 0.0, 1.0])  # x^2 + 1
    assert p.real_roots(-5.0, 5.0) == []


def test_divide_x_power():
    p = Poly1([1e-17, -2e-18, 3.0, 4.0])
    q, residual = p.divide_x_power(2)
    assert q == Poly1([3.0, 4.0])
    assert residual == pytest.approx(1e-17)


def test_antiderivative_then_derivative():
    p = Poly1([2.0, -3.0, 0.5])
    assert antiderivative(p).derivative() == p
