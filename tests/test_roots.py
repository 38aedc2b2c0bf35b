"""The in-package root-finder and DOP853 tables against scipy as oracle.

scipy is imported here only, as the reference the ports must reproduce
bit for bit."""

import functools
import math
import random
from unittest import mock

from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from filippov import flow, roots
from filippov.roots import BRENT_TOL, brent, brent_lanes

_coeff = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)
_end = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)


def _horner(coeffs, x):
    total = 0.0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _outcome(solver, f, a, b, **tol):
    """``repr`` of the root (it tells -0.0 from 0.0), or the error class."""
    try:
        return repr(solver(f, a, b, **tol))
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def _outcomes(f, a, b, tol=BRENT_TOL):
    """:func:`brent` and ``brentq`` at ``xtol = rtol = tol``; a ``tol`` other
    than :data:`BRENT_TOL` is patched into the module for :func:`brent`."""
    with mock.patch.object(roots, "BRENT_TOL", tol):
        ours = _outcome(brent, f, a, b)
    return ours, _outcome(brentq, f, a, b, xtol=tol, rtol=tol)


_SPECIAL = st.sampled_from(["none", "zero-a", "zero-b", "negzero-a",
                             "negzero-b", "nan-a", "nan-inside"])
_XTOL = st.sampled_from([BRENT_TOL, 1e-6, 1e-2])


def _case(coeffs, a, b, special):
    """A polynomial on ``[a, b]``, edited by ``special``: an exact (signed)
    zero at an end, a NaN at ``a``, or NaN on the half of the bracket
    beyond its midpoint, ``b`` excepted."""
    override = {"zero-a": (a, 0.0), "zero-b": (b, 0.0), "negzero-a": (a, -0.0),
                "negzero-b": (b, -0.0), "nan-a": (a, math.nan)}.get(special)
    cut = (a + b) / 2

    def f(x):
        if override is not None and x == override[0]:
            return override[1]
        if special == "nan-inside" and (x - cut) * (b - a) > 0 and x != b:
            return math.nan
        return _horner(coeffs, x)

    return f


@settings(max_examples=400, derandomize=True, deadline=None)
@given(coeffs=st.lists(_coeff, min_size=1, max_size=8), a=_end, b=_end,
       special=_SPECIAL, xtol=_XTOL)
def test_brent_matches_brentq(coeffs, a, b, special, xtol):
    """Random polynomials of degree <= 7 on random brackets, including exact
    (signed) zeros at an end, NaN values and same-sign ends: same root to the
    bit, or the same exception class.  Coarse tolerances exercise the step
    rules near the tolerance."""
    ours, ref = _outcomes(_case(coeffs, a, b, special), a, b, xtol)
    assert ours == ref


def test_brent_step_rules_at_coarse_tolerance():
    """Seeded random polynomials at a coarse tolerance, where a step that is
    short against the tolerance shows up in the returned root."""
    rng = random.Random(1)
    for _ in range(3000):
        coeffs = [rng.uniform(-10, 10) for _ in range(rng.randint(2, 8))]
        a, b, xtol = rng.uniform(-3, 3), rng.uniform(-3, 3), rng.choice([0.1, 0.3])
        f = functools.partial(_horner, coeffs)
        ours, ref = _outcomes(f, a, b, xtol)
        assert ours == ref


def test_brent_raises_after_its_iteration_cap():
    """Bisection from a 1e300-wide bracket needs far more than 100 steps."""
    def step(x):
        return -1.0 if x < 0.5 else 1.0
    assert _outcomes(step, -1e300, 1e300) == (RuntimeError, RuntimeError)


def _lanes_outcome(fs, a, b):
    """``repr`` of each lane's root from one :func:`brent_lanes` batch, or
    the error class the batch raised."""
    def f(x, live):
        return [fs[i](float(xi)) for i, xi in zip(live, x)]
    try:
        return [repr(float(r)) for r in brent_lanes(f, a, b)]
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(cases=st.lists(st.tuples(st.lists(_coeff, min_size=1, max_size=8),
                                _end, _end, _SPECIAL), min_size=1, max_size=6),
       xtol=_XTOL)
def test_brent_lanes_matches_brent(cases, xtol):
    """On the brackets of :func:`test_brent_matches_brentq`, every lane of
    :func:`brent_lanes`, alone and in a batch, returns the root that
    :func:`brent` and ``brentq`` return, to the bit, or raises the same
    exception class; a batch with a raising lane raises one of its
    lanes' classes."""
    fs = [_case(c, a, b, special) for c, a, b, special in cases]
    a = [case[1] for case in cases]
    b = [case[2] for case in cases]
    with mock.patch.object(roots, "BRENT_TOL", xtol):
        alone = [_lanes_outcome([f], [lo], [hi]) for f, lo, hi in zip(fs, a, b)]
        batch = _lanes_outcome(fs, a, b)
    for f, lo, hi, got in zip(fs, a, b, alone):
        ours, ref = _outcomes(f, lo, hi, xtol)
        assert got == (ours if isinstance(ours, type) else [ours])
        assert ours == ref
    if all(isinstance(got, list) for got in alone):
        assert batch == [got[0] for got in alone]
    else:
        assert batch in {got for got in alone if isinstance(got, type)}


def test_brent_lanes_raises_after_the_iteration_cap():
    """A lane that needs more than 100 steps (bisection from a 1e300-wide
    bracket) stops the batch, as it stops :func:`brent`."""
    def step(x):
        return -1.0 if x < 0.5 else 1.0
    assert _lanes_outcome([lambda x: x - 0.25, step], [0.0, -1e300],
                          [1.0, 1e300]) is RuntimeError
    assert _lanes_outcome([lambda x: x - 0.25], [0.0], [1.0]) == [repr(0.25)]


def test_dop853_tables_match_scipy_module():
    """The tables shipped as package data equal those built from scipy's
    coefficient module."""
    from scipy.integrate._ivp import dop853_coefficients as dop

    def terms(row):
        return [[j, float(a)] for j, a in enumerate(row) if a != 0.0]

    assert flow._tables() == (
        [terms(row[:s]) for s, row in enumerate(dop.A)],
        terms(dop.E5), terms(dop.E3), [terms(r) for r in dop.D],
        dop.N_STAGES)
