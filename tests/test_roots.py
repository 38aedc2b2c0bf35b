"""The in-package root-finders and DOP853 tables against scipy as oracle.

scipy is imported here only, as the reference the ports must reproduce
bit for bit."""

import functools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq
from scipy.optimize.elementwise import find_root

from filippov import flow, roots
from filippov.cycles import ROOT_RESIDUAL_TOL
from filippov.roots import BRENT_TOL, brent, chandrupatla

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


@settings(max_examples=400, derandomize=True, deadline=None)
@given(coeffs=st.lists(_coeff, min_size=1, max_size=8), a=_end, b=_end,
       special=st.sampled_from(["none", "zero-a", "zero-b", "negzero-a",
                                "negzero-b", "nan-a", "nan-inside"]),
       xtol=st.sampled_from([BRENT_TOL, 1e-6, 1e-2]))
def test_brent_matches_brentq(coeffs, a, b, special, xtol):
    """Random polynomials of degree <= 7 on random brackets, including exact
    (signed) zeros at an end, NaN values and same-sign ends: same root to the
    bit, or the same exception class.  Coarse tolerances exercise the step
    rules near the tolerance."""
    override = {"zero-a": (a, 0.0), "zero-b": (b, 0.0), "negzero-a": (a, -0.0),
                "negzero-b": (b, -0.0), "nan-a": (a, math.nan)}.get(special)
    cut = (a + b) / 2

    def f(x):
        if override is not None and x == override[0]:
            return override[1]
        if special == "nan-inside" and (x - cut) * (b - a) > 0 and x != b:
            return math.nan
        return _horner(coeffs, x)

    ours, ref = _outcomes(f, a, b, xtol)
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


def _recorded(calls, coeffs, nan_from):
    """Elementwise polynomials ``coeffs[i]`` (rows, ascending), NaN at or
    above ``nan_from[i]``; every call's abscissae and indices are logged."""
    def f(x, idx):
        calls.append((x.tolist(), idx.tolist()))
        v = np.zeros_like(x)
        for c in coeffs[idx].T[::-1]:
            v = v * x + c
        return np.where(x >= nan_from[idx], np.nan, v)
    return f


@settings(max_examples=150, derandomize=True, deadline=None)
@given(rows=st.lists(st.tuples(st.lists(_coeff, min_size=8, max_size=8),
                               _end, _end), min_size=1, max_size=12),
       nan_row=st.integers(0, 11), scale=st.sampled_from([1.0, 1e-6, 1e-12]))
def test_chandrupatla_matches_find_root(rows, nan_row, scale):
    """Random vector brackets, one element with a NaN residual over the upper
    part of its bracket: the same ``x``, ``success`` and ``status``, and
    ``f`` called with the same active abscissae and compressed indices."""
    coeffs = np.array([c for c, _, _ in rows]) * scale
    lo = np.array([min(a, b) for _, a, b in rows])
    hi = np.array([max(a, b) for _, a, b in rows])
    nan_from = np.full(len(rows), np.inf)
    nan_from[nan_row % len(rows)] = (lo + hi)[nan_row % len(rows)] / 2

    calls_ours, calls_ref = [], []
    x, success, status = chandrupatla(
        _recorded(calls_ours, coeffs, nan_from), lo, hi, ROOT_RESIDUAL_TOL)
    ref = find_root(_recorded(calls_ref, coeffs, nan_from), (lo, hi),
                    args=(np.arange(len(rows)),),
                    tolerances=dict(xrtol=BRENT_TOL, fatol=ROOT_RESIDUAL_TOL,
                                    frtol=0.0))
    np.testing.assert_array_equal(x, ref.x)
    np.testing.assert_array_equal(np.signbit(x), np.signbit(ref.x))
    np.testing.assert_array_equal(success, ref.success)
    np.testing.assert_array_equal(status, ref.status)
    assert calls_ours == calls_ref


def test_chandrupatla_statuses():
    """A converged root, a same-sign bracket and a NaN bracket."""
    def f(x, idx):
        return np.where(idx == 2, np.nan, x * x - 2.0)
    x, success, status = chandrupatla(f, [0.0, 2.0, 0.0], [2.0, 3.0, 1.0],
                                      np.finfo(float).smallest_normal)
    assert x[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert success.tolist() == [True, False, False]
    assert status.tolist() == [0, -1, -3]


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
