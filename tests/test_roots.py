"""The in-package root-finders and DOP853 tables against scipy as oracle.

scipy is imported here only, as the reference the ports must reproduce
bit for bit."""

import functools
import math
import random
from unittest import mock

from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from filippov import flow, roots
from filippov.cycles import ROOT_RESIDUAL_TOL
from filippov.errors import FilippovError
from filippov.roots import BRENT_TOL, brent, brents

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


_SPECIALS = ["none", "zero-a", "zero-b", "negzero-a", "negzero-b", "tiny-a",
             "tiny-b", "nan-inside", "one-sign"]


def _bracket_function(coeffs, a, b, special, error=None):
    """The polynomial ``coeffs`` on ``[a, b]`` with ``special`` applied:
    an exact (signed) zero or a value below :data:`ROOT_RESIDUAL_TOL` at an
    end, NaN beyond the midpoint, or values of one sign.  With an
    ``error``, it returns that error inside the bracket instead of a
    value."""
    override = {"zero-a": (a, 0.0), "zero-b": (b, 0.0), "negzero-a": (a, -0.0),
                "negzero-b": (b, -0.0), "tiny-a": (a, ROOT_RESIDUAL_TOL / 2),
                "tiny-b": (b, -ROOT_RESIDUAL_TOL / 2)}.get(special)
    cut = (a + b) / 2

    def f(x):
        if override is not None and x == override[0]:
            return override[1]
        if error is not None and x not in (a, b):
            return error
        if special == "nan-inside" and (x - cut) * (b - a) > 0 and x != b:
            return math.nan
        v = _horner(coeffs, x)
        return v * v + abs(coeffs[0]) + 1e-300 if special == "one-sign" else v
    return f


def _brentq_run(f, a, b):
    """``brentq``'s outcome on ``f`` (``repr`` of the root, the exception
    class, or the error ``f`` returned) and the abscissae it evaluated."""
    seen = []

    def g(x):
        seen.append(x)
        v = f(x)
        if isinstance(v, FilippovError):
            raise v
        return v
    try:
        out = repr(brentq(g, a, b, xtol=BRENT_TOL, rtol=BRENT_TOL))
    except FilippovError as exc:
        out = exc
    except (ValueError, RuntimeError) as exc:
        out = type(exc)
    return out, seen


def _brents_run(fs, brackets, fatol):
    """:func:`brents` on the scalar functions ``fs``: the results and, per
    round, the abscissae ``f`` was called with, by bracket."""
    rounds = []

    def f(xs, ids):
        rounds.append(list(zip(ids, xs)))
        return [fs[i](x) for i, x in zip(ids, xs)]
    return brents(f, brackets, fatol), rounds


def _outcome_of(result):
    """A :func:`brents` result as :func:`_brentq_run` reports its outcome."""
    if isinstance(result, float):
        return repr(result)
    return result if isinstance(result, FilippovError) else type(result)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(rows=st.lists(st.tuples(st.lists(_coeff, min_size=1, max_size=8),
                               _end, _end, st.sampled_from(_SPECIALS)),
                     min_size=1, max_size=12),
       error_row=st.integers(0, 11), scale=st.sampled_from([1.0, 1e-6, 1e-12]))
def test_brents_matches_brentq(rows, error_row, scale):
    """Up to 12 random polynomial brackets in lockstep, with exact (signed)
    zeros and values below ``fatol`` at an end, a NaN region, ends of one
    sign, and one bracket whose ``f`` returns an error inside it.  At ``fatol = 0`` each
    bracket gives ``brentq``'s root to the bit, its exception class, or the
    error ``f`` returned, and ``f`` sees each pending abscissa once per
    round, in ``brentq``'s order.  At ``fatol = ROOT_RESIDUAL_TOL`` a bracket
    evaluates its ``fatol = 0`` iterates up to the first with ``|f| <=
    fatol`` (both ends at least), and its root is one of them with ``|f| <=
    fatol``; where no iterate has, its outcome is that of ``fatol = 0``."""
    error = FilippovError("sample failed")
    fs = [_bracket_function([c * scale for c in coeffs], a, b, special,
                            error if i == error_row % len(rows) else None)
          for i, (coeffs, a, b, special) in enumerate(rows)]
    brackets = [(a, b) for _, a, b, _ in rows]
    expected = [_brentq_run(f, a, b) for f, (a, b) in zip(fs, brackets)]

    results, rounds = _brents_run(fs, brackets, 0.0)
    assert [_outcome_of(r) for r in results] == [out for out, _ in expected]
    for r, calls in enumerate(rounds):
        assert [i for i, _ in calls] == [i for i, (_, seen) in enumerate(expected)
                                         if len(seen) > r]
        assert all(repr(x) == repr(expected[i][1][r]) for i, x in calls)

    tol = ROOT_RESIDUAL_TOL
    results, rounds = _brents_run(fs, brackets, tol)
    for i, (result, (out, seen)) in enumerate(zip(results, expected)):
        values = [fs[i](x) for x in seen]
        small = [j for j, v in enumerate(values)
                 if isinstance(v, float) and abs(v) <= tol]
        stop = max(small[0], 1) + 1 if small else len(seen)
        iterates = [x for calls in rounds for j, x in calls if j == i]
        assert [repr(x) for x in iterates] == [repr(x) for x in seen[:stop]]
        if small and all(isinstance(v, float) and not math.isnan(v)
                         for v in values[:stop]):
            assert result in iterates and abs(fs[i](result)) <= tol
        else:
            assert _outcome_of(result) == out


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
