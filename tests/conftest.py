"""Shared fixtures, test-only fields and independent oracles.

The level-set oracle computes half-return values without any time
integration: for a field with constant horizontal component and a vertical
component depending on x alone, orbits preserve the antiderivative
G(x) = int Y(s, 0) ds, so the return abscissa solves G(xr) = G(x0) on the
other side of the tangency.  Root-finding on G is the only numerics
involved, keeping the oracle independent of the Runge-Kutta path it checks.
"""

from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from filippov import IntegratorConfig
from filippov.field import PiecewiseField, SmoothField
from filippov.poly import Poly1, Poly2


@pytest.fixture(scope="session")
def cfg():
    return IntegratorConfig()


def cross_coupled_system(exact: bool = False) -> PiecewiseField:
    """Two-fold pair whose upper field couples to y: ``(1, -x + y)`` over
    ``(-1, -x)``.

    Exercises the ``g00`` extraction path: ``g00_plus = 1``, ``f0± = 0``,
    ``a± = -1`` and ``V2 = 2/3``.
    """
    one = Fraction(1) if exact else 1.0
    upper = SmoothField(
        X=Poly2.constant(one),
        Y=Poly2({(1, 0): -one, (0, 1): one}),
    )
    lower = SmoothField(
        X=Poly2.constant(-one),
        Y=Poly2({(1, 0): -one}),
    )
    return PiecewiseField(upper=upper, lower=lower)


def antiderivative(p: Poly1) -> Poly1:
    """Antiderivative with zero constant term."""
    out = [0]
    for m, c in enumerate(p.coeffs):
        if isinstance(c, (Fraction, int)):
            out.append(Fraction(c, m + 1))
        else:
            out.append(c / (m + 1))
    return Poly1(out)


def level_set_return(field: SmoothField, x0: float, lo: float, hi: float) -> float:
    """Half-return oracle; the root is searched inside (lo, hi)."""
    if not field.X.restrict_sigma().derivative().is_zero():
        raise ValueError("oracle requires a constant horizontal component")
    G = antiderivative(field.Y.restrict_sigma())
    target = G(x0)

    def g(x):
        return G(x) - target

    xs = np.linspace(lo, hi, 4001)
    vals = [g(float(x)) for x in xs]
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            return float(xs[i])
        if vals[i] * vals[i + 1] < 0:
            return brentq(g, float(xs[i]), float(xs[i + 1]), xtol=1e-15)
    raise ValueError(f"oracle found no return in ({lo}, {hi})")
