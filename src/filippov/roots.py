"""Brent's bracketing root-finder (Brent, *Algorithms for Minimization
without Derivatives*, 1973): arc crossings, polynomial roots on the line,
and the cycle roots of the displacement's Hermite interpolant.

The steps are a port of ``scipy.optimize.brentq`` (scipy's
``Zeros/brentq.c``), so that :func:`brent` returns scipy's roots bit for
bit without importing it.
"""

from __future__ import annotations

import math
import sys

# Four ulps: the ``xtol`` and ``rtol`` of every root.
BRENT_TOL = 4 * sys.float_info.epsilon
BRENT_MAXITER = 100


def _signbit(v: float) -> bool:
    return math.copysign(1.0, v) < 0


def brent(f, a: float, b: float) -> float:
    """A root of ``f`` in the bracket ``[a, b]``, as ``brentq`` finds it with
    ``xtol = rtol = BRENT_TOL``.

    Raises ``ValueError`` for a NaN value of ``f`` or ends whose values have
    the same sign bit, ``RuntimeError`` after :data:`BRENT_MAXITER`
    iterations.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (BRENT_TOL + BRENT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)  # else bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"no convergence after {BRENT_MAXITER} iterations, "
                       f"value is {xcur}")
