"""Brent's bracketing root-finder (Brent, *Algorithms for Minimization
without Derivatives*, 1973): arc crossings, polynomial roots on the line,
and the cycle roots of the displacement's Hermite interpolant.

The steps are a port of ``scipy.optimize.brentq`` (scipy's
``Zeros/brentq.c``), so that :func:`brent` returns scipy's roots bit for
bit without importing it.  :func:`brent` drives them on one bracket in
floats; :func:`brent_lanes`, in the same order, on many in numpy arrays.
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


def brent_lanes(f, a, b):
    """:func:`brent`'s statements in its order on every bracket ``[a[i],
    b[i]]`` not yet converged, so each root is :func:`brent`'s to the bit,
    and a lane on which :func:`brent` raises makes the batch raise.
    ``f(x, live)`` returns the values at ``x`` of the lanes ``live``."""
    import numpy as np

    def value(x, live):
        fx = np.asarray(f(x, live), dtype=float)
        if np.isnan(fx).any():
            raise ValueError(f"the function value at x={x[np.isnan(fx)][0]} is NaN")
        return fx

    xpre, xcur = np.array(a, dtype=float), np.array(b, dtype=float)
    live = np.arange(len(xpre))
    fpre, fcur = value(xpre, live), value(xcur, live)
    if ((fpre != 0) & (fcur != 0) & (np.signbit(fpre) == np.signbit(fcur))).any():
        raise ValueError("f(a) and f(b) must have different signs")
    # a root at an end (a first) is the current point, which converges at once
    xcur, fcur = np.where(fpre == 0, xpre, xcur), np.where(fpre == 0, fpre, fcur)
    root, xblk, fblk = xcur.copy(), xpre, fpre
    spre = scur = np.zeros(len(live))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(BRENT_MAXITER):
            flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
            xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
            spre, scur = (np.where(flip, xcur - xpre, v) for v in (spre, scur))
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk, fpre, fcur, fblk = (np.where(swap, u, v) for u, v in (
                (xcur, xpre), (xblk, xcur), (xcur, xblk),
                (fcur, fpre), (fblk, fcur), (fcur, fblk)))
            delta = (BRENT_TOL + BRENT_TOL * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            conv = (fcur == 0) | (np.abs(sbis) < delta)
            if conv.any() or not live.size:  # converged lanes leave the batch
                root[live[conv]] = xcur[conv]
                live, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                    v[~conv] for v in (live, xpre, xcur, xblk, fpre, fcur, fblk,
                                       spre, scur, delta, sbis))
                if not live.size:
                    return root
            secant = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(xpre == xblk, secant,
                            -fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            limit = 3 * np.abs(sbis) - delta  # min() keeps abs(spre) on a tie
            limit = np.where(limit < np.abs(spre), limit, np.abs(spre))
            short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                     & (2 * np.abs(stry) < limit))
            spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur,
                                   np.where(sbis > 0, delta, -delta))
            fcur = value(xcur, live)
    raise RuntimeError(f"no convergence after {BRENT_MAXITER} iterations, "
                       f"value is {xcur[0]}")
