"""Bracketing root-finders: Brent's method for one root, Chandrupatla's
method for many roots in lockstep.

Both are ports of scipy's, step for step, so that they return scipy's
results bit for bit without importing it: :func:`brent` of
``scipy.optimize.brentq`` (Brent 1973; scipy's ``Zeros/brentq.c``),
:func:`chandrupatla` of ``scipy.optimize.elementwise.find_root``
(Chandrupatla 1997; scipy's ``_chandrupatla`` on the
``_elementwise_iterative_method._loop`` driver).
"""

from __future__ import annotations

import math
import sys

# Four ulps: the ``xtol`` and ``rtol`` of every Brent root (polynomial roots,
# arc crossings) and the ``xrtol`` of the cycles' lockstep Chandrupatla.
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


# scipy's defaults for find_root, from the float64 limits.
_XATOL = 4 * sys.float_info.min
_MAXITER = math.log2(sys.float_info.max) - math.log2(sys.float_info.min)


def chandrupatla(f, lo, hi, fatol: float):
    """Roots of the elementwise ``f(x, active)`` in the brackets ``[lo, hi]``.

    ``f`` sees the active elements only; ``active`` holds their indices into
    ``lo``.  An element converges when ``|f| <= fatol`` at its better end or
    when its bracket is shorter than ``BRENT_TOL * |x|`` plus four smallest
    normals.  Returns arrays ``(x, success, status)``; ``status`` is 0
    (converged), -1 (ends of one sign; ``x`` is NaN), -3 (non-finite ends, or
    NaN at both; ``x`` is NaN) or -2 (iterations exhausted), as in scipy.
    """
    import numpy as np

    x1, x2 = np.array(lo, dtype=float), np.array(hi, dtype=float)
    active, nit, t = np.arange(x1.size), 0, 0.5
    f1, f2 = (np.asarray(f(x, active), dtype=float) for x in (x1, x2))
    x, status = np.zeros(x1.size), np.ones(x1.size, dtype=int)
    frtol = 0.0 * np.minimum(np.abs(f1), np.abs(f2))  # NaN at a NaN end
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            # termination check, then drop the finished elements
            i = np.abs(f1) < np.abs(f2)
            xmin, fmin = np.where(i, x1, x2), np.where(i, f1, f2)
            st = np.where(np.abs(fmin) <= fatol + frtol, 0, 1)
            sign = (np.sign(f1) == np.sign(f2)) & (st == 1)
            st[sign] = -1
            bad = (~(np.isfinite(x1) & np.isfinite(x2))
                   | (np.isnan(f1) & np.isnan(f2))) & (st == 1)
            st[bad] = -3
            xmin[sign | bad] = math.nan
            dx = np.abs(x2 - x1)
            tol = np.abs(xmin) * BRENT_TOL + _XATOL
            st[dx < tol] = 0
            go = st == 1
            x[active[~go]], status[active[~go]] = xmin[~go], st[~go]
            active = active[go]
            if not active.size or nit >= _MAXITER:
                break
            x1, f1, x2, f2, frtol = x1[go], f1[go], x2[go], f2[go], frtol[go]
            dx, tol = dx[go], tol[go]
            if nit:  # inverse quadratic step where it is safe, else bisect
                x3, f3 = x3[go], f3[go]
                xi1 = (x1 - x2) / (x3 - x2)
                phi1 = (f1 - f2) / (f3 - f2)
                alpha = (x3 - x1) / (x2 - x1)
                j = ((1 - np.sqrt(1 - xi1)) < phi1) & (phi1 < np.sqrt(xi1))
                f1j, f2j, f3j, alphaj = f1[j], f2[j], f3[j], alpha[j]
                t = np.full_like(alpha, 0.5)
                t[j] = (f1j / (f1j - f2j) * f3j / (f3j - f2j)
                        - alphaj * f1j / (f3j - f1j) * f2j / (f2j - f3j))
                tl = 0.5 * tol / dx
                t = np.clip(t, tl, 1 - tl)
            xn = x1 + t * (x2 - x1)
            fn = np.asarray(f(xn, active), dtype=float)
            j = np.sign(fn) == np.sign(f1)
            x3, f3 = x2.copy(), f2.copy()
            x3[j], f3[j] = x1[j], f1[j]
            x2[~j], f2[~j] = x1[~j], f1[~j]
            x1, f1 = xn, fn
            nit += 1
    x[active], status[active] = xmin[go], -2
    return x, status == 0, status
