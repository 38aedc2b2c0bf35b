"""Brent's bracketing root-finder (Brent, *Algorithms for Minimization
without Derivatives*, 1973), written once as the generator :func:`_steps`
and driven two ways: :func:`brent` solves one bracket (arc crossings,
polynomial roots), :func:`brents` solves many brackets in lockstep, one
call of ``f`` per round (cycle roots).

The steps are a port of ``scipy.optimize.brentq`` (scipy's
``Zeros/brentq.c``), so that at ``fatol = 0`` both functions return scipy's
roots bit for bit without importing it.
"""

from __future__ import annotations

import math
import sys

# Four ulps: the ``xtol`` and ``rtol`` of every root.
BRENT_TOL = 4 * sys.float_info.epsilon
BRENT_MAXITER = 100


def _signbit(v: float) -> bool:
    return math.copysign(1.0, v) < 0


def _checked(x: float, fx) -> float:
    fx = float(fx)
    if math.isnan(fx):
        raise ValueError(f"the function value at x={x} is NaN")
    return fx


def _steps(a: float, b: float, fatol: float):
    """Brent's iteration on the bracket ``[a, b]``: yields each abscissa, is
    sent its value, and returns the root, an abscissa whose ``|f|`` is at
    most ``fatol`` or whose bracket is shorter than the tolerance.

    Raises ``ValueError`` for a NaN value or ends whose values have the same
    sign bit, ``RuntimeError`` after :data:`BRENT_MAXITER` iterations.
    """
    xpre, xcur = float(a), float(b)
    fpre = _checked(xpre, (yield xpre))
    fcur = _checked(xcur, (yield xcur))
    if abs(fpre) <= fatol:
        return xpre
    if abs(fcur) <= fatol:
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
        if abs(fcur) <= fatol or abs(sbis) < delta:
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
        fcur = _checked(xcur, (yield xcur))
    raise RuntimeError(f"no convergence after {BRENT_MAXITER} iterations, "
                       f"value is {xcur}")


def brent(f, a: float, b: float) -> float:
    """A root of ``f`` in the bracket ``[a, b]``, as ``brentq`` finds it with
    ``xtol = rtol = BRENT_TOL``; raises as :func:`_steps` does."""
    steps = _steps(a, b, 0.0)
    x = next(steps)
    try:
        while True:
            x = steps.send(f(x))
    except StopIteration as stop:
        return stop.value


def brents(f, brackets, fatol: float = 0.0) -> list:
    """A root, or the exception that ended its solve, of every bracket
    ``(a, b)``, all solved by :func:`_steps` in lockstep.

    Each round calls ``f(xs, ids)`` once, with the pending abscissae ``xs``
    of the brackets numbered ``ids``; ``f`` returns, per abscissa, its value
    or an exception, which ends that bracket and is its result.  The
    ``ValueError`` and ``RuntimeError`` of :func:`_steps` are results too.
    """
    out: list = [None] * len(brackets)
    pending = {}
    for i, (a, b) in enumerate(brackets):
        steps = _steps(a, b, fatol)
        pending[i] = steps, next(steps)
    while pending:
        ids = list(pending)
        values = f([x for _, x in pending.values()], ids)
        for i, fx in zip(ids, values):
            steps, _ = pending.pop(i)
            if isinstance(fx, Exception):
                out[i] = fx
                continue
            try:
                pending[i] = steps, steps.send(fx)
            except StopIteration as stop:
                out[i] = stop.value
            except (ValueError, RuntimeError) as exc:
                out[i] = exc
    return out
