"""Event-driven numerical integration across the switching line.

Orbit arcs are integrated in lanes: one lane per start point, each with its
own smooth field, direction and window bound, all advanced together by one
vectorised DOP853 (Hairer, Norsett & Wanner, *Solving ODEs I*, sections
II.5-6), so that both sides of a displacement sample, the grids of several
windows and several shifted fields share each round of stage evaluations.
Step control is per lane and follows ``scipy.integrate.DOP853``; there are
no chunks and no restarts.  Each round evaluates the dense output of every
accepted step on a refined mesh, and array masks over (mesh point, lane)
mark every window escape and every sign change of ``y`` at once.  A lane
ends at its first marked mesh point, the only time it is looked at on its
own: an escape ends it with :class:`NotInWindow`, a sign change is its
return, solved on its interpolant by Brent's method.  The start lies
exactly on the line, and a point after an exact zero is never marked, so
the start itself never counts as a return.  Trajectories are kept only
for callers that draw them.  No scipy module is imported: the DOP853
coefficient tables are read from scipy's source file as data, and
crossings are solved by :func:`filippov.roots.brent`.

Lanes never mix: every stage combination is summed elementwise in a fixed
order, and the right-hand side gives each lane a column of coefficients
over the batch's monomials, summed in exponent order from a power table (a
monomial the lane's field lacks adds an exact zero), so a lane's result is
bit-identical alone or in any batch.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import runpy
from dataclasses import dataclass

import numpy as np

from .errors import (
    FilippovError,
    Inconclusive,
    InputError,
    NoReturn,
    NotInWindow,
    StepFailure,
)
from .field import SIGMA, PiecewiseField, SmoothField
from .record import Record
from .roots import brent
from .scenario import IntegratorConfig  # noqa: F401  (re-exported)


def _terms(row) -> tuple:
    return tuple((j, float(a)) for j, a in enumerate(row) if a != 0.0)


@functools.cache
def _tables():
    """scipy's DOP853 ``(A, E5, E3, D, stages)`` as nonzero (stage, coefficient)
    pairs; A[s] builds stage s, s = ``stages`` the solution, then dense extras.

    The coefficient file imports numpy alone; it is run as a script from
    scipy's install directory, so that scipy itself is never imported."""
    spec = importlib.util.find_spec("scipy")
    path = spec and spec.origin and os.path.join(
        os.path.dirname(spec.origin), "integrate", "_ivp", "dop853_coefficients.py")
    if not path or not os.path.isfile(path):
        raise ImportError("the DOP853 tables are read from an installed scipy's "
                          "scipy/integrate/_ivp/dop853_coefficients.py; not found")
    dop = runpy.run_path(path)
    return (tuple(_terms(row[:s]) for s, row in enumerate(dop["A"])),
            _terms(dop["E5"]), _terms(dop["E3"]),
            tuple(_terms(r) for r in dop["D"]), dop["N_STAGES"])


def __getattr__(name):
    """``solve_ivp``, imported from scipy.integrate on first access, stays a
    module attribute that callers such as ``bench/tracer.py`` can wrap."""
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# scipy's step-size controller.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0  # error estimator order 7
# Subdivisions of every accepted step when scanning for crossings.
_SCAN_REFINE = 8
_THETAS = tuple((m + 1) / _SCAN_REFINE for m in range(_SCAN_REFINE))
# Length of the time span after the start over which the tangency step
# cap holds; past it resolution no longer matters.
_CAPPED_SPAN = 0.25
# Geometric grid size of the Lyapunov fit.
LYAPUNOV_POINTS = 20


@dataclass(frozen=True)
class ReturnSample:
    """One displacement-function sample at abscissa ``x``."""

    x: float
    phi_plus: float
    phi_minus: float
    delta_value: float


@dataclass(frozen=True)
class LyapunovEstimate(Record):
    """Leading-order fit of the displacement function on a window.

    ``order`` is the nearest-integer slope of ``log|delta|`` against
    ``log x``; a monodromic configuration should produce an even order (this
    is checked by tests, not enforced here).  ``center`` marks windows where
    the displacement never rose above noise; then ``order`` is 0.
    """

    order: int
    coefficient: float
    fit_r2: float
    window: tuple[float, float]
    center: bool = False


def _combine(terms, K):
    """``sum_j a_j K[j]`` over ``terms``, always in the same order."""
    (j0, a0), *rest = terms
    acc = a0 * K[j0]
    for j, a in rest:
        acc += a * K[j]
    return acc


def _norm(v):
    """Euclidean norm over the two state components, per lane."""
    return np.sqrt(v[0] * v[0] + v[1] * v[1])


def _interpolate(F, y_old, thetas):
    """Dense output at step fractions ``thetas``: shape (len, 2, n)."""
    th = np.asarray(thetas)[:, None, None]
    out = np.zeros((len(thetas),) + y_old.shape)
    for i, f in enumerate(F[::-1]):
        out += f
        out *= th if i % 2 == 0 else 1.0 - th
    return out + y_old


def _interpolate1(coeffs, y_old: float, theta: float) -> float:
    """One component of one lane's dense output, as :func:`_interpolate`
    computes it."""
    v = 0.0
    for i, c in enumerate(reversed(coeffs)):
        v += c
        v *= theta if i % 2 == 0 else 1.0 - theta
    return v + y_old


class _Lanes:
    """Independent DOP853 integrations, one per lane, each of its own field.

    Per-lane arrays: states ``y`` and derivatives ``f`` of shape (2, n);
    time ``t``, next step size ``h`` and the rejected-since-last-acceptance
    flag of shape (n,).  Time runs forward in every lane; ``sgn`` = -1
    reverses the field for a lane integrated backward.  Lane ``n`` follows
    ``fields[col[n]]``, the batch's fields being distinct by identity.
    """

    def __init__(self, fields, y0, sgn, rtol: float, atol: float):
        self.sgn = np.asarray(sgn, dtype=float)
        self.rtol, self.atol = rtol, atol
        ids: dict = {}
        self.col = np.array([ids.setdefault(id(f), len(ids)) for f in fields])
        self.fields = list({id(f): f for f in fields}.values())
        # per component: the sorted exponent pairs and their (terms, n) coefficients
        self.terms, self.coeffs = [], []
        for polys in ([f.X.terms for f in self.fields],
                      [f.Y.terms for f in self.fields]):
            keys = sorted(set().union(*polys))
            table = np.array([[float(p.get(key, 0.0)) for p in polys]
                              for key in keys]).reshape(len(keys), len(polys))
            self.terms.append(keys)
            self.coeffs.append(table[:, self.col])
        self.x_powers = sorted({i for keys in self.terms for i, _ in keys if i})
        self.y_powers = sorted({j for keys in self.terms for _, j in keys if j})
        self.y = np.array(y0, dtype=float)
        self.f = self.rhs(self.y)
        self.t = np.zeros(self.y.shape[1])
        self.h = np.full(self.y.shape[1], math.nan)
        self.rejected = np.zeros(self.y.shape[1], dtype=bool)
        self.tables = _tables()

    def rhs(self, s):
        """Field at the states ``s`` (shape (2, n)), reversed where ``sgn`` < 0.

        Every lane sums its terms from zero as ``(c * x**i) * y**j``, as
        :meth:`Poly2.eval` does but in exponent order, with the powers taken
        once from a shared table and exponent-0 factors (exact ones) skipped."""
        x, y = s
        px = {i: x ** i for i in self.x_powers}
        py = {j: y ** j for j in self.y_powers}
        out = np.zeros_like(s)
        for row, keys, coeffs in zip(out, self.terms, self.coeffs):
            for (i, j), c in zip(keys, coeffs):
                v = c * px[i] if i else c
                row += v * py[j] if j else v
        out *= self.sgn
        return out

    def select_initial_step(self, interval, max_step) -> None:
        """``scipy.integrate._ivp.common.select_initial_step`` per lane; as
        there, an empty ``interval`` gives a zero step."""
        y, f = self.y, self.f
        scale = self.atol + np.abs(y) * self.rtol
        d0 = _norm(y / scale) / math.sqrt(2.0)
        d1 = _norm(f / scale) / math.sqrt(2.0)
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, interval)
        f1 = self.rhs(y + h0 * f)
        d2 = _norm((f1 - f) / scale) / math.sqrt(2.0) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                      np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** (1.0 / 8.0))
        self.h = np.where(interval == 0, 0.0, np.minimum(
            np.minimum(100 * h0, h1), np.minimum(interval, max_step)))

    def attempt(self, bound, max_step):
        """Try one step in every lane, clipped at ``bound``.

        Returns the masks ``(accepted, failed)``; failed lanes needed a
        step below ``min_step``.  Accepted lanes advance, and the step's
        start ``y_old`` and dense-output coefficients ``F`` (shape (7, 2, n))
        are kept for every lane.
        """
        t, y, f = self.t, self.y, self.f
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        fresh = ~self.rejected
        h = np.where(fresh & (self.h > max_step), max_step, self.h)
        h = np.where(fresh & (h < min_step), min_step, h)
        failed = self.rejected & (h < min_step)
        t_new = np.minimum(t + h, bound)
        h = t_new - t

        A, E5, E3, D, stages = self.tables
        K = np.empty((len(A),) + y.shape)
        K[0] = f
        for s in range(1, stages):
            K[s] = self.rhs(y + _combine(A[s], K) * h)
        y_new = y + h * _combine(A[stages], K)
        K[stages] = f_new = self.rhs(y_new)

        scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
        err5 = _norm(_combine(E5, K) / scale) ** 2
        err3 = _norm(_combine(E3, K) / scale) ** 2
        norm = np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * 2.0)
        norm = np.where((err5 == 0) & (err3 == 0), 0.0, norm)
        factor = _SAFETY * norm ** _ERROR_EXPONENT
        accepted = (norm < 1) & ~failed
        grow = np.where(factor < _MAX_FACTOR, factor, _MAX_FACTOR)
        grow = np.where(self.rejected, np.minimum(1.0, grow), grow)
        shrink = np.where(factor > _MIN_FACTOR, factor, _MIN_FACTOR)
        self.h = np.abs(h) * np.where(accepted, grow, shrink)
        self.rejected = ~accepted

        for s in range(stages + 1, len(A)):
            K[s] = self.rhs(y + _combine(A[s], K) * h)
        delta = y_new - y
        self.F = np.stack([delta, h * f - delta, 2 * delta - h * (f_new + f)]
                          + [h * _combine(row, K) for row in D])
        self.y_old = y
        self.t = np.where(accepted, t_new, t)
        self.y = np.where(accepted, y_new, y)
        self.f = np.where(accepted, f_new, f)
        return accepted, failed

    def keep(self, mask) -> None:
        """Drop the lanes outside ``mask``."""
        self.sgn, self.t, self.h = self.sgn[mask], self.t[mask], self.h[mask]
        self.y, self.f = self.y[:, mask], self.f[:, mask]
        self.rejected, self.col = self.rejected[mask], self.col[mask]
        self.coeffs = [c[:, mask] for c in self.coeffs]


def _arcs(fields, starts, signs, windows, cfg: IntegratorConfig,
          paths: bool = True) -> list:
    """Integrate one orbit arc per start until it returns to ``y = 0``.

    ``fields`` holds each lane's :class:`SmoothField`; ``signs`` holds +1
    for a lane integrated along its field, -1 against it; ``windows`` holds
    each lane's ``(lo, hi)`` abscissa bound, or None for an unbounded lane.
    Returns, per lane, ``(x_return, trajectory)`` (with ``paths``) or
    ``x_return`` alone, or the :class:`FilippovError` that ended the lane;
    trajectories are ``(n, 2)`` arrays of ``(x, y)`` states ending at the
    located crossing.  At a mesh point that both leaves the window and
    changes sign, the escape wins.
    """
    n = len(starts)
    out: list = [None] * n
    if n == 0:
        return out
    with np.errstate(all="ignore"):
        lanes = _Lanes(fields, np.array(starts, dtype=float).T, signs,
                       cfg.rel_tol, cfg.abs_tol)
        cap, span = _start_cap(lanes, cfg)
        lanes.select_initial_step(span, cap)

        ids = np.arange(n)
        bounded = np.array([w is not None for w in windows])
        lo, hi = np.array([(-math.inf, math.inf) if w is None else w
                           for w in windows], dtype=float).T
        trails = [[np.array([s], dtype=float)] for s in starts] if paths else None
        while ids.size:
            accepted, failed = lanes.attempt(
                cfg.max_time, np.where(lanes.t < span, cap, cfg.max_step))
            done = failed.copy()
            for i in np.flatnonzero(failed):
                out[ids[i]] = StepFailure(
                    "Required step size is less than spacing between numbers.")
            steps = np.flatnonzero(accepted)
            at = ids[steps]
            mesh = _interpolate(lanes.F[:, :, steps], lanes.y_old[:, steps],
                                _THETAS)
            xs, ys = mesh[:, 0], mesh[:, 1]
            prev = np.concatenate([lanes.y_old[1:, steps], ys[:-1]])
            cross = ((prev != 0) & (ys == 0)) | (prev * ys < 0)
            escape = bounded[at] & ~((lo[at] <= xs) & (xs <= hi[at]))
            flagged = cross | escape
            first = flagged.argmax(axis=0)
            for a in np.flatnonzero(flagged.any(axis=0)):
                i, j, m = steps[a], at[a], first[a]
                done[i] = True
                if escape[m, a]:
                    out[j] = NotInWindow(f"arc reached x={xs[m, a]:.6g} "
                                         f"outside window {windows[j]}")
                    continue
                cx, cy = lanes.F[:, 0, i].tolist(), lanes.F[:, 1, i].tolist()
                x0, y0 = lanes.y_old[:, i].tolist()
                th_star = _THETAS[m] if ys[m, a] == 0.0 else brent(
                    lambda s: _interpolate1(cy, y0, s),
                    _THETAS[m - 1] if m else 0.0, _THETAS[m])
                x_star = _interpolate1(cx, x0, th_star)
                out[j] = x_star if not paths else (x_star, np.concatenate(
                    trails[j] + [mesh[:m, :, a],
                                 [[x_star, _interpolate1(cy, y0, th_star)]]]))
            timeout = ~done & (lanes.t >= cfg.max_time)
            for i in np.flatnonzero(timeout):
                out[ids[i]] = NoReturn(
                    f"no return to the switching line within max_time={cfg.max_time}")
            done |= timeout
            if paths:
                for a in np.flatnonzero(~done[steps]):
                    trails[at[a]].append(mesh[:, :, a])
            if done.any():
                keep = ~done
                lanes.keep(keep)
                ids, span, cap = ids[keep], span[keep], cap[keep]
    return out


def _start_cap(lanes: _Lanes, cfg: IntegratorConfig):
    """Step cap near each lane's start and the time span it holds for.

    Starts close to a tangency produce arcs far shorter than the default
    step; without a commensurate step cap the dip back through y = 0 can
    fall inside a single step and stay invisible to the mesh scan.  The
    vertical time scale |dy/dt| / |d2y/dt2| at the start sets the cap
    (direction-independent, sgn^2 = 1).
    """
    t_scale = np.empty(lanes.y.shape[1])
    for n, field in enumerate(lanes.fields):
        at = lanes.col == n
        x, y = lanes.y[:, at]
        vy0 = np.zeros(len(x)) + field.Y.eval(x, y)
        acc = (np.zeros(len(x))
               + field.Y.partial("x").eval(x, y) * field.X.eval(x, y)
               + field.Y.partial("y").eval(x, y) * vy0)
        t_scale[at] = np.where((vy0 != 0) & (acc != 0),
                               np.abs(vy0) / np.abs(acc), math.inf)
    cap = np.minimum(cfg.max_step, t_scale / 2.0)
    span = np.minimum(_CAPPED_SPAN, 8.0 * t_scale)
    return cap, np.minimum(span, cfg.max_time)


def _one(result):
    """The value of a one-lane result, or raise its error."""
    if isinstance(result, FilippovError):
        raise result
    return result


def integrate_to_sigma(field: SmoothField, start, direction: str,
                       cfg: IntegratorConfig):
    """Integrate one orbit of a smooth field until it returns to ``y = 0``.

    ``direction`` is "forward" (along the field) or "backward" (against it).
    Returns ``(x_return, trajectory)`` where the trajectory is an ``(n, 2)``
    array of ``(x, y)`` states ending at the located crossing.
    """
    if direction not in ("forward", "backward"):
        raise InputError(f"unknown direction {direction!r}")
    sgn = 1.0 if direction == "forward" else -1.0
    start = (float(start[0]), float(start[1]))
    return _one(_arcs([field], [start], [sgn], [cfg.window], cfg)[0])


def half_arcs(lanes, cfg: IntegratorConfig, returns: bool = False) -> list:
    """One-sided orbit arcs as one batch, one per lane ``(field, sigma, x,
    window)``: the arc of the smooth field through ``(x, 0)`` into side
    ``sigma``'s half-plane, forward in time where ``sigma * Y(x, 0) > 0``,
    backward otherwise, bounded by ``window`` (None for unbounded).  Per
    lane: ``(x_return, trajectory)`` as :func:`integrate_to_sigma` gives
    it, or with ``returns`` the return abscissa alone (see
    :func:`half_return`), or the :class:`FilippovError` that ended the
    lane (a tangency start is an :class:`InputError`)."""
    out: list = [None] * len(lanes)
    moving, signs = [], []
    for n, (field, sigma, x, _) in enumerate(lanes):
        y0 = float(field.Y.eval(x, 0.0))
        if y0 != 0.0:
            moving.append(n)
            signs.append(1.0 if sigma * y0 > 0.0 else -1.0)
        elif returns and x == 0.0:
            out[n] = 0.0
        else:
            out[n] = InputError(
                f"({x}, 0) is a tangency point; the half-return map is undefined")
    go = [lanes[n] for n in moving]
    arcs = _arcs([f for f, _, _, _ in go], [(float(x), 0.0) for _, _, x, _ in go],
                 signs, [w for _, _, _, w in go], cfg, not returns)
    for n, arc in zip(moving, arcs):
        out[n] = arc
    return out


def half_return(Z: PiecewiseField, side: str, x: float,
                cfg: IntegratorConfig) -> float:
    """Other endpoint of the one-sided orbit arc through ``(x, 0)``.

    By continuity the map fixes the singularity itself, so ``x = 0`` with a
    vanishing vertical component returns 0; elsewhere see :func:`half_arcs`.
    """
    return _one(half_arcs([(Z.side(side), SIGMA[side], x, cfg.window)], cfg,
                          returns=True)[0])


def displacements(Z, xs, cfg: IntegratorConfig, base_x=0.0,
                  windows=None) -> list:
    """:func:`displacement` at every abscissa of ``xs``, integrated as lanes.

    ``Z``, ``base_x`` (orientation base) and ``windows`` (arc bound, in
    place of ``cfg.window``) may each be given per sample, so that several
    windows and fields share one batch.  Returns one :class:`ReturnSample`
    or one :class:`FilippovError` per abscissa, in order.  Both arcs of a
    sample run in the same batch; when both fail, the upper arc's error is
    the one reported.
    """
    xs = [float(x) for x in xs]
    fields = [Z] * len(xs) if isinstance(Z, PiecewiseField) else list(Z)
    bases = ([float(base_x)] * len(xs) if np.ndim(base_x) == 0
             else [float(x) for x in base_x])
    if windows is None:
        windows = [cfg.window] * len(xs)
    orient = [float(Zn.upper.X.eval(base, 0.0)) for Zn, base in zip(fields, bases)]
    out: list = [None if u != 0.0 else InputError(
        f"upper horizontal component vanishes at base {base}")
        for u, base in zip(orient, bases)]
    pending = [n for n, s in enumerate(out) if s is None]
    returns = half_arcs([(field, sigma, xs[n], windows[n]) for n in pending
                         for _, sigma, field in fields[n].sides()],  # upper, lower
                        cfg, returns=True)
    for n, pp, pm in zip(pending, returns[::2], returns[1::2]):
        failed = [r for r in (pp, pm) if isinstance(r, FilippovError)]
        delta = 1.0 if orient[n] > 0 else -1.0
        out[n] = failed[0] if failed else ReturnSample(
            x=xs[n], phi_plus=pp, phi_minus=pm, delta_value=delta * (pp - pm))
    return out


def displacement(Z: PiecewiseField, x: float, cfg: IntegratorConfig,
                 base_x: float = 0.0) -> ReturnSample:
    """Signed gap between the two half-return maps at ``x``.

    The orientation sign is read from the upper horizontal component at the
    window's base abscissa, not at ``x`` itself: it is a constant of the
    monodromic configuration.
    """
    return _one(displacements(Z, [x], cfg, base_x)[0])


def estimate_lyapunov(Z: PiecewiseField, window,
                      cfg: IntegratorConfig) -> LyapunovEstimate:
    """Fit the leading order and coefficient of the displacement function.

    Samples the displacement on a geometric grid of :data:`LYAPUNOV_POINTS`
    points inside ``window`` (both endpoints positive), fits ``log|delta|``
    against ``log x`` by least squares, and reports the nearest-integer
    order together with a sign-aware geometric-mean prefactor.  Windows
    where every sample stays within ``10 * event_tol`` are declared centers.
    """
    x_min, x_max = float(window[0]), float(window[1])
    if not (0 < x_min < x_max):
        raise InputError("window must satisfy 0 < x_min < x_max")
    xs = np.geomspace(x_min, x_max, LYAPUNOV_POINTS)
    deltas = np.array([_one(s).delta_value for s in displacements(Z, xs, cfg)])

    noise = 10.0 * cfg.event_tol
    if np.all(np.abs(deltas) < noise):
        return LyapunovEstimate(order=0, coefficient=0.0, fit_r2=1.0,
                                window=(x_min, x_max), center=True)
    keep = np.abs(deltas) >= noise
    if keep.sum() < max(4, LYAPUNOV_POINTS // 3):
        raise Inconclusive("too few displacement samples above noise")
    xs, deltas = xs[keep], deltas[keep]

    lx = np.log(xs)
    ly = np.log(np.abs(deltas))
    A = np.vstack([np.ones_like(lx), lx]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    intercept, slope = float(coef[0]), float(coef[1])
    fit = intercept + slope * lx
    ss_res = float(np.sum((ly - fit) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - (ss_res / ss_tot if ss_tot > 0 else 0.0)

    order = int(round(slope))
    if r2 < 0.999:
        raise Inconclusive(f"power-law fit r2={r2:.6f} below 0.999")
    if abs(slope - order) > 0.15:
        raise Inconclusive(
            f"fitted slope {slope:.3f} is not near an integer order")
    signs = np.sign(deltas)
    if not (np.all(signs > 0) or np.all(signs < 0)):
        raise Inconclusive("displacement changes sign inside the fit window")
    magnitude = math.exp(float(np.mean(ly - order * lx)))
    return LyapunovEstimate(order=order,
                            coefficient=float(signs[0]) * magnitude,
                            fit_r2=r2, window=(x_min, x_max))


def write_delta_csv(samples, path) -> None:
    """Dump displacement samples as ``x,delta`` rows, 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,delta\n")
        for s in samples:
            fh.write(f"{s.x:.17g},{s.delta_value:.17g}\n")
