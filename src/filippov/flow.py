"""Event-driven numerical integration across the switching line.

Orbit arcs are integrated with an adaptive high-order Runge-Kutta pair
(DOP853) with dense output; the return to ``y = 0`` is located by scanning a
refined mesh for sign changes and solving the dense output there by Brent's
method.  A departure guard keeps the event search from re-triggering on the
start point, which lies exactly on the line: crossings are only accepted
once the orbit has either reached height ``guard_height`` or run for longer
than ``guard_time``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import InputError, NoReturn, NotInWindow, StepFailure, Inconclusive
from .field import SIGMA, PiecewiseField, SmoothField
from .poly import BRENT_TOL
from .record import Record

# First integration chunk length; grown geometrically until max_time.
_CHUNK0 = 0.25
_CHUNK_GROWTH = 6.0
# Subdivisions of every solver step when scanning for crossings.
_SCAN_REFINE = 8


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and guards for orbit-arc integration.

    ``window``, when set, bounds the abscissa range an arc may visit;
    escaping it raises :class:`NotInWindow`.  ``event_tol`` only sets the
    displacement noise floor, ``10 * event_tol``; crossings are located to
    a few ulps whatever its value.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    event_tol: float = 1e-12
    guard_height: float = 1e-8
    guard_time: float = 1e-6
    max_time: float = 50.0
    window: tuple | None = None

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "event_tol", "guard_height",
                     "guard_time", "max_time"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise InputError(
                    f"integrator option {name}={value} must be positive and finite")
        if not self.max_step > 0:
            raise InputError(
                f"integrator option max_step={self.max_step} must be positive")

    def with_window(self, lo: float, hi: float) -> "IntegratorConfig":
        return replace(self, window=(lo, hi))


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


def _refined_mesh(ts: np.ndarray) -> np.ndarray:
    if len(ts) < 2:
        return np.asarray(ts, dtype=float)
    pieces = [np.linspace(ts[i], ts[i + 1], _SCAN_REFINE + 1)[:-1]
              for i in range(len(ts) - 1)]
    return np.concatenate(pieces + [ts[-1:]])


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
    fx, fy = field.X, field.Y

    def rhs(t, s):
        x, y = s
        return (sgn * fx.eval(x, y), sgn * fy.eval(x, y))

    window = cfg.window
    t0 = 0.0
    state = [float(start[0]), float(start[1])]
    max_abs_y = abs(state[1])
    path = [np.array([state])]

    # Starts close to a tangency produce arcs far shorter than the default
    # step; without a commensurate step cap the dip back through y = 0 can
    # fall inside a single step and stay invisible to endpoint sign checks.
    # The vertical time scale |dy/dt| / |d2y/dt2| at the start bounds the
    # first chunk's step size (direction-independent, sgn^2 = 1).
    vy0 = float(fy.eval(state[0], state[1]))
    acc = float(fy.partial("x").eval(state[0], state[1])
                * fx.eval(state[0], state[1])
                + fy.partial("y").eval(state[0], state[1]) * vy0)
    t_scale = abs(vy0) / abs(acc) if vy0 != 0.0 and acc != 0.0 else math.inf
    if math.isfinite(t_scale):
        first_cap = min(cfg.max_step, max(t_scale / 2.0, cfg.guard_time / 4.0))
        chunk = min(_CHUNK0, max(8.0 * t_scale, 4.0 * cfg.guard_time))
    else:
        first_cap = cfg.max_step
        chunk = _CHUNK0
    step_cap = first_cap

    while t0 < cfg.max_time:
        t1 = min(t0 + chunk, cfg.max_time)
        sol = solve_ivp(rhs, (t0, t1), state, method="DOP853",
                        rtol=cfg.rel_tol, atol=cfg.abs_tol,
                        max_step=step_cap, dense_output=True)
        if not sol.success:
            raise StepFailure(sol.message)
        tf = _refined_mesh(sol.t)
        states = sol.sol(tf)
        xs, ys = states[0], states[1]

        for idx in range(1, len(tf)):
            if window is not None and not (window[0] <= xs[idx] <= window[1]):
                raise NotInWindow(
                    f"arc reached x={xs[idx]:.6g} outside window {window}")
            y_prev, y_here = ys[idx - 1], ys[idx]
            crossed = (y_prev != 0.0 and y_here == 0.0) or (y_prev * y_here < 0.0)
            if crossed:
                if y_here == 0.0:
                    t_star = tf[idx]
                else:
                    t_star = brentq(lambda t: sol.sol(t)[1], tf[idx - 1],
                                    tf[idx], xtol=BRENT_TOL, rtol=BRENT_TOL)
                if max_abs_y > cfg.guard_height or t_star > cfg.guard_time:
                    x_star, y_star = (float(v) for v in sol.sol(t_star))
                    keep = tf <= t_star
                    path.append(np.column_stack([xs[keep], ys[keep]]))
                    path.append(np.array([[x_star, y_star]]))
                    return x_star, np.concatenate(path)
            if abs(y_here) > max_abs_y:
                max_abs_y = abs(y_here)

        path.append(np.column_stack([xs[1:], ys[1:]]))
        state = [float(sol.y[0, -1]), float(sol.y[1, -1])]
        t0 = float(sol.t[-1])
        chunk *= _CHUNK_GROWTH
        step_cap = cfg.max_step  # resolution matters only near the start

    raise NoReturn(
        f"no return to the switching line within max_time={cfg.max_time}")


def half_arc(Z: PiecewiseField, side: str, x: float, cfg: IntegratorConfig):
    """One-sided orbit arc through ``(x, 0)`` into the side's half-plane.

    The arc is integrated forward in time when the field at ``(x, 0)``
    points into the half-plane (``sigma * Y(x, 0) > 0``), backward otherwise.
    Returns ``(x_return, trajectory)`` as :func:`integrate_to_sigma` does; a
    tangency start raises :class:`InputError`.
    """
    field = Z.side(side)
    y0 = float(field.Y.eval(x, 0.0))
    if y0 == 0.0:
        raise InputError(
            f"({x}, 0) is a tangency point; the half-return map is undefined")
    direction = "forward" if SIGMA[side] * y0 > 0.0 else "backward"
    return integrate_to_sigma(field, (x, 0.0), direction, cfg)


def half_return(Z: PiecewiseField, side: str, x: float,
                cfg: IntegratorConfig) -> float:
    """Other endpoint of the one-sided orbit arc through ``(x, 0)``.

    By continuity the map fixes the singularity itself, so ``x = 0`` with a
    vanishing vertical component returns 0; elsewhere see :func:`half_arc`.
    """
    if x == 0.0 and float(Z.side(side).Y.eval(x, 0.0)) == 0.0:
        return 0.0
    return half_arc(Z, side, x, cfg)[0]


def displacement(Z: PiecewiseField, x: float, cfg: IntegratorConfig,
                 base_x: float = 0.0) -> ReturnSample:
    """Signed gap between the two half-return maps at ``x``.

    The orientation sign is read from the upper horizontal component at the
    window's base abscissa, not at ``x`` itself: it is a constant of the
    monodromic configuration.
    """
    xu = float(Z.upper.X.eval(base_x, 0.0))
    if xu == 0.0:
        raise InputError(f"upper horizontal component vanishes at base {base_x}")
    delta = 1.0 if xu > 0 else -1.0
    pp = half_return(Z, "upper", x, cfg)
    pm = half_return(Z, "lower", x, cfg)
    return ReturnSample(x=x, phi_plus=pp, phi_minus=pm,
                        delta_value=delta * (pp - pm))


def estimate_lyapunov(Z: PiecewiseField, window, cfg: IntegratorConfig,
                      n_points: int = 20) -> LyapunovEstimate:
    """Fit the leading order and coefficient of the displacement function.

    Samples the displacement on a geometric grid inside ``window`` (both
    endpoints positive), fits ``log|delta|`` against ``log x`` by least
    squares, and reports the nearest-integer order together with a
    sign-aware geometric-mean prefactor.  Windows where every sample stays
    within ``10 * event_tol`` are declared centers.
    """
    x_min, x_max = float(window[0]), float(window[1])
    if not (0 < x_min < x_max):
        raise InputError("window must satisfy 0 < x_min < x_max")
    xs = np.geomspace(x_min, x_max, n_points)
    deltas = np.array([displacement(Z, float(x), cfg).delta_value for x in xs])

    noise = 10.0 * cfg.event_tol
    if np.all(np.abs(deltas) < noise):
        return LyapunovEstimate(order=0, coefficient=0.0, fit_r2=1.0,
                                window=(x_min, x_max), center=True)
    keep = np.abs(deltas) >= noise
    if keep.sum() < max(4, n_points // 3):
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
