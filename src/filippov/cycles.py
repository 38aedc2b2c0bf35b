"""Limit-cycle detection around split tangential singularities.

Crossing limit cycles are located as simple roots of the displacement
function measured on the switching line: a sign-scan over a geometric grid
brackets candidate roots, Chandrupatla's method
(:func:`filippov.roots.chandrupatla`) solves the brackets of all
windows in lockstep, and a central-difference derivative decides
hyperbolicity and stability (a first-return contraction, i.e. negative
derivative, is stable).  Every accepted cycle must enclose
exactly one sliding segment strictly inside its chord on the line.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    FilippovError,
    InputError,
    ScaleSeparationViolated,
    WrongSign,
)
from .field import PiecewiseField, SigmaSegment, classify_mts, sigma_regions
from .flow import (
    IntegratorConfig,
    displacements,
    estimate_lyapunov,
)
from .record import Record
from .roots import chandrupatla
from .unfold import (
    UnfoldingParams,
    apply_shift,
    census_data,
    expected_invisible_indices,
    unfolded_shifted,
)

# Roots with |d(delta)/dx| at or below this margin carry no honest stability
# claim and are reported instead of returned.
HYPERBOLICITY_TOL = 1e-8

ROOT_RESIDUAL_TOL = 1e-12
GRID_POINTS = 50
VISIBLE_POINTS = 12


@dataclass(frozen=True)
class LimitCycle(Record):
    """One hyperbolic crossing cycle found as a displacement root."""

    x_star: float
    b: float
    window_center: float
    amplitude: float
    stability: str  # "stable" | "unstable"
    derivative: float
    enclosed_segment: SigmaSegment | None
    x_left: float  # other chord endpoint on the switching line


@dataclass(frozen=True)
class PseudoHopfPrediction:
    """Amplitude law data for splitting a singularity with leading
    coefficient ``V2ell`` of order ``2*ell``."""

    ell: int
    V2ell: float
    delta: int
    mu: int
    y0: float

    @classmethod
    def from_coefficient(cls, delta: int, V2ell: float,
                         ell: int = 1) -> "PseudoHopfPrediction":
        if V2ell == 0:
            raise InputError("a non-vanishing leading coefficient is required")
        mu = -1 if delta * V2ell > 0 else 1
        y0 = abs(2.0 / V2ell) ** (1.0 / (2 * ell))
        return cls(ell=ell, V2ell=float(V2ell), delta=int(delta),
                   mu=mu, y0=y0)


def amplitude_prediction(p: PseudoHopfPrediction, b: float) -> float:
    """Predicted cycle amplitude ``(mu*b)^{1/(2 ell)} * y0``; needs mu*b > 0."""
    if p.mu * b <= 0:
        raise WrongSign(f"mu*b = {p.mu * b} is not positive")
    return (p.mu * b) ** (1.0 / (2 * p.ell)) * p.y0


def cycle_producing_sign(delta: int, V2: float, convention: str) -> int:
    """Sign of ``b`` that creates cycles, resolved per shift convention.

    With the ``minus`` convention (upper field composed with ``x - b``) the
    producing sign is the amplitude law's ``mu = -sign(delta * V2)`` (see
    :class:`PseudoHopfPrediction`); the ``plus`` convention flips it.
    Resolved empirically on the canonical families; scans assert the
    dichotomy rather than assuming it.
    """
    mu = PseudoHopfPrediction.from_coefficient(delta, V2).mu
    if convention == "plus":
        mu = -mu
    elif convention != "minus":
        raise InputError(f"unknown shift convention {convention!r}")
    return mu


@dataclass(frozen=True)
class ScanRow(Record):
    b: float
    n_cycles: int
    stability: str
    sliding_kind: str
    amplitude: float | None
    predicted_amplitude: float | None


@dataclass(frozen=True)
class ScanTable(Record):
    convention: str
    rows: list
    ell: int | None
    V2ell: float | None

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("b,n_cycles,stability,sliding_kind,amplitude,"
                     "predicted_amplitude\n")
            for r in self.rows:
                amp = "" if r.amplitude is None else f"{r.amplitude:.17g}"
                pred = ("" if r.predicted_amplitude is None
                        else f"{r.predicted_amplitude:.17g}")
                fh.write(f"{r.b:.17g},{r.n_cycles},{r.stability},"
                         f"{r.sliding_kind},{amp},{pred}\n")


@dataclass(frozen=True)
class CensusReport(Record):
    k: int
    b: float
    convention: str
    cycles: list
    expected_count: int
    passed: bool
    diagnostics: list

    json_renames = {"passed": "pass"}


def find_cycles_local(Z_b: PiecewiseField, window_center: float, radius: float,
                      b: float, cfg: IntegratorConfig,
                      diagnostics: list | None = None) -> list:
    """Crossing cycles whose right chord endpoint lies in the local window.

    Scans the displacement on a geometric grid of offsets
    ``(|b|*(1+1e-3), radius)`` from the window center, solves each sign
    change to residual ``1e-12``, takes the slope from two probes and the
    chord's left end from the root's lower arc, and checks sliding-segment
    enclosure.  Non-hyperbolic roots, failed root solves and windows where
    the displacement never leaves the noise floor ("center") are reported
    through ``diagnostics``, not returned.
    """
    windows = _sample_windows(
        [(Z_b, b, window_center, radius, _inner_offset(b, radius), GRID_POINTS)],
        cfg)
    return _refine_windows(windows, cfg, [] if diagnostics is None
                           else diagnostics)[0]


def _inner_offset(b: float, radius: float) -> float:
    """Inner end of a searched window's grid, just outside the split pair."""
    if radius <= 0:
        raise InputError("radius must be positive")
    u_lo = abs(b) * (1.0 + 1e-3) if b != 0 else radius * 1e-4
    if u_lo >= radius:
        raise InputError(f"|b|={abs(b)} leaves no room inside radius {radius}")
    return u_lo


def _refine_windows(windows, cfg, diagnostics) -> list:
    """:func:`find_cycles_local` on windows from :func:`_sample_windows`,
    all brackets in one lockstep root solve and all slope probes in one
    batch: the cycles per window, diagnostics appended in window order."""
    plans = [[] for _ in windows]  # per window: diagnostics and bracket ids
    brackets = []  # (window index, lo, hi)
    for w, (window, plan) in enumerate(zip(windows, plans)):
        values = _values(window, plan)
        valid = [abs(v) for v in values if v is not None]
        if not valid or max(valid) < 10.0 * cfg.event_tol:
            plan.append(f"window {window.center:+.6g}: " + (
                "displacement below noise (center)" if valid
                else "no displacement sample succeeded"))
            continue
        grid = window.grid.tolist()
        for i, (v0, v1) in enumerate(zip(values, values[1:])):
            if (v0 is None) != (v1 is None):
                plan.append(f"window {window.center:+.6g}: bracket ({grid[i]:.9g}, "
                            f"{grid[i + 1]:.9g}) skipped next to a failed sample")
            elif v0 is not None and v0 != 0.0 and (v0 < 0) != (v1 < 0):
                plan.append(len(brackets))
                brackets.append((w, grid[i], grid[i + 1]))

    memo = {(w, x): s for w, window in enumerate(windows)
            for x, s in zip(window.grid.tolist(), window.samples)}
    roots = _solve_brackets(windows, brackets, memo, cfg)
    _fill(windows, [(w, x) for (w, _, _), x_star in zip(brackets, roots)
                    if not isinstance(x_star, FilippovError)
                    for x in (x_star + 1e-6 * windows[w].radius,
                              x_star - 1e-6 * windows[w].radius, x_star)],
          memo, cfg)
    found = [[] for _ in windows]
    for w, (window, plan, cycles) in enumerate(zip(windows, plans, found)):
        for item in plan:
            if isinstance(item, str):
                diagnostics.append(item)
            elif isinstance(roots[item], FilippovError):
                _, lo, hi = brackets[item]
                diagnostics.append(
                    f"window {window.center:+.6g}: root solve in bracket ({lo:.9g}, "
                    f"{hi:.9g}) failed: {type(roots[item]).__name__}: {roots[item]}")
            else:
                _add_cycle(window, roots[item], lambda x: memo[w, x], cycles,
                           diagnostics)
    return found


def _solve_brackets(windows, brackets, memo, cfg) -> list:
    """Root, or the error that ended its solve, of every bracket ``(window
    index, lo, hi)``, all by one lockstep :func:`chandrupatla` whose
    iterations each integrate their new abscissae as one batch (see
    :func:`_fill`)."""
    if not brackets:
        return []
    errors: dict = {}

    def residual(xs, active):
        points = [(k, brackets[k][0], x) for k, x in zip(active.tolist(), xs.tolist())]
        _fill(windows, [(w, x) for k, w, x in points if k not in errors], memo, cfg)
        for k, w, x in points:
            if isinstance(memo.get((w, x)), FilippovError):
                errors.setdefault(k, memo[w, x])
        return np.array([math.nan if k in errors else memo[w, x].delta_value
                         for k, w, x in points])

    _, lo, hi = zip(*brackets)
    xs, success, status = chandrupatla(residual, lo, hi, ROOT_RESIDUAL_TOL)
    return [errors.get(k, x if ok else FilippovError(f"chandrupatla status {st}"))
            for k, (x, ok, st) in enumerate(zip(
                xs.tolist(), success.tolist(), status.tolist()))]


def _add_cycle(window, x_star, sample, cycles, diagnostics) -> None:
    """Append the cycle at the root ``x_star`` of ``window`` unless it repeats
    the last one or fails a check; ``sample(x)`` gives the known samples."""
    Z_b, b, window_center, radius = window[:4]
    if cycles and abs(x_star - cycles[-1].x_star) <= 1e-9 * radius:
        return
    step = 1e-6 * radius
    ahead, behind = sample(x_star + step), sample(x_star - step)
    failed = [s for s in (ahead, behind) if isinstance(s, FilippovError)]
    if failed:
        diagnostics.append(
            f"derivative estimate failed at x={x_star:.9g}: {failed[0]}")
        return
    deriv = (ahead.delta_value - behind.delta_value) / (2 * step)
    if abs(deriv) <= HYPERBOLICITY_TOL:
        diagnostics.append(
            f"non-hyperbolic root at x={x_star:.9g}: |delta'|={abs(deriv):.3e}")
        return
    root = sample(x_star)
    x_left = root.phi_minus
    pad = 1e-9 * radius
    sliding = [
        seg for seg in sigma_regions(Z_b, (x_left, x_star))
        if seg.kind != "crossing"
        and seg.interval[0] > x_left + pad
        and seg.interval[1] < x_star - pad
    ]
    enclosed = sliding[0] if len(sliding) == 1 else None
    if enclosed is None:
        diagnostics.append(
            f"cycle at x={x_star:.9g} encloses {len(sliding)} sliding "
            "segments, expected exactly one")
    cycles.append(LimitCycle(
        x_star=x_star, b=b, window_center=window_center,
        amplitude=x_star - window_center,
        stability="stable" if deriv < 0 else "unstable",
        derivative=deriv, enclosed_segment=enclosed, x_left=x_left))
    residual = abs(root.delta_value)
    if residual > 10 * ROOT_RESIDUAL_TOL:
        diagnostics.append(
            f"root residual {residual:.3e} above target at x={x_star:.9g}")


def _pairwise_disjoint(cycles) -> bool:
    chords = sorted((c.x_left, c.x_star) for c in cycles)
    for (l0, r0), (l1, r1) in zip(chords, chords[1:]):
        if r0 >= l1:
            return False
    return True


def cycle_census(Z: PiecewiseField, params: UnfoldingParams,
                 cfg: IntegratorConfig,
                 u_radius: float = math.inf) -> CensusReport:
    """Full cycle count for the unfolded, shifted field.

    Builds the perturbation at ``params.epsilon``, applies the ``b`` shift,
    samples every contact window's grid in one batch, then searches each
    invisible window for cycles as :func:`find_cycles_local` does and
    sign-checks the coarse grids of the visible windows, which must stay
    cycle-free.  ``expected_count`` is the
    unfolding order ``k``; the report passes when exactly ``k`` hyperbolic
    cycles are found, all sharing the stability dictated by the sign of
    ``V2``, each enclosing a single sliding segment, pairwise disjoint on
    the switching line.
    """
    k = params.k
    data, V2, limit = census_data(Z, params)
    b = params.b
    _, Zb = unfolded_shifted(Z, params, data)

    node_set = [0.0] + [float(a) for a in params.lam]
    if k >= 2:
        gap = min(abs(u - v) for i, u in enumerate(node_set)
                  for v in node_set[i + 1:])
        radius = min(params.epsilon * gap / 3.0, u_radius)
    else:
        radius = u_radius if math.isfinite(u_radius) else 0.3

    prediction = PseudoHopfPrediction.from_coefficient(data.delta, limit)
    if b != 0 and prediction.mu * b > 0:
        predicted = amplitude_prediction(prediction, b)
        if predicted >= radius / 2.0:
            raise ScaleSeparationViolated(
                f"predicted amplitude {predicted:.3e} exceeds half the "
                f"window radius {radius:.3e}; reduce |b|")

    # every window's grid in one batch, the invisible windows' roots in lockstep
    centers = [0.0] + [params.epsilon * float(a) for a in params.lam]
    invisible = sorted(expected_invisible_indices(k))
    visible = sorted(set(range(2 * k - 1)) - set(invisible))
    u_lo = _inner_offset(b, radius)
    coarse = max(abs(b) * 2.0, radius * 1e-3)
    windows = _sample_windows(
        [(Zb, b, centers[i], radius, u_lo, GRID_POINTS) for i in invisible]
        + [(Zb, b, centers[i], radius, coarse, VISIBLE_POINTS) for i in visible],
        cfg)

    diagnostics: list = []
    cycles = [c for found in _refine_windows(windows[:len(invisible)], cfg,
                                             diagnostics) for c in found]
    visible_hit = False
    for window in windows[len(invisible):]:
        visible_hit |= _sign_changes(window, cfg, diagnostics)

    want_stability = "stable" if V2 < 0 else "unstable"
    passed = (
        len(cycles) == k
        and all(c.stability == want_stability for c in cycles)
        and all(c.enclosed_segment is not None for c in cycles)
        and all(c.amplitude > abs(b) for c in cycles)
        and _pairwise_disjoint(cycles)
        and not visible_hit
    )
    return CensusReport(k=k, b=b, convention=params.shift_convention,
                        cycles=cycles, expected_count=k, passed=passed,
                        diagnostics=diagnostics)


class _Window(NamedTuple):
    """A window of the field ``Z`` shifted by ``b``: its grid, its samples
    (each a :class:`ReturnSample` or a :class:`FilippovError`) and config."""

    Z: PiecewiseField
    b: float
    center: float
    radius: float
    grid: np.ndarray
    samples: list
    cfg: IntegratorConfig


def _sample_windows(specs, cfg) -> list:
    """Displacement on the grid ``center + geomspace(u_lo, radius, n)`` of
    every window ``(Z, b, center, radius, u_lo, n)`` in ``specs``, as one
    batch (see :func:`_fill`).  One :class:`_Window` per spec, in order."""
    windows = [_Window(Z, b, center, radius,
                       center + np.geomspace(u_lo, radius, n), [],
                       cfg.with_window(center - 2.5 * radius,
                                       center + 2.5 * radius))
               for Z, b, center, radius, u_lo, n in specs]
    memo: dict = {}
    points = [[(w, x) for x in window.grid.tolist()]
              for w, window in enumerate(windows)]
    _fill(windows, [p for grid in points for p in grid], memo, cfg)
    return [window._replace(samples=[memo[p] for p in grid])
            for window, grid in zip(windows, points)]


def _fill(windows, points, memo: dict, cfg) -> None:
    """Add to ``memo`` the displacements at the ``(window index, x)`` points
    it lacks, as one batch, each with its window's field, base and bound."""
    todo = [p for p in dict.fromkeys(points) if p not in memo]
    at = [windows[w] for w, _ in todo]
    memo.update(zip(todo, displacements(
        [w.Z for w in at], [x for _, x in todo], cfg,
        base_x=[w.center for w in at], windows=[w.cfg.window for w in at])))


def _values(window: _Window, diagnostics: list) -> list:
    """The window's displacement values, None where a sample failed; one
    diagnostic counts the failed samples per error class."""
    failed = Counter(type(s).__name__ for s in window.samples
                     if isinstance(s, FilippovError))
    if failed:
        classes = ", ".join(f"{name} {n}" for name, n in sorted(failed.items()))
        diagnostics.append(
            f"window {window.center:+.6g}: {sum(failed.values())} of "
            f"{len(window.grid)} displacement samples failed ({classes})")
    return [None if isinstance(s, FilippovError) else float(s.delta_value)
            for s in window.samples]


def _sign_changes(window: _Window, cfg, diagnostics) -> bool:
    """Whether a visible window's displacement changes sign above noise,
    skipping failed samples; a sign change is also reported."""
    vals = _values(window, diagnostics)
    if all(v is None for v in vals):
        diagnostics.append(
            f"visible window {window.center:+.6g}: no sample succeeded, the "
            "sign check had no data")
    noise = 10.0 * cfg.event_tol
    hit = any(v0 is not None and v1 is not None and v0 != 0.0
              and (v0 < 0) != (v1 < 0) and max(abs(v0), abs(v1)) > noise
              for v0, v1 in zip(vals, vals[1:]))
    if hit:
        diagnostics.append(
            "unexpected displacement sign change near visible contact "
            f"at x={window.center:+.6g}")
    return hit


def pseudo_hopf_scan(Z: PiecewiseField, b_values, convention: str,
                     cfg: IntegratorConfig,
                     window_radius: float = 0.3) -> ScanTable:
    """Cycle census of the shifted base field over a grid of ``b`` values.

    For each ``b``: shift, search the window around the singularity, and
    classify the sliding segment between the split fold pair.  Predicted
    amplitudes come from the closed-form ``V2`` when it is nonzero, else
    from the fitted leading coefficient.
    """
    data = classify_mts(Z)
    # Absolute floor in units of 1/length (delta ~ V2 * x^2), set for O(1)
    # windows: at or below it V2 counts as zero and the leading coefficient
    # is fitted from the displacement instead (estimate_lyapunov).
    if abs(float(data.V2)) > 1e-9:
        prediction = PseudoHopfPrediction.from_coefficient(
            data.delta, float(data.V2), ell=1)
    else:
        est = estimate_lyapunov(
            Z, (window_radius * 1e-2, window_radius * 0.5), cfg)
        if est.center or est.order == 0:
            prediction = None
        else:
            prediction = PseudoHopfPrediction.from_coefficient(
                data.delta, est.coefficient, ell=est.order // 2)

    windows = _sample_windows(
        [(apply_shift(Z, b, convention), b, 0.0, window_radius,
          _inner_offset(b, window_radius), GRID_POINTS)
         for b in sorted(float(v) for v in b_values)], cfg)
    rows = []
    for (Zb, b, *_), cycles in zip(windows, _refine_windows(windows, cfg, [])):
        kind = _split_pair_kind(Zb, b)
        predicted = None
        if prediction is not None and b != 0 and prediction.mu * b > 0:
            predicted = amplitude_prediction(prediction, b)
        rows.append(ScanRow(
            b=b,
            n_cycles=len(cycles),
            stability=cycles[0].stability if cycles else "",
            sliding_kind=kind,
            amplitude=cycles[0].amplitude if cycles else None,
            predicted_amplitude=predicted))
    return ScanTable(
        convention=convention, rows=rows,
        ell=prediction.ell if prediction else None,
        V2ell=prediction.V2ell if prediction else None)


def _split_pair_kind(Zb: PiecewiseField, b: float) -> str:
    if b == 0:
        return "none"
    segs = sigma_regions(Zb, (-1.6 * abs(b), 1.6 * abs(b)))
    probe = b / 2.0
    for seg in segs:
        if seg.interval[0] < probe < seg.interval[1]:
            return seg.kind
    return "none"
