"""Limit-cycle detection around split tangential singularities.

Crossing limit cycles are located as simple roots of the displacement
function measured on the switching line: a sign-scan over a geometric grid
brackets candidate roots, each solved from the cubic Hermite interpolant
of its ends' values and exact slopes and, where needed, one safeguarded
Newton step (``rtsafe``; Press et al., *Numerical Recipes*, 3rd ed.,
section 9.4).  The exact slope at the root decides hyperbolicity and
stability (a first-return contraction, i.e. negative derivative, is
stable).  Every accepted cycle must enclose exactly one sliding segment
strictly inside its chord on the line.  An orbit from a visible fold has
no local return (Kuznetsov, Rinaldi & Gragnani, *IJBC* 13 (2003)
2157-2188), so a census searches only the invisible contact windows and
checks the visible ones algebraically.
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
    VerificationMismatch,
    WrongSign,
)
from .field import PiecewiseField, SigmaSegment, classify_mts, sigma_regions
from .flow import (
    IntegratorConfig,
    displacements,
    estimate_lyapunov,
)
from .record import Record
from .roots import brent
from .unfold import (
    UnfoldingParams,
    apply_shift,
    census_data,
    expected_invisible_indices,
    unfolded_shifted,
    verify_contact_ladder,
)

# Roots with |d(delta)/dx| at or below this margin carry no honest stability
# claim and are reported instead of returned.  The slope is dimensionless
# (a length per length), so the margin is on the scale of the identity
# map's slope 1, whatever the window's size.
HYPERBOLICITY_TOL = 1e-8

ROOT_RESIDUAL_TOL = 1e-12
GRID_POINTS = 50


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
    change from the Hermite interpolant of its ends and, where the
    residual exceeds ``1e-12``, one Newton step, takes the slope and the
    chord's left end from the root's sample, and checks sliding-segment
    enclosure.  Non-hyperbolic roots, failed root solves and windows where
    the displacement never leaves the noise floor ("center") are reported
    through ``diagnostics`` (brackets by offsets from the center), not returned.
    """
    return _search_windows([(Z_b, b, window_center, radius)], cfg,
                           [] if diagnostics is None else diagnostics)[0]


def _inner_offset(b: float, radius: float) -> float:
    """Inner end of a searched window's grid, just outside the split pair."""
    if radius <= 0:
        raise InputError("radius must be positive")
    u_lo = abs(b) * (1.0 + 1e-3) if b != 0 else radius * 1e-4
    if u_lo >= radius:
        raise InputError(f"|b|={abs(b)} leaves no room inside radius {radius}")
    return u_lo


def _search_windows(specs, cfg, diagnostics) -> list:
    """:func:`find_cycles_local` on every window ``(Z, b, center, radius)``
    of ``specs``: all grids as one batch (see :func:`_fill`), then all
    brackets' roots together (see :func:`_solve_brackets`).  The cycles per
    window; diagnostics appended in window order."""
    windows = [_Window(Z, b, center, radius, (center + np.geomspace(
                   _inner_offset(b, radius), radius, GRID_POINTS)).tolist())
               for Z, b, center, radius in specs]
    memo: dict = {}
    _fill(windows, [(w, x) for w, window in enumerate(windows)
                    for x in window.grid], memo, cfg)
    plans = [[] for _ in windows]  # per window: diagnostics and bracket ids
    brackets = []  # (window index, lo, hi)
    for w, (window, plan) in enumerate(zip(windows, plans)):
        values = _values(window, [memo[w, x] for x in window.grid], plan)
        valid = [abs(v) for v in values if v is not None]
        if not valid or max(valid) < cfg.noise_floor:
            plan.append(f"window {window.center:+.6g}: " + (
                "displacement below noise (center)" if valid
                else "no displacement sample succeeded"))
            continue
        grid = window.grid
        for i, (v0, v1) in enumerate(zip(values, values[1:])):
            if (v0 is None) != (v1 is None):
                lo, hi = grid[i] - window.center, grid[i + 1] - window.center
                plan.append(f"window {window.center:+.6g}: bracket u = ({lo:.6g}, "
                            f"{hi:.6g}) skipped next to a failed sample")
            elif v0 is not None and v0 != 0.0 and (v0 < 0) != (v1 < 0):
                plan.append(len(brackets))
                brackets.append((w, grid[i], grid[i + 1]))

    roots = _solve_brackets(windows, brackets, memo, cfg)
    found = [[] for _ in windows]
    for window, plan, cycles in zip(windows, plans, found):
        for item in plan:
            if isinstance(item, str):
                diagnostics.append(item)
            elif isinstance(error := roots[item], Exception):
                lo, hi = (x - window.center for x in brackets[item][1:])
                diagnostics.append(
                    f"window {window.center:+.6g}: root solve in bracket u = "
                    f"({lo:.6g}, {hi:.6g}) failed: {type(error).__name__}: {error}")
            else:
                _add_cycle(window, roots[item], cycles, diagnostics)
    return found


def _solve_brackets(windows, brackets, memo, cfg) -> list:
    """The root sample, or the error that ended its solve, of every bracket
    ``(window index, lo, hi)``: all :func:`_hermite_root` estimates as one
    batch (see :func:`_fill`), then all :func:`_newton_step` results as a
    second batch, which is empty when every residual is on target."""
    def sampled(xs):
        _fill(windows, [(w, x) for (w, _, _), x in zip(brackets, xs)
                        if isinstance(x, float)], memo, cfg)
        return [memo[w, x] if isinstance(x, float) else x
                for (w, _, _), x in zip(brackets, xs)]

    xs = [_hermite_root(memo[w, lo], memo[w, hi]) for w, lo, hi in brackets]
    return sampled([r if isinstance(r, Exception) else _newton_step(
                        memo[w, lo], memo[w, hi], r)
                    for (w, lo, hi), r in zip(brackets, sampled(xs))])


def _hermite_root(lo, hi) -> float | ValueError:
    """The root between the samples ``lo`` and ``hi`` of the cubic Hermite
    interpolant of their values and slopes, by :func:`brent` on the
    bracket's unit parameter, or its ``ValueError`` (a NaN slope)."""
    h = hi.x - lo.x
    f0, f1 = lo.delta_value, hi.delta_value
    m0, m1 = h * lo.derivative, h * hi.derivative

    def cubic(t):
        s = 1.0 - t
        return s * s * ((1.0 + 2.0 * t) * f0 + t * m0) \
            + t * t * ((3.0 - 2.0 * t) * f1 - s * m1)
    try:
        return lo.x + brent(cubic, 0.0, 1.0) * h
    except ValueError as exc:
        return exc


def _newton_step(lo, hi, root) -> float:
    """The abscissa of the sample ``root`` when its residual is at most
    :data:`ROOT_RESIDUAL_TOL`, else its Newton step, or the midpoint of the
    part of the bracket ``(lo, hi)`` that holds the sign change when the
    step leaves it."""
    if abs(root.delta_value) <= ROOT_RESIDUAL_TOL:
        return root.x
    a, b = ((lo.x, root.x) if (lo.delta_value < 0) != (root.delta_value < 0)
            else (root.x, hi.x))
    x = (root.x - root.delta_value / root.derivative if root.derivative
         else math.nan)
    return x if a < x < b else (a + b) / 2


def _add_cycle(window, root, cycles, diagnostics) -> None:
    """Append the cycle at the root sample ``root`` of ``window`` unless it
    repeats the last one or fails a check."""
    Z_b, b, window_center, radius = window[:4]
    x_star, deriv, x_left = root.x, root.derivative, root.phi_minus
    if cycles and abs(x_star - cycles[-1].x_star) <= 1e-9 * radius:
        return
    if not abs(deriv) > HYPERBOLICITY_TOL:
        diagnostics.append(
            f"non-hyperbolic root at x={x_star:.9g}: |delta'|={abs(deriv):.3e}")
        return
    if not x_left < x_star:
        diagnostics.append(
            f"root at x={x_star:.9g} has no chord: its lower return "
            f"{x_left:.9g} is not left of it")
        return
    pad = 1e-9 * radius
    sliding = [
        seg for seg in sigma_regions(Z_b, (x_left, x_star))
        if seg.kind != "crossing"
        and seg.x_lo > x_left + pad
        and seg.x_hi < x_star - pad
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
    and searches the invisible contact windows as :func:`find_cycles_local`
    does, all in one batch.  No other contact may be invisible on either
    side: :func:`filippov.unfold.verify_contact_ladder` classifies them on
    the unfolded field (the shift only translates the upper field), and a
    diagnostic names each side that is invisible or unclassified.
    ``expected_count`` is the unfolding order ``k``; the report passes when
    none of those contacts is invisible and exactly ``k`` hyperbolic cycles
    are found, all sharing the stability dictated by the sign of ``V2``,
    each enclosing a single sliding segment, pairwise disjoint on the
    switching line.
    """
    k = params.k
    data, V2, limit = census_data(Z, params)
    b = params.b
    Zu, Zb = unfolded_shifted(Z, params, data)

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

    centers = [0.0] + [params.epsilon * float(a) for a in params.lam]
    diagnostics: list = []
    cycles = [c for found in _search_windows(
        [(Zb, b, centers[i], radius)
         for i in sorted(expected_invisible_indices(k))], cfg, diagnostics)
        for c in found]
    try:
        contacts = verify_contact_ladder(Zu, params).contacts
    except VerificationMismatch as exc:
        contacts = exc.report.contacts
    # a side not of multiplicity 2 is named but does not fail: the absolute
    # floor of field._coeff_tol misjudges the multiplicity of small slopes
    unseen = [(f"contact {c.index} at x={c.x0:+.6g}: {side} side", mult, vis)
              for c in contacts if c.expected == "visible"
              for side, mult, vis in (("upper", c.mult_plus, c.vis_plus),
                                      ("lower", c.mult_minus, c.vis_minus))
              if vis != "visible"]
    diagnostics += [f"{where} is invisible, expected visible" if vis == "invisible"
                    else f"{where} is unclassified (multiplicity {mult}, {vis}); "
                    "visibility not checked" for where, mult, vis in unseen]

    want_stability = "stable" if V2 < 0 else "unstable"
    passed = (
        len(cycles) == k
        and all(c.stability == want_stability for c in cycles)
        and all(c.enclosed_segment is not None for c in cycles)
        and all(c.amplitude > abs(b) for c in cycles)
        and _pairwise_disjoint(cycles)
        and all(vis != "invisible" for _, _, vis in unseen)
    )
    return CensusReport(k=k, b=b, convention=params.shift_convention,
                        cycles=cycles, expected_count=k, passed=passed,
                        diagnostics=diagnostics)


class _Window(NamedTuple):
    """A window of the field ``Z`` shifted by ``b`` and its grid, ``center +
    geomspace(u_lo, radius, GRID_POINTS)`` (``u_lo``: :func:`_inner_offset`)."""

    Z: PiecewiseField
    b: float
    center: float
    radius: float
    grid: list


def _fill(windows, points, memo: dict, cfg) -> None:
    """Add to ``memo`` the displacements at the ``(window index, x)`` points
    it lacks, as one batch, each with its window's field, base and bound."""
    todo = [p for p in dict.fromkeys(points) if p not in memo]
    if not todo:
        return
    at = [windows[w] for w, _ in todo]
    memo.update(zip(todo, displacements(
        [w.Z for w in at], [x for _, x in todo], cfg,
        base_x=[w.center for w in at],
        windows=[(w.center - 2.5 * w.radius, w.center + 2.5 * w.radius)
                 for w in at])))


def _values(window: _Window, samples: list, diagnostics: list) -> list:
    """The values of the window's grid ``samples``, None where a sample
    failed; one diagnostic counts the failed samples per error class."""
    failed = Counter(type(s).__name__ for s in samples
                     if isinstance(s, FilippovError))
    if failed:
        classes = ", ".join(f"{name} {n}" for name, n in sorted(failed.items()))
        diagnostics.append(
            f"window {window.center:+.6g}: {sum(failed.values())} of "
            f"{len(samples)} displacement samples failed ({classes})")
    return [None if isinstance(s, FilippovError) else float(s.delta_value)
            for s in samples]


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

    specs = [(apply_shift(Z, b, convention), b, 0.0, window_radius)
             for b in sorted(float(v) for v in b_values)]
    rows = []
    for (Zb, b, *_), cycles in zip(specs, _search_windows(specs, cfg, [])):
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
        if seg.x_lo < probe < seg.x_hi:
            return seg.kind
    return "none"
