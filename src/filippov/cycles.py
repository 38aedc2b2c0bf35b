"""Limit-cycle detection around split tangential singularities.

Crossing limit cycles are located as simple roots of the displacement
function measured on the switching line: a sign-scan over a geometric grid
brackets candidate roots, Brent's method solves them, and a central-difference
derivative decides hyperbolicity and stability (a first-return contraction,
i.e. negative derivative, is stable).  Every accepted cycle must enclose
exactly one sliding segment strictly inside its chord on the line.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

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
    displacement,
    displacements,
    estimate_lyapunov,
    half_return,
)
from .poly import BRENT_TOL
from .record import Record
from .unfold import (
    UnfoldingParams,
    apply_shift,
    expected_invisible_indices,
    require_order,
    unfolded_shifted,
)

# Roots with |d(delta)/dx| at or below this margin carry no honest stability
# claim and are reported instead of returned.
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
    producing sign is ``-sign(delta * V2)``; the ``plus`` convention flips
    it.  Resolved empirically on the canonical families; scans assert the
    dichotomy rather than assuming it.
    """
    if V2 == 0:
        raise InputError("sign is undefined for a vanishing coefficient")
    base = -1 if delta * V2 > 0 else 1
    if convention == "plus":
        base = -base
    elif convention != "minus":
        raise InputError(f"unknown shift convention {convention!r}")
    return base


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
    ``(|b|*(1+1e-3), radius)`` from the window center, brackets sign
    changes, solves them by Brent's method to residual ``1e-12`` (a memo
    seeded with the grid values computes each displacement once), then
    checks hyperbolicity and sliding-segment enclosure.  Non-hyperbolic
    roots and windows where the displacement never leaves the noise floor
    ("center") are reported through ``diagnostics``, not returned.
    """
    if diagnostics is None:
        diagnostics = []
    if radius <= 0:
        raise InputError("radius must be positive")
    u_lo = abs(b) * (1.0 + 1e-3) if b != 0 else radius * 1e-4
    if u_lo >= radius:
        raise InputError(f"|b|={abs(b)} leaves no room inside radius {radius}")
    grid, values, cfg_local = _sample_grid(
        Z_b, window_center, radius, u_lo, GRID_POINTS, cfg, diagnostics)

    memo = {float(x): v for x, v in zip(grid, values) if v is not None}

    def delta_at(x):
        if x not in memo:
            memo[x] = displacement(
                Z_b, x, cfg_local, base_x=window_center).delta_value
        return memo[x]

    def settled(x):
        # brentq stops at an exact zero: treat the residual target as one
        v = delta_at(x)
        return 0.0 if abs(v) < ROOT_RESIDUAL_TOL else v

    valid = [v for v in values if v is not None]
    if not valid:
        diagnostics.append(
            f"window {window_center:+.6g}: no displacement sample succeeded")
        return []
    if max(abs(v) for v in valid) < 10.0 * cfg.event_tol:
        diagnostics.append(
            f"window {window_center:+.6g}: displacement below noise (center)")
        return []

    from scipy.optimize import brentq
    cycles = []
    for i in range(len(grid) - 1):
        v0, v1 = values[i], values[i + 1]
        if v0 is None or v1 is None:
            if (v0 is None) != (v1 is None):
                diagnostics.append(
                    f"window {window_center:+.6g}: bracket ({grid[i]:.9g}, "
                    f"{grid[i + 1]:.9g}) skipped next to a failed sample")
            continue
        if v0 == 0.0 or (v0 < 0) == (v1 < 0):
            continue
        x_star = brentq(settled, float(grid[i]), float(grid[i + 1]),
                        xtol=BRENT_TOL, rtol=BRENT_TOL)
        if cycles and abs(x_star - cycles[-1].x_star) <= 1e-9 * radius:
            continue
        step = 1e-6 * radius
        try:
            deriv = (delta_at(x_star + step) - delta_at(x_star - step)) / (2 * step)
        except FilippovError as exc:
            diagnostics.append(
                f"derivative estimate failed at x={x_star:.9g}: {exc}")
            continue
        if abs(deriv) <= HYPERBOLICITY_TOL:
            diagnostics.append(
                f"non-hyperbolic root at x={x_star:.9g}: |delta'|={abs(deriv):.3e}")
            continue
        stability = "stable" if deriv < 0 else "unstable"
        x_left = half_return(Z_b, "lower", x_star, cfg_local)
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
            amplitude=x_star - window_center, stability=stability,
            derivative=deriv, enclosed_segment=enclosed, x_left=x_left))
        residual = abs(delta_at(x_star))
        if residual > 10 * ROOT_RESIDUAL_TOL:
            diagnostics.append(
                f"root residual {residual:.3e} above target at "
                f"x={x_star:.9g}")
    return cycles


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
    searches every invisible contact window for cycles, and coarse-scans the
    visible windows, which must stay cycle-free.  ``expected_count`` is the
    unfolding order ``k``; the report passes when exactly ``k`` hyperbolic
    cycles are found, all sharing the stability dictated by the sign of
    ``V2``, each enclosing a single sliding segment, pairwise disjoint on
    the switching line.
    """
    data = classify_mts(Z)
    k = params.k
    require_order(data, k)
    V2 = float(data.V2)
    if abs(V2) < 1e-12:
        raise InputError("the second displacement coefficient vanishes")
    if k >= 2 and not params.is_ordered():
        raise InputError("ordered nodes a1 < 0 < a2 < ... are required")
    b = params.b

    node_set = [0.0] + [float(a) for a in params.lam]
    if k >= 2:
        gap = min(abs(u - v) for i, u in enumerate(node_set)
                  for v in node_set[i + 1:])
        radius = min(params.epsilon * gap / 3.0, u_radius)
    else:
        radius = u_radius if math.isfinite(u_radius) else 0.3

    v2_local = (2 * k + 1) / 3.0 * V2 if k >= 2 else V2
    prediction = PseudoHopfPrediction.from_coefficient(data.delta, v2_local)
    if b != 0 and prediction.mu * b > 0:
        predicted = amplitude_prediction(prediction, b)
        if predicted >= radius / 2.0:
            raise ScaleSeparationViolated(
                f"predicted amplitude {predicted:.3e} exceeds half the "
                f"window radius {radius:.3e}; reduce |b|")

    _, Zb = unfolded_shifted(Z, params, data)

    diagnostics: list = []
    cycles: list = []
    invisible = sorted(expected_invisible_indices(k))
    centers = {i: (0.0 if i == 0 else params.epsilon * float(params.lam[i - 1]))
               for i in range(2 * k - 1)}
    for i in invisible:
        cycles.extend(find_cycles_local(
            Zb, centers[i], radius, b, cfg, diagnostics))

    visible_hit = False
    for i in sorted(set(centers) - set(invisible)):
        if _coarse_scan(Zb, centers[i], radius, b, cfg, diagnostics):
            visible_hit = True
            diagnostics.append(
                f"unexpected displacement sign change near visible contact "
                f"at x={centers[i]:+.6g}")

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


def _sample_grid(Z_b, center, radius, u_lo, n_points, cfg, diagnostics):
    """Displacement on the geometric grid ``center + (u_lo .. radius)``.

    Returns the grid, the values (None where an arc failed) and the config
    windowed to ``center +- 2.5 * radius`` that produced them.  Failed
    samples are counted per error class in one diagnostic.
    """
    cfg_local = cfg.with_window(center - 2.5 * radius, center + 2.5 * radius)
    grid = center + np.geomspace(u_lo, radius, n_points)
    samples = displacements(Z_b, grid, cfg_local, base_x=center)
    failed = Counter(type(s).__name__ for s in samples
                     if isinstance(s, FilippovError))
    if failed:
        classes = ", ".join(f"{name} {n}" for name, n in sorted(failed.items()))
        diagnostics.append(
            f"window {center:+.6g}: {sum(failed.values())} of {n_points} "
            f"displacement samples failed ({classes})")
    values = [None if isinstance(s, FilippovError) else float(s.delta_value)
              for s in samples]
    return grid, values, cfg_local


def _coarse_scan(Z_b, center, radius, b, cfg, diagnostics,
                 n_points: int = 12) -> bool:
    """Whether the displacement changes sign above noise near a window,
    skipping failed arcs."""
    _, vals, _ = _sample_grid(Z_b, center, radius,
                              max(abs(b) * 2.0, radius * 1e-3), n_points, cfg,
                              diagnostics)
    if all(v is None for v in vals):
        diagnostics.append(
            f"visible window {center:+.6g}: no sample succeeded, the sign "
            "check had no data")
    noise = 10.0 * cfg.event_tol
    return any(
        v0 is not None and v1 is not None and v0 != 0.0
        and (v0 < 0) != (v1 < 0) and max(abs(v0), abs(v1)) > noise
        for v0, v1 in zip(vals, vals[1:]))


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

    rows = []
    for b in sorted(float(v) for v in b_values):
        Zb = apply_shift(Z, b, convention)
        diagnostics: list = []
        cycles = find_cycles_local(Zb, 0.0, window_radius, b, cfg, diagnostics)
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
