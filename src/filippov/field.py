"""Piecewise-smooth planar fields split by the line ``y = 0``.

A :class:`PiecewiseField` pairs two polynomial fields, one governing the
upper half-plane and one the lower.  This module classifies tangential
contact points between either field and the switching line, recognizes the
monodromic configuration around which a first-return map exists, and
computes the closed-form second coefficient ``V2`` of the displacement-map
expansion.

The classification is gated by three conditions on the origin:

* ``C1`` - both one-sided vertical components vanish to finite even order
  ``2k`` along the switching line while the horizontal components do not
  vanish;
* ``C2`` - both tangencies are invisible: each one-sided orbit through the
  origin leaves its own half-plane (``sigma * X * d^{2k-1}Y/dx^{2k-1} < 0``);
* ``C3`` - the horizontal components oppose each other across the line.

Side convention.  Every one-sided formula is written once over the side sign
``sigma`` (:data:`SIGMA`): ``+1`` for the upper field, ``-1`` for the lower.

Visibility convention.  A bare sign test on ``d^{2k-1}Y/dx^{2k-1}`` alone
does not account for the direction of travel; we use the orbit-curvature
criterion (the sign of ``X * d^{2k-1}Y/dx^{2k-1}``) throughout, which is the
unique convention under which C1 + C2 imply the origin is invisible for both
fields.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegenerateContact,
    DivisionResidual,
    InputError,
    NotMonodromic,
    SingularX,
)
from .poly import Poly2
from .record import Record

# A derivative (coefficient) counts as zero below this relative threshold;
# polynomial inputs make smaller values pure rounding artifacts.
DERIV_ZERO_TOL = 1e-11

# Gate on exact-division residuals in the f0/g00 extractions.
DIV_RESIDUAL_TOL = 1e-10

CROSSING = "crossing"
ATTRACTING = "attracting-sliding"
REPELLING = "repelling-sliding"

SIGMA = {"upper": 1, "lower": -1}


@dataclass(frozen=True)
class SmoothField:
    """One smooth planar field with polynomial components."""

    X: Poly2
    Y: Poly2

    def shift_x(self, h) -> "SmoothField":
        """The field in coordinates moved by ``h``: new(x, y) = old(x+h, y)."""
        return SmoothField(self.X.shift_x(h), self.Y.shift_x(h))


@dataclass(frozen=True)
class PiecewiseField:
    """Upper/lower field pair; the switching line is fixed at ``y = 0``."""

    upper: SmoothField
    lower: SmoothField

    def side(self, name: str) -> SmoothField:
        if name not in SIGMA:
            raise InputError(f"unknown side {name!r}")
        return getattr(self, name)

    def sides(self) -> list:
        """``(name, sigma, field)`` for the upper, then the lower side."""
        return [(name, sigma, getattr(self, name))
                for name, sigma in SIGMA.items()]


@dataclass(frozen=True)
class ContactInfo:
    """Classification of one tangential contact point."""

    x0: float
    side: str
    multiplicity: int
    visibility: str  # "visible" | "invisible" | "not-applicable"


@dataclass(frozen=True)
class MonodromyData(Record):
    """Local data of a monodromic tangential singularity at the origin."""

    k_plus: int
    k_minus: int
    delta: int
    a_plus: float
    a_minus: float
    f0_plus: float
    f0_minus: float
    g00_plus: float
    g00_minus: float
    alpha2_plus: float
    alpha2_minus: float
    V2: float


@dataclass(frozen=True)
class SigmaSegment(Record):
    """One piece of the switching line between consecutive contact points."""

    interval: tuple
    kind: str  # crossing | attracting-sliding | repelling-sliding
    endpoints: tuple  # delimiting contact abscissas (None at window edges)

    def to_json_dict(self) -> dict:
        return {
            "x_lo": float(self.interval[0]),
            "x_hi": float(self.interval[1]),
            "kind": self.kind,
            "endpoints": [None if e is None else float(e) for e in self.endpoints],
        }


def _coeff_tol(p, tol: float = DERIV_ZERO_TOL) -> float:
    """The one scale rule: ``tol`` relative to the largest coefficient of
    ``p``, never below ``tol`` itself."""
    return tol * max(1.0, p.max_abs_coeff())


def contact_info(f: SmoothField, x0, side: str) -> ContactInfo:
    """Multiplicity and visibility of the contact of ``f`` with ``y = 0``
    at ``(x0, 0)``.

    The multiplicity is 1 at a regular (transversal) point; ``n >= 2``
    means ``x0`` is a root of order ``n - 1`` of ``x -> Y(x, 0)``.  An even
    multiplicity is invisible when the orbit through ``(x0, 0)`` locally
    leaves the field's own half-plane: the local vertical excursion has the
    sign of ``X * d^{n-1}Y/dx^{n-1}``, so the contact is invisible iff
    ``sigma * X * d^{n-1}Y/dx^{n-1} < 0``.  Regular points and odd-order
    tangencies get "not-applicable".
    """
    if side not in SIGMA:
        raise InputError(f"unknown side {side!r}")
    px = f.X.restrict_sigma()
    x_at = px(x0)
    if abs(float(x_at)) <= _coeff_tol(px):
        raise SingularX(f"horizontal component vanishes at x0={x0}")
    py = f.Y.shift_x(x0).restrict_sigma()
    tol = _coeff_tol(py)
    m = next((i for i, c in enumerate(py.coeffs) if abs(float(c)) > tol), None)
    if m is None:
        raise DegenerateContact(
            f"all derivatives of Y(x, 0) vanish at x0={x0}")
    if m % 2 == 0:  # multiplicity m + 1 is odd
        vis = "not-applicable"
    else:  # py.coeff(m) is d^m Y/dx^m(x0, 0) up to the factorial
        vis = "invisible" if SIGMA[side] * x_at * py.coeff(m) < 0 else "visible"
    return ContactInfo(x0=x0, side=side, multiplicity=m + 1, visibility=vis)


def correction_quotient(f: SmoothField, sigma: int, delta: int, a, k: int):
    """Quotient ``q`` and ``X(x, 0)`` with ``f = q / X(x, 0)`` the correction
    function of one side beyond the tangency order.

    The numerator ``sigma*delta*Y(x,0) - a*x^{2k-1}*X(x,0)`` is divisible by
    ``x^{2k}`` exactly, which is asserted rather than assumed.
    """
    py = f.Y.restrict_sigma()
    px = f.X.restrict_sigma()
    num = (sigma * delta) * py - a * px.times_x_power(2 * k - 1)
    q, residual = num.divide_x_power(2 * k)
    if residual > _coeff_tol(num, DIV_RESIDUAL_TOL):
        raise DivisionResidual(
            f"numerator of f not divisible by x^{2 * k}: residual {residual:.3e}")
    return q, px


def _g00(f: SmoothField, sigma: int, delta: int):
    """Vertical-coupling coefficient, extracted from the first y-order."""
    xs = f.X.restrict_sigma().to_poly2()
    ys = f.Y.restrict_sigma().to_poly2()
    num = sigma * (xs * f.Y - f.X * ys)
    bad = max(
        (abs(float(c)) for (i, j), c in num.terms.items() if j == 0),
        default=0.0,
    )
    if bad > _coeff_tol(num, DIV_RESIDUAL_TOL):
        raise DivisionResidual(
            f"numerator of g00 not divisible by y: residual {bad:.3e}")
    x00 = f.X.restrict_sigma().coeff(0)
    return num.taylor_coeff(0, 1) / (delta * x00 * x00)


def _origin_contact(f: SmoothField, side: str) -> ContactInfo:
    """The contact at the origin, with every C1 violation raised."""
    try:
        info = contact_info(f, 0.0, side)
    except SingularX as exc:
        raise NotMonodromic("C1", f"X {side} vanishes at the origin") from exc
    except DegenerateContact as exc:
        raise NotMonodromic("C1", str(exc)) from exc
    if info.multiplicity == 1:
        raise NotMonodromic("C1", f"Y {side} does not vanish at the origin")
    if info.multiplicity % 2:
        raise NotMonodromic(
            "C1", f"{side} tangency has odd multiplicity {info.multiplicity}")
    return info


def classify_mts(Z: PiecewiseField) -> MonodromyData:
    """Classify the origin as a monodromic tangential singularity.

    Checks C1, C2, C3 in order and raises :class:`NotMonodromic` naming the
    first violated condition.  On success returns the full local data record,
    including the second displacement coefficient ``V2``.
    """
    sides = Z.sides()
    infos = [_origin_contact(f, name) for name, _, f in sides]
    for info in infos:
        if info.visibility == "visible":
            raise NotMonodromic("C2", f"{info.side} tangency is visible")
    ks = [info.multiplicity // 2 for info in infos]
    x0s = [f.X.restrict_sigma().coeff(0) for _, _, f in sides]
    # Leading restricted coefficients carry the sign of d^{2k-1}Y/dx^{2k-1}.
    cs = [f.Y.restrict_sigma().coeff(2 * k - 1)
          for (_, _, f), k in zip(sides, ks)]
    if not x0s[0] * x0s[1] < 0:
        raise NotMonodromic("C3", "horizontal components do not oppose")

    delta = 1 if x0s[0] > 0 else -1
    a = [c / abs(x0) for c, x0 in zip(cs, x0s)]
    # f(0) is a Taylor coefficient of the exact quotient
    f0 = [correction_quotient(f, sigma, delta, a_s, k)[0].coeff(0) / x0
          for (_, sigma, f), a_s, k, x0 in zip(sides, a, ks, x0s)]
    g00 = [_g00(f, sigma, delta) for _, sigma, f in sides]
    alpha2 = [(-2 * f0_s + 2 * sigma * delta * a_s * g00_s) / (a_s * (2 * k + 1))
              for (_, sigma, _), f0_s, a_s, g00_s, k
              in zip(sides, f0, a, g00, ks)]
    per_side = {}
    for name, values in (("k", ks), ("a", a), ("f0", f0), ("g00", g00),
                         ("alpha2", alpha2)):
        per_side[f"{name}_plus"], per_side[f"{name}_minus"] = values
    return MonodromyData(delta=delta, V2=delta * (alpha2[0] - alpha2[1]),
                         **per_side)


def local_V2(Z: PiecewiseField, x0: float):
    """``V2`` of the two-fold pair sitting at ``(x0, 0)``.

    Translates the point to the origin and classifies; the point must be a
    multiplicity-2 invisible tangency for both fields.
    """
    d = classify_mts(PiecewiseField(Z.upper.shift_x(x0), Z.lower.shift_x(x0)))
    if d.k_plus != 1 or d.k_minus != 1:
        raise NotMonodromic(
            "C1",
            f"point ({x0}, 0) carries multiplicities "
            f"({2 * d.k_plus}, {2 * d.k_minus}), expected (2, 2)")
    return d.V2


def sigma_regions(Z: PiecewiseField, interval) -> list:
    """Partition of an interval of the switching line by contact points.

    Each open piece between consecutive real roots of ``Y_upper(x, 0)`` and
    ``Y_lower(x, 0)`` is labeled attracting-sliding (both fields point toward
    the line, ``sigma * Y(x, 0) < 0`` on both sides), repelling-sliding (both
    point away), or crossing.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not hi > lo:
        raise InputError(f"empty interval ({lo}, {hi})")
    restricted = [(sigma, f.Y.restrict_sigma()) for _, sigma, f in Z.sides()]
    roots = sorted(r for _, p in restricted for r in p.real_roots(lo, hi))
    merged = []
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    for r in roots:
        if merged and abs(r - merged[-1]) <= tol:
            continue
        if lo < r < hi:
            merged.append(r)
    cuts = [lo] + merged + [hi]
    segments = []
    for idx in range(len(cuts) - 1):
        u, v = cuts[idx], cuts[idx + 1]
        mid = 0.5 * (u + v)
        heading = [sigma * float(p(mid)) for sigma, p in restricted]
        if all(v < 0 for v in heading):
            kind = ATTRACTING
        elif all(v > 0 for v in heading):
            kind = REPELLING
        else:
            kind = CROSSING
        segments.append(SigmaSegment(
            interval=(u, v),
            kind=kind,
            endpoints=(
                u if idx > 0 else None,
                v if idx < len(cuts) - 2 else None,
            ),
        ))
    return segments
