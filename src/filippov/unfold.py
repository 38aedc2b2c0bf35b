"""Construction of the unfolding perturbation and its verifiers.

Given a field with a ``(2k, 2k)`` monodromic tangential singularity at the
origin and a parameter vector ``Lambda = (a_1, ..., a_{2k-2})`` of nonzero,
pairwise-distinct reals, there is a unique polynomial ``P`` of degree at
most ``2k - 2`` with ``P(0) = 0`` that turns every ``(eps * a_i, 0)`` into a
tangency of the perturbed vertical component

    Y_new(x, y) = Y(x, y) + X(x, y) * P(x).

The interpolation values are

    xi_i = -sigma * delta * eps^{2k-1} * (a * a_i^{2k-1}
                                          + eps * a_i^{2k} * f(eps * a_i))

with the side sign ``sigma`` of :mod:`filippov.field`; equivalently
``xi_i = -Y(eps*a_i, 0) / X(eps*a_i, 0)``.

The perturbation is built by Newton divided differences through the
rescaled node set ``{0} u {a_i}``, which is well conditioned whatever
``eps``, and is refused when a componentwise forward-error bound on its
coefficients exceeds :data:`METHOD_AGREEMENT_TOL` relative to their size.

Writing ``c_j(eps) = eps^{2k-1-j} * C_j(eps)`` for the coefficients of the
perturbation, the values ``C_j(0)`` and ``dC_j/deps(0)`` obey a family of
algebraic identities (factorizations of two companion polynomials, sum
rules at each node, and cross-side proportionalities) that
:func:`lemma1_check` evaluates and reports residuals for.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (
    FilippovError,
    InputError,
    InvalidLambda,
    VerificationMismatch,
)
from .field import (
    SIGMA,
    MonodromyData,
    PiecewiseField,
    SmoothField,
    _coeff_tol,
    classify_mts,
    contact_info,
    correction_quotient,
    local_V2,
)
from .poly import Poly1, Poly2
from .record import Record

# Membership gates for the parameter domain: the domain is open, and nearly
# coincident nodes make double-precision interpolation meaningless.
MIN_NODE = 1e-6
MIN_GAP = 1e-6

# Largest forward-error bound of the perturbation coefficients accepted,
# relative to the largest coefficient of the same side.
METHOD_AGREEMENT_TOL = 1e-7

LADDER_RESIDUAL_TOL = 1e-9

# Numeric lemma-1 extrapolation grid: epsilon in {h, h/2, h/4}.
LEMMA1_STEP = 1e-2

# Local V2 convergence: epsilon grid as multiples of the scenario's epsilon,
# and the least fitted order of the error decay.
V2_LIMIT_EPS_FACTORS = (1.0, 0.5, 0.25)
V2_LIMIT_MIN_ORDER = 0.9


@dataclass(frozen=True)
class UnfoldingParams:
    """Unfolding parameters: order ``k``, node vector, scale, shift."""

    k: int
    lam: tuple
    epsilon: float
    b: float = 0.0
    shift_convention: str = "minus"  # upper field composed with x -> x -+ b

    def __post_init__(self):
        if self.shift_convention not in ("minus", "plus"):
            raise InputError(
                f"unknown shift convention {self.shift_convention!r}")

    def require_ordered(self) -> None:
        """Raise :class:`InvalidLambda` unless ``a_1 < 0 < a_2 < ... <
        a_{2k-2}``; nothing is required for ``k < 2`` or empty nodes."""
        lam = self.lam
        rest = (0, *lam[1:])
        if self.k >= 2 and lam and not (
                lam[0] < 0 and all(u < v for u, v in zip(rest, rest[1:]))):
            raise InvalidLambda("ordered nodes a1 < 0 < a2 < ... are required")


@dataclass(frozen=True)
class PerturbationPolys(Record):
    """The two perturbation polynomials with their coefficient norms."""

    p_plus: Poly1
    p_minus: Poly1
    norm_plus: float
    norm_minus: float


@dataclass(frozen=True)
class ContactRecord(Record):
    index: int
    x0: float
    residual_plus: float
    residual_minus: float
    mult_plus: int | None
    mult_minus: int | None
    vis_plus: str
    vis_minus: str
    expected: str
    ok: bool


@dataclass(frozen=True)
class LadderReport(Record):
    contacts: list
    ok: bool

    json_computed = {"failing_abscissas": "failures"}

    def failures(self) -> list:
        return [r.x0 for r in self.contacts if not r.ok]


@dataclass(frozen=True)
class Lemma1Entry(Record):
    index: int
    a_i: float
    s1_plus: float
    s2_plus: float
    s3_plus: float
    s4_plus: float
    s1_minus: float
    s2_minus: float
    s3_minus: float
    s4_minus: float
    s2_residual_plus: float
    s2_residual_minus: float
    s4_residual_plus: float
    s4_residual_minus: float


@dataclass(frozen=True)
class Lemma1Report(Record):
    alpha: float
    c_plus: list[float]
    c_minus: list[float]
    dc_plus: list[float]
    dc_minus: list[float]
    entries: list
    factorization_residuals: dict[str, float]
    cross_side_residuals: dict[str, float | None]
    mode: str = "numeric"

    json_renames = {"c_plus": "C_plus", "c_minus": "C_minus",
                    "dc_plus": "dC_plus", "dc_minus": "dC_minus"}
    json_computed = {"max_residual": "max_residual"}

    def max_residual(self) -> float:
        vals = []
        for e in self.entries:
            vals += [e.s2_residual_plus, e.s2_residual_minus,
                     e.s4_residual_plus, e.s4_residual_minus]
        vals += [v for v in self.factorization_residuals.values()]
        vals += [v for v in self.cross_side_residuals.values() if v is not None]
        return max(float(v) for v in vals) if vals else 0.0


@dataclass(frozen=True)
class V2LimitRow(Record):
    index: int
    a_i: float
    abscissas: list[float]
    values: list[float]
    errors: list[float]
    fitted_order: float
    ok: bool


@dataclass(frozen=True)
class V2LimitReport(Record):
    limit: float
    V2: float
    eps_grid: list[float]
    rows: list
    ok: bool


# --- interpolation machinery -------------------------------------------------


def validate_lambda(lam, k: int) -> None:
    """Domain membership: nonzero, pairwise-distinct nodes of length 2k-2."""
    lam = tuple(lam)
    if len(lam) != 2 * k - 2:
        raise InvalidLambda(
            f"expected {2 * k - 2} nodes for k={k}, got {len(lam)}")
    for a in lam:
        if abs(float(a)) < MIN_NODE:
            raise InvalidLambda(f"node {a} too close to zero")
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            if abs(float(lam[i]) - float(lam[j])) < MIN_GAP:
                raise InvalidLambda(
                    f"nodes {lam[i]} and {lam[j]} too close together")


def newton_through_origin(nodes, values, magnitudes: bool = False):
    """Interpolating polynomial through ``(0, 0)`` and ``(nodes, values)``.

    Returns ascending monomial coefficients; works over floats or exact
    Fractions.  The constant coefficient is exactly zero by construction.

    With ``magnitudes=True`` the same steps run on absolute values: each
    difference of values becomes the sum of their magnitudes, each node
    difference and each node its magnitude.  Given value magnitudes, every
    quantity of this run bounds the magnitude of its counterpart in the
    plain run, which makes it the scale of that run's rounding errors.
    """
    xs = [0 * (nodes[0] if nodes else 0)] + list(nodes)
    ys = [0 * (values[0] if values else 0)] + list(values)
    n = len(xs)
    table = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            gap = xs[i] - xs[i - j]
            table[i] = ((abs(table[i]) + abs(table[i - 1])) / abs(gap)
                        if magnitudes else (table[i] - table[i - 1]) / gap)
    if magnitudes:
        xs = [-abs(x) for x in xs]
    # expand the Newton form to monomials
    coeffs = [0] * n
    basis = [1]
    for i, c in enumerate(table):
        for m, bcoef in enumerate(basis):
            coeffs[m] = coeffs[m] + c * bcoef
        if i + 1 < n:
            nxt = [0] * (len(basis) + 1)
            for m, bcoef in enumerate(basis):
                nxt[m + 1] += bcoef
                nxt[m] -= xs[i] * bcoef
            basis = nxt
    return coeffs


def _xi_parts(Z: PiecewiseField, data: MonodromyData, lam, epsilon):
    """Per side, ``(s, t1, t2)`` for each node with interpolation value
    ``s * (t1 + t2)``: ``s = -sigma * delta * epsilon^{2k-1}``,
    ``t1 = a * a_i^{2k-1}`` and ``t2 = epsilon * a_i^{2k} * f(epsilon * a_i)``.
    """
    if data.k_plus != data.k_minus:
        raise InputError("equal tangency orders on both sides are required")
    k = data.k_plus
    delta = data.delta
    common = epsilon ** (2 * k - 1)
    quotients = [(sigma, a, *correction_quotient(f, sigma, delta, a, k))
                 for (_, sigma, f), a in zip(Z.sides(),
                                             (data.a_plus, data.a_minus))]
    return tuple(
        [(-sigma * delta * common, a * a_i ** (2 * k - 1),
          epsilon * a_i ** (2 * k) * (q(epsilon * a_i) / x(epsilon * a_i)))
         for a_i in lam]
        for sigma, a, q, x in quotients)


def xi_values(Z: PiecewiseField, data: MonodromyData, lam, epsilon):
    """Interpolation values at the nodes ``epsilon * a_i`` for both sides.

    Requires equal tangency orders on the two sides.  The values are
    evaluated through exact polynomial division, never by forming the raw
    quotient near the singularity.
    """
    return tuple([s * (t1 + t2) for s, t1, t2 in side]
                 for side in _xi_parts(Z, data, lam, epsilon))


def _coefficients_and_bounds(Z: PiecewiseField, data: MonodromyData, lam,
                             eps: float):
    """Per side: the coefficients ``c_1 .. c_n`` of the perturbation,
    bounds ``e_j`` on their rounding errors, and the least value size.

    ``s_m = |s| * (|t1| + |t2|)`` sizes each value by its terms
    (:func:`_xi_parts`), so that cancellation inside it is covered, and
    ``e_j = gamma * R_j / eps^j`` with ``R`` the interpolation run on the
    sizes (``magnitudes=True``): to first order, an error is at most ``u``
    times the roundings on the longest path times the run on absolute
    values (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., SIAM 2002, sections 3.1 and 22.3).  With ``m = 2k - 1`` points
    that path has about ``6 m + 7`` roundings; ``gamma = 10 m u``.  A size
    below the least normal float means that a value underflowed.
    """
    n = len(lam)
    gamma = 10 * (n + 1) * sys.float_info.epsilon / 2
    scales = [eps ** j for j in range(1, n + 1)]
    out = []
    for parts in _xi_parts(Z, data, lam, eps):
        xi = [s * (t1 + t2) for s, t1, t2 in parts]
        size = [abs(s) * (abs(t1) + abs(t2)) for s, t1, t2 in parts]
        full = newton_through_origin(lam, xi)
        reach = newton_through_origin(lam, size, magnitudes=True)
        out.append(([full[j] / scales[j - 1] for j in range(1, n + 1)],
                    [gamma * reach[j] / scales[j - 1] for j in range(1, n + 1)],
                    min(size)))
    return out


def build_perturbation(Z: PiecewiseField, params: UnfoldingParams,
                       data: MonodromyData | None = None) -> PerturbationPolys:
    """Construct the two perturbation polynomials for the given parameters.

    Newton interpolation through the rescaled nodes ``{0} u {a_i}``; the
    result is refused with :class:`InputError` when ``epsilon`` drives it
    out of the float range, rounds a whole side to zero, or leaves a
    forward-error bound above :data:`METHOD_AGREEMENT_TOL` times the
    side's largest coefficient (see :func:`_coefficients_and_bounds`).
    """
    if data is None:
        data = classify_mts(Z)
    if data.k_plus != data.k_minus:
        raise InputError("equal tangency orders on both sides are required")
    if params.k != data.k_plus:
        raise InputError(
            f"params.k={params.k} but the field has order k={data.k_plus}")
    if not 0 < params.epsilon < math.inf:
        raise InputError("epsilon must be positive and finite")
    validate_lambda(params.lam, params.k)
    k = params.k
    if k == 1:
        return PerturbationPolys(Poly1(), Poly1(), 0.0, 0.0)

    eps = float(params.epsilon)
    lam = [float(a) for a in params.lam]
    too = f"epsilon={eps:g} is too {'large' if eps > 1 else 'small'}"
    out_of_range = InputError(f"{too}: the perturbation leaves the float range")
    try:
        sides = _coefficients_and_bounds(Z, data, lam, eps)
        polys = [Poly1([0.0, *coeffs]) for coeffs, _, _ in sides]
        norms = [p.norm() for p in polys]
    except (OverflowError, ZeroDivisionError) as exc:
        raise out_of_range from exc
    for (name, _, _), (coeffs, bounds, least), p, norm in zip(
            Z.sides(), sides, polys, norms):
        if (least < sys.float_info.min
                or not all(map(math.isfinite, [*coeffs, *bounds, norm]))):
            raise out_of_range
        if p.is_zero():
            raise InputError(
                f"{too}: every perturbation coefficient of the {name} side "
                "rounds to zero")
        error = max(bounds) / p.max_abs_coeff()
        if error > METHOD_AGREEMENT_TOL:
            raise InputError(
                f"{too}: the perturbation coefficients carry a relative "
                f"error up to {error:.3e}")
    return PerturbationPolys(p_plus=polys[0], p_minus=polys[1],
                             norm_plus=norms[0], norm_minus=norms[1])


def build_unfolded(Z: PiecewiseField, polys: PerturbationPolys) -> PiecewiseField:
    """Add ``X * P(x)`` to each vertical component."""
    return PiecewiseField(**{
        name: SmoothField(f.X, f.Y + f.X * p.to_poly2())
        for (name, _, f), p in zip(Z.sides(), (polys.p_plus, polys.p_minus))})


def apply_shift(Z: PiecewiseField, b: float,
                convention: str = "minus") -> PiecewiseField:
    """Compose the upper field with ``x -> x - b`` (minus) or ``x + b`` (plus).

    The lower field is untouched.  Both sign conventions are supported;
    exactly one of them produces cycles for a given sign of ``b``, which
    downstream scans resolve empirically rather than assume.
    """
    if convention not in ("minus", "plus"):
        raise InputError(f"unknown shift convention {convention!r}")
    if not math.isfinite(b):
        raise InputError(f"shift b={b} is not a finite number")
    if b == 0:
        return Z
    try:
        upper = Z.upper.shift_x(-b if convention == "minus" else b)
        finite = max(upper.X.max_abs_coeff(), upper.Y.max_abs_coeff()) < math.inf
    except OverflowError:
        finite = False
    if not finite:
        raise InputError(
            f"shift b={b:g} is too large: the shifted field leaves the float range")
    return PiecewiseField(upper=upper, lower=Z.lower)


def unfolded_shifted(Z: PiecewiseField, params: UnfoldingParams,
                     data: MonodromyData | None = None):
    """The unfolded field and its ``b``-shifted copy, ``(Zu, Zb)``.

    For ``k = 1`` there is nothing to unfold and ``Zu`` is ``Z`` itself;
    ``data`` is passed on to :func:`build_perturbation`.
    """
    Zu = Z
    if params.k >= 2:
        Zu = build_unfolded(Z, build_perturbation(Z, params, data))
    return Zu, apply_shift(Zu, params.b, params.shift_convention)


# --- verifiers ---------------------------------------------------------------


def require_order(data: MonodromyData, k: int) -> None:
    """Both one-sided tangency orders must equal ``k``."""
    if data.k_plus != k or data.k_minus != k:
        raise InputError(
            f"field has orders ({data.k_plus}, {data.k_minus}), expected k={k}")


def census_data(Z: PiecewiseField, params: UnfoldingParams):
    """``(data, V2, limit)`` of a field whose unfolding is searched for cycles.

    Classifies ``Z`` and requires order ``params.k``, a nonzero ``V2`` and
    ordered nodes, in that order.  ``limit = (2k+1)/3 * V2`` is the value
    that the local ``V2`` of every invisible contact tends to; at ``k = 1``
    the factor is exactly 1.
    """
    data = classify_mts(Z)
    require_order(data, params.k)
    V2 = float(data.V2)
    # Absolute floor in units of 1/length (delta ~ V2 * x^2), set for
    # fields whose singularity has an O(1) neighbourhood.
    if abs(V2) < 1e-12:
        raise InputError("the second displacement coefficient vanishes")
    params.require_ordered()
    return data, V2, (2 * params.k + 1) / 3.0 * V2


def expected_invisible_indices(k: int) -> set:
    """Contact indices that are invisible when the nodes are ordered.

    Index 0 is the original singularity; for ``k = 1`` it is the only
    contact and stays invisible.  For ``k >= 2`` the invisible ones are
    index 1 and the even indices.
    """
    if k == 1:
        return {0}
    return {1} | set(range(2, 2 * k - 1, 2))


def verify_contact_ladder(Z_unfolded: PiecewiseField,
                          params: UnfoldingParams) -> LadderReport:
    """Check the grid of contacts produced by the unfolding.

    At the origin and at every ``epsilon * a_i``: the vertical components
    must vanish (residual below ``1e-9`` relative to coefficient scale),
    the contact must have multiplicity 2 on both sides, and the
    visible/invisible pattern must alternate as predicted for ordered
    nodes.  Raises :class:`VerificationMismatch` listing failing abscissas.
    """
    k = params.k
    params.require_ordered()
    invisible = expected_invisible_indices(k)
    points = [(0, 0.0)] + [
        (i + 1, params.epsilon * float(a)) for i, a in enumerate(params.lam)]

    sides = Z_unfolded.sides()
    restricted = [f.Y.restrict_sigma() for _, _, f in sides]
    tols = [_coeff_tol(p, LADDER_RESIDUAL_TOL) for p in restricted]

    records = []
    for index, x0 in points:
        expected = "invisible" if index in invisible else "visible"
        res = [abs(float(p(x0))) for p in restricted]
        mult = [None, None]
        vis = ["error", "error"]
        ok = all(r < tol for r, tol in zip(res, tols))
        try:
            for i, (name, _, f) in enumerate(sides):
                info = contact_info(f, x0, name)
                mult[i] = info.multiplicity
                if mult[i] == 2:
                    vis[i] = info.visibility
            ok = ok and mult == [2, 2] and vis == [expected, expected]
        except FilippovError as exc:  # classification failures are ladder failures
            vis = [f"error: {exc}"] * 2
            ok = False
        records.append(ContactRecord(
            index=index, x0=x0, residual_plus=res[0], residual_minus=res[1],
            mult_plus=mult[0], mult_minus=mult[1],
            vis_plus=vis[0], vis_minus=vis[1], expected=expected, ok=ok))

    report = LadderReport(contacts=records, ok=all(r.ok for r in records))
    if not report.ok:
        raise VerificationMismatch(
            f"contact ladder failed at abscissas {report.failures()}",
            report=report)
    return report


def _exactify_field(Z: PiecewiseField) -> PiecewiseField:
    def conv(p: Poly2) -> Poly2:
        return Poly2({key: Fraction(c) for key, c in p.terms.items()})

    return PiecewiseField(**{name: SmoothField(conv(f.X), conv(f.Y))
                             for name, _, f in Z.sides()})


def _rescaled_coefficient_curves(Z, k, lam):
    """``C_j(eps)`` sampled on the grid ``{h, h/2, h/4}`` with
    ``h = LEMMA1_STEP``, then the value and first derivative at zero from the
    quadratic through the samples."""
    import numpy as np

    data = classify_mts(Z)
    h = LEMMA1_STEP
    eps_grid = [h, h / 2, h / 4]
    n = 2 * k - 2
    samples = {"plus": [], "minus": []}
    for eps in eps_grid:
        params = UnfoldingParams(k=k, lam=tuple(lam), epsilon=eps)
        polys = build_perturbation(Z, params, data)
        for name, p in (("plus", polys.p_plus), ("minus", polys.p_minus)):
            samples[name].append(
                [float(p.coeff(j)) / eps ** (2 * k - 1 - j)
                 for j in range(1, n + 1)])
    V = np.vander(np.array(eps_grid), 3, increasing=True)  # [1, eps, eps^2]
    out = {}
    for name in ("plus", "minus"):
        mat = np.array(samples[name])  # shape (3, n)
        fit = np.linalg.solve(V, mat)  # rows: value, slope, curvature
        out[name] = (list(fit[0]), list(fit[1]))
    return data, out


def _side_coefficients(data: MonodromyData) -> list:
    """``(name, sigma, a, f0)`` per side, ``name`` the report suffix."""
    return [("plus", SIGMA["upper"], data.a_plus, data.f0_plus),
            ("minus", SIGMA["lower"], data.a_minus, data.f0_minus)]


def _exact_coefficient_curves(Z, k, lam):
    """Exact ``C_j(0)`` and ``dC_j/deps(0)`` from rational interpolation.

    At ``eps = 0`` the rescaled coefficients interpolate
    ``-sigma * delta * a * a_i^{2k-1}``; their first eps-derivatives
    interpolate ``-sigma * delta * f0 * a_i^{2k}``.  Both are plain
    interpolation problems through the origin over the rational node set,
    so residuals computed from them are exactly zero when they should be.
    """
    Zx = _exactify_field(Z)
    data = classify_mts(Zx)
    delta = data.delta
    lam_x = [Fraction(a) for a in lam]
    out = {}
    for name, sigma, a, f0 in _side_coefficients(data):
        rhs0 = [-sigma * delta * a * ai ** (2 * k - 1) for ai in lam_x]
        rhs1 = [-sigma * delta * f0 * ai ** (2 * k) for ai in lam_x]
        c0 = newton_through_origin(lam_x, rhs0)[1:]
        c1 = newton_through_origin(lam_x, rhs1)[1:]
        out[name] = (c0, c1)
    return data, out


def _poly_from_roots(leading, roots):
    p = Poly1([leading])
    for r in roots:
        p = p * Poly1([-r, 1])
    return p


def lemma1_check(Z: PiecewiseField, k: int, lam,
                 mode: str = "numeric") -> Lemma1Report:
    """Evaluate the identity system satisfied by ``C_j(0)`` and ``dC_j(0)``.

    Checks, with residuals reported rather than gated:

    * the two sum-rule identities relating ``s2`` to ``s1`` and ``s4`` to
      ``s3``/``s1`` at every node index;
    * the factorizations ``T(x) = sigma*delta*a*x*prod(x - a_j)`` and
      ``U(x) = sigma*delta*f0*x*(x - alpha)*prod(x - a_j)`` with
      ``alpha = -sum(a_j)``;
    * the cross-side proportionalities ``s1_minus = -(a_m/a_p) s1_plus``
      etc. (the ``f0`` ratios are skipped when ``f0_plus`` vanishes).

    ``mode="numeric"`` extrapolates the coefficient curves from the grid
    ``{h, h/2, h/4}`` with ``h =`` :data:`LEMMA1_STEP`; ``mode="exact"``
    recomputes them in rational arithmetic so that residuals are exactly
    zero for rational inputs.
    """
    if k < 2:
        raise InputError("the identity system needs k >= 2")
    validate_lambda(lam, k)
    if mode == "exact":
        data, curves = _exact_coefficient_curves(Z, k, lam)
    elif mode == "numeric":
        data, curves = _rescaled_coefficient_curves(Z, k, lam)
    else:
        raise InputError(f"unknown mode {mode!r}")
    require_order(data, k)

    delta = data.delta
    n = 2 * k - 2
    lam_v = list(lam)
    alpha = -sum(lam_v)
    sides = [(name, sigma * delta, a, f0)
             for name, sigma, a, f0 in _side_coefficients(data)]

    def s_sums(c0, dc, ai):
        s1 = sum((j + 1) * ai**j * c0[j] for j in range(n))
        s2 = sum((j + 1) * ai**j * dc[j] for j in range(n))
        s3 = sum((j + 1) * j * ai ** (j - 1) * c0[j] for j in range(1, n))
        s4 = sum((j + 1) * j * ai ** (j - 1) * dc[j] for j in range(1, n))
        return s1, s2, s3, s4

    entries = []
    cross = {"s1": [], "s2": [], "s3": [], "s4": []}
    a_ratio = data.a_minus / data.a_plus
    f0p_nonzero = abs(float(data.f0_plus)) > 1e-13
    f_ratio = (data.f0_minus / data.f0_plus) if f0p_nonzero else None

    for idx, ai in enumerate(lam_v, start=1):
        row = {}
        for name, sd, a, f0 in sides:
            s1, s2, s3, s4 = s_sums(*curves[name], ai)
            rhs2 = (f0 / a) * (
                (ai - alpha) * s1
                - sd * a * ai ** (2 * k - 1)
                - sd * (2 * k - 1) * a * alpha * ai ** (2 * k - 2))
            rhs4 = (f0 / a) * (
                (ai - alpha) * s3 + 2 * s1
                - sd * (2 * k - 2) * (2 * k - 1)
                * a * alpha * ai ** (2 * k - 3))
            row.update({f"s1_{name}": s1, f"s2_{name}": s2,
                        f"s3_{name}": s3, f"s4_{name}": s4,
                        f"s2_residual_{name}": abs(s2 - rhs2),
                        f"s4_residual_{name}": abs(s4 - rhs4)})
        entries.append(Lemma1Entry(index=idx, a_i=ai, **row))
        cross["s1"].append(abs(row["s1_minus"] + a_ratio * row["s1_plus"]))
        cross["s3"].append(abs(row["s3_minus"] + a_ratio * row["s3_plus"]))
        if f_ratio is not None:
            cross["s2"].append(abs(row["s2_minus"] + f_ratio * row["s2_plus"]))
            cross["s4"].append(abs(row["s4_minus"] + f_ratio * row["s4_plus"]))

    def poly_residual(built: Poly1, target: Poly1) -> float:
        diff = built - target
        return max((abs(float(c)) for c in diff.coeffs), default=0.0)

    fact = {}
    for name, sd, a, f0 in sides:
        c0, dc = curves[name]
        fact[f"T_{name}"] = poly_residual(
            Poly1([0, *c0, sd * a]), _poly_from_roots(sd * a, [0] + lam_v))
        fact[f"U_{name}"] = poly_residual(
            Poly1([0, *dc, 0, sd * f0]),
            _poly_from_roots(sd * f0, [0, alpha] + lam_v))
    cross_max = {
        "s1": max(cross["s1"]),
        "s3": max(cross["s3"]),
        "s2": max(cross["s2"]) if cross["s2"] else None,
        "s4": max(cross["s4"]) if cross["s4"] else None,
    }
    return Lemma1Report(
        alpha=alpha, c_plus=curves["plus"][0], c_minus=curves["minus"][0],
        dc_plus=curves["plus"][1], dc_minus=curves["minus"][1],
        entries=entries, factorization_residuals=fact,
        cross_side_residuals=cross_max, mode=mode)


def _slope(xs, ys) -> float:
    """Least-squares slope of the line through the points ``(xs, ys)``."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def local_V2_limit_check(Z: PiecewiseField,
                         params: UnfoldingParams) -> V2LimitReport:
    """Convergence of the per-contact ``V2`` toward ``(2k+1)/3 * V2``.

    The field is unfolded once per epsilon of a shrinking grid
    (:data:`V2_LIMIT_EPS_FACTORS`), and at every invisible contact index the
    local coefficient is classified at the moving contact point; the error
    against the limit must decay with fitted order at least
    :data:`V2_LIMIT_MIN_ORDER`.
    """
    k = params.k
    data, V2, limit = census_data(Z, params)
    if k < 2:
        raise InputError("the limit check needs an actual unfolding (k >= 2)")
    eps_grid = [params.epsilon * f for f in V2_LIMIT_EPS_FACTORS]
    unfolded = []  # per epsilon, built on first use
    rows = []
    for index in sorted(expected_invisible_indices(k)):
        a_i = float(params.lam[index - 1])
        abscissas, values, errors = [], [], []
        for j, eps in enumerate(eps_grid):
            if j == len(unfolded):
                polys = build_perturbation(Z, replace(params, epsilon=eps), data)
                unfolded.append(build_unfolded(Z, polys))
            v = float(local_V2(unfolded[j], eps * a_i))
            abscissas.append(eps * a_i)
            values.append(v)
            errors.append(abs(v - limit))
        order = _slope([math.log(e) for e in eps_grid],
                       [math.log(max(e, 1e-14)) for e in errors])
        rows.append(V2LimitRow(
            index=index, a_i=a_i, abscissas=abscissas, values=values,
            errors=errors, fitted_order=order,
            ok=order >= V2_LIMIT_MIN_ORDER))

    report = V2LimitReport(limit=limit, V2=V2, eps_grid=eps_grid, rows=rows,
                           ok=all(r.ok for r in rows))
    if not report.ok:
        bad = [r.index for r in report.rows if not r.ok]
        raise VerificationMismatch(
            f"local V2 convergence failed at contact indices {bad}",
            report=report)
    return report
