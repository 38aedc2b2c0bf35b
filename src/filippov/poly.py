"""Sparse bivariate and dense univariate polynomial arithmetic.

``Poly2`` represents every planar vector-field component as a canonical
sparse map from exponent pairs ``(i, j)`` to the coefficient of
``x^i y^j``.  ``Poly1`` holds ascending coefficients of a univariate
polynomial and backs everything that happens on the switching line
``y = 0``.

Coefficients are floats by default.  Every operation also accepts
``fractions.Fraction`` (or ``int``) coefficients, in which case arithmetic
is exact and canonicalization removes only true zeros; this mode exists so
that identity checks downstream can produce provably-zero residuals.
Values are immutable after construction: all operations return new objects.
"""

from __future__ import annotations

import math
import numbers
import sys
from fractions import Fraction

from .errors import DegreeCapExceeded, DuplicateTerm, InputError
from .roots import brent

# All constructions in this package need total degree <= 2k with k <= 4;
# the cap only guards against runaway arithmetic.
DEGREE_CAP = 64

# Float coefficients below this are treated as rounding debris and dropped.
DROP_TOL = 1e-14


def _keep(c) -> bool:
    if isinstance(c, (Fraction, int)):
        return c != 0
    return not abs(c) < DROP_TOL  # NaN is kept, never silently dropped


class Poly2:
    """Bivariate polynomial in canonical sparse form."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        canon = {}
        for (i, j), c in (terms or {}).items():
            i, j = int(i), int(j)
            if i < 0 or j < 0:
                raise InputError(f"negative exponent pair ({i}, {j})")
            if i + j > DEGREE_CAP:
                raise DegreeCapExceeded(
                    f"total degree {i + j} exceeds the cap {DEGREE_CAP}")
            if _keep(c):
                canon[(i, j)] = c
        self.terms = canon

    # -- construction ---------------------------------------------------

    @classmethod
    def from_triples(cls, triples) -> "Poly2":
        """Build from serialized ``[i, j, coefficient]`` triples.

        Duplicate exponent pairs are an input error, not an accumulation,
        and so are an exponent that is not an integer and a coefficient
        that is not a real number within the float range.
        """
        terms = {}
        for entry in triples:
            try:
                i, j, c = entry
            except (TypeError, ValueError) as exc:
                raise InputError(f"malformed monomial entry {entry!r}") from exc
            if not all(isinstance(e, numbers.Integral) and not isinstance(e, bool)
                       for e in (i, j)):
                raise InputError(f"exponents of {entry!r} must be integers")
            key = (int(i), int(j))
            finite = isinstance(c, numbers.Real) and abs(c) <= sys.float_info.max
            if isinstance(c, bool) or not finite:
                raise InputError(f"coefficient {c!r} of {key} is not a finite number")
            if key in terms:
                raise DuplicateTerm(f"duplicate exponent pair {key}")
            terms[key] = c
        return cls(terms)

    @classmethod
    def constant(cls, c) -> "Poly2":
        return cls({(0, 0): c})

    # -- queries ----------------------------------------------------------

    def max_abs_coeff(self) -> float:
        if not self.terms:
            return 0.0
        return max(abs(float(c)) for c in self.terms.values())

    def taylor_coeff(self, i: int, j: int):
        """Coefficient of ``x^i y^j`` (zero when absent)."""
        return self.terms.get((i, j), 0)

    def eval(self, x, y):
        total = 0
        for (i, j), c in self.terms.items():
            total += c * x**i * y**j
        return total

    # -- calculus ---------------------------------------------------------

    def partial(self, var: str) -> "Poly2":
        """Partial derivative with respect to ``var`` in ``{"x", "y"}``."""
        if var not in ("x", "y"):
            raise InputError(f"unknown variable {var!r}")
        out = {}
        for (i, j), c in self.terms.items():
            e = i if var == "x" else j
            if e:
                out[(i - 1, j) if var == "x" else (i, j - 1)] = c * e
        return Poly2(out)

    def shift_x(self, h) -> "Poly2":
        """Compose with the translation ``x -> x + h`` (binomial expansion)."""
        if h == 0:
            return self
        out = {}
        for (i, j), c in self.terms.items():
            for m in range(i + 1):
                key = (m, j)
                out[key] = out.get(key, 0) + c * math.comb(i, m) * h ** (i - m)
        return Poly2(out)

    def restrict_sigma(self) -> "Poly1":
        """Restriction to the switching line: the univariate ``p(x, 0)``."""
        if not self.terms:
            return Poly1()
        deg = max((i for (i, j) in self.terms if j == 0), default=-1)
        coeffs = [0] * (deg + 1)
        for (i, j), c in self.terms.items():
            if j == 0:
                coeffs[i] = c
        return Poly1(coeffs)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Poly2") -> "Poly2":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return Poly2(out)

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + -other

    def __neg__(self) -> "Poly2":
        return Poly2({key: -c for key, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly2):
            out = {}
            for (i1, j1), c1 in self.terms.items():
                for (i2, j2), c2 in other.terms.items():
                    key = (i1 + i2, j1 + j2)
                    out[key] = out.get(key, 0) + c1 * c2
            return Poly2(out)
        return Poly2({key: c * other for key, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly2(0)"
        parts = [f"{c!r}*x^{i}*y^{j}" for (i, j), c in sorted(self.terms.items())]
        return "Poly2(" + " + ".join(parts) + ")"

    def to_triples(self) -> list:
        """Serialized form: sorted ``[i, j, coefficient]`` triples."""
        return [[i, j, float(c)] for (i, j), c in sorted(self.terms.items())]


class Poly1:
    """Univariate polynomial with ascending coefficients, trailing nonzero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not _keep(cs[-1]):
            cs.pop()
        if len(cs) - 1 > DEGREE_CAP:
            raise DegreeCapExceeded(
                f"degree {len(cs) - 1} exceeds the cap {DEGREE_CAP}")
        self.coeffs = tuple(c if _keep(c) else 0 for c in cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, n: int):
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return 0

    def __call__(self, x):
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def max_abs_coeff(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(abs(float(c)) for c in self.coeffs)

    def norm(self) -> float:
        """Euclidean norm of the coefficient vector."""
        return math.sqrt(sum(float(c) ** 2 for c in self.coeffs))

    # -- calculus ---------------------------------------------------------

    def derivative(self) -> "Poly1":
        return Poly1([m * c for m, c in enumerate(self.coeffs)][1:])

    def times_x_power(self, n: int) -> "Poly1":
        if n == 0:
            return self
        return Poly1([0] * n + list(self.coeffs))

    def divide_x_power(self, n: int):
        """Exact division by ``x^n``.

        Returns ``(quotient, residual)`` where ``residual`` is the largest
        magnitude among the discarded low-order coefficients; callers decide
        whether that residual is acceptable.
        """
        if n == 0:
            return self, 0.0
        dropped = self.coeffs[:n]
        residual = max((abs(float(c)) for c in dropped), default=0.0)
        return Poly1(self.coeffs[n:]), residual

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Poly1") -> "Poly1":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly1([self.coeff(m) + other.coeff(m) for m in range(n)])

    def __sub__(self, other: "Poly1") -> "Poly1":
        return self + -other

    def __neg__(self) -> "Poly1":
        return Poly1([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Poly1):
            if self.is_zero() or other.is_zero():
                return Poly1()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly1(out)
        return Poly1([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly1) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly1({list(self.coeffs)!r})"

    def to_poly2(self) -> Poly2:
        """Promote to a bivariate polynomial in ``x`` alone."""
        return Poly2({(m, 0): c for m, c in enumerate(self.coeffs)})

    # -- real roots -------------------------------------------------------

    def real_roots(self, lo: float, hi: float) -> list:
        """All real roots in ``[lo, hi]``.

        Roots are isolated between the critical points of the polynomial
        (computed recursively) so every bracket carries at most one sign
        change, then solved by Brent's method.  Even-multiplicity roots are
        picked up as near-zero values at critical points.
        """
        if hi <= lo:
            return []
        cs = [float(c) for c in self.coeffs]
        p = Poly1(cs)
        deg = p.degree
        if deg <= 0:
            return []
        if deg == 1:
            r = -cs[0] / cs[1]
            return [r] if lo <= r <= hi else []

        cscale = max(abs(c) for c in cs)

        def near_zero(t, v):
            # Two scales: the evaluation's own rounding scale (so genuinely
            # tiny structure, roots ~1e-8 apart, stays resolvable) and a
            # floor for even-multiplicity roots, where the computed critical
            # point sits a few ulps off the touch point and the polynomial
            # is exactly nonzero there.
            scale = sum(abs(c * t**m) for m, c in enumerate(cs))
            floor = 1e-26 * cscale * max(1.0, abs(t)) ** deg
            return abs(v) <= max(1e-10 * scale, floor)

        crit = p.derivative().real_roots(lo, hi)
        pts = sorted(set([lo, hi] + crit))
        vals = [p(t) for t in pts]
        roots = [t for t, v in zip(pts, vals) if near_zero(t, v)]
        for (t0, v0), (t1, v1) in zip(zip(pts, vals), zip(pts[1:], vals[1:])):
            if near_zero(t0, v0) or near_zero(t1, v1):
                continue
            if (v0 < 0) == (v1 < 0):
                continue
            roots.append(brent(p, t0, t1))
        roots.sort()
        merged = []
        for r in roots:
            if merged and abs(r - merged[-1]) <= 1e-13 * max(1.0, abs(r)):
                continue
            merged.append(r)
        return merged

    def to_list(self) -> list:
        return [float(c) for c in self.coeffs]
