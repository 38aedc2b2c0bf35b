"""The canonical polynomial field family, with closed-form local data.

The bench and most tests build their fields from it because every quantity
of interest has a hand-computable value.
"""

from __future__ import annotations

from fractions import Fraction

from .field import PiecewiseField, SmoothField
from .poly import Poly2


def monodromic_family(k: int, c, exact: bool = False) -> PiecewiseField:
    """Invisible tangency pair of multiplicity ``2k`` on both sides.

    Upper field ``(1, -x^{2k-1} + c x^{2k})``, lower field
    ``(-1, -x^{2k-1})``.  Classification data: ``delta = 1``,
    ``a± = -1``, ``f0_plus = c``, ``f0_minus = 0``, ``g00± = 0`` and
    ``V2 = 2c / (2k + 1)``; the case ``c = 0`` is a center by the symmetry
    ``(x, t) -> (-x, -t)``.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    one = Fraction(1) if exact else 1.0
    cc = Fraction(c) if exact else float(c)
    upper = SmoothField(
        X=Poly2.constant(one),
        Y=Poly2({(2 * k - 1, 0): -one, (2 * k, 0): cc}),
    )
    lower = SmoothField(
        X=Poly2.constant(-one),
        Y=Poly2({(2 * k - 1, 0): -one}),
    )
    return PiecewiseField(upper=upper, lower=lower)
